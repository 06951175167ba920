"""The cover-built Poset against the definitional order, and its reach.

`Poset` closes the covers of a convex set; `subposet` restricts masks.
Both are compared here with the all-pairs `abs_leq` relation and the
`covers` generator, which share no code with either.
"""

import random
import time

import pytest

from absorder import order
from absorder.invariants import (build_coxeter_interval, build_flip_interval,
                                 rank_generating_function)
from absorder.order import (
    POSET_GUARD,
    Poset,
    ResourceGuardError,
    abs_leq,
    bits,
    build_ideal,
    build_interval,
    covers,
    coxeter_ideal,
    full_poset,
)
from absorder.signed import group_order

SEED = 20260816


def _seeded_ideal(kind, n, rng):
    ambient = full_poset(kind, n)
    gens = rng.sample(ambient.elements, 3)
    return build_ideal(gens, kind)


def _seeded_pair(ambient, rng):
    """Endpoints u < v of an interval whose bottom is not the identity."""
    while True:
        i, j = rng.randrange(len(ambient)), rng.randrange(len(ambient))
        if i != j and ambient.leq(i, j) and ambient.rank[i] > 0:
            return ambient.elements[i], ambient.elements[j]


def _seeded_interval(kind, n, rng):
    return build_interval(*_seeded_pair(full_poset(kind, n), rng), kind)


def _builders():
    cases = []
    for kind in ("S", "B", "D"):
        for n in range(2, 5):
            cases.append((f"full-{kind}{n}", lambda k=kind, m=n: full_poset(k, m)))
    for n in range(2, 5):
        cases.append((f"coxeter-ideal-S{n}", lambda m=n: coxeter_ideal(m, "S")))
        cases.append((f"coxeter-ideal-B{n}", lambda m=n: coxeter_ideal(m, "B")))
        cases.append((f"coxeter-interval-{n}", lambda m=n: build_coxeter_interval(m)))
        cases.append((f"flip-interval-{n}", lambda m=n: build_flip_interval(m)))
    for kind, n in (("B", 3), ("D", 4), ("B", 4)):
        cases.append((f"seeded-ideal-{kind}{n}",
                      lambda k=kind, m=n: _seeded_ideal(k, m, random.Random(SEED))))
        cases.append((f"seeded-interval-{kind}{n}",
                      lambda k=kind, m=n: _seeded_interval(k, m, random.Random(SEED))))
    return cases


CASES = _builders()


def _oracle_below(p):
    k = len(p)
    return [sum(1 << i for i in range(k)
                if abs_leq(p.elements[i], p.elements[j], p.kind))
            for j in range(k)]


def _transpose(masks):
    out = [0] * len(masks)
    for j, mask in enumerate(masks):
        for i in bits(mask):
            out[i] |= 1 << j
    return out


@pytest.mark.parametrize("name,build", CASES, ids=[name for name, _ in CASES])
def test_cover_closure_matches_all_pairs_order(name, build):
    p = build()
    below = _oracle_below(p)
    assert p.below == below, name
    assert p.above == _transpose(below), name
    for i, w in enumerate(p.elements):
        expected = sorted(p.index[c] for c in covers(w, p.kind) if c in p.index)
        assert p.hasse_up[i] == expected, (name, i)


def test_interval_members_are_those_between_the_endpoints():
    rng = random.Random(SEED)
    for kind, n in (("B", 3), ("D", 4), ("S", 4)):
        ambient = full_poset(kind, n)
        for _ in range(5):
            u, v = _seeded_pair(ambient, rng)
            between = {z for z in ambient.elements
                       if abs_leq(u, z, kind) and abs_leq(z, v, kind)}
            assert set(build_interval(u, v, kind).elements) == between


def test_building_makes_no_abs_leq_call(monkeypatch):
    calls = []

    def counting_leq(u, v, kind="B"):
        calls.append((u, v))
        return abs_leq(u, v, kind)

    monkeypatch.setattr(order, "abs_leq", counting_leq)
    b3 = full_poset("B", 3)
    coxeter_ideal(4, "B")
    build_ideal(b3.elements[-3:], "B")
    Poset(list(b3.elements), "B", "direct")
    b3.subposet(range(0, len(b3), 2))
    assert calls == []
    build_interval(b3.elements[1], b3.elements[-1], "B")
    assert len(calls) == 1  # only the u <= v precondition


def test_subposet_is_the_induced_order_on_nonconvex_sets():
    rng = random.Random(SEED)
    for kind, n in (("B", 3), ("D", 4), ("S", 4)):
        ambient = full_poset(kind, n)
        for _ in range(6):
            keep = rng.sample(range(len(ambient)), rng.randint(1, len(ambient) // 2))
            sub = ambient.subposet(keep, label="sample")
            assert sub.elements == [ambient.elements[i] for i in sorted(keep)]
            assert min(sub.rank) == 0
            below = _oracle_below(sub)
            assert sub.below == below
            assert sub.above == _transpose(below)
            for i in range(len(sub)):
                strict_up = [j for j in range(len(sub)) if j != i and sub.leq(i, j)]
                expected = [j for j in strict_up
                            if not any(sub.leq(m, j) for m in strict_up if m != j)]
                assert sub.hasse_up[i] == expected


@pytest.mark.parametrize("kind,n", [("B", 5), ("S", 7), ("D", 5)])
def test_reach_rank_sizes_match_generating_function(kind, n):
    p = full_poset(kind, n)
    assert len(p) == group_order(kind, n) <= POSET_GUARD
    assert p.rank_sizes() == rank_generating_function(kind, n)


@pytest.mark.parametrize("kind,n", [("B", 6), ("D", 6), ("S", 8)])
def test_full_poset_guard_refuses_before_generating(monkeypatch, kind, n):
    def no_elements(*args):
        raise AssertionError("elements generated past the guard")

    monkeypatch.setattr(order, "group_elements", no_elements)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match=str(group_order(kind, n))):
        full_poset(kind, n)
    assert time.perf_counter() - start < 1.0
