"""The cover-built Poset against the definitional order, and its reach.

`Poset` closes the covers of a convex set.  It is compared here with the
all-pairs `abs_leq` relation and the `covers` generator, which share no
code with it.
"""

import random
import time

import pytest

from absorder import order, signed
from absorder.invariants import (build_coxeter_interval, build_flip_interval,
                                 rank_generating_function)
from absorder.order import (
    POSET_GUARD,
    Poset,
    ResourceGuardError,
    _resolve,
    abs_leq,
    bits,
    build_ideal,
    build_interval,
    covers,
    coxeter_ideal,
    full_poset,
)
from absorder.signed import (SignedPermutation, balanced_cycle,
                             group_elements, group_order, identity,
                             parse_cycles)
from test_oracles import _hasse_lower_covers

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


def test_cover_walk_work_stays_at_its_counts(monkeypatch):
    # the search records each element's lower covers and the Poset reads
    # that record, so every builder makes one `_lower_covers` call per
    # element (the interval's calls run on [e, u^-1 v], of the same size)
    rng = random.Random(SEED)
    ambients = {kind: full_poset(kind, 4) for kind in "SBD"}
    pairs = {kind: _seeded_pair(p, rng) for kind, p in ambients.items()}
    gens = {kind: rng.sample(p.elements, 3) for kind, p in ambients.items()}
    calls = []
    right = order._lower_covers

    def counting(images, kind="B"):
        calls.append(images)
        return right(images, kind)

    monkeypatch.setattr(order, "_lower_covers", counting)
    for kind, ambient in ambients.items():
        e, top = ambient.elements[0], ambient.elements[-1]
        for build in (lambda: full_poset(kind, 4),
                      lambda: build_interval(e, top, kind),
                      lambda: build_interval(*pairs[kind], kind),
                      lambda: build_ideal(gens[kind], kind),
                      lambda: coxeter_ideal(4, kind)):
            calls.clear()
            p = build()
            assert len(calls) == len(set(calls)) == len(p), (kind, p.label)


def test_building_makes_no_abs_leq_call(monkeypatch):
    calls = []

    def counting_leq(u, v, kind="B"):
        calls.append((u, v))
        return abs_leq(u, v, kind)

    monkeypatch.setattr(order, "abs_leq", counting_leq)
    b3 = full_poset("B", 3)
    coxeter_ideal(4, "B")
    build_ideal(b3.elements[-3:], "B")
    Poset({w: order._lower_covers(w, "B") for w in b3.elements},
          "B", "direct")
    assert calls == []
    build_interval(b3.elements[1], b3.elements[-1], "B")
    assert len(calls) == 1  # only the u <= v precondition


def test_enumerating_d4_walks_no_orbit(monkeypatch):
    # D_n keeps the sign vectors with evenly many -1, where every element
    # of B_n was built and its orbits walked (384 walks for D4)
    calls = []
    right = signed._orbits

    def counting(images):
        calls.append(images)
        return right(images)

    monkeypatch.setattr(signed, "_orbits", counting)
    assert len(list(group_elements("D", 4))) == group_order("D", 4)
    assert calls == []


def test_interval_from_the_identity_is_not_translated(monkeypatch):
    # the u <= v test and u^-1 v are the only products; translating the
    # 252 members of [e, c] by e made 254
    calls = []
    right = SignedPermutation.__mul__

    def counting(self, other):
        calls.append(other)
        return right(self, other)

    monkeypatch.setattr(SignedPermutation, "__mul__", counting)
    p = build_interval(identity(5), balanced_cycle((1, 2, 3, 4, 5), 5), "B")
    assert len(p) == 252
    assert len(calls) <= 2


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


BUILDERS = {
    "full-B3": lambda: full_poset("B", 3),
    "interval-from-e": lambda: build_interval(
        identity(4), parse_cycles("[1,2,3][4]", 4), "B"),
    "interval-from-u": lambda: build_interval(
        parse_cycles("((1,2))", 4), parse_cycles("[1,2,3,4]", 4), "B"),
    "ideal": lambda: build_ideal([parse_cycles("[1,2]((3,4))", 4),
                                  parse_cycles("((1,-3,4))", 4)], "B"),
    "coxeter-ideal-D4": lambda: coxeter_ideal(4, "D"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_every_builder_yields_elements_found_from_their_tuples(name):
    p = BUILDERS[name]()
    assert len(p.index) == len(p) > 1
    for i, w in enumerate(p.elements):
        assert type(w) is SignedPermutation, name
        plain = tuple(w)
        assert type(plain) is tuple
        assert p.index[w] == p.index[plain] == i
        assert _resolve(p, w) == _resolve(p, plain) == i


@pytest.mark.parametrize("name", BUILDERS)
def test_every_builder_keeps_lower_covers_as_the_transpose(name):
    p = BUILDERS[name]()
    assert p.hasse_down == _hasse_lower_covers(p), name


def test_a_record_with_covers_outside_keeps_only_member_lower_covers():
    # [((1,2)), [1,2,3]] recorded with every lower cover of each member:
    # those of ((1,2)) and of its upper covers reach e and the atoms
    members = build_interval(parse_cycles("((1,2))", 3),
                             parse_cycles("[1,2,3]", 3), "B").elements
    p = Poset({w: order._lower_covers(w, "B") for w in members}, "B", "record")
    assert p.hasse_down[0] == [] and p.hasse_down[-1]
    assert p.hasse_down == _hasse_lower_covers(p)
