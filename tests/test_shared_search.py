"""Orbit-count reflection length and the shared downward search.

`absolute_length` and D-membership count the orbits that `_orbits` walks.
Their reference is their definition: the fewest reflections whose product
is the element, found by breadth-first search from the identity, and the
elements of B_n that such a search over D_n's reflections reaches.  They
are also read off the words of `cycle_decomposition`, which come from the
same `_orbits` walk and so are a consistency check, not a reference.  The
shared search behind `build_ideal` is compared with separate per-generator
searches and with the `abs_leq` filter of the whole group, and its guard is
checked at the first rank it must refuse.
"""

import random
import time

import pytest

from absorder.order import (
    POSET_GUARD,
    ResourceGuardError,
    abs_leq,
    build_ideal,
    build_interval,
    coxeter_ideal,
    elements_below,
)
from absorder.signed import (
    SignedPermutation,
    absolute_length,
    balanced_cycle,
    coxeter_elements,
    cycle_decomposition,
    group_elements,
    group_order,
    identity,
    is_member,
    reflection_set,
)

SEED = 20261018


def _random_signed(rng, n):
    perm = rng.sample(range(1, n + 1), n)
    return SignedPermutation(rng.choice((1, -1)) * a for a in perm)


def _check_against_cycles(w, kind):
    # a balanced word costs one reflection per letter, a paired one less
    words = cycle_decomposition(w)
    assert absolute_length(w, kind) == sum(len(entries) - (k == "paired")
                                           for k, entries in words)
    assert is_member(w, "D") == (sum(k == "balanced" for k, _ in words) % 2 == 0)


@pytest.mark.parametrize("kind,n", [("S", 5), ("B", 4), ("D", 4)])
def test_length_matches_cycle_decomposition(kind, n):
    for w in group_elements(kind, n):
        _check_against_cycles(w, kind)


def test_length_matches_on_seeded_b7_elements():
    rng = random.Random(SEED)
    for _ in range(500):
        _check_against_cycles(_random_signed(rng, 7), "B")


def _reflection_distances(kind, n):
    """Each element's distance from e in the Cayley graph of the kind's
    reflections: the fewest reflections whose product is the element."""
    reflections = reflection_set(kind, n)
    distance = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for t in reflections:
                wt = w * t
                if wt not in distance:
                    distance[wt] = distance[w] + 1
                    nxt.append(wt)
        frontier = nxt
    return distance


@pytest.mark.parametrize("kind,n", [("S", 5), ("B", 4), ("D", 4), ("B", 5),
                                    ("D", 5)])
def test_length_is_the_fewest_reflections(kind, n):
    distance = _reflection_distances(kind, n)
    assert len(distance) == group_order(kind, n)
    for w, d in distance.items():
        assert absolute_length(w, kind) == d, w
    if kind == "D":
        for w in group_elements("B", n):
            assert is_member(w, "D") == (w in distance), w


def test_length_still_rejects_elements_outside_the_kind():
    flip = balanced_cycle((1,), 3)
    with pytest.raises(ValueError, match="is not in kind S"):
        absolute_length(flip, "S")
    with pytest.raises(ValueError, match="is not in kind D"):
        absolute_length(flip, "D")
    with pytest.raises(ValueError, match="unknown group kind"):
        absolute_length(flip, "A")
    assert absolute_length(flip, "B") == 1


def _filtered_ideal(gens, kind, n):
    return {w for w in group_elements(kind, n)
            if any(abs_leq(w, g, kind) for g in gens)}


def _separate_searches(gens, kind):
    return set().union(*(elements_below([g], kind) for g in gens))


@pytest.mark.parametrize("kind,n", [("B", 4), ("D", 4)])
def test_coxeter_ideal_is_the_union_of_principal_ideals(kind, n):
    gens = list(coxeter_elements(kind, n))
    shared = {w for w in coxeter_ideal(n, kind).elements}
    assert shared == _separate_searches(gens, kind)
    assert shared == _filtered_ideal(gens, kind, n)


@pytest.mark.parametrize("kind,n", [("S", 5), ("B", 4), ("D", 4)])
def test_seeded_ideals_match_separate_searches_and_filter(kind, n):
    rng = random.Random(SEED)
    group = list(group_elements(kind, n))
    for size in (1, 2, 3, 5):
        gens = rng.sample(group, size)
        shared = {w for w in build_ideal(gens, kind).elements}
        assert shared == _separate_searches(gens, kind)
        assert shared == _filtered_ideal(gens, kind, n)


def test_guard_refuses_the_b6_coxeter_ideal_quickly():
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError) as info:
        coxeter_ideal(6, "B")
    assert time.perf_counter() - start < 2.0
    message = str(info.value)
    assert "downward search" in message and "kind B" in message
    assert f"guard {POSET_GUARD}" in message


def test_guard_bounds_intervals():
    # [e, -1] in B7 has 6,512 elements; in B8 it passes the guard.
    assert len(build_interval(identity(7), SignedPermutation(range(-1, -8, -1)),
                              "B")) == 6512
    with pytest.raises(ResourceGuardError):
        build_interval(identity(8), SignedPermutation(range(-1, -9, -1)), "B")


def test_b5_coxeter_ideal_still_builds():
    assert len(coxeter_ideal(5, "B")) == 2634
