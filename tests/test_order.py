import random

import pytest

from absorder.order import (
    Poset,
    ResourceGuardError,
    _fibers,
    _graded,
    _lower_covers,
    abs_leq,
    build_ideal,
    bits,
    build_interval,
    covers,
    covers_by_pattern,
    cover_lifting_ok,
    coxeter_ideal,
    elements_below,
    fiber_ideal_identity_ok,
    full_poset,
    project_pi,
    sn_leq_noncrossing,
)
from absorder.lattice import _maximal_of
from absorder.signed import (SignedPermutation, format_cycles, group_order,
                             identity, parse_cycles)
from absorder.topology import appendix_ideal_checks


def test_leq_by_length_additivity():
    e = identity(2)
    t = parse_cycles("((1,2))", 2)
    top = parse_cycles("[1,2]", 2)
    assert abs_leq(e, t) and abs_leq(t, top) and abs_leq(e, top)
    assert not abs_leq(top, t)
    flip = parse_cycles("[1]", 2)
    assert abs_leq(flip, top)


def test_flip_below_flip_product():
    # the missing factor is itself a reflection in both cases
    assert abs_leq(parse_cycles("[1]", 2), parse_cycles("[1][2]", 2))
    assert abs_leq(parse_cycles("((1,2))", 2), parse_cycles("[1][2]", 2))


def test_covers_match_pattern_surgery():
    for n in (2, 3):
        for w in full_poset("B", n).elements:
            assert covers(w, "B") == covers_by_pattern(w), format_cycles(w)


def test_noncrossing_agreement_small():
    p = full_poset("S", 4)
    for u in p.elements:
        for v in p.elements:
            assert abs_leq(u, v, "S") == sn_leq_noncrossing(u, v)


def test_poset_shape():
    p = full_poset("B", 2)
    assert len(p) == 8
    assert p.rank_sizes() == (1, 4, 3)
    assert p.height() == 2
    assert p.bottom() is not None and p.top() is None
    assert not p.is_bounded()
    assert _graded(p, (1 << len(p)) - 1)
    assert len(_maximal_of(p, (1 << len(p)) - 1)) == 3


def test_bottom_requires_domination():
    # two incomparable elements: unique shortest is not below the other
    members = [parse_cycles(text, 2) for text in ("[1]", "[1,2]", "[2]")]
    sub = Poset({w: _lower_covers(w, "B") for w in members},
                "B", "test")
    assert sub.bottom() is None


def test_interval_is_bounded_and_graded():
    iv = build_interval(identity(3), parse_cycles("[1,2,3]", 3), "B")
    assert iv.is_bounded()
    assert iv.rank_sizes() == (1, 9, 9, 1)
    assert iv.maximal_chain_count() == 27


def test_interval_rejects_incomparable_ends():
    with pytest.raises(ValueError):
        build_interval(parse_cycles("[1]", 2), parse_cycles("((1,2))", 2), "B")


@pytest.mark.parametrize("refused,ranks", [
    (lambda: build_interval(identity(3), parse_cycles("[1,2]", 2), "B"),
     "3 and 2"),
    (lambda: abs_leq(parse_cycles("[1]", 3), parse_cycles("[1]", 2)),
     "3 and 2"),
    (lambda: build_interval(identity(2), parse_cycles("[1,2,3]", 3), "B"),
     "2 and 3"),
    (lambda: build_ideal([parse_cycles("[1]", 2), parse_cycles("[1]", 3)],
                         "B"), "2 and 3"),
], ids=["interval-lower-top", "abs-leq", "interval-higher-top", "ideal"])
def test_mixed_ranks_are_refused(refused, ranks):
    with pytest.raises(ValueError, match=f"ranks {ranks}"):
        refused()


def test_chain_counts_triangle():
    iv = build_interval(identity(2), parse_cycles("[1,2]", 2), "B")
    counts = iv.chain_counts()
    # 6 elements; chains with 2 elements = comparable pairs
    assert counts[0] == 1 and counts[1] == 6
    assert counts[2] == 4 + 4 + 1  # e<t, t<top, e<top
    assert counts[3] == 4


def test_elements_below_is_principal_ideal():
    w = parse_cycles("[1][2]", 2)
    below = elements_below([w], "B")
    assert {format_cycles(SignedPermutation(z)) for z in below} == {
        "e", "[1]", "[2]", "((1,2))", "((1,-2))", "[1][2]"}


def test_build_ideal_union():
    p = build_ideal([parse_cycles("[1]", 2), parse_cycles("((1,2))", 2)], "B")
    assert len(p) == 3
    assert p.height() == 1
    # generators given as image tuples, as `build_interval` takes its ends
    assert build_ideal([(-1, 2), (2, 1)], "B").elements == p.elements


def test_coxeter_ideal_sizes():
    assert len(coxeter_ideal(2, "B")) == 7
    assert len(coxeter_ideal(3, "B")) == 38
    assert len(full_poset("S", 3)) == 6


@pytest.mark.parametrize("n", range(6))
def test_coxeter_ideal_of_a_symmetric_group_is_all_of_it(n):
    # the same elements in the same order: gf --crosscheck and verify's
    # Euler claims build S_n as its Coxeter ideal
    ideal, group = coxeter_ideal(n, "S"), full_poset("S", n)
    assert ideal.elements == group.elements
    assert ideal.hasse_up == group.hasse_up


def test_trivial_groups_have_the_identity_as_coxeter_element():
    for kind, n in (("B", 0), ("D", 0), ("D", 1)):
        assert coxeter_ideal(n, kind).elements == [identity(n)]
    assert group_order("D", 0) == 1
    assert [group_order("D", n) for n in range(1, 4)] == [1, 4, 24]


def translate_interval(u, v, kind="B"):
    """The bijection z -> u^{-1} z from [u, v] onto [e, u^{-1} v].

    Returns (mapping, ok): ok confirms, pair by pair against abs_leq, that
    the map is an order isomorphism onto the target interval.
    """
    source = build_interval(u, v, kind)
    uinv = u.inverse()
    target = build_interval(identity(u.n), uinv * v, kind)
    mapping = {z: uinv * z for z in source.elements}
    ok = set(mapping.values()) == set(target.elements) and all(
        source.leq(i, j) == abs_leq(mapping[zi], mapping[zj], kind)
        for i, zi in enumerate(source.elements)
        for j, zj in enumerate(source.elements))
    return mapping, ok


def _translate_case(kind, draw):
    """Endpoints u < v, u not the identity: the literal B3 pair, or a seeded
    u in the group of rank 4 with a seeded v of top rank above it."""
    if draw is None:
        return parse_cycles("((1,2))", 3), parse_cycles("[1,2,3]", 3)
    rng = random.Random(20261019 + draw)
    ambient = full_poset(kind, 4)
    i = rng.choice([k for k, r in enumerate(ambient.rank) if 0 < r < 4])
    tops = [j for j in bits(ambient.above[i]) if ambient.rank[j] == 4]
    return ambient.elements[i], ambient.elements[rng.choice(tops)]


def _left_translate(u, p):
    """The Poset on u z for z in p, covered as p is, built afresh."""
    moved = [u * z for z in p.elements]
    lower = {z: [] for z in moved}
    for i, ups in enumerate(p.hasse_up):
        for j in ups:
            lower[moved[j]].append(moved[i])
    return Poset(lower, p.kind, p.label)


TRANSLATE_CASES = [("B", None)] + [(kind, draw) for kind in "BD"
                                   for draw in range(3)]


def test_translate_interval_is_isomorphism():
    for kind, draw in TRANSLATE_CASES:
        u, v = _translate_case(kind, draw)
        mapping, ok = translate_interval(u, v, kind)
        assert ok, (kind, draw)
        source = build_interval(u, v, kind)
        assert len(mapping) == len(source)
        # [u, v] is the left translate by u of [e, u^-1 v], whose cover
        # record is taken as it is
        target = build_interval(identity(u.n), u.inverse() * v, kind)
        translate = _left_translate(u, target)
        for field in ("elements", "rank", "below", "above", "hasse_up",
                      "hasse_down"):
            assert getattr(source, field) == getattr(translate, field), \
                (kind, draw, field)


def test_projection_deletes_letter():
    w = parse_cycles("[1,2,3]", 3)
    assert format_cycles(project_pi(w, 3)) == "[1,2]"
    assert format_cycles(project_pi(w, 2)) == "[1,3]"
    fixed = parse_cycles("((1,2))", 3)
    assert project_pi(fixed, 3) == fixed


def test_fibers_split_by_moved_flag():
    ambient = full_poset("B", 3)
    fibers = _fibers(ambient, 3)
    fixed, moved = fibers[parse_cycles("[1,2]", 3)]
    assert {format_cycles(ambient.elements[i]) for i in bits(fixed)} == {"[1,2]"}
    assert parse_cycles("[1,2,3]", 3) in {ambient.elements[i] for i in bits(moved)}
    assert all(ambient.elements[i](3) != 3 for i in bits(moved))
    # every element lies in exactly one fiber
    masks = [mask for pair in fibers.values() for mask in pair]
    assert sum(masks) == (1 << len(ambient)) - 1
    assert sum(mask.bit_count() for mask in masks) == len(ambient)


def test_fiber_ideal_smallest_case():
    checks = {c.name: c for c in appendix_ideal_checks(coxeter_ideal(2, "B"))}
    over_e = checks["fiber ideal over e"]
    assert (over_e.size, over_e.rank, over_e.expected_rank) == (4, 1, 1)
    assert over_e.ok()


@pytest.mark.parametrize("law", [cover_lifting_ok, fiber_ideal_identity_ok])
def test_fiber_laws_refuse_kind_d(law):
    # deleting a letter leaves D_n: [1][2] projects to [2]
    with pytest.raises(ValueError, match="no fibers in kind D"):
        law(full_poset("D", 3))


def test_cover_lifting_small_scopes():
    assert cover_lifting_ok(full_poset("S", 3))
    assert cover_lifting_ok(coxeter_ideal(3, "B"))


def test_fiber_ideal_identity_small_scopes():
    assert fiber_ideal_identity_ok(full_poset("S", 3))
    assert fiber_ideal_identity_ok(coxeter_ideal(3, "B"))


def test_to_dot_mentions_every_element():
    p = full_poset("B", 2)
    dot = p.to_dot()
    for w in p.elements:
        assert format_cycles(w) in dot
