import itertools
import random

import pytest

from absorder.signed import (
    CycleNotationError,
    SignedPermutation,
    absolute_length,
    balanced_cycle,
    coxeter_elements,
    cycle_decomposition,
    cycle_type,
    exponents,
    format_cycles,
    from_cycles,
    group_elements,
    group_order,
    identity,
    is_hook,
    is_member,
    mu_partition,
    paired_cycle,
    parse_cycles,
    reflection_set,
)


def test_images_and_negation():
    w = SignedPermutation((2, -1, 3))
    assert w(1) == 2 and w(2) == -1 and w(3) == 3
    assert w(-1) == -2 and w(-2) == 1


def test_composition_applies_right_factor_first():
    u = parse_cycles("((1,2))", 3)
    v = parse_cycles("[3]", 3)
    w = u * v
    assert w(3) == -3 and w(1) == 2


def test_composition_refuses_mixed_ranks():
    with pytest.raises(ValueError, match="ranks 3 and 2"):
        parse_cycles("[1]", 3) * parse_cycles("[1,2]", 2)


def test_inverse():
    w = parse_cycles("((1,-2,3))", 3)
    assert w * w.inverse() == identity(3)
    assert w.inverse() * w == identity(3)


def test_balanced_cycle_orbit():
    w = balanced_cycle((1, 2), 2)
    # orbit 1 -> 2 -> -1 -> -2 -> 1
    assert w(1) == 2 and w(2) == -1
    assert absolute_length(w, "B") == 2


def test_paired_cycle_orbit():
    w = paired_cycle((1, 2, 3), 3)
    assert w(1) == 2 and w(2) == 3 and w(3) == 1
    assert absolute_length(w, "B") == 2


def test_decomposition_splits_kinds_and_fixed_points():
    w = parse_cycles("[1,-7][3]((2,-6,-5))", 7)
    words = cycle_decomposition(w)
    assert words == (("balanced", (1, -7)), ("paired", (2, -6, -5)),
                     ("balanced", (3,)))
    # the fixed point 4 is left out
    assert set(range(1, 8)) - {abs(a) for _, e in words for a in e} == {4}
    assert absolute_length(w, "B") == 2 + 2 + 1


def test_canonical_word_starts_at_minimal_positive_letter():
    w = from_cycles([("paired", (5, -2, 4))], 5)
    (kind, entries), = cycle_decomposition(w)
    assert kind == "paired"
    assert entries[0] == 2
    assert entries[0] > 0


@pytest.mark.parametrize("kind,n", [("S", 5), ("B", 4), ("D", 4)])
def test_cycle_words_are_canonical_over_the_whole_group(kind, n):
    # each word starts at its least letter, positive, and the cycles ascend
    # by least letter, as the orbit walk finds them with no re-pass; the
    # words rebuild the element
    for w in group_elements(kind, n):
        words = cycle_decomposition(w)
        leads = [entries[0] for _, entries in words]
        assert leads == [min(map(abs, entries)) for _, entries in words], w.images
        assert leads == sorted(leads), w.images
        assert parse_cycles(format_cycles(w), n) == w
        assert from_cycles(words, n) == w


def test_format_parse_round_trip():
    for text in ("e", "[1]", "((1,2))[3]", "[1,-7]((2,-6,-5))[3]", "[1][2]"):
        n = 7
        w = parse_cycles(text, n)
        assert parse_cycles(format_cycles(w), n) == w


def test_parse_rejects_garbage():
    with pytest.raises(CycleNotationError):
        parse_cycles("[1,1]", 3)
    with pytest.raises(CycleNotationError, match="entry 1 appears more than once"):
        parse_cycles("((1,1))", 3)
    with pytest.raises(CycleNotationError, match="entry 1 appears in two cycles"):
        parse_cycles("((1,2))[1]", 3)
    with pytest.raises(CycleNotationError):
        parse_cycles("((1,9))", 3)
    with pytest.raises(CycleNotationError):
        parse_cycles("(1,2)", 3)


def test_membership():
    w = parse_cycles("((1,2))", 3)
    assert is_member(w, "S") and is_member(w, "B") and is_member(w, "D")
    flip = parse_cycles("[1]", 3)
    assert not is_member(flip, "S") and not is_member(flip, "D")
    two_flips = parse_cycles("[1][2]", 3)
    assert is_member(two_flips, "D") and not is_member(two_flips, "S")


def test_absolute_length_by_kind():
    w = parse_cycles("((1,2,3))", 4)
    assert absolute_length(w, "S") == 2
    assert absolute_length(w, "B") == 2
    assert absolute_length(w, "D") == 2
    d = parse_cycles("[1][2]", 3)
    assert absolute_length(d, "B") == 2
    assert absolute_length(d, "D") == 2


def test_reflection_counts():
    assert len(reflection_set("S", 4)) == 6
    assert len(reflection_set("B", 3)) == 9
    assert len(reflection_set("D", 4)) == 12


def test_group_orders_and_enumeration():
    assert group_order("S", 4) == 24
    assert group_order("B", 3) == 48
    assert group_order("D", 4) == 192
    for kind, n in itertools.product("SBD", range(6)):
        elements = list(group_elements(kind, n))
        assert len(elements) == group_order(kind, n)
        assert len(set(elements)) == len(elements)
        assert all(is_member(w, kind) for w in elements)


def test_group_order_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown group kind"):
        group_order("X", 3)


def test_exponents():
    assert exponents("S", 4) == (1, 2, 3)
    assert exponents("B", 3) == (1, 3, 5)
    assert exponents("D", 4) == (1, 3, 5, 3)


def test_coxeter_elements_have_rank_length():
    for kind, n in (("S", 4), ("B", 3), ("D", 3)):
        cs = list(coxeter_elements(kind, n))
        assert cs
        rank = len(exponents(kind, n))
        assert all(absolute_length(c, kind) == rank for c in cs)
        assert all(is_member(c, kind) for c in cs)


def test_mu_partition_and_hooks():
    w = parse_cycles("[1,-5][2,7][6]((3,4))", 8)
    assert mu_partition(w) == (2, 2, 1)
    assert mu_partition(parse_cycles("((1,2))", 3)) == ()
    assert mu_partition(parse_cycles("[1,2,3]", 3)) == (3,)
    assert is_hook(()) and is_hook((4,)) and is_hook((3, 1, 1))
    assert not is_hook((2, 2)) and not is_hook((3, 2, 1))


def test_identity_formatting():
    assert format_cycles(identity(3)) == "e"
    assert parse_cycles("e", 3) == identity(3)


def _cycle_type_from_decomposition(w):
    words = cycle_decomposition(w)
    fixed = w.n - sum(len(entries) for _, entries in words)
    paired = [len(e) for kind, e in words if kind == "paired"] + [1] * fixed
    balanced = [len(e) for kind, e in words if kind == "balanced"]
    return tuple(sorted(paired)), tuple(sorted(balanced))


@pytest.mark.parametrize("kind,n", [("B", 5), ("D", 5), ("S", 6)])
def test_cycle_type_matches_cycle_decomposition(kind, n):
    for w in group_elements(kind, n):
        assert cycle_type(w) == _cycle_type_from_decomposition(w), w


def test_cycle_type_matches_on_seeded_b7_elements():
    rng = random.Random(20261018)
    for _ in range(500):
        perm = rng.sample(range(1, 8), 7)
        w = SignedPermutation(rng.choice((1, -1)) * a for a in perm)
        assert cycle_type(w) == _cycle_type_from_decomposition(w), w


def test_cycle_type_is_the_conjugacy_class():
    group = list(group_elements("B", 4))
    classes = {}
    for w in group:
        classes.setdefault(cycle_type(w), set()).add(w)
    for members in classes.values():
        w = next(iter(members))
        assert {g * w * g.inverse() for g in group} == members
    # B4 has one class per pair of partitions of total size 4
    assert len(classes) == 20
