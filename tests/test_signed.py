import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from absorder import (build_ideal, build_interval, coxeter_ideal, full_poset,
                      predict_lattice, signed)
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
    is_member,
    paired_cycle,
    parse_cycles,
    reflection_set,
    signed_cycle_types,
)


def test_images_and_negation():
    w = SignedPermutation((2, -1, 3))
    assert w(1) == 2 and w(2) == -1 and w(3) == 3
    assert w(-1) == -2 and w(-2) == 1


def test_an_element_is_its_image_tuple():
    w = SignedPermutation((2, -1, 3))
    assert isinstance(w, tuple) and w == (2, -1, 3)
    assert hash(w) == hash((2, -1, 3))
    assert {w: "w"}[(2, -1, 3)] == "w" and {(2, -1, 3)} == {w}
    assert len(w) == w.n == 3
    assert type(w[1:]) is tuple and w[1:] == (-1, 3)
    assert type(w[::-1]) is tuple and w[::-1] == (3, -1, 2)
    assert type(2 * w) is tuple and type(w + (4,)) is tuple


def test_an_element_composes_with_a_plain_tuple():
    u = SignedPermutation((2, 1))
    assert u * (2, 1) == identity(2)
    assert type(u * (2, 1)) is SignedPermutation
    assert u * (-1, 2) == u * SignedPermutation((-1, 2)) == (-2, 1)
    with pytest.raises(ValueError):
        u * (1, 2, 3)


def test_an_element_times_a_number_is_unsupported():
    # an operand with no length is left to Python, which names both types;
    # a number on the left still repeats the tuple
    w = SignedPermutation((2, -1))
    for k in (2, 2.5):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) "
                           rf"for \*: 'SignedPermutation' and "
                           rf"'{type(k).__name__}'$"):
            w * k
    assert 2 * w == (2, -1, 2, -1) and type(2 * w) is tuple
    assert w * w == (-1, -2) and type(w * w) is SignedPermutation


def test_the_rank_zero_identity_builds_every_rank_zero_poset():
    e = identity(0)
    assert e == () and not e and e.n == 0 and repr(e) == "e"
    assert absolute_length(e) == 0 and e.inverse() == e * e == e
    for kind in "SBD":
        for p in (full_poset(kind, 0), coxeter_ideal(0, kind),
                  build_interval(e, e, kind), build_ideal([e], kind)):
            assert p.elements == [e] and p.rank == [0] and p.n == 0
            assert type(p.elements[0]) is SignedPermutation


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


def test_images_that_repeat_a_letter_raise_instead_of_walking_on():
    # run apart, so that a walk that never returns fails at the timeout
    # instead of hanging the suite; a product or an inverse once returned
    # a tuple with a letter twice, or with a 0, and so did a product whose
    # left factor was such a tuple.  The readers take a plain tuple too,
    # and check it as an element is checked.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        from absorder.order import build_interval, elements_below
        from absorder.signed import (SignedPermutation, absolute_length,
                                     cycle_decomposition, cycle_type,
                                     identity, is_member)
        one = identity(2)
        wrapped = (((1, 1), absolute_length), ((1, -1), repr),
                   ((2, 1, 1), cycle_decomposition),
                   ((-1, -1), absolute_length),
                   ((1, 1), SignedPermutation.inverse),
                   ((1, -1), SignedPermutation.inverse),
                   ((1, 1), one.__mul__), ((2, -2), one.__mul__),
                   ((1, 1), lambda w: w * one))
        plain = (((1, 1), absolute_length), ((2, 1, 1), cycle_type),
                 ((1, -1), lambda t: is_member(t, "D")),
                 ((-1, -1), lambda t: elements_below([t])),
                 ((2, -2), lambda t: build_interval(one, t)))
        for wrap, reads in ((SignedPermutation, wrapped), (tuple, plain)):
            for images, read in reads:
                try:
                    read(wrap(images))
                except ValueError as e:
                    print(e)
    """
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{images} is no signed permutation: two images share a letter up "
        f"to sign" for images in ((1, 1), (1, -1), (2, 1, 1), (-1, -1),
                                  (1, 1), (1, -1), (1, 1), (2, -2), (1, 1),
                                  (1, 1), (2, 1, 1), (1, -1), (-1, -1),
                                  (2, -2))]


def test_letters_outside_the_rank_raise_a_value_error_naming_them():
    # applied to such a letter, an element names it instead of reading w(n)
    # off the tuple's end (0) or raising IndexError; an image outside
    # +-1..+-n stops the orbit walk with the letter named, also 0, which
    # once gave the repeated-letter message; a product or an inverse with
    # such a letter once read off the tuple's end or raised IndexError, and
    # a product whose left factor held one returned it.  The readers take a
    # plain tuple too, and check it as an element is checked.  A letter
    # that only equals an integer is refused too: (2.0, 1) was built and
    # its length, product and inverse raised TypeError, and (True, 2) was
    # taken for the identity.  Run apart, like the walk of a repeated
    # letter, so that a walk that runs on fails at the timeout.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        from absorder.order import build_interval, elements_below
        from absorder.signed import (SignedPermutation, absolute_length,
                                     cycle_decomposition, cycle_type,
                                     identity, is_member, parse_cycles)
        w = parse_cycles("((1,2,3))", 3)
        reads = [(lambda i=i: w(i)) for i in (0, 4, -4)] + [
            lambda: absolute_length(SignedPermutation((3,))),
            lambda: absolute_length(SignedPermutation((2, 3)), "S"),
            lambda: repr(SignedPermutation((0,))),
            lambda: cycle_type(SignedPermutation((1, -5))),
            lambda: is_member(SignedPermutation((2, 0)), "D"),
            lambda: cycle_decomposition(SignedPermutation((-3, 1))),
            lambda: identity(2) * (0, 1), lambda: identity(2) * (3, 1),
            lambda: identity(2) * (1, -3),
            lambda: SignedPermutation((0, 1)).inverse(),
            lambda: SignedPermutation((3, 1)).inverse(),
            lambda: SignedPermutation((0, 1)) * identity(2),
            lambda: SignedPermutation((3, 1)) * identity(2),
            lambda: absolute_length((3,)), lambda: cycle_type((1, -5)),
            lambda: is_member((2, 0), "D"), lambda: elements_below([(-3, 1)]),
            lambda: build_interval(identity(2), (0, 1)),
            lambda: build_interval(identity(2), (3, 1)),
            lambda: SignedPermutation((2.0, 1)),
            lambda: SignedPermutation((True, 2)),
            lambda: identity(2) * (2.0, 1), lambda: absolute_length((True, 2))]
        for read in reads:
            try:
                print("no error:", read())
            except ValueError as e:
                print(type(e).__name__, e)
    """
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    walked = "ValueError ({}) is no signed permutation: the letter {} lies " \
             "outside +-1..+-{}"
    assert out.stdout.splitlines() == [
        "ValueError the letter 0 lies outside +-1..+-3",
        "ValueError the letter 4 lies outside +-1..+-3",
        "ValueError the letter -4 lies outside +-1..+-3",
        walked.format("3,", 3, 1), walked.format("2, 3", 3, 2),
        walked.format("0,", 0, 1), walked.format("1, -5", -5, 2),
        walked.format("2, 0", 0, 2), walked.format("-3, 1", -3, 2),
        walked.format("0, 1", 0, 2), walked.format("3, 1", 3, 2),
        walked.format("1, -3", -3, 2), walked.format("0, 1", 0, 2),
        walked.format("3, 1", 3, 2), walked.format("0, 1", 0, 2),
        walked.format("3, 1", 3, 2), walked.format("3,", 3, 1),
        walked.format("1, -5", -5, 2), walked.format("2, 0", 0, 2),
        walked.format("-3, 1", -3, 2), walked.format("0, 1", 0, 2),
        walked.format("3, 1", 3, 2)] + [
        f"ValueError {images} is no signed permutation: the letter "
        f"{images[0]} is no integer"
        for images in ((2.0, 1), (True, 2), (2.0, 1), (True, 2))]


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
        assert leads == [min(map(abs, entries)) for _, entries in words], w
        assert leads == sorted(leads), w
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
    # the balanced profile is the second half of the cycle type, ascending
    w = parse_cycles("[1,-5][2,7][6]((3,4))", 8)
    assert cycle_type(w)[1] == (1, 2, 2)
    assert cycle_type(parse_cycles("((1,2))", 3))[1] == ()
    assert cycle_type(parse_cycles("[1,2,3]", 3))[1] == (3,)
    hooks = ("((1,2))", "[1,2,3,4]", "[1,2,3][4][5]")
    others = ("[1,2][3,4]", "[1,2,3][4,5][6]")
    for text, expected in [(t, True) for t in hooks] + [(t, False) for t in others]:
        assert predict_lattice(parse_cycles(text, 6), "B") is expected, text


def test_negative_ranks_are_refused():
    for call in (lambda: group_order("B", -1),
                 lambda: exponents("S", -1),
                 lambda: list(group_elements("D", -2)),
                 lambda: list(coxeter_elements("B", -1)),
                 lambda: reflection_set("S", -1),
                 lambda: list(signed_cycle_types("B", -1)),
                 lambda: coxeter_ideal(-1, "B"),
                 lambda: full_poset("S", -1),
                 lambda: full_poset("B", -1)):
        with pytest.raises(ValueError, match="negative rank -[12]$"):
            call()


@pytest.mark.parametrize("kind,n", list(itertools.product("SBD", range(6))))
def test_signed_cycle_types_match_counting(kind, n):
    table = list(signed_cycle_types(kind, n))
    counts = Counter(cycle_type(w) for w in group_elements(kind, n))
    assert [t for t, _, _ in table] == list(dict.fromkeys(t for t, _, _ in table))
    assert {t: size for t, _, size in table} == counts
    for t, representative, _ in table:
        assert cycle_type(representative) == t
        assert is_member(representative, kind)


def test_signed_cycle_types_sum_to_the_group_order(monkeypatch):
    def no_elements(*args):
        raise AssertionError("a whole group was enumerated")

    monkeypatch.setattr(signed, "group_elements", no_elements)
    for kind, n in (("B", 6), ("D", 6), ("S", 7)):
        table = list(signed_cycle_types(kind, n))
        assert sum(size for _, _, size in table) == group_order(kind, n)
    # the Coxeter class leads: one balanced n-cycle, or (n-1, 1) in D_n
    assert next(signed_cycle_types("B", 6))[0] == ((), (6,))
    assert next(signed_cycle_types("D", 6))[0] == ((), (1, 5))


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
