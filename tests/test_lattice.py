"""Meets, joins, lattice detection, and the interval lattice scans."""

import random
import time

import pytest

from absorder import (
    ResourceGuardError,
    build_interval,
    full_poset,
    identity,
    is_lattice,
    join,
    maximal_common_lower_bounds,
    meet,
    parse_cycles,
    predict_lattice,
    prediction_scan,
)
from absorder import lattice, order, signed
from absorder.order import abs_leq, bits, elements_below
from absorder.signed import (SignedPermutation, cycle_type, group_elements,
                             group_order)


def test_meet_and_join_on_a_lattice_interval():
    top = parse_cycles("[1,2]", 2)
    p = build_interval(identity(2), top, "B")
    a = parse_cycles("((1,2))", 2)
    b = parse_cycles("((1,-2))", 2)
    assert meet(p, a, b) == identity(2)
    assert join(p, a, b) == top
    assert meet(p, a, top) == a
    assert join(p, identity(2), b) == b


def test_meet_and_join_accept_indices_and_reject_strangers():
    p = build_interval(identity(2), parse_cycles("[1,2]", 2), "B")
    ai = p.index[parse_cycles("((1,2))", 2)]
    bi = p.index[parse_cycles("((1,-2))", 2)]
    assert meet(p, ai, bi) == identity(2)
    with pytest.raises(ValueError):
        meet(p, parse_cycles("[1,-2]", 2), parse_cycles("((1,2))", 2))


def test_is_lattice_true_on_hook_interval():
    p = build_interval(identity(3), parse_cycles("[1,2,3]", 3), "B")
    verdict = is_lattice(p)
    assert verdict.is_lattice
    assert verdict.witness is None


def test_is_lattice_false_with_witness():
    # two disjoint balanced 2-cycles: a known non-lattice interval
    top = parse_cycles("[1,2][3,4]", 4)
    p = build_interval(identity(4), top, "B")
    verdict = is_lattice(p)
    assert not verdict.is_lattice
    wit = verdict.witness
    assert len(wit["maximal_lower_bounds"]) > 1
    x = parse_cycles(wit["x"], 4)
    y = parse_cycles(wit["y"], 4)
    assert meet(p, x, y) is None
    assert "maximal_lower_bounds" in verdict.to_json()["witness"]


def test_join_missing_returns_none():
    p = full_poset("B", 2)
    assert join(p, parse_cycles("[1]", 2), parse_cycles("[2]", 2)) is None


def test_predict_lattice_hook_rule_signed():
    cases = (
        ("[1,2,3]", 3, True),      # hook (3,)
        ("[1,2][3]", 3, True),     # hook (2,1)
        ("[1][2][3]", 3, True),    # hook (1,1,1)
        ("((1,2,3))", 3, True),    # no balanced part at all
        ("[1,2][3,4]", 4, False),  # (2,2) is not a hook
    )
    for text, n, expected in cases:
        assert predict_lattice(parse_cycles(text, n), "B") is expected


def test_predict_lattice_even_rule():
    cases = (
        ("((1,2,3))", 3, True),       # empty profile
        ("[1,2][3]", 3, True),        # (2,1)
        ("[1][2]", 2, True),          # (1,1)
        ("[1,2,3][4]", 4, True),      # (3,1)
        ("[1][2][3][4]", 4, True),    # (1,1,1,1)
        ("[1,2][3,4]", 4, False),     # (2,2)
    )
    for text, n, expected in cases:
        assert predict_lattice(parse_cycles(text, n), "D") is expected
    with pytest.raises(ValueError):
        predict_lattice(parse_cycles("[1]", 2), "D")


def test_prediction_matches_reality_for_even_shapes():
    q = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    assert len(q) == 44
    assert is_lattice(q).is_lattice
    p = build_interval(identity(4), parse_cycles("[1,2,3][4]", 4), "D")
    assert len(p) == 50
    assert is_lattice(p).is_lattice
    r = build_interval(identity(4), parse_cycles("[1,2][3,4]", 4), "D")
    verdict = is_lattice(r)
    assert not verdict.is_lattice
    assert verdict.witness["maximal_lower_bounds"] == ["((1,3))", "((2,4))"]


def test_prediction_scan_signed_small():
    for n in (2, 3):
        report = prediction_scan("B", n)
        assert report.ok()
        assert report.mismatches == []
    assert prediction_scan("B", 2).checked == 8


def test_prediction_scan_even_small():
    report = prediction_scan("D", 3)
    assert report.ok()
    assert report.checked == 24


def test_prediction_scan_guard(monkeypatch):
    def no_elements(*args):
        raise AssertionError("a whole group was enumerated")

    with monkeypatch.context() as patched:
        patched.setattr(order, "group_elements", no_elements)
        patched.setattr(signed, "group_elements", no_elements)
        start = time.perf_counter()
        # the Coxeter class leads: binom(16, 8) = 12870 elements below it
        with pytest.raises(ResourceGuardError, match="from \\[1,2,3,4,5,6,7,8\\]"):
            prediction_scan("B", 8)
        assert time.perf_counter() - start < 2
    monkeypatch.setattr(order, "POSET_GUARD", 20)
    assert prediction_scan("B", 3).checked == 48
    monkeypatch.setattr(order, "POSET_GUARD", 19)
    with pytest.raises(ResourceGuardError,
                       match="from \\[1,2,3\\] in kind B reached 20 elements, "
                             "more than the guard 19$"):
        prediction_scan("B", 3)


def test_prediction_scan_rejects_kind_s_before_building(monkeypatch):
    def no_poset(*args):
        raise AssertionError("built a poset for a kind with no prediction")

    monkeypatch.setattr(lattice, "build_interval", no_poset)
    with pytest.raises(ValueError, match="no lattice prediction for kind 'S'"):
        prediction_scan("S", 3)


def _meet_failure_among(p, members):
    """Witness for the first pair of members without a meet, lower bounds
    taken in all of p: for the members below one element of p, whether the
    interval under it is a lattice."""
    below = p.below
    for a, i in enumerate(members):
        for j in members[a + 1:]:
            common = below[i] & below[j]
            if not common or common & ~below[common.bit_length() - 1]:
                return p.elements[i], p.elements[j]
    return None


def _whole_group_scan(kind, n):
    """The scan `prediction_scan` reduces: every element's interval, as the
    members below it in the whole group; the cycle types that mismatch."""
    ambient = full_poset(kind, n)
    mismatched = set()
    for i, w in enumerate(ambient.elements):
        found = _meet_failure_among(ambient, list(bits(ambient.below[i]))) is None
        if found != lattice.predict_lattice(w, kind):
            mismatched.add(cycle_type(w))
    return len(ambient), mismatched


def _scan_types(kind, n):
    report = prediction_scan(kind, n)
    return report.checked, {cycle_type(parse_cycles(m["w"], n))
                            for m in report.mismatches}


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in "BD"
                                    for n in range(2, 6)])
def test_one_interval_per_class_matches_the_whole_group_scan(kind, n):
    assert _scan_types(kind, n) == _whole_group_scan(kind, n) == (
        group_order(kind, n), set())


def test_a_wrong_rule_mismatches_the_same_classes_on_both_routes(monkeypatch):
    right = lattice.predict_lattice

    def wrong(w, kind="B"):
        balanced = cycle_type(w)[1]
        if kind == "B":
            return len(balanced) <= 1
        return right(w, kind) and balanced != (1, 1, 1, 1)

    monkeypatch.setattr(lattice, "predict_lattice", wrong)
    for kind in "BD":
        checked, mismatched = _scan_types(kind, 4)
        assert mismatched
        assert (checked, mismatched) == _whole_group_scan(kind, 4)


def test_prediction_scan_even_rank_five():
    report = prediction_scan("D", 5)
    assert report.ok()
    assert report.checked == 1920


def test_two_maximal_lower_bounds_witness_pair():
    x = parse_cycles("((1,-4,3,-2))", 4)
    y = parse_cycles("((1,2,3,4))", 4)
    bounds = maximal_common_lower_bounds(x, y, "B")
    assert sorted(map(str, bounds)) == ["((1,3))", "((2,4))"]


def test_three_maximal_lower_bounds_spot_check():
    u = parse_cycles("[1][2][3][4]", 5)
    v = parse_cycles("[1][2][3][5]", 5)
    bounds = maximal_common_lower_bounds(u, v, "D")
    assert sorted(map(str, bounds)) == ["[1][2]", "[1][3]", "[2][3]"]


def test_a_generator_missing_from_the_ideal_is_named(monkeypatch):
    u = parse_cycles("[1][2][3][4]", 5)
    v = parse_cycles("[1][2][3][5]", 5)
    right = lattice.build_ideal
    monkeypatch.setattr(lattice, "build_ideal",
                        lambda generators, kind: right(generators[:1], kind))
    with pytest.raises(ValueError, match=r"^\[1\]\[2\]\[3\]\[5\] is not an "):
        maximal_common_lower_bounds(u, v, "D")


def _maximal_by_filter(u, v, kind):
    """Maximal common lower bounds by filtering u's ideal with `abs_leq`."""
    common = [w for w in map(SignedPermutation, elements_below([u], kind))
              if abs_leq(w, v, kind)]
    return {w for w in common
            if not any(x != w and abs_leq(w, x, kind) for x in common)}


@pytest.mark.parametrize("kind,n", [("B", 4), ("D", 4), ("S", 5), ("D", 5)])
def test_maximal_common_lower_bounds_match_abs_leq_filter(kind, n):
    rng = random.Random(20261018)
    elements = list(group_elements(kind, n))
    for _ in range(50):
        u, v = rng.choice(elements), rng.choice(elements)
        assert (set(maximal_common_lower_bounds(u, v, kind))
                == _maximal_by_filter(u, v, kind)), (u, v)
