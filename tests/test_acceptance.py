"""End-to-end acceptance battery.

One test per headline guarantee of the package, in a fixed order: census
closed forms, lattice scans, shellability checks, topology of the stripped
complexes, the generating-function predictions, and the structural ideal
and projection laws.  Each test prints a single summary line on success.
"""

import time
from math import comb

import pytest

from absorder import (
    Poset,
    annular_mixing_facts,
    appendix_ideal_checks,
    build_cycle_flip_interval,
    build_coxeter_interval,
    build_flip_interval,
    build_interval,
    c_sequence,
    canonical_chain,
    census,
    chain_euler_characteristic,
    closed_form_coxeter_interval,
    closed_form_cycle_flip_interval,
    closed_form_flip_interval,
    cm_check,
    collapsed_reflection_label,
    cover_lifting_ok,
    covers,
    covers_by_pattern,
    coxeter_ideal,
    abs_leq,
    fiber_ideal_identity_ok,
    format_cycles,
    full_poset,
    homology,
    identity,
    is_lattice,
    join_position_labeler,
    maximal_common_lower_bounds,
    mobius,
    order_complex,
    parse_cycles,
    predict_lattice,
    predicted_chi_hyper,
    predicted_chi_sym,
    rank_generating_function,
    sn_leq_noncrossing,
    support_size_label,
    prediction_scan,
    verify_el,
    zeta_polynomial,
)
from absorder.order import _lower_covers


def test_01_noncrossing_census_matches_closed_forms():
    t0 = time.perf_counter()
    for n in range(1, 5):
        built = build_coxeter_interval(n)
        report = census(built)
        assert closed_form_coxeter_interval(n).matches(report)
        assert report.cardinality == comb(2 * n, n)
        assert tuple(report.rank_sizes) == tuple(
            comb(n, k) ** 2 for k in range(n + 1))
        assert report.max_chains == n ** n
        assert report.mobius_bottom_top == (-1) ** n * comb(2 * n - 1, n)
        z = zeta_polynomial(built)
        for m in range(1, 7):
            assert z(m) == comb(m * n, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"PASS signed noncrossing census, n <= 4, {elapsed:.1f}s")


def test_02_flip_interval_closed_forms():
    t0 = time.perf_counter()
    for n in range(1, 6):
        built = build_flip_interval(n)
        assert closed_form_flip_interval(n).matches(census(built))
    assert len(build_flip_interval(5)) == 312
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"PASS flip-interval closed forms, n <= 5, {elapsed:.1f}s")


def test_03_cycle_flip_closed_forms_and_literal_seed():
    t0 = time.perf_counter()
    for total in range(1, 6):
        for k in range(0, total + 1):
            r = total - k
            closed = closed_form_cycle_flip_interval(k, r)
            assert closed.matches(census(build_cycle_flip_interval(k, r))), (k, r)
    # the uncorrected depth-one seed undercounts the smallest mixed interval
    literal = closed_form_cycle_flip_interval(1, 1, literal_boundary=True)
    enumerated = census(build_cycle_flip_interval(1, 1))
    assert literal.cardinality == 4
    assert enumerated.cardinality == 6
    assert not literal.matches(enumerated)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"PASS cycle-flip closed forms, k + r <= 5, {elapsed:.1f}s")


def test_04_mixing_set_counts():
    for k in range(1, 5):
        facts = annular_mixing_facts(k)
        assert facts.cardinality == facts.cardinality_formula == \
            2 * comb(2 * k, k - 1)
        for m in range(1, 7):
            assert facts.multichain_counts[m] == facts.multichain_formula[m] \
                == 2 * comb(m * k, k + 1)
    print("PASS mixing-set cardinality and multichain counts, k <= 4, m <= 6")


def test_05_signed_lattice_scan():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        report = prediction_scan("B", n)
        assert report.ok(), report.mismatches
        checked += report.checked
    assert checked == 2 + 8 + 48 + 384
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"PASS hook-profile lattice scan, {checked} signed intervals, "
          f"{elapsed:.1f}s")


def test_06_even_lattice_scan_and_witnesses():
    report = prediction_scan("D", 4)
    assert report.ok(), report.mismatches
    assert report.checked == 192
    four_flips = parse_cycles("[1][2][3][4]", 4)
    assert predict_lattice(four_flips, "D")
    assert is_lattice(build_interval(identity(4), four_flips, "D")).is_lattice
    u = parse_cycles("[1][2][3][4]", 5)
    v = parse_cycles("[1][2][3][5]", 5)
    bounds = sorted(format_cycles(w)
                    for w in maximal_common_lower_bounds(u, v, "D"))
    assert bounds == ["[1][2]", "[1][3]", "[2][3]"]
    print("PASS even-order lattice scan (192 intervals) with the "
          "three-lower-bound witness")


def test_07_letter_labeling_is_el():
    report = verify_el(full_poset("B", 3))
    assert report.ok, report.failure

    ambient = full_poset("B", 4)
    report = verify_el(ambient)
    assert report.ok, report.failure
    assert report.intervals_checked == 10041

    for w in ambient.elements:
        chain = canonical_chain(w)
        labels = tuple(support_size_label(chain[i], chain[i + 1])
                       for i in range(len(chain) - 1))
        assert labels == c_sequence(w), format_cycles(w)

    w = parse_cycles("[1,-7][3]((2,-6,-5))", 7)
    expected = ["e", "[1]", "[1][3]", "[1]((2,-5))[3]", "[1]((2,-6,-5))[3]",
                "[1,-7]((2,-6,-5))[3]"]
    assert [format_cycles(x) for x in canonical_chain(w)] == expected
    w = parse_cycles("[3,-4]((1,2))", 4)
    expected = ["e", "((1,2))", "((1,2))[3]", "((1,2))[3,-4]"]
    assert [format_cycles(x) for x in canonical_chain(w)] == expected
    print("PASS letter labeling EL on all of ranks 3 and 4, and both "
          "worked chains")


def test_08_alternate_labelings_are_el_on_flip_intervals():
    for n in range(1, 5):
        p = build_flip_interval(n)
        assert verify_el(p, labeler=collapsed_reflection_label).ok, n
        assert verify_el(p, labeler=join_position_labeler(p)).ok, n
    print("PASS collapsed-reflection and join-position labelings EL on "
          "flip intervals, n <= 4")


def test_09_disconnected_even_interval():
    iv = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    c = order_complex(iv, strip="endpoints")
    h = homology(c)
    assert h.reduced_betti[0] > 0
    report = cm_check(c)
    assert not report.ok
    assert report.failing_face == ()
    print(f"PASS open four-flip even interval is disconnected "
          f"(reduced b0 = {h.reduced_betti[0]}) and fails the link "
          f"criterion at the empty face")


def test_10_euler_characteristics_three_ways():
    t0 = time.perf_counter()
    plain = predicted_chi_sym(5)
    for n in range(3, 6):
        p = full_poset("S", n)
        c = order_complex(p, strip="endpoints")
        assert plain[n] == homology(c).euler
        assert plain[n] == chain_euler_characteristic(p, strip="endpoints")
    signed = predicted_chi_hyper(4)
    for n in range(2, 5):
        p = coxeter_ideal(n, "B")
        c = order_complex(p, strip="endpoints")
        assert signed[n] == homology(c).euler
        assert signed[n] == chain_euler_characteristic(p, strip="endpoints")
    assert signed[2] == -3
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"PASS series, homology, and signed chain counts agree "
          f"(plain n = 3..5, signed n = 2..4), {elapsed:.1f}s")


def test_11_proper_parts_are_cohen_macaulay():
    p2 = full_poset("S", 2)
    point = Poset({w: _lower_covers(w, "S")
                   for i, w in enumerate(p2.elements) if p2.rank[i] > 0},
                  "S", "proper part")
    probes = [order_complex(point, strip="none")]
    for n in (3, 4):
        probes.append(order_complex(full_poset("S", n), strip="endpoints"))
    for n in (2, 3, 4):
        probes.append(order_complex(coxeter_ideal(n, "B"), strip="endpoints"))
    for c in probes:
        report = cm_check(c)
        assert report.ok, (c.label, report.failing_face)
        assert homology(c).concentrated_in_top(), c.label
    print("PASS link criterion and top-degree concentration on stripped "
          "plain posets (n <= 4) and coxeter ideals (n <= 4)")


def test_12_cross_validation_invariants():
    ambient = full_poset("B", 4)
    for w in ambient.elements:
        assert covers(w, "B") == covers_by_pattern(w), format_cycles(w)

    plain = full_poset("S", 5)
    for u in plain.elements:
        for v in plain.elements:
            assert abs_leq(u, v, "S") == sn_leq_noncrossing(u, v)

    for kind, lo in (("S", 1), ("B", 1), ("D", 2)):
        for n in range(lo, 5):
            gf = rank_generating_function(kind, n)
            assert gf == tuple(full_poset(kind, n).rank_sizes()), (kind, n)

    bounded = [build_coxeter_interval(n) for n in range(1, 5)]
    bounded += [build_flip_interval(n) for n in range(1, 6)]
    bounded += [build_cycle_flip_interval(k, total - k)
                for total in range(1, 6) for k in range(total + 1)]
    for p in bounded:
        z = zeta_polynomial(p)
        assert z(2) == len(p)
        assert z(-1) == mobius(p)

    b3 = full_poset("B", 3)
    for vi in range(len(b3)):
        below = b3.below[vi]
        probe = below
        while probe:
            low = probe & -probe
            ui = low.bit_length() - 1
            probe ^= low
            sizes = {}
            mask = below & b3.above[ui]
            while mask:
                bit = mask & -mask
                k = bit.bit_length() - 1
                mask ^= bit
                d = b3.rank[k] - b3.rank[ui]
                sizes[d] = sizes.get(d, 0) + 1
            profile = [sizes[d] for d in sorted(sizes)]
            assert profile == profile[::-1], (ui, vi)
    print("PASS cover patterns, noncrossing comparison, rank generating "
          "functions, zeta battery, and interval palindromicity")


def test_13_structural_ideals_and_projection_laws():
    for n in range(2, 5):
        for check in appendix_ideal_checks(coxeter_ideal(n, "B")):
            assert check.ok(), (n, check.name)
    for n in range(2, 6):
        for check in appendix_ideal_checks(coxeter_ideal(n, "S")):
            assert check.ok(), (n, check.name)
    for n in range(2, 5):
        assert cover_lifting_ok(full_poset("S", n)), n
        assert cover_lifting_ok(coxeter_ideal(n, "B")), n
        assert fiber_ideal_identity_ok(full_poset("S", n)), n
        assert fiber_ideal_identity_ok(coxeter_ideal(n, "B")), n
    print("PASS structural ideal ranks with link criterion (signed n <= 4, "
          "plain n <= 5), cover lifting, and fiber-ideal identity (n <= 4)")
