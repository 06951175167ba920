import itertools
import re
from fractions import Fraction

import pytest

from absorder.invariants import (
    InvariantReport,
    RationalPolynomial,
    annular_mixing_facts,
    build_coxeter_interval,
    build_cycle_flip_interval,
    build_flip_interval,
    catalan,
    census,
    closed_form_coxeter_interval,
    closed_form_cycle_flip_interval,
    closed_form_flip_interval,
    double_factorial_odd,
    mobius,
    mobius_element,
    multichain_count,
    rank_generating_function,
    zeta_polynomial,
)
from absorder.lattice import join, meet
from absorder.order import build_interval, full_poset
from absorder.signed import identity, parse_cycles


def test_small_number_helpers():
    assert [double_factorial_odd(k) for k in range(5)] == [1, 1, 3, 15, 105]
    assert [catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]


def test_polynomial_interpolation_and_evaluation():
    # the square, from its coefficients
    poly = RationalPolynomial([0, 0, 1])
    assert poly.degree() == 2
    assert [poly(m) for m in (1, 2, 3)] == [1, 4, 9]
    assert poly(7) == 49
    assert poly(Fraction(1, 2)) == Fraction(1, 4)


def test_polynomial_arithmetic():
    p = RationalPolynomial([1, 1])      # 1 + t
    q = RationalPolynomial([0, 0, 2])   # 2t^2
    assert (p * p)(3) == 16
    assert (p + q)(2) == 3 + 8
    assert (3 * p)(1) == 6
    assert p * p == RationalPolynomial([1, 2, 1])


def test_multichain_count_on_chain_poset():
    # zeta convention: multichain_count(p, m) counts (m-1)-element
    # multichains, so a 2-chain gives m of them
    iv = build_interval(identity(1), parse_cycles("[1]", 1), "B")
    for m in range(1, 5):
        assert multichain_count(iv, m) == m


def test_mobius_recursion_equals_cycle_closed_form():
    for text, n in (("[1,2]", 2), ("((1,2,3))", 3), ("[1]", 1),
                    ("[1,2]((3,4))", 4), ("((1,2))((3,4))", 4)):
        w = parse_cycles(text, n)
        iv = build_interval(identity(n), w, "B")
        assert mobius(iv) == mobius_element(w), text


def test_mobius_product_form_refuses_two_balanced_cycles():
    # [e, [1][2]] is not a product of the cycle intervals: ((1,2)) sits
    # below [1][2] but mixes both supports, and the true value is 3
    w = parse_cycles("[1][2]", 2)
    iv = build_interval(identity(2), w, "B")
    assert mobius(iv) == 3
    with pytest.raises(ValueError):
        mobius_element(w)


def test_mobius_rejects_incomparable_pair():
    p = full_poset("B", 2)
    with pytest.raises(ValueError):
        mobius(p, parse_cycles("[1]", 2), parse_cycles("((1,2))", 2))


@pytest.mark.parametrize("stranger", [parse_cycles("[1,2,3]", 3), 8, -1])
def test_mobius_and_meets_refuse_a_non_member_naming_the_poset(stranger):
    p = full_poset("B", 2)
    for call in (lambda: mobius(p, stranger), lambda: mobius(p, 0, stranger),
                 lambda: meet(p, stranger, 0), lambda: join(p, 0, stranger)):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(repr(stranger))} is not an "
                                 "element of full$"):
            call()


def test_zeta_degree_equals_height():
    iv = build_coxeter_interval(3)
    z = zeta_polynomial(iv)
    assert z.degree() == iv.height() == 3
    assert z(2) == len(iv)
    assert z(-1) == mobius(iv)


def test_census_coxeter_interval_values():
    expected_cards = {1: 2, 2: 6, 3: 20, 4: 70}
    expected_mobius = {1: -1, 2: 3, 3: -10, 4: 35}
    expected_chains = {1: 1, 2: 4, 3: 27, 4: 256}
    for n in range(1, 5):
        report = census(build_coxeter_interval(n))
        assert report.cardinality == expected_cards[n]
        assert report.mobius_bottom_top == expected_mobius[n]
        assert report.max_chains == expected_chains[n]
        closed = closed_form_coxeter_interval(n)
        assert closed.matches(report)


def test_closed_form_flip_interval_matches_census():
    expected_cards = {0: 1, 1: 2, 2: 6, 3: 20, 4: 76}
    for n in range(1, 5):
        closed = closed_form_flip_interval(n)
        assert closed.cardinality == expected_cards[n]
        assert closed.matches(census(build_flip_interval(n)))


def test_flip_interval_rank_sizes_are_palindromic():
    for n in range(1, 5):
        sizes = closed_form_flip_interval(n).rank_sizes
        assert sizes == sizes[::-1]


def test_cycle_flip_closed_forms():
    for k, r in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
        closed = closed_form_cycle_flip_interval(k, r)
        report = census(build_cycle_flip_interval(k, r))
        assert closed.matches(report), (k, r)


def test_cycle_flip_literal_boundary_fails():
    literal = closed_form_cycle_flip_interval(1, 1, literal_boundary=True)
    actual = census(build_cycle_flip_interval(1, 1))
    assert literal.cardinality == 4
    assert actual.cardinality == 6


def test_cycle_flip_degenerate_cycle_delegates_to_flips():
    closed = closed_form_cycle_flip_interval(0, 3)
    assert closed.matches(closed_form_flip_interval(3))


def test_matches_compares_the_views_on_the_closed_form_fields():
    # the cycle-flip closed form gives no rank sizes, so its views leave
    # them out; a census lacking a field the closed form gives does not
    # match, where skipping None on either side would have matched it
    closed = closed_form_cycle_flip_interval(2, 1)
    report = census(build_cycle_flip_interval(2, 1))
    expected, computed = closed.views(report)
    assert "rank_sizes" not in expected and expected == computed
    assert closed.matches(report)
    flips = closed_form_flip_interval(2)
    partial = InvariantReport(flips.cardinality, flips.rank_sizes, None,
                              None, None)
    assert not flips.matches(partial)
    assert partial.matches(flips)


def test_annular_mixing_counts():
    frozen = {
        1: (2, {1: 0, 2: 2, 3: 6, 4: 12, 5: 20, 6: 30}),
        2: (8, {1: 0, 2: 8, 3: 40, 4: 112, 5: 240, 6: 440}),
    }
    for k, (card, counts) in frozen.items():
        facts = annular_mixing_facts(k)
        assert facts.cardinality == card == facts.cardinality_formula
        assert facts.multichain_counts == counts
        assert facts.multichain_formula == counts
        assert facts.ok()


def test_rank_generating_function_matches_rank_sizes():
    # from n = 0: D_0 and D_1 are trivial, with no exponents and one element
    for kind, n in itertools.product("SBD", range(5)):
        assert (rank_generating_function(kind, n)
                == full_poset(kind, n).rank_sizes()), (kind, n)


def test_census_unbounded_poset_has_no_zeta():
    report = census(full_poset("B", 2))
    assert report.zeta is None and report.max_chains is None
    assert report.cardinality == 8
