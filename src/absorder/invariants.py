"""Enumerative invariants of absolute-order posets.

Moebius functions, zeta polynomials (exact rational arithmetic throughout),
chain counting, rank censuses, and closed-form invariant suites for three
families of intervals in the signed-permutation group:

* the interval below a single balanced n-cycle (the type-B noncrossing
  partition lattice),
* the interval below the product of all n sign flips (the involution
  sublattice),
* the interval below one balanced k-cycle together with r sign flips.

Every closed form ships with a brute-force oracle path: build the interval,
run `census`, compare reports.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from .order import Poset, _hall_mobius, _resolve, bits, build_interval
from .series import _convolve
from .signed import (
    SignedPermutation,
    balanced_cycle,
    cycle_decomposition,
    cycle_type,
    exponents,
    from_cycles,
    identity,
)


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = 1*3*...*(2k-1), with the empty product for k = 0."""
    return factorial(2 * k) // (2 ** k * factorial(k))


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


class RationalPolynomial:
    """Polynomial with exact rational coefficients, stored ascending."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def leading(self) -> Fraction:
        return self.coefficients[-1] if self.coefficients else Fraction(0)

    def __call__(self, m):
        value = Fraction(0)
        for c in reversed(self.coefficients):
            value = value * m + c
        return int(value) if value.denominator == 1 else value

    def __add__(self, other):
        return RationalPolynomial([a + b for a, b in itertools.zip_longest(
            self.coefficients, other.coefficients, fillvalue=0)])

    def __mul__(self, other):
        if not isinstance(other, RationalPolynomial):
            return RationalPolynomial([c * Fraction(other) for c in self.coefficients])
        a, b = self.coefficients, other.coefficients
        return RationalPolynomial(_convolve(a, b, len(a) + len(b)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"RationalPolynomial({[str(c) for c in self.coefficients]})"

    def to_json(self) -> list:
        return [str(c) for c in self.coefficients]


def binomial_polynomial(scale: int, k: int) -> RationalPolynomial:
    """binom(scale*m, k) as a polynomial in m."""
    coeffs = [1]
    for i in range(k):
        coeffs = _convolve(coeffs, (-i, scale), i + 2)
    return RationalPolynomial([Fraction(c, factorial(k)) for c in coeffs])


def _multichains(counts: list, m: int) -> int:
    """Multichains x_1 <= ... <= x_{m-1} from counts[k] k-element chains:
    each on k distinct members is one of binom(m-2, k-1) compositions."""
    if m == 1:
        return 1
    return sum(c * comb(m - 2, k - 1) for k, c in enumerate(counts) if k)


def multichain_count(p: Poset, m: int) -> int:
    """Number of multichains x_1 <= x_2 <= ... <= x_{m-1} in p."""
    if m < 1:
        raise ValueError("multichain length parameter must be >= 1")
    return _multichains(p.chain_counts(), m)


def mobius(p: Poset, x=None, y=None) -> int:
    """Moebius function mu(x, y): 1 if x = y, else the Hall recursion on (x, y)."""
    xi = p.bottom() if x is None else _resolve(p, x)
    yi = p.top() if y is None else _resolve(p, y)
    if xi is None or yi is None:
        raise ValueError("mobius endpoints undefined; pass x and y explicitly")
    if not p.leq(xi, yi):
        raise ValueError("mobius is undefined on incomparable pairs")
    if xi == yi:
        return 1
    return _hall_mobius(p, p.above[xi] & p.below[yi] & ~(1 << xi | 1 << yi))


def mobius_element(w: SignedPermutation) -> int:
    """mu(e, w) in the signed group, as a product over disjoint cycles.

    A balanced m-cycle contributes (-1)^m * binom(2m-1, m); a paired m-cycle
    contributes (-1)^(m-1) * Catalan(m-1); fixed points contribute 1.

    Only valid when w has at most one balanced cycle: two balanced cycles
    admit common lower bounds mixing their supports, the interval below w
    stops being a product of per-cycle intervals, and the product value is
    wrong (mu(e, [1][2]) is 3, not 1). Raises ValueError outside that scope;
    use mobius() on the interval for the general case.
    """
    paired, balanced = cycle_type(w)
    if len(balanced) > 1:
        raise ValueError(
            "product form needs at most one balanced cycle, got %d"
            % len(balanced))
    value = 1
    for m in balanced:
        value *= (-1) ** m * comb(2 * m - 1, m)
    for m in paired:
        value *= (-1) ** (m - 1) * catalan(m - 1)
    return value


def zeta_polynomial(p: Poset) -> RationalPolynomial:
    """Zeta polynomial of a bounded poset, sum_k c_k binom(m-2, k-1) over
    its c_k chains of k elements (Stanley, EC1 3.12).

    The basis is built on integers over the one denominator d! (d = top
    rank): (d! / (k-1)!) (m-2)(m-3)...(m-k), and only the sum's
    coefficients are Fractions.  The longest chain must have d+1 elements,
    so that the degree is exactly d, which doubles as a structural sanity
    check.
    """
    if not p.is_bounded():
        raise ValueError("zeta polynomial needs a bounded poset")
    d, counts = p.height(), p.chain_counts()
    if len(counts) != d + 2:
        raise AssertionError(
            f"zeta degree {len(counts) - 2} != poset height {d} for {p.label}"
        )
    total, falling = [0] * (d + 1), [1]
    for k in range(1, d + 2):
        weight = counts[k] * (factorial(d) // factorial(k - 1))
        for i, c in enumerate(falling):
            total[i] += weight * c
        falling = _convolve(falling, (-k - 1, 1), k + 1)
    return RationalPolynomial([Fraction(c, factorial(d)) for c in total])


class InvariantReport(namedtuple(
        "InvariantReport",
        "cardinality rank_sizes max_chains mobius_bottom_top zeta")):
    """Census of one poset: counts plus the classic polynomial invariants.

    Fields left as None are not applicable (unbounded posets) or not given
    by the closed form that produced the report.
    """

    __slots__ = ()

    def check(self) -> None:
        """Internal consistency identities; raises AssertionError on failure."""
        z = self.zeta
        if (self.rank_sizes is not None
                and sum(self.rank_sizes) != self.cardinality):
            raise AssertionError("the rank sizes do not sum to the cardinality")
        if z is not None and z(2) != self.cardinality:
            raise AssertionError("zeta(2) is not the cardinality")
        if (z is not None and self.mobius_bottom_top is not None
                and z(-1) != self.mobius_bottom_top):
            raise AssertionError("zeta(-1) is not the Mobius number")
        if (z is not None and self.max_chains is not None
                and z.leading() * factorial(z.degree()) != self.max_chains):
            raise AssertionError("zeta's leading term is not the chain count")

    def views(self, census: "InvariantReport") -> tuple:
        """Json views of this closed form and of a census, both restricted
        to the fields the closed form gives: the one comparison rule."""
        expected = {k: v for k, v in self.to_json().items() if v is not None}
        computed = census.to_json()
        return expected, {k: computed.get(k) for k in expected}

    def matches(self, census: "InvariantReport") -> bool:
        """Whether the two views of `views` are equal."""
        expected, computed = self.views(census)
        return expected == computed

    def to_json(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "rank_sizes": list(self.rank_sizes) if self.rank_sizes is not None else None,
            "max_chains": self.max_chains,
            "mobius_bottom_top": self.mobius_bottom_top,
            "zeta": self.zeta.to_json() if self.zeta is not None else None,
        }


def census(p: Poset) -> InvariantReport:
    """Brute-force invariant report for a built poset."""
    bounded = p.is_bounded()
    report = InvariantReport(
        cardinality=len(p),
        rank_sizes=p.rank_sizes(),
        max_chains=p.maximal_chain_count() if bounded else None,
        mobius_bottom_top=mobius(p) if bounded else None,
        zeta=zeta_polynomial(p) if bounded else None,
    )
    report.check()
    return report


def closed_form_coxeter_interval(n: int) -> InvariantReport:
    """Formulas for the interval below one balanced n-cycle (no poset built)."""
    if n < 1:
        raise ValueError("need n >= 1")
    report = InvariantReport(
        cardinality=comb(2 * n, n),
        rank_sizes=tuple(comb(n, k) ** 2 for k in range(n + 1)),
        max_chains=n ** n,
        mobius_bottom_top=(-1) ** n * comb(2 * n - 1, n),
        zeta=binomial_polynomial(n, n),
    )
    report.check()
    return report


def closed_form_flip_interval(n: int) -> InvariantReport:
    """Formulas for the interval below the product of all n sign flips.

    That interval is exactly the involution sublattice of the order on the
    signed group of rank n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    card = sum(
        comb(n, 2 * k) * 2 ** (n - k) * double_factorial_odd(k)
        for k in range(n // 2 + 1)
    )
    ranks = tuple(
        sum(
            factorial(n) // (factorial(k) * factorial(r - k) * factorial(n - r - k))
            for k in range(min(r, n - r) + 1)
        )
        for r in range(n + 1)
    )
    chains = factorial(n) * sum(
        comb(n, 2 * k) * double_factorial_odd(k) for k in range(n // 2 + 1)
    )
    mob = (-1) ** n * sum(
        comb(n, 2 * k) * 2 ** k * double_factorial_odd(k) for k in range(n // 2 + 1)
    )
    zeta = RationalPolynomial([0])
    for k in range(n // 2 + 1):
        term = RationalPolynomial([1])
        for _ in range(n - k):
            term = term * RationalPolynomial([0, 1])
        for _ in range(k):
            term = term * RationalPolynomial([-1, 1])
        zeta = zeta + comb(n, 2 * k) * double_factorial_odd(k) * term
    report = InvariantReport(
        cardinality=card,
        rank_sizes=ranks,
        max_chains=chains,
        mobius_bottom_top=mob,
        zeta=zeta,
    )
    report.check()
    return report


def closed_form_cycle_flip_interval(k: int, r: int, literal_boundary: bool = False) -> InvariantReport:
    """Formulas for the interval below a balanced k-cycle times r sign flips.

    The cardinality, zeta and Moebius formulas involve the flip-interval
    sequences alpha_r (cardinality), beta_r (zeta) and mu_r (Moebius).  The
    working convention evaluates those three at every r >= 0 by the
    flip-interval formulas (alpha_1 = 2, beta_1(m) = m, |mu_1| = 1).  With
    literal_boundary=True the values at r in {0, 1} are all forced to 1
    instead; that reading fails against enumeration at (k, r) = (1, 1).
    """
    if k < 0 or r < 0 or k + r < 1:
        raise ValueError("need k, r >= 0 with k + r >= 1")
    if k == 0:
        return closed_form_flip_interval(r)
    n = k + r

    def flip(j: int) -> InvariantReport:
        """The flip-interval report the formulas read at depth j."""
        if literal_boundary and j <= 1:
            return InvariantReport(1, None, None, 1, RationalPolynomial([1]))
        return closed_form_flip_interval(j)

    at = flip(r)
    card, mob, zeta = (Fraction(at.cardinality),
                       Fraction(abs(at.mobius_bottom_top)), at.zeta)
    if r:
        below, mix = flip(r - 1), Fraction(2 * r * k, k + 1)
        card += mix * below.cardinality
        mob += 2 * mix * abs(below.mobius_bottom_top)
        zeta = mix * RationalPolynomial([-1, 1]) * below.zeta + zeta
    card *= comb(2 * k, k)
    mob *= (-1) ** n * comb(2 * k - 1, k)
    zeta = binomial_polynomial(k, k) * zeta
    if card.denominator != 1 or mob.denominator != 1:
        raise AssertionError("cycle-flip closed forms must be integers")
    leading = zeta.leading() * factorial(zeta.degree())
    chains = int(leading) if leading.denominator == 1 else None
    report = InvariantReport(
        cardinality=int(card),
        rank_sizes=None,
        max_chains=chains,
        mobius_bottom_top=int(mob),
        zeta=zeta,
    )
    if not literal_boundary:
        report.check()
    return report


def flip_interval_top(n: int) -> SignedPermutation:
    """The product of all n sign flips (i maps to -i for every i)."""
    return from_cycles([("balanced", (i,)) for i in range(1, n + 1)], n)


def cycle_flip_top(k: int, r: int) -> SignedPermutation:
    """One balanced cycle on 1..k times sign flips on k+1..k+r."""
    words = []
    if k:
        words.append(("balanced", tuple(range(1, k + 1))))
    words.extend(("balanced", (k + j,)) for j in range(1, r + 1))
    return from_cycles(words, k + r)


def build_coxeter_interval(n: int) -> Poset:
    return build_interval(identity(n), balanced_cycle(tuple(range(1, n + 1)), n), "B")


def build_flip_interval(n: int) -> Poset:
    return build_interval(identity(n), flip_interval_top(n), "B")


def build_cycle_flip_interval(k: int, r: int) -> Poset:
    return build_interval(identity(k + r), cycle_flip_top(k, r), "B")


# Each family's closed form and the builder of its interval, both called
# with the family's sizes: n, or k and r for cycle-flip.
FAMILIES = {
    "coxeter": (closed_form_coxeter_interval, build_coxeter_interval),
    "flip": (closed_form_flip_interval, build_flip_interval),
    "cycle-flip": (closed_form_cycle_flip_interval, build_cycle_flip_interval),
}


def mixing_indices(p: Poset, k: int) -> list:
    """Indices of elements having a cycle that meets both 1..k and k+1."""
    picked = []
    for idx, w in enumerate(p.elements):
        for _, entries in cycle_decomposition(w):
            support = {abs(a) for a in entries}
            if k + 1 in support and any(entry <= k for entry in support):
                picked.append(idx)
                break
    return picked


class AnnularMixingFacts(namedtuple(
        "AnnularMixingFacts", "k cardinality cardinality_formula "
        "multichain_counts multichain_formula")):
    """Enumerated vs closed-form facts for the block-mixing elements below
    a balanced k-cycle with one extra sign flip."""

    __slots__ = ()

    def ok(self) -> bool:
        return (
            self.cardinality == self.cardinality_formula
            and self.multichain_counts == self.multichain_formula
        )


def annular_mixing_facts(k: int) -> AnnularMixingFacts:
    """Check the two mixing-set formulas by brute force.

    The zeta-style count is the number of multichains of the full interval
    that touch the mixing set at least once, for m up to 6: total
    multichains minus multichains confined to the mixing-free complement.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    interval = build_cycle_flip_interval(k, 1)
    mixing = sum(1 << i for i in mixing_indices(interval, k))
    whole, rest = interval.chain_counts(), interval.chain_counts(~mixing)
    counts = {m: _multichains(whole, m) - _multichains(rest, m)
              for m in range(1, 7)}
    formula = {m: 2 * comb(m * k, k + 1) for m in counts}
    return AnnularMixingFacts(
        k=k,
        cardinality=mixing.bit_count(),
        cardinality_formula=2 * comb(2 * k, k - 1),
        multichain_counts=counts,
        multichain_formula=formula,
    )


def rank_generating_function(kind: str, n: int) -> tuple:
    """Coefficients of prod_i (1 + e_i t) over the degree exponents."""
    coeffs = [1]
    for e in exponents(kind, n):
        coeffs = _convolve(coeffs, (1, e), len(coeffs) + 1)
    return tuple(coeffs)
