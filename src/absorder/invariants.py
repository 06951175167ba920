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

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .order import Poset, bits, build_interval
from .signed import (
    SignedPermutation,
    balanced_cycle,
    cycle_decomposition,
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

    @classmethod
    def from_points(cls, points) -> "RationalPolynomial":
        """Lagrange interpolation through (x, y) pairs with distinct x."""
        total = [Fraction(0)] * len(points)
        for i, (xi, yi) in enumerate(points):
            basis = [Fraction(1)]
            scale = Fraction(yi)
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                basis = [
                    (basis[d - 1] if d else Fraction(0)) - xj * (basis[d] if d < len(basis) else Fraction(0))
                    for d in range(len(basis) + 1)
                ]
                scale /= xi - xj
            for d, c in enumerate(basis):
                total[d] += scale * c
        return cls(total)

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
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial([other])
        a, b = self.coefficients, other.coefficients
        size = max(len(a), len(b))
        return RationalPolynomial([
            (a[d] if d < len(a) else 0) + (b[d] if d < len(b) else 0)
            for d in range(size)
        ])

    def __mul__(self, other):
        if not isinstance(other, RationalPolynomial):
            return RationalPolynomial([c * Fraction(other) for c in self.coefficients])
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"RationalPolynomial({[str(c) for c in self.coefficients]})"

    def to_json(self) -> list:
        return [str(c) for c in self.coefficients]


def binomial_polynomial(scale: int, k: int) -> RationalPolynomial:
    """binom(scale*m, k) as a polynomial in m."""
    poly = RationalPolynomial([Fraction(1, factorial(k))])
    for i in range(k):
        poly = poly * RationalPolynomial([-i, scale])
    return poly


def multichain_count(p: Poset, m: int) -> int:
    """Number of multichains x_1 <= x_2 <= ... <= x_{m-1} in p."""
    if m < 1:
        raise ValueError("multichain length parameter must be >= 1")
    if m == 1:
        return 1
    below_lists = [list(bits(mask)) for mask in p.below]
    counts = [1] * len(p)
    for _ in range(m - 2):
        counts = [sum(counts[i] for i in below) for below in below_lists]
    return sum(counts)


def mobius(p: Poset, x=None, y=None) -> int:
    """Moebius function mu(x, y) of the poset, by the defining recursion."""
    xi = _resolve(p, x, p.bottom())
    yi = _resolve(p, y, p.top())
    if xi is None or yi is None:
        raise ValueError("mobius endpoints undefined; pass x and y explicitly")
    if not p.leq(xi, yi):
        raise ValueError("mobius is undefined on incomparable pairs")
    values = {}
    for z in bits(p.above[xi] & p.below[yi]):
        if z == xi:
            values[z] = 1
            continue
        inner = p.above[xi] & p.below[z] & ~(1 << z)
        values[z] = -sum(values[i] for i in bits(inner))
    return values[yi]


def _resolve(p: Poset, key, default):
    if key is None:
        return default
    if isinstance(key, int):
        return key
    return p.index[key]


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
    dec = cycle_decomposition(w)
    balanced = sum(1 for cyc in dec.cycles if cyc.kind == "balanced")
    if balanced > 1:
        raise ValueError(
            "product form needs at most one balanced cycle, got %d" % balanced
        )
    value = 1
    for cyc in dec.cycles:
        m = len(cyc.entries)
        if cyc.kind == "balanced":
            value *= (-1) ** m * comb(2 * m - 1, m)
        else:
            value *= (-1) ** (m - 1) * catalan(m - 1)
    return value


def zeta_polynomial(p: Poset) -> RationalPolynomial:
    """Zeta polynomial of a bounded poset, by exact interpolation.

    Multichain counts are gathered for m = 1..d+2 (d = top rank) and the
    unique degree <= d+1 interpolant is formed; the degree must come out
    exactly d, which doubles as a structural sanity check.
    """
    if not p.is_bounded():
        raise ValueError("zeta polynomial needs a bounded poset")
    d = p.height()
    points = [(m, multichain_count(p, m)) for m in range(1, d + 3)]
    poly = RationalPolynomial.from_points(points)
    if poly.degree() != d:
        raise AssertionError(
            f"zeta degree {poly.degree()} != poset height {d} for {p.label}"
        )
    return poly


@dataclass
class InvariantReport:
    """Census of one poset: counts plus the classic polynomial invariants.

    Fields left as None are not applicable (unbounded posets) or not given
    by the closed form that produced the report.
    """

    cardinality: int
    rank_sizes: tuple | None
    max_chains: int | None
    mobius_bottom_top: int | None
    zeta: RationalPolynomial | None

    def check(self) -> None:
        """Internal consistency identities; raises AssertionError on failure."""
        if self.rank_sizes is not None:
            assert sum(self.rank_sizes) == self.cardinality
        if self.zeta is not None:
            assert self.zeta(2) == self.cardinality
            if self.mobius_bottom_top is not None:
                assert self.zeta(-1) == self.mobius_bottom_top
            if self.max_chains is not None:
                d = self.zeta.degree()
                assert self.zeta.leading() * factorial(d) == self.max_chains

    def matches(self, other: "InvariantReport") -> bool:
        """Field-by-field equality, skipping fields absent on either side."""
        for field in ("cardinality", "rank_sizes", "max_chains", "mobius_bottom_top", "zeta"):
            a, b = getattr(self, field), getattr(other, field)
            if a is not None and b is not None and a != b:
                return False
        return True

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
    zeta = RationalPolynomial.from_points([(m, comb(m * n, n)) for m in range(n + 1)])
    report = InvariantReport(
        cardinality=comb(2 * n, n),
        rank_sizes=tuple(comb(n, k) ** 2 for k in range(n + 1)),
        max_chains=n ** n,
        mobius_bottom_top=(-1) ** n * comb(2 * n - 1, n),
        zeta=zeta,
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

    def alpha(j: int) -> int:
        if literal_boundary and j <= 1:
            return 1
        return closed_form_flip_interval(j).cardinality

    def beta(j: int) -> RationalPolynomial:
        if literal_boundary and j <= 1:
            return RationalPolynomial([1])
        return closed_form_flip_interval(j).zeta

    def mu_abs(j: int) -> int:
        if literal_boundary and j <= 1:
            return 1
        return abs(closed_form_flip_interval(j).mobius_bottom_top)

    mix = Fraction(2 * r * k, k + 1)
    card = comb(2 * k, k) * (mix * alpha(r - 1) + alpha(r) if r else Fraction(alpha(r)))
    mob = (-1) ** n * comb(2 * k - 1, k) * (
        2 * mix * mu_abs(r - 1) + mu_abs(r) if r else Fraction(mu_abs(r))
    )
    zeta = binomial_polynomial(k, k) * (
        (mix * RationalPolynomial([-1, 1])) * beta(r - 1) + beta(r)
        if r
        else beta(r)
    )
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


def mixing_indices(p: Poset, k: int) -> list:
    """Indices of elements having a cycle that meets both 1..k and k+1."""
    picked = []
    for idx, w in enumerate(p.elements):
        for cyc in cycle_decomposition(w).cycles:
            support = cyc.support
            if k + 1 in support and any(entry <= k for entry in support):
                picked.append(idx)
                break
    return picked


@dataclass
class AnnularMixingFacts:
    """Enumerated vs closed-form facts for the block-mixing elements below
    a balanced k-cycle with one extra sign flip."""

    k: int
    cardinality: int
    cardinality_formula: int
    multichain_counts: dict
    multichain_formula: dict

    def ok(self) -> bool:
        return (
            self.cardinality == self.cardinality_formula
            and self.multichain_counts == self.multichain_formula
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "cardinality": self.cardinality,
            "cardinality_formula": self.cardinality_formula,
            "multichain_counts": {str(m): c for m, c in self.multichain_counts.items()},
            "multichain_formula": {str(m): c for m, c in self.multichain_formula.items()},
            "ok": self.ok(),
        }


def annular_mixing_facts(k: int, max_m: int = 6) -> AnnularMixingFacts:
    """Check the two mixing-set formulas by brute force.

    The zeta-style count is the number of multichains of the full interval
    that touch the mixing set at least once: total multichains minus
    multichains confined to the mixing-free complement.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    interval = build_cycle_flip_interval(k, 1)
    mixing = set(mixing_indices(interval, k))
    complement = interval.subposet(
        [i for i in range(len(interval)) if i not in mixing], "mixing-free"
    )
    counts = {}
    formula = {}
    for m in range(1, max_m + 1):
        counts[m] = multichain_count(interval, m) - multichain_count(complement, m)
        formula[m] = 2 * comb(m * k, k + 1)
    return AnnularMixingFacts(
        k=k,
        cardinality=len(mixing),
        cardinality_formula=2 * comb(2 * k, k - 1),
        multichain_counts=counts,
        multichain_formula=formula,
    )


def rank_generating_function(kind: str, n: int) -> tuple:
    """Coefficients of prod_i (1 + e_i t) over the degree exponents."""
    coeffs = [1]
    for e in exponents(kind, n):
        coeffs = [
            (coeffs[d] if d < len(coeffs) else 0) + (e * coeffs[d - 1] if d else 0)
            for d in range(len(coeffs) + 1)
        ]
    return tuple(coeffs)
