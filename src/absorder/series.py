"""Truncated formal power series and the Euler-characteristic predictions.

Exponential generating functions predict the reduced Euler characteristic
of the stripped order complexes, one family built over the symmetric groups
and one over the signed groups.  Coefficients live in the rationals and
every series carries an explicit truncation order, so arithmetic never
pretends to more precision than it has.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from .order import ResourceGuardError

PREDICTION_GUARD = 20


def _convolve(a, b, size: int) -> list:
    """The first `size` coefficients, lowest first, of the product a * b."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                if y:
                    out[i + j] += x * y
    return out


def _scaled(coeffs) -> tuple:
    """(numerators, d): the coefficients as integers over their lcm
    denominator d, so that coeffs[k] = numerators[k] / d."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


class FormalPowerSeries:
    """A power series known through degree `order`, inclusive."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        values = [c if type(c) is Fraction else Fraction(c)
                  for c in coeffs[:order + 1]]
        values += [Fraction(0)] * (order + 1 - len(values))
        self.coeffs = tuple(values)
        self.order = order

    @classmethod
    def constant(cls, value, order: int) -> "FormalPowerSeries":
        return cls([value], order)

    @classmethod
    def variable(cls, order: int) -> "FormalPowerSeries":
        return cls([0, 1], order)

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation {self.order}")
        return self.coeffs[n]

    def _common(self, other) -> int:
        if not isinstance(other, FormalPowerSeries):
            raise TypeError("series arithmetic needs two series")
        return min(self.order, other.order)

    def __add__(self, other):
        n = self._common(other)
        return FormalPowerSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return FormalPowerSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        """The product with a scalar, or with a series to the lesser of the
        two truncations: the integer numerators of both over their lcm
        denominators are convolved, and each product coefficient is one
        Fraction over the product of the two lcms."""
        if isinstance(other, (int, Fraction)):
            return FormalPowerSeries([c * other for c in self.coeffs],
                                     self.order)
        n = self._common(other)
        a, da = _scaled(self.coeffs[:n + 1])
        b, db = _scaled(other.coeffs[:n + 1])
        d = da * db
        return FormalPowerSeries(
            [Fraction(c, d) for c in _convolve(a, b, n + 1)], n)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FormalPowerSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def agrees_with(self, other, upto: int) -> bool:
        if upto > min(self.order, other.order):
            raise ValueError("comparison beyond both truncations")
        return self.coeffs[:upto + 1] == other.coeffs[:upto + 1]

    def scale_variable(self, c) -> "FormalPowerSeries":
        """Substitute t -> c*t."""
        c = Fraction(c)
        return FormalPowerSeries(
            [a * c ** k for k, a in enumerate(self.coeffs)], self.order)

    def shift_down(self, k: int = 1) -> "FormalPowerSeries":
        """Divide by t^k; the low coefficients must vanish.

        The truncation order drops by k, honestly: nothing is known about
        the coefficients this would have to invent.
        """
        if any(self.coeffs[:k]):
            raise ValueError("series is not divisible by that power of t")
        if self.order - k < 0:
            raise ValueError("shift exhausts the truncation")
        return FormalPowerSeries(self.coeffs[k:], self.order - k)

    def exp(self) -> "FormalPowerSeries":
        """exp of a series with zero constant term, by the f' = g'f recurrence
        on plain integers.

        With g = c / d (c the numerators over the lcm denominator d) and
        exp(g) = sum_n e_n t^n / (n! d^n), the recurrence
        (n + 1) f_(n+1) = sum_k (k + 1) g_(k+1) f_(n-k) becomes
        e_(n+1) = sum_k (k + 1) c_(k+1) d^k n! / (n - k)! e_(n-k), e_0 = 1,
        and only the output coefficients are Fractions.
        """
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        c, d = _scaled(self.coeffs)
        weights = [(k + 1) * c[k + 1] * d ** k for k in range(self.order)]
        e = [1]
        for n in range(self.order):
            acc, falling = 0, 1  # falling = n! / (n - k)!
            for k in range(n + 1):
                acc += weights[k] * falling * e[n - k]
                falling *= n - k
            e.append(acc)
        return FormalPowerSeries([Fraction(x, factorial(n) * d ** n)
                                  for n, x in enumerate(e)], self.order)

    def sqrt(self) -> "FormalPowerSeries":
        """Square root of a series with constant term one, on plain integers.

        With f = c / d (c the numerators over the lcm denominator d) and its
        root r = 1 + sum_(n>=1) s_n t^n / (2^(2n-1) d^n), the recurrence
        2 r_n = f_n - sum_(0<k<n) r_k r_(n-k) becomes
        s_n = c_n 4^(n-1) d^(n-1) - sum_(0<k<n) s_k s_(n-k), and only the
        output coefficients are Fractions.
        """
        if self.coeffs[0] != 1:
            raise ValueError("sqrt needs constant term one")
        c, d = _scaled(self.coeffs)
        s, out, power = [0], [Fraction(1)], 1  # power = 4^(n-1) d^(n-1)
        for n in range(1, self.order + 1):
            acc = c[n] * power
            for k in range(1, n):
                acc -= s[k] * s[n - k]
            s.append(acc)
            out.append(Fraction(acc, 2 * d * power))
            power *= 4 * d
        return FormalPowerSeries(out, self.order)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{k}" if k else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} + O(t^{self.order + 1})>"


def catalan_series(order: int) -> FormalPowerSeries:
    """Sum of Catalan numbers times t^n; satisfies C = 1 + t*C^2."""
    return FormalPowerSeries(
        [Fraction(comb(2 * n, n), n + 1) for n in range(order + 1)], order)


def _signed_euler_series(order: int) -> FormalPowerSeries:
    cat2 = catalan_series(order).scale_variable(2)
    t = FormalPowerSeries.variable(order)
    correction = FormalPowerSeries(
        [0] + [Fraction(2 ** (n - 1) * comb(2 * n - 1, n), n)
               for n in range(1, order + 1)], order)
    one = FormalPowerSeries.constant(1, order)
    return one - cat2.sqrt() * (-2 * t * cat2).exp() * (one + correction)


def _plain_euler_series(order: int) -> FormalPowerSeries:
    cat = catalan_series(order)
    t = FormalPowerSeries.variable(order)
    one = FormalPowerSeries.constant(1, order)
    return one - cat * (-2 * t * cat).exp()


def _extract_euler(series: FormalPowerSeries, first: int, upto: int) -> dict:
    out = {}
    for n in range(first, upto + 1):
        value = (-1) ** n * factorial(n) * series.coefficient(n)
        if value.denominator != 1:
            raise AssertionError(f"coefficient {n} gives a non-integer "
                                 f"Euler characteristic {value}")
        out[n] = int(value)
    return out


def predicted_chi_sym(upto: int) -> dict:
    """Predicted reduced Euler characteristic of the stripped symmetric-group
    order complex, for each rank up to `upto` (guarded at 20)."""
    if upto > PREDICTION_GUARD:
        raise ResourceGuardError(
            f"prediction guard exceeded: {upto} > {PREDICTION_GUARD}")
    return _extract_euler(_plain_euler_series(upto), 1, upto)


def predicted_chi_hyper(upto: int) -> dict:
    """Predicted reduced Euler characteristic of the stripped signed-group
    coxeter-ideal complex, for each rank from 2 up to `upto` (guarded at 20)."""
    if upto > PREDICTION_GUARD:
        raise ResourceGuardError(
            f"prediction guard exceeded: {upto} > {PREDICTION_GUARD}")
    return _extract_euler(_signed_euler_series(upto), 2, upto)


def flip_exponential_identity_ok(order: int = 10) -> bool:
    """Coefficientwise check of the closed form for exp of the alternating
    Catalan log-series: exp(sum of (-1)^(n-1) Cat(n-1) t^n / n) against
    ((sqrt(1+4t) - 1) / 2t) * exp(sqrt(1+4t) - 1)."""
    log_side = FormalPowerSeries(
        [0] + [Fraction((-1) ** (n - 1) * comb(2 * n - 2, n - 1), n * n)
               for n in range(1, order + 1)], order)
    lhs = log_side.exp()
    # the sqrt is computed one order high so shift_down loses nothing
    one = FormalPowerSeries.constant(1, order + 1)
    root = (FormalPowerSeries.variable(order + 1) * 4 + one).sqrt()
    shifted = (root - one).shift_down() * Fraction(1, 2)
    rhs = shifted * FormalPowerSeries((root - one).coeffs, order).exp()
    return lhs.agrees_with(rhs, order)
