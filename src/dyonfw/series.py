"""Truncated formal power series with exact rational coefficients, and the
weak-field prefactor tables.

INTRINSIC and BOOSTED are typed once, here: the Taylor coefficients in
x = xi^2 of 1/gamma and 2/(gamma (gamma + 1)), gamma = sqrt(1 + x).  Only
series_check reads them: it compares them, as series in the boost speed
(xi = beta / sqrt(1 - beta^2)), with the classical gamma forms.
reduction.classical_hamiltonian types no table: it derives its orbital
m c^2 sqrt(1 + xi^2) and its spin prefactors as SeriesPoly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# Coefficients of x^k, x = xi^2, constant term first.
INTRINSIC = (Fraction(1), Fraction(-1, 2), Fraction(3, 8))
BOOSTED = (Fraction(1), Fraction(-3, 4), Fraction(5, 8))


class SeriesPoly:
    """Power series truncated above max_deg; coefficient list indexed by degree."""

    __slots__ = ("coeffs", "max_deg")

    def __init__(self, coeffs, max_deg: int):
        coeffs = [Fraction(c) for c in coeffs[: max_deg + 1]]
        coeffs += [Fraction(0)] * (max_deg + 1 - len(coeffs))
        self.coeffs = tuple(coeffs)
        self.max_deg = max_deg

    @staticmethod
    def zero(max_deg: int) -> "SeriesPoly":
        return SeriesPoly([], max_deg)

    @staticmethod
    def const(value, max_deg: int) -> "SeriesPoly":
        return SeriesPoly([value], max_deg)

    @staticmethod
    def x(max_deg: int) -> "SeriesPoly":
        return SeriesPoly([0, 1], max_deg)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SeriesPoly) and self.max_deg == other.max_deg
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.max_deg))

    def __repr__(self):
        return f"SeriesPoly({list(self.coeffs)}, max_deg={self.max_deg})"

    def __getitem__(self, deg: int) -> Fraction:
        return self.coeffs[deg] if deg <= self.max_deg else Fraction(0)

    def __add__(self, other) -> "SeriesPoly":
        other = _coerce(other, self.max_deg)
        return SeriesPoly([a + b for a, b in zip(self.coeffs, other.coeffs)], self.max_deg)

    def __radd__(self, other) -> "SeriesPoly":
        return self + other

    def __sub__(self, other) -> "SeriesPoly":
        other = _coerce(other, self.max_deg)
        return SeriesPoly([a - b for a, b in zip(self.coeffs, other.coeffs)], self.max_deg)

    def __rsub__(self, other) -> "SeriesPoly":
        return _coerce(other, self.max_deg) - self

    def __neg__(self) -> "SeriesPoly":
        return SeriesPoly([-a for a in self.coeffs], self.max_deg)

    def __mul__(self, other) -> "SeriesPoly":
        if not isinstance(other, SeriesPoly):
            return SeriesPoly([Fraction(other) * a for a in self.coeffs], self.max_deg)
        out = [Fraction(0)] * (self.max_deg + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: self.max_deg + 1 - i]):
                if b:
                    out[i + j] += a * b
        return SeriesPoly(out, self.max_deg)

    def __rmul__(self, other) -> "SeriesPoly":
        return self * other

    def __pow__(self, n: int) -> "SeriesPoly":
        out = SeriesPoly.const(1, self.max_deg)
        for _ in range(n):
            out = out * self
        return out

    def compose(self, inner: "SeriesPoly") -> "SeriesPoly":
        """self(inner); requires inner(0) = 0 so the truncation is exact."""
        if inner[0] != 0:
            raise ValueError("composition needs a series with zero constant term")
        out = SeriesPoly.const(self.coeffs[0], self.max_deg)
        power = SeriesPoly.const(1, self.max_deg)
        for deg in range(1, self.max_deg + 1):
            power = power * inner
            if self.coeffs[deg]:
                out = out + power * self.coeffs[deg]
        return out

    def inverse(self) -> "SeriesPoly":
        """Reciprocal series; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("no reciprocal for a series vanishing at 0")
        out = [Fraction(1, 1) / c0] + [Fraction(0)] * self.max_deg
        for n in range(1, self.max_deg + 1):
            s = sum(self.coeffs[k] * out[n - k] for k in range(1, n + 1))
            out[n] = -s / c0
        return SeriesPoly(out, self.max_deg)

    def rsqrt(self) -> "SeriesPoly":
        """(self)^(-1/2) for a series with constant term 1, via the binomial series."""
        if self.coeffs[0] != 1:
            raise ValueError("rsqrt implemented for unit constant term only")
        u = self - 1
        binom = SeriesPoly(
            [Fraction(comb(2 * k, k), (-4) ** k) for k in range(self.max_deg + 1)],
            self.max_deg,
        )
        return binom.compose(u)


def _coerce(value, max_deg: int) -> SeriesPoly:
    if isinstance(value, SeriesPoly):
        return value
    return SeriesPoly.const(value, max_deg)


# Kinematic series in the boost speed beta.

def gamma_series(max_deg: int) -> SeriesPoly:
    """1 / sqrt(1 - beta^2)."""
    beta = SeriesPoly.x(max_deg)
    return (SeriesPoly.const(1, max_deg) - beta * beta).rsqrt()


def xi_series(max_deg: int) -> SeriesPoly:
    """Scaled momentum magnitude: beta gamma(beta)."""
    return SeriesPoly.x(max_deg) * gamma_series(max_deg)


def gamma_ratio_series(max_deg: int) -> SeriesPoly:
    """gamma / (gamma + 1)."""
    g = gamma_series(max_deg)
    return g * (g + 1).inverse()
