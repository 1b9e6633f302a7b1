"""Exact scalars of the form q * sqrt(d).

Values like sqrt(n+1)/(n+1)! (alcove volumes) and 12*sqrt(3) (geometric
coefficients) are irrational but live in a single quadratic extension each.
We keep them exact as a rational coefficient times the square root of a
canonical radicand.

Canonical form: the radicand is a positive squarefree integer (all square
factors, including the denominator, are absorbed into the coefficient), and
the value 0 is stored as (0, 1).  RadScalars are only multiplied, divided
and compared; comparisons across classes go through ``square()``.
"""

from __future__ import annotations

from fractions import Fraction


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s^2 * d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, d, f = 1, 1, 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * n


def sqrt_decompose(q: Fraction) -> tuple[Fraction, int]:
    """Exact sqrt(q) = s * sqrt(d) with d a squarefree positive integer."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("positive rational required")
    # sqrt(p/q) = sqrt(p*q)/q
    s, d = squarefree_decompose(q.numerator * q.denominator)
    return Fraction(s, q.denominator), d


class RadScalar:
    """Exact value coeff * sqrt(radicand), kept in canonical form."""

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        if coeff == 0:
            rad = 1
        else:
            s, rad = sqrt_decompose(radicand)
            coeff *= s
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", rad)

    def __setattr__(self, name, value):
        raise AttributeError("RadScalar is immutable")

    @staticmethod
    def sqrt(q) -> "RadScalar":
        """Exact square root of a positive rational."""
        return RadScalar(1, Fraction(q))

    def is_rational(self) -> bool:
        return self.radicand == 1

    def __mul__(self, other) -> "RadScalar":
        if isinstance(other, RadScalar):
            return RadScalar(self.coeff * other.coeff, self.radicand * other.radicand)
        return RadScalar(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadScalar":
        if isinstance(other, RadScalar):
            return self * other.reciprocal()
        return RadScalar(self.coeff / Fraction(other), self.radicand)

    def reciprocal(self) -> "RadScalar":
        if self.coeff == 0:
            raise ZeroDivisionError("reciprocal of zero")
        # 1/(c*sqrt(d)) = (1/(c*d)) * sqrt(d)
        return RadScalar(1 / (self.coeff * self.radicand), self.radicand)

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __eq__(self, other):
        if isinstance(other, RadScalar):
            return self.coeff == other.coeff and self.radicand == other.radicand
        return self.radicand == 1 and self.coeff == other

    def __hash__(self):
        return hash((self.coeff, self.radicand))

    def __repr__(self):
        if self.radicand == 1:
            return "RadScalar(%s)" % self.coeff
        return "RadScalar(%s*sqrt(%d))" % (self.coeff, self.radicand)

    def to_json(self) -> dict:
        from .linalg import rational_to_str
        return {"coeff": rational_to_str(self.coeff), "radicand": str(self.radicand)}

