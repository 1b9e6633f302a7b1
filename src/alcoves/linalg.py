"""Exact rational vectors and the one matrix routine, a bordering step.

Everything is built on ``fractions.Fraction``; no floating point enters any
computation.  Vectors are immutable (tuple-backed) so they can be shared
freely and used as dictionary keys.  The library inverts only Cartan blocks
of finite type, which are positive definite up to a diagonal scaling, so
bordering one index at a time needs no pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable

from .errors import AlcovesError


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QVector:
    """Immutable vector with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(_frac(x) for x in entries))

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "QVector") -> "QVector":
        return QVector(a + b for a, b in zip(self.entries, other.entries, strict=True))

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector(a - b for a, b in zip(self.entries, other.entries, strict=True))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def __mul__(self, scalar) -> "QVector":
        s = _frac(scalar)
        return QVector(a * s for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: "QVector") -> Fraction:
        return sum((a * b for a, b in zip(self.entries, other.entries, strict=True)), Fraction(0))

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector([0] * n)

    def __repr__(self):
        return "QVector(%s)" % (", ".join(str(a) for a in self.entries))


def border(m, J, inv) -> tuple[list[list[Fraction]], Fraction]:
    """One bordering (Schur-complement) step: from inv, the inverse of the principal
    block m_{J'} of m on J' = J[:-1], the inverse of m_J and s = det m_J / det m_{J'}.
    With j = J[-1], u the new column and v the new row, s = m_jj - v inv u and

        m_J^-1 = [[inv + (inv u)(v inv) / s, -(inv u) / s], [-(v inv) / s, 1 / s]].

    Refuses unless s > 0, which holds when the principal minors of m are positive,
    as those of a Cartan matrix of finite type are.
    """
    *rest, j = J
    u = [m[i][j] for i in rest]
    v = [m[j][k] for k in rest]
    iu = [sum(map(mul, row, u)) for row in inv]
    s = Fraction(m[j][j] - sum(map(mul, v, iu)))
    if s <= 0:
        raise AlcovesError("a leading minor is not positive: not a Cartan matrix of finite type")
    vi = [sum(map(mul, v, col)) / s for col in zip(*inv)]  # (v inv) / s
    out = [[x + p * q for x, q in zip(row, vi)] + [-p / s] for row, p in zip(inv, iu)]
    out.append([-q for q in vi] + [1 / s])
    return out, s


def rational_to_str(q: Fraction) -> str:
    """Serialize p/q with no precision loss ("3", "-2/7", ...)."""
    q = _frac(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)

