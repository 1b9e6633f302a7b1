"""Exact rational vectors and matrices, and one Gauss-Jordan elimination.

Everything is built on ``fractions.Fraction``; no floating point enters any
computation.  Vectors and matrices are immutable (tuple-backed) so they can
be shared freely and used as dictionary keys.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import SingularSystemError


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


class QMatrix:
    """Immutable matrix with exact rational entries, stored by rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(_frac(x) for x in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _gauss_jordan(self)[2]

    def rank(self) -> int:
        return len(_gauss_jordan(self)[1])

    def inverse(self) -> "QMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        rows, pivots, _ = _gauss_jordan(self, QMatrix.identity(n).rows)
        if len(pivots) < n:
            raise SingularSystemError("singular system")
        return QMatrix(row[n:] for row in rows)

    def __repr__(self):
        return "QMatrix(%d x %d)" % (self.nrows, self.ncols)


def _gauss_jordan(m: QMatrix, extra=()):
    """Reduce [M | extra] to reduced row echelon form, pivoting in M only.

    `extra` holds rows appended to the rows of M (right-hand sides).
    Returns (rows, pivot columns, det), where det is det(M) for square M.
    Pivot selection is deterministic: the first row with a nonzero entry in
    the pivot column.  Each pivot row is scaled to a leading 1 and the
    pivot column is cleared in every other row.
    """
    rows = [list(r) + list(e) for r, e in zip(m.rows, extra or [()] * m.nrows, strict=True)]
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(m.ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            det = -det
        p = rows[top][c]
        det *= p
        prow = rows[top] = [x / p for x in rows[top]]
        for r, row in enumerate(rows):
            f = row[c]
            if f != 0 and r != top:
                rows[r] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
    return rows, pivots, det


def rational_to_str(q: Fraction) -> str:
    """Serialize p/q with no precision loss ("3", "-2/7", ...)."""
    q = _frac(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)

