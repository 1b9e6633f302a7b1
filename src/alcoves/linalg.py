"""The one matrix routine, a bordering step, and the one rational format.

Everything is built on ``fractions.Fraction``; no floating point enters any
computation.  The library inverts only Cartan blocks of finite type, which are
positive definite up to a diagonal scaling, so bordering one index at a time
needs no pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import AlcovesError


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
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)

