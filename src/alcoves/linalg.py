"""The one matrix routine: an integer bordering step.

The library inverts only Cartan blocks of finite type, which are positive
definite up to a diagonal scaling, so bordering one index at a time needs no
pivoting.  Each step carries the adjugate and the determinant of the principal
block, both integers, so no denominator is ever formed: m_J^-1 = adj m_J / det m_J.
"""

from __future__ import annotations

from operator import mul

from .errors import AlcovesError


def border(m, J, adj, det) -> tuple[list[list[int]], int]:
    """One bordering step on an integer matrix m: from the adjugate and determinant of
    the principal block m_{J'} on J' = J[:-1], those of m_J.  With j = J[-1], u the
    new column and v the new row, d = det m_J = det m_jj - v adj u and

        adj m_J = [[(d adj + (adj u)(v adj)) / det, -adj u], [-v adj, det]].

    The division is exact: by Sylvester's identity each entry of the quotient is a
    cofactor of m_J.  Start from ([], 1).  Refuses unless d > 0, which holds when the
    leading principal minors of m are positive, as those of a Cartan matrix of finite
    type are.
    """
    *rest, j = J
    u = [m[i][j] for i in rest]
    v = [m[j][k] for k in rest]
    au = [sum(map(mul, row, u)) for row in adj]  # adj u
    va = [sum(map(mul, v, col)) for col in zip(*adj)]  # v adj
    d = det * m[j][j] - sum(map(mul, v, au))
    if d <= 0:
        raise AlcovesError("a leading minor is not positive: not a Cartan matrix of finite type")
    out = [[(d * x + p * q) // det for x, q in zip(row, va)] + [-p] for row, p in zip(adj, au)]
    out.append([-q for q in va] + [det])
    return out, d
