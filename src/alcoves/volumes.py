"""Volume polynomials of orbit-polytope faces.

V_J(lambda), the |J|-dimensional Euclidean volume of Conv(W_J . lambda), is
homogeneous of degree |J| in the coweight coordinates m_j, j in J.  It is
r_J(lambda) sqrt(gram_J): gram_J = det Gram(alpha_j^v : j in J) = det C_J
prod_{j in J} 2/|alpha_j|^2 holds the square class, and the polynomial r_J,
the volume relative to the lattice the coroots in J generate, is rational.
The face splits into [W_J : W_{J-j}] congruent pyramids over each facet
type, of height (lambda, nu_j)/|nu_j| for the J-mixed dual basis nu_j =
sum_k (C_J^-1)_kj alpha_k, so (w_i^v, nu_j) = (C_J^-1)_ij, |nu_j|^2 =
(C_J^-1)_jj |alpha_j|^2 / 2, and

    r_J(x) = sum_j c_{J,j} (sum_{i in J} x_i (C_J^-1)_ij) r_{J-j}(x),
    c_{J,j} = [W_J : W_{J-j}] / |J|.

The pyramid's Euclidean factor sqrt(gram_{J-j}) / |nu_j| cancels against
sqrt(gram_J): by Cramer's rule (C_J^-1)_jj = det C_{J-j} / det C_J, so
gram_J = gram_{J-j} / |nu_j|^2, and gram_J follows from any one j in J.
The recursion runs on numbers (values) or on MPoly variables (polynomials).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import add

from .linalg import QMatrix, rational_to_str
from .mpoly import MPoly
from .rootdata import RootSystemData, weyl_order


class VolumePolynomial(namedtuple("VolumePolynomial", "J rel_poly gram")):
    """V_J in lattice-normalized form: Euclidean V_J = rel_poly * sqrt(gram)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "J": list(self.J),
            "rel_poly": self.rel_poly.to_json(),
            "gram": rational_to_str(self.gram),
        }


@lru_cache(maxsize=None)
def _pyramid_table(data: RootSystemData) -> dict:
    """J -> (gram_J, ((J-j, c_{J,j}, ((i, (C_J^-1)_ij) for i in J)) for j in J)), by |J|."""
    n = data.rank
    half = [Fraction(l, 2) for l in data.simple_root_norms]  # |alpha_j|^2 / 2
    subsets = [J for size in range(n + 1) for J in combinations(range(1, n + 1), size)]
    order = {J: weyl_order(data, J) for J in subsets}
    table = {(): (Fraction(1), ())}
    for J in subsets[1:]:
        inv = QMatrix([[data.cartan[i - 1][k - 1] for k in J] for i in J]).inverse()
        steps = []
        for p in range(len(J)):
            rest = J[:p] + J[p + 1:]
            steps.append((rest, Fraction(order[J] // order[rest], len(J)),
                          tuple((i, row[p]) for i, row in zip(J, inv.rows))))
        # gram_J = gram_{J-j} / |nu_j|^2 at j = max J: |nu_j|^2 = (C_J^-1)_jj |alpha_j|^2 / 2
        table[J] = (table[J[:-1]][0] / (inv[-1][-1] * half[J[-1] - 1]), tuple(steps))
    return table


def relative_volumes(data: RootSystemData, x, top=None, r=None) -> dict:
    """r_K(x) for every K inside `top` (default: all of 1..n), in O(n^2 2^n) steps.
    x holds numbers or MPoly variables; r holds r_K already known and gains the rest."""
    r = {(): 1} if r is None else r
    for K, (_, steps) in _pyramid_table(data).items():
        if K not in r and (top is None or top.issuperset(K)):
            r[K] = reduce(add, (c * reduce(add, (x[i - 1] * u for i, u in col)) * r[rest]
                                for rest, c, col in steps))
    return r


def _subset(data: RootSystemData, J) -> tuple[int, ...]:
    J = tuple(sorted(set(int(j) for j in J)))
    if any(j < 1 or j > data.rank for j in J):
        raise ValueError("J must be a subset of 1..%d" % data.rank)
    return J


def face_gram(data: RootSystemData, J) -> Fraction:
    """gram_J = det Gram(alpha_j^v : j in J)."""
    return _pyramid_table(data)[_subset(data, J)][0]


@lru_cache(maxsize=None)
def _variables(data: RootSystemData) -> tuple[list[MPoly], dict]:
    return [MPoly.variable(data.rank, i) for i in range(data.rank)], {(): 1}


def volume_polynomial(data: RootSystemData, J) -> VolumePolynomial:
    """Lattice-normalized volume polynomial of the face Conv(W_J . lambda)."""
    J = _subset(data, J)
    x, polys = _variables(data)
    poly = relative_volumes(data, x, set(J), polys)[J] if J else MPoly.constant(data.rank, 1)
    return VolumePolynomial(J, poly, face_gram(data, J))


def indicator(n: int, S) -> tuple[int, ...]:
    """The point 1_S of Z^n: 1 on the (1-based) indices in S, 0 elsewhere."""
    return tuple(int(i + 1 in S) for i in range(n))


def support_difference(f, J) -> Fraction:
    """Delta_J f = sum over S in J of (-1)^{|J-S|} f(S).  For f(S) = p(1_S), this
    sums the coefficients of the polynomial p over the monomials with support J."""
    return sum((-1) ** (len(J) - k) * f(S) for k in range(len(J) + 1) for S in combinations(J, k))
