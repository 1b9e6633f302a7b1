"""Volume polynomials of orbit-polytope faces.

V_J(lambda) is the |J|-dimensional Euclidean volume of Conv(W_J . lambda),
a homogeneous degree-|J| polynomial in the coweight coordinates m_1..m_n
that only involves {m_j : j in J}.  It is computed by the recursive pyramid
decomposition: split the face into [W_J : W_{J\\{j}}] congruent pyramids
over each facet type, with apex heights read off the J-mixed dual basis
vectors nu_j.

All irrationality is confined to a single square class per J: we store

    V_J = r_J * sqrt(gram_J),       gram_J = det Gram(alpha_j^v : j in J),

with r_J an exact rational polynomial (the relative volume with respect to
the lattice Z Phi^v ^ L_J, which the simple coroots in J generate).  The
recursion asserts at runtime that every summand lands in gram_J's square
class; a mismatch would mean a bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import FormulaConsistencyError
from .linalg import QMatrix, QVector, gram_det, rational_to_str
from .mpoly import MPoly
from .radicals import RadScalar, sqrt_decompose
from .rootdata import RootSystemData, weyl_order


def mixed_basis_nu(data: RootSystemData, J) -> dict[int, tuple[QVector, Fraction]]:
    """Dual vectors of the J-mixed basis: nu_j in span{alpha_k : k in J}
    with (nu_j, alpha_i^v) = delta_ij for i in J.  Returns j -> (nu_j, |nu_j|^2).
    """
    J = tuple(sorted(set(int(j) for j in J)))
    if any(j < 1 or j > data.rank for j in J):
        raise ValueError("J must be a subset of 1..%d" % data.rank)
    if not J:
        return {}
    # write nu_j = sum_k u_k alpha_k; (nu_j, alpha_i^v) = sum_k cartan[i][k] u_k
    # so u is column j of the inverse of the J x J Cartan block
    inv = QMatrix([[data.cartan[i - 1][k - 1] for k in J] for i in J]).inverse()
    out = {}
    for pos, j in enumerate(J):
        nu = QVector.zero(data.ambient_dim)
        for row, k in zip(inv.rows, J):
            nu = nu + row[pos] * data.simple_roots[k - 1]
        out[j] = (nu, nu.dot(nu))
    return out


@dataclass(frozen=True)
class VolumePolynomial:
    """V_J in lattice-normalized form: Euclidean V_J = rel_poly * sqrt(gram)."""

    J: tuple[int, ...]
    rel_poly: MPoly
    gram: Fraction

    def euclidean_at(self, point) -> RadScalar:
        return RadScalar(self.rel_poly.eval(point), self.gram)

    def to_json(self) -> dict:
        return {
            "J": list(self.J),
            "rel_poly": self.rel_poly.to_json(),
            "gram": rational_to_str(self.gram),
        }


@lru_cache(maxsize=None)
def _volume_cached(data: RootSystemData, J: tuple[int, ...]) -> VolumePolynomial:
    n = data.rank
    if not J:
        return VolumePolynomial((), MPoly.constant(n, 1), Fraction(1))
    gram_j = gram_det([data.simple_coroots[j - 1] for j in J])
    s_j, class_j = sqrt_decompose(gram_j)
    nu = mixed_basis_nu(data, J)
    order_j = weyl_order(data, J)
    acc = MPoly.zero(n)
    for j in J:
        rest = tuple(k for k in J if k != j)
        sub = _volume_cached(data, rest)
        index = order_j // weyl_order(data, rest)
        nu_j, normsq = nu[j]
        # (lambda, nu_j) as a linear polynomial; nonzero only on J-coordinates
        lin = MPoly(n, {tuple(1 if t == i - 1 else 0 for t in range(n)):
                        data.fundamental_coweights[i - 1].dot(nu_j)
                        for i in J})
        t_j, cls = sqrt_decompose(sub.gram / normsq)
        if cls != class_j:
            raise FormulaConsistencyError("radical inconsistency in pyramid recursion")
        acc = acc + (Fraction(index) * t_j) * (lin * sub.rel_poly)
    rel = acc / (len(J) * s_j)
    return VolumePolynomial(J, rel, gram_j)


def volume_polynomial(data: RootSystemData, J) -> VolumePolynomial:
    """Lattice-normalized volume polynomial of the face Conv(W_J . lambda)."""
    J = tuple(sorted(set(int(j) for j in J)))
    if any(j < 1 or j > data.rank for j in J):
        raise ValueError("J must be a subset of 1..%d" % data.rank)
    return _volume_cached(data, J)


def euclidean_volume(data: RootSystemData, J, lam) -> RadScalar:
    """Exact Euclidean |J|-volume of Conv(W_J . lambda) as a RadScalar."""
    vp = volume_polynomial(data, J)
    return vp.euclidean_at([int(c) for c in lam])


def squarefree_coefficient(data: RootSystemData, J) -> RadScalar:
    """Coefficient of prod_{j in J} m_j in the Euclidean V_J (positive)."""
    vp = volume_polynomial(data, J)
    expo = tuple(1 if i + 1 in vp.J else 0 for i in range(data.rank))
    c = RadScalar(vp.rel_poly.coeff(expo), vp.gram)
    if c.coeff <= 0:
        raise FormulaConsistencyError("squarefree volume coefficient must be positive")
    return c
