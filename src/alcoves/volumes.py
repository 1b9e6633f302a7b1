"""Volume polynomials of orbit-polytope faces.

V_J(lambda), the |J|-dimensional Euclidean volume of Conv(W_J . lambda), is
homogeneous of degree |J| in the coweight coordinates m_j, j in J.  It is
r_J(lambda) sqrt(gram_J).  gram_J = det Gram(alpha_j^v : j in J), in closed
form det C_J prod_{j in J} 2/|alpha_j|^2, holds the square class, and the
polynomial r_J, the volume relative to the lattice the coroots in J generate,
is rational.
The face splits into [W_J : W_{J-j}] congruent pyramids over each facet
type, of height (lambda, nu_j)/|nu_j| for the J-mixed dual basis nu_j =
sum_k (C_J^-1)_kj alpha_k, so (w_i^v, nu_j) = (C_J^-1)_ij, |nu_j|^2 =
(C_J^-1)_jj |alpha_j|^2 / 2, and

    r_J(x) = sum_j c_{J,j} (sum_{i in J} x_i (C_J^-1)_ij) r_{J-j}(x),
    c_{J,j} = [W_J : W_{J-j}] / |J|.

The pyramid's Euclidean factor sqrt(gram_{J-j}) / |nu_j| cancels against
sqrt(gram_J), since (C_J^-1)_jj = det C_{J-j} / det C_J (Cramer's rule), so
gram_J = gram_{J-j} / |nu_j|^2, which the closed form for gram_J satisfies.

Every group order cancels: with r_J = |W_J| s_J / |J|!, c_{J,j} |W_{J-j}| /
(|J| - 1)! = |W_J| / |J|!, so

    s_J(x) = sum_j (sum_{i in J} x_i (adj C_J)_ij) s_{J-j}(x) / det C_J,  s_empty = 1,

which reads only the Cartan blocks.  One integer bordering step from
(adj C_{J-j}, det C_{J-j}) at j = max J gives (adj C_J, det C_J).  Keep with
each J the integer scale

    Delta_J = det C_J lcm_j Delta_{J-j},  Delta_empty = 1,

so that R_J = Delta_J s_J satisfies

    R_J(x) = sum_j w_{J,j} (sum_{i in J} x_i (adj C_J)_ij) R_{J-j}(x),
    w_{J,j} = Delta_J / (det C_J Delta_{J-j}), an integer,

and |W_J| / |J|! enters once, where r_J = |W_J| R_J / (|J|! Delta_J) is formed: in
`volume_polynomial` and in `coefficients.evaluate_formula`.  One integer memo
per (system, J) holds |W_J| for those two, det C_J, adj C_J, Delta_J and the steps
(J-j, w_{J,j}, column j of adj C_J); it is reached only for the subsets of the
J asked for.  The recursion runs on integer points (values) or on MPoly
variables (polynomials).  Only the functions that return Fractions or
polynomials (`face_gram`, `volume_polynomial`) import `fractions` and `mpoly`;
a geometric count reads the integers alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial, lcm, prod
from operator import add

from .errors import BudgetExceededError
from .rootdata import RootSystemData, RootSystemId, border, simple_subset, weyl_order


class VolumePolynomial(namedtuple("VolumePolynomial", "J rel_poly gram")):
    """V_J in lattice-normalized form: Euclidean V_J = rel_poly * sqrt(gram)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "J": list(self.J),
            "rel_poly": self.rel_poly.to_json(),
            "gram": str(self.gram),
        }


MAX_SUBSETS = 4096  # 2^n <= 4096 exactly when the rank is at most 12


def check_subset_cap(system: RootSystemId, size: int) -> None:
    """Refuse, before any work, the pyramid constants of a J of `size` indices, which
    need more than MAX_SUBSETS subsets.  `_pyramid` checks it on a miss, before it
    borders, so every route to the constants is bounded."""
    if 2 ** size > MAX_SUBSETS:
        raise BudgetExceededError("the pyramid table of %s over %d indices needs %d subsets, "
                                  "exceeding cap %d" % (system, size, 2 ** size, MAX_SUBSETS))


@lru_cache(maxsize=None)
def subsets(top: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every subset of top, by size and then lexicographically."""
    return tuple(J for size in range(len(top) + 1) for J in combinations(top, size))


@lru_cache(maxsize=None)
def _pyramid(data: RootSystemData, J: tuple[int, ...]) -> tuple:
    """(|W_J|, det C_J, adj C_J, steps, Delta_J), J bordered from J[:-1] and each J-j
    read from this memo.  steps holds (J-j, w_{J,j}, (adj C_J)[:, j]) for j in J, the
    column as (i - 1, entry) pairs over its nonzero entries.  Delta_J = det C_J lcm_j
    Delta_{J-j} and w_{J,j} = Delta_J / (det C_J Delta_{J-j}) read no group order."""
    if not J:
        return 1, 1, (), (), 1
    check_subset_cap(data.id, len(J))
    _, det, adj, _, _ = _pyramid(data, J[:-1])
    adj, det = border(data.cartan, [j - 1 for j in J], adj, det)
    rests = [J[:k] + J[k + 1:] for k in range(len(J))]
    scales = [_pyramid(data, rest)[4] for rest in rests]
    scale = lcm(*scales)
    steps = tuple((rest, scale // s, tuple((i - 1, row[k]) for i, row in zip(J, adj) if row[k]))
                  for k, (rest, s) in enumerate(zip(rests, scales)))
    return weyl_order(data, J), det, tuple(map(tuple, adj)), steps, det * scale


def _scaled_volumes(data: RootSystemData, x, top: tuple[int, ...], R: dict) -> None:
    """R_K = Delta_K s_K(x) for every K inside top, added to R, which holds R_K already
    known (R_empty among them)."""
    _pyramid(data, top)  # refuses more than MAX_SUBSETS subsets before any bordering
    for K in subsets(top):
        if K not in R:
            R[K] = reduce(add, (w * reduce(add, (x[i] * a for i, a in col)) * R[rest]
                                for rest, w, col in _pyramid(data, K)[3]))


def _gram(data: RootSystemData, J: tuple[int, ...]) -> tuple[int, int]:
    """gram_J = det Gram(alpha_j^v : j in J) = det C_J prod_{j in J} 2/|alpha_j|^2, as
    (2^|J| det C_J, prod_{j in J} |alpha_j|^2), not reduced, for a J checked already."""
    return 2 ** len(J) * _pyramid(data, J)[1], prod(data.simple_root_norms[j - 1] for j in J)


def face_gram(data: RootSystemData, J) -> Fraction:
    """gram_J as a Fraction."""
    from fractions import Fraction
    return Fraction(*_gram(data, simple_subset(data.rank, J)))


def volume_polynomial(data: RootSystemData, J) -> VolumePolynomial:
    """Lattice-normalized volume polynomial of the face Conv(W_J . lambda)."""
    from fractions import Fraction
    from .mpoly import MPoly
    J = simple_subset(data.rank, J)
    n = data.rank
    scaled = {(): MPoly.constant(n, 1)}
    _scaled_volumes(data, [MPoly.variable(n, i) for i in range(n)], J, scaled)
    order, _, _, _, scale = _pyramid(data, J)
    return VolumePolynomial(J, scaled[J] * Fraction(order, factorial(len(J)) * scale),
                            face_gram(data, J))
