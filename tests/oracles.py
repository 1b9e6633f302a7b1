"""Brute-force oracles used only by the tests.

The hull-volume routine computes the exact Euclidean volume of the convex
hull of rational points in dimension <= 3 by explicit facet enumeration and
simplicial decomposition, with no shared code path with the library's
pyramid recursion.  Polynomial interpolation recovers a counting polynomial
from its values by one dense solve, independently of the triangular solve.
The exponent-box scan finds X_lambda by testing every cell of a box that
contains it, and the coroot walk by following dominance steps down from
lambda, each independently of the library's search over the dual matrix B;
the walk reaches E7 and E8, where the box is too large to scan.  The volume
recursion with a Fraction at every step, each C_K^-1 by Gauss-Jordan and each
c_{K,j} = [W_K : W_{K-j}] / |K| from the group orders, checks the library's
integer-scaled one, which reads no group order.  The codimension-2 Schur
complements by double sums (`wedge_by_schur_complement`) check the library's
reading of them off adj C.  The positive roots
by reflection closure of the ambient simple roots, and the J-mixed dual
basis nu_j as ambient vectors, check the library's integer root strings and
Cartan-matrix volume constants.  The element oracle keeps W_a as n x n
integer matrices with translations, multiplies them out, and finds lengths,
descents and lower intervals from them, against the library's alcove points.

The triangular solve from the counts at the 0/1 coweights (`solve_from_counts`),
with the values `relative_volumes` and the support differences it reads, derives
mu' from counts alone; the library derives it by the Berline-Vergne recursion,
and tier-1 checks every shipped file against both.

The ambient view by Fraction arithmetic, with C^-1 by Gauss-Jordan, checks
the library's integer combinations of the doubled simple roots.  The formula
summed in Fractions (`evaluate_formula_by_fractions`) checks the library's sum
over one common integer denominator.  The argparse parser that the CLI used
before its own argv reader (`_build_parser`), kept verbatim, is the reference
for every namespace and usage message that reader gives.

The rest are reference routes and values that no command reads: two
reference types, rational vectors (`QVector`) and exact scalars q * sqrt(d)
(`RadScalar`), a general pivoting Gauss-Jordan elimination (det, rank,
inverse and solve over row lists), against which the library's bordering step
and face dimensions are checked, Gram determinants, radical reciprocals and
squares, polynomial degree tests, Euclidean face volumes and coefficients, the type-A
coefficient pipeline from hypersimplex Ehrhart polynomials, and the root data
derived from the ambient vectors, against which the integer core is checked.
"""

import argparse
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, gcd, lcm, prod
from operator import mul, sub

from alcoves.affine import DEFAULT_INTERVAL_CAP, _context as _alcove_context, _fold
from alcoves import __version__
from alcoves.cli import (UsageError, budget, cmd_count, cmd_ehrhart, cmd_faces, cmd_fit,
                         cmd_rootdata, cmd_verify, cmd_volumes, integer)
from alcoves.cli import __doc__ as _CLI_DOC
from alcoves.coefficients import GeometricCoefficients, hypersimplex_ehrhart
from alcoves.errors import (AlcovesError, BudgetExceededError, FitVerificationError,
                            FormulaConsistencyError)
from alcoves.mpoly import MPoly
from alcoves.orbits import DEFAULT_BOX_CAP, _box_bounds, face
from alcoves.rootdata import (RootSystemData, _exact_quotient, build_root_system,
                              dominant_coords, dominant_coweight, simple_subset,
                              squarefree_decompose, weyl_order)
from alcoves.volumes import _pyramid, _scaled_volumes, face_gram, subsets


# -- reference types: rational vectors and radical scalars ----------------------

class QVector:
    """Immutable vector with exact rational entries.  It equals, and hashes as, the
    tuple of its entries, so it compares directly with the library's ambient tuples;
    arithmetic takes any sequence of the same length on the right."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(Fraction(x) for x in entries))

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if isinstance(other, (QVector, tuple)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other) -> "QVector":
        return QVector(a + b for a, b in zip(self.entries, other, strict=True))

    def __sub__(self, other) -> "QVector":
        return QVector(a - b for a, b in zip(self.entries, other, strict=True))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def __mul__(self, scalar) -> "QVector":
        s = Fraction(scalar)
        return QVector(a * s for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other) -> Fraction:
        return sum((a * b for a, b in zip(self.entries, other, strict=True)), Fraction(0))

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector([0] * n)

    def __repr__(self):
        return "QVector(%s)" % (", ".join(str(a) for a in self.entries))


class RadScalar:
    """Exact value coeff * sqrt(radicand) in canonical form: the radicand is a positive
    squarefree integer (every square factor, the denominator's too, is absorbed into
    the coefficient) and 0 is (0, 1), so two RadScalars are equal exactly when their
    pairs are.  RadScalar(*pair) reads a library (coeff, radicand) pair."""

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        if coeff == 0:
            rad = 1
        else:  # sqrt(p/q) = sqrt(p q) / q
            s, rad = squarefree_decompose(radicand.numerator * radicand.denominator)
            coeff *= Fraction(s, radicand.denominator)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", rad)

    def __setattr__(self, name, value):
        raise AttributeError("RadScalar is immutable")

    @staticmethod
    def sqrt(q) -> "RadScalar":
        """Exact square root of a positive rational."""
        return RadScalar(1, Fraction(q))

    def __mul__(self, other) -> "RadScalar":
        if isinstance(other, RadScalar):
            return RadScalar(self.coeff * other.coeff, self.radicand * other.radicand)
        return RadScalar(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadScalar":
        return RadScalar(self.coeff / Fraction(other), self.radicand)

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


# -- exact linear algebra and radicals ----------------------------------------

class DegenerateBasisError(AlcovesError, ValueError):
    """Linearly dependent vectors where a basis was required."""


class SingularSystemError(AlcovesError, ValueError):
    """Square linear system with no unique solution."""


def _gauss_jordan(m, extra=()):
    """Reduce [M | extra] (row lists; extra holds right-hand sides) to reduced row echelon
    form, pivoting in M only on the first row with a nonzero entry in the pivot column.
    Returns (rows, pivot columns, det M)."""
    ncols = len(m[0]) if m else 0
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged rows")
    rows = [[Fraction(x) for x in list(r) + list(e)]
            for r, e in zip(m, extra or [()] * len(m), strict=True)]
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(ncols):
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


def matrix_det(m) -> Fraction:
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    return _gauss_jordan(m)[2]


def matrix_rank(m) -> int:
    return len(_gauss_jordan(m)[1])


def matrix_inverse(m) -> list[list[Fraction]]:
    """M^-1 of a square nonsingular M; SingularSystemError otherwise."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    rows, pivots, _ = _gauss_jordan(m, [[int(i == j) for j in range(n)] for i in range(n)])
    if len(pivots) < n:
        raise SingularSystemError("singular system")
    return [row[n:] for row in rows]


def matvec(m, v) -> QVector:
    return QVector(sum((a * Fraction(x) for a, x in zip(row, v, strict=True)), Fraction(0))
                   for row in m)


def solve_linear(m, b) -> QVector:
    """Solve Mx = b exactly for square nonsingular M; SingularSystemError otherwise."""
    if len(b) != len(m):
        raise ValueError("solve_linear needs a square system")
    return matvec(matrix_inverse(m), b)


def gram_det(vectors) -> Fraction:
    """Determinant of the Gram matrix of `vectors` (1 for the empty list): the
    squared lattice determinant of a basis.  Linearly dependent input is rejected."""
    if not vectors:
        return Fraction(1)
    d = matrix_det([[QVector(u).dot(v) for v in vectors] for u in vectors])
    if d == 0:
        raise DegenerateBasisError("degenerate basis")
    return d


def sqrt_decompose(q) -> tuple[Fraction, int]:
    """Exact sqrt(q) = s * sqrt(d) with d a squarefree positive integer."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("positive rational required")
    s, d = squarefree_decompose(q.numerator * q.denominator)  # sqrt(p/q) = sqrt(p q) / q
    return Fraction(s, q.denominator), d


def reciprocal(r: RadScalar) -> RadScalar:
    if r.coeff == 0:
        raise ZeroDivisionError("reciprocal of zero")
    return RadScalar(1 / (r.coeff * r.radicand), r.radicand)  # 1/(c sqrt d) = sqrt(d)/(c d)


def is_rational(r: RadScalar) -> bool:
    return r.radicand == 1


def square(r: RadScalar) -> Fraction:
    return r.coeff * r.coeff * r.radicand


# -- polynomial degree tests ---------------------------------------------------

def homogeneous_part(p: MPoly, d: int) -> MPoly:
    return MPoly(p.nvars, {e: c for e, c in p.terms.items() if sum(e) == d})


def is_homogeneous(p: MPoly, d: int) -> bool:
    return all(sum(e) == d for e in p.terms)


def variables_used(p: MPoly) -> frozenset:
    return frozenset(i for e in p.terms for i, x in enumerate(e) if x)


# -- the core root data, derived from the ambient vectors -----------------------

def ambient_core(data) -> dict:
    """The integer core as the ambient model derives it: Fraction dot products of
    the simple roots and coroots, and the positive roots by reflection closure."""
    roots, coroots = [QVector(a) for a in data.simple_roots], data.simple_coroots
    cartan = tuple(tuple(a.dot(av) for a in roots) for av in coroots)
    closure = generate_positive_roots(data)
    marks = closure[-1][0]
    det = matrix_det(cartan)
    # (alpha^v, alpha_i) = 2 (alpha, alpha_i) / (alpha, alpha), on the doubled vectors
    twice = [tuple(int(2 * x) for x in a) for a in roots]
    coroot_coords = []
    for _, r in closure:
        r = tuple(int(2 * x) for x in r)
        rr = sum(map(mul, r, r))
        coroot_coords.append(tuple(Fraction(2 * sum(map(mul, r, a)), rr) for a in twice))
    return {
        "cartan": cartan,
        "norms": tuple(a.dot(a) for a in roots),
        "positive_coroot_coords": coroot_coords,
        "marks": marks,
        "det": det,
        "wf_order": factorial(data.rank) * prod(marks) * det,
    }


def ambient_by_fractions(data) -> dict:
    """The ambient view by Fraction arithmetic on QVectors, keyed by the library's
    names: alpha_k from the doubled simple roots, alpha_k^v = 2 alpha_k / (alpha_k,
    alpha_k), C^-1 of the ambient Cartan matrix by Gauss-Jordan,
    w_i^v = sum_k (C^-1)_ik alpha_k^v and w_i = sum_k (C^-1)_ki alpha_k, each duality
    checked, and the lattice volumes as RadScalars: det Q^v-dual = sqrt(det Gram(w^v))
    and vol(A_id) = that / (n! prod marks)."""
    n = data.rank
    roots = [QVector(Fraction(x, 2) for x in a) for a in data._twice_roots]
    coroots = [a * (2 / a.dot(a)) for a in roots]
    inv = matrix_inverse([[a.dot(av) for a in roots] for av in coroots])
    zero = QVector.zero(len(roots[0]))
    coweights = [sum((inv[i][k] * coroots[k] for k in range(n)), zero) for i in range(n)]
    weights = [sum((inv[k][i] * roots[k] for k in range(n)), zero) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if coweights[i].dot(roots[j]) != (i == j) or weights[i].dot(coroots[j]) != (i == j):
                raise AlcovesError("duality failed")
    det = RadScalar.sqrt(gram_det(coweights))
    return {
        "simple_roots": roots, "simple_coroots": coroots, "ambient_dim": len(zero),
        "highest_root": sum((m * a for m, a in zip(data.marks, roots)), zero),
        "fundamental_coweights": coweights, "fundamental_weights": weights,
        "det_coweight_lattice": det,
        "alcove_volume": det / (factorial(n) * prod(data.marks)),
    }


def generate_positive_roots(data) -> list[tuple[tuple[int, ...], QVector]]:
    """(simple-root coordinates, ambient root) of every positive root, by the
    closure of the simple roots under the simple reflections.

    The closure runs on the doubled ambient vectors R = 2 r, where
    s_a(R) = R - (2 (R, A) / (A, A)) A stays integral, and the coordinates are
    the pairings c_i = (r, w_i^v) with the ambient fundamental coweights.
    """
    simple = []
    for a in data.simple_roots:
        if any((2 * x).denominator != 1 for x in a):
            raise AlcovesError("a doubled simple root is not integral")
        simple.append(tuple(int(2 * x) for x in a))
    norms = [sum(map(mul, a, a)) for a in simple]
    roots = set(simple) | {tuple(-x for x in a) for a in simple}
    frontier = set(roots)
    while frontier:
        new = set()
        for r in frontier:
            for a, aa in zip(simple, norms):
                m = _exact_quotient(2 * sum(map(mul, r, a)), aa)
                img = tuple(x - m * y for x, y in zip(r, a))
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    scale = lcm(*(x.denominator for w in data.fundamental_coweights for x in w))
    coweights = [tuple(int(x * scale) for x in w) for w in data.fundamental_coweights]
    pos = []
    for r in roots:
        coords = tuple(_exact_quotient(sum(map(mul, r, w)), 2 * scale) for w in coweights)
        if all(c >= 0 for c in coords):
            pos.append((coords, QVector(Fraction(x, 2) for x in r)))
    pos.sort(key=lambda t: (sum(t[0]), t[0]))
    return pos


def diagram_components(data, J) -> list[tuple[int, ...]]:
    """The connected components of the Dynkin sub-diagram on J, each sorted."""
    J = set(J)
    comps = []
    while J:
        comp, stack = set(), [min(J)]
        while stack:
            i = stack.pop()
            comp.add(i)
            stack.extend(k for k in J - comp if data.cartan[i - 1][k - 1] != 0)
        comps.append(tuple(sorted(comp)))
        J -= comp
    return comps


def mixed_basis_nu(data: RootSystemData, J) -> dict[int, tuple[QVector, Fraction]]:
    """Dual vectors of the J-mixed basis: nu_j in span{alpha_k : k in J}
    with (nu_j, alpha_i^v) = delta_ij for i in J.  Returns j -> (nu_j, |nu_j|^2).
    """
    J = simple_subset(data.rank, J)
    # write nu_j = sum_k u_k alpha_k; (nu_j, alpha_i^v) = sum_k cartan[i][k] u_k
    # so u is column j of the inverse of the J x J Cartan block
    inv = matrix_inverse([[data.cartan[i - 1][k - 1] for k in J] for i in J])
    out = {}
    for pos, j in enumerate(J):
        nu = QVector.zero(data.ambient_dim)
        for row, k in zip(inv, J):
            nu = nu + row[pos] * QVector(data.simple_roots[k - 1])
        out[j] = (nu, nu.dot(nu))
    return out


@lru_cache(maxsize=None)
def _fraction_pyramids(data: RootSystemData) -> dict:
    """K -> ((K-j, c_{K,j}, column j of C_K^-1), ...) for every K inside 1..n, each
    inverse by Gauss-Jordan and each c_{K,j} = [W_K : W_{K-j}] / |K| a Fraction."""
    out = {}
    for K in subsets(tuple(range(1, data.rank + 1))):
        inv = matrix_inverse([[data.cartan[i - 1][k - 1] for k in K] for i in K])
        rests = [K[:p] + K[p + 1:] for p in range(len(K))]
        out[K] = tuple((rest, Fraction(weyl_order(data, K) // weyl_order(data, rest), len(K)),
                        [row[p] for row in inv])
                       for p, rest in enumerate(rests))
    return out


@lru_cache(maxsize=None)
def _relative_volume_by_fractions(data: RootSystemData, K: tuple[int, ...], xK) -> Fraction:
    if not K:
        return Fraction(1)
    return sum(c * sum(x * a for x, a in zip(xK, col) if x)
               * _relative_volume_by_fractions(data, rest, xK[:p] + xK[p + 1:])
               for p, (rest, c, col) in enumerate(_fraction_pyramids(data)[K]))


def relative_volumes_by_fractions(data: RootSystemData, x) -> dict:
    """r_K(x) for every K inside 1..n by the unscaled recursion, every step a Fraction:

        r_K(x) = sum_j c_{K,j} (sum_{i in K} x_i (C_K^-1)_ij) r_{K-j}(x).

    r_K reads only the x_i with i in K, so each r_K is kept by (K, those x_i) and
    shared between the points asked for."""
    return {K: _relative_volume_by_fractions(data, K, tuple(x[i - 1] for i in K))
            for K in subsets(tuple(range(1, data.rank + 1)))}


def wedge_by_schur_complement(data: RootSystemData, k: int, l: int) -> tuple:
    """(T_kk, T_ll, T_kl) for J = 1..n minus {k, l}, T_ab = det C_J C_ab - sum_{i,j in J}
    C_ai (adj C_J)_ij C_jb, det C_J times the Schur complement of C_J in C, with det C_J
    and adj C_J = det C_J C_J^-1 by Gauss-Jordan."""
    C = data.cartan
    J = tuple(j for j in range(1, data.rank + 1) if j not in (k, l))
    block = [[C[i - 1][j - 1] for j in J] for i in J]
    det = matrix_det(block)
    adj = [[det * x for x in row] for row in matrix_inverse(block)]
    return tuple(det * C[a - 1][b - 1] - sum(C[a - 1][i - 1] * x * C[j - 1][b - 1]
                                             for i, row in zip(J, adj) for j, x in zip(J, row))
                 for a, b in ((k, k), (l, l), (k, l)))


class InterpolationError(ValueError):
    """Sample points do not determine a polynomial on the given support."""


def _monomial_value(point, expo) -> Fraction:
    v = Fraction(1)
    for x, e in zip(point, expo):
        if e:
            v *= Fraction(x) ** e
    return v


def mpoly_interpolate(support, samples) -> MPoly:
    """Unique polynomial on `support` matching all (point, value) samples.

    The first len(support) samples must give a nonsingular evaluation
    matrix; any extra samples are checked for consistency.
    """
    support = [tuple(int(x) for x in e) for e in support]
    if not support:
        raise ValueError("empty support")
    nvars = len(support[0])
    if len(samples) < len(support):
        raise InterpolationError("need at least %d samples" % len(support))
    rows = [[_monomial_value(pt, e) for e in support] for pt, _ in samples[: len(support)]]
    rhs = QVector([Fraction(v) for _, v in samples[: len(support)]])
    try:
        coeffs = solve_linear(rows, rhs)
    except SingularSystemError:
        raise InterpolationError("insufficient sample geometry") from None
    poly = MPoly(nvars, dict(zip(support, coeffs)))
    for pt, val in samples[len(support):]:
        if poly.eval(pt) != Fraction(val):
            raise InterpolationError("inconsistent samples beyond the support")
    return poly


def enumerate_X_by_box(data, lam, box_cap=DEFAULT_BOX_CAP):
    """All dominant mu <= lam, sorted: every lam - sum_j x_j alpha_j^v with
    0 <= x_j <= (lam - w0 lam, omega_j) that is dominant."""
    lam = dominant_coweight(data.rank, lam)
    n = data.rank
    bounds = _box_bounds(data, lam, box_cap)
    out = []
    rng = range(n)
    for exps in product(*(range(b + 1) for b in bounds)):
        mu = list(lam)
        for j in rng:
            xj = exps[j]
            if xj:
                row = data.cartan[j]
                for i in rng:
                    mu[i] -= xj * row[i]
        if all(c >= 0 for c in mu):
            out.append(tuple(mu))
    return sorted(out)


@lru_cache(maxsize=None)
def positive_coroot_coords(data: RootSystemData) -> list[tuple[int, ...]]:
    """Each positive coroot in coweight coordinates, ((alpha^v, alpha_i))_i, in the
    order of `positive_root_coords`, from the integer Gram matrix of the doubled simple
    roots: (alpha^v, alpha_i) = 2 (alpha, alpha_i) / (alpha, alpha) = 2 t_i / <c, t>
    for alpha = sum_k c_k alpha_k and t = g c, t_i = 4 (alpha, alpha_i)."""
    roots = data._twice_roots
    gram = [[sum(map(mul, a, b)) for b in roots] for a in roots]  # 4 (alpha_i, alpha_j)
    out = []
    for c in data.positive_root_coords:
        t = [sum(map(mul, row, c)) for row in gram]
        ct = sum(map(mul, c, t))
        out.append(tuple(_exact_quotient(2 * x, ct) for x in t))
    return out


def enumerate_X_by_walk(data, lam):
    """All dominant mu <= lam, sorted: a walk from lam that subtracts positive coroots
    and keeps the dominant results reaches all of X_lambda, since dominant mu < nu are
    joined by a chain of dominant coweights, each a positive coroot below the last
    (Stembridge, The partial order of dominant weights, 1998).  mu - c is dominant iff
    mu_i >= c_i wherever c_i > 0, since mu_i - c_i >= mu_i >= 0 elsewhere."""
    lam = dominant_coweight(data.rank, lam)
    steps = [(c, [(i, x) for i, x in enumerate(c) if x > 0])
             for c in positive_coroot_coords(data)]
    seen, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for c, mask in steps:
            if all(mu[i] >= x for i, x in mask):
                nu = tuple(map(sub, mu, c))
                if nu not in seen:
                    seen.add(nu)
                    todo.append(nu)
    return sorted(seen)


def _dedupe(points):
    out = []
    seen = set()
    for p in points:
        t = tuple(p)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _hull_area_2d(points):
    """Exact area of the convex hull of rational points in the plane."""
    pts = sorted(_dedupe(points))
    if len(pts) < 3:
        return Fraction(0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    area2 = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        area2 += x1 * y2 - x2 * y1
    return abs(area2) / 2


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _primitive(normal, offset):
    denom_lcm = 1
    for x in list(normal) + [offset]:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in normal] + [int(offset * denom_lcm)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def _hull_volume_3d(points):
    """Exact volume of the convex hull of rational points in R^3.

    The points are scaled by L, the lcm of their denominators, so that the
    plane test runs on integers; the hull's volume scales by L^3.
    """
    pts = [tuple(Fraction(x) for x in p) for p in _dedupe(points)]
    L = lcm(*(x.denominator for p in pts for x in p))
    pts = [tuple(int(x * L) for x in p) for p in pts]
    if matrix_rank([[a - b for a, b in zip(p, pts[0])] for p in pts]) < 3:
        return Fraction(0)
    m = len(pts)
    centroid = tuple(Fraction(sum(p[i] for p in pts), m) for i in range(3))
    planes = {}
    for a, b, c in combinations(range(m), 3):
        u = tuple(pts[b][i] - pts[a][i] for i in range(3))
        v = tuple(pts[c][i] - pts[a][i] for i in range(3))
        normal = _cross3(u, v)
        if all(x == 0 for x in normal):
            continue
        offset = sum(normal[i] * pts[a][i] for i in range(3))
        side = [sum(normal[i] * p[i] for i in range(3)) - offset for p in pts]
        if all(s <= 0 for s in side) or all(s >= 0 for s in side):
            key = _primitive(normal, offset)
            if key not in planes:
                planes[key] = [i for i, s in enumerate(side) if s == 0]
    volume = Fraction(0)
    for key, idxs in planes.items():
        face_pts = [pts[i] for i in idxs]
        # 2D coordinates inside the face plane
        base = face_pts[0]
        basis = []
        for p in face_pts[1:]:
            d = tuple(p[i] - base[i] for i in range(3))
            if not basis:
                if any(d):
                    basis.append(d)
            elif matrix_rank([basis[0], d]) == 2:
                basis.append(d)
                break
        if len(basis) < 2:
            continue  # degenerate face contributes nothing
        g = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
        plane_coords = []
        for p in face_pts:
            d = tuple(p[i] - base[i] for i in range(3))
            rhs = QVector([sum(a * b for a, b in zip(d, u)) for u in basis])
            plane_coords.append(tuple(solve_linear(g, rhs)))
        # order the face boundary via its 2D hull, then fan-triangulate
        ordered = _hull_cycle_2d(plane_coords)
        coords3 = []
        for c in ordered:
            coords3.append(tuple(base[i] + c[0] * basis[0][i] + c[1] * basis[1][i]
                                 for i in range(3)))
        apex = centroid
        for i in range(1, len(coords3) - 1):
            u = tuple(coords3[i][k] - coords3[0][k] for k in range(3))
            v = tuple(coords3[i + 1][k] - coords3[0][k] for k in range(3))
            w = tuple(apex[k] - coords3[0][k] for k in range(3))
            det = (u[0] * (v[1] * w[2] - v[2] * w[1])
                   - u[1] * (v[0] * w[2] - v[2] * w[0])
                   + u[2] * (v[0] * w[1] - v[1] * w[0]))
            volume += abs(det)
    return volume / (6 * L ** 3)


def _hull_cycle_2d(points):
    """Vertices of the 2D convex hull in boundary order."""
    pts = sorted(_dedupe(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def orbit_face_euclidean_volume(data, J, lam) -> RadScalar:
    """Exact Euclidean |J|-volume of Conv(W_J . lambda) from first principles.

    The orbit points that `face` walks are expressed in the basis
    {alpha_j : j in J} of the face's linear span; the hull volume in those
    coordinates is rescaled by the root-basis lattice determinant
    sqrt(det Gram(alpha_j)).
    """
    J = tuple(sorted(J))
    k = len(J)
    if k == 0:
        return RadScalar(1)
    vertices = face(data, lam, J).vertex_set  # the W_J-orbit of lambda
    roots = [QVector(data.simple_roots[j - 1]) for j in J]
    g = [[u.dot(v) for v in roots] for u in roots]
    coords = [tuple(solve_linear(g, [(QVector(v) - vertices[0]).dot(u) for u in roots]))
              for v in vertices]
    if k == 1:
        xs = [c[0] for c in coords]
        rel = max(xs) - min(xs)
    elif k == 2:
        rel = _hull_area_2d(coords)
    elif k == 3:
        rel = _hull_volume_3d(coords)
    else:
        raise NotImplementedError("hull oracle only supports |J| <= 3")
    if rel == 0:
        return RadScalar(0)
    return RadScalar(rel, gram_det(roots))


# The element oracle: W_a as n x n integer matrices on coweight coordinates.

DEFAULT_GROUP_CAP = 10 ** 6

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


class AffineElement:
    """Affine map x -> Lx + t on coweight coordinates, L and t integral."""

    __slots__ = ("lin", "tr")

    def __init__(self, lin: Mat, tr: Vec):
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "tr", tr)

    def __setattr__(self, name, value):
        raise AttributeError("AffineElement is immutable")

    @staticmethod
    def identity(n: int) -> "AffineElement":
        return AffineElement(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
                             (0,) * n)

    def __matmul__(self, other: "AffineElement") -> "AffineElement":
        """Composition self o other (apply `other` first)."""
        a, b = self.lin, other.lin
        n = len(a)
        cols = tuple(zip(*b))
        lin = tuple(tuple(sum(ar[k] * bc[k] for k in range(n)) for bc in cols) for ar in a)
        tr = tuple(sum(ar[k] * other.tr[k] for k in range(n)) + t for ar, t in zip(a, self.tr))
        return AffineElement(lin, tr)

    def apply(self, coords):
        """Apply to a point given in coweight coordinates (exact)."""
        return tuple(sum(r[k] * Fraction(coords[k]) for k in range(len(r))) + t
                     for r, t in zip(self.lin, self.tr))

    def is_identity(self) -> bool:
        n = len(self.lin)
        return self.tr == (0,) * n and all(
            self.lin[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    def __eq__(self, other):
        return isinstance(other, AffineElement) and self.lin == other.lin and self.tr == other.tr

    def __hash__(self):
        return hash((self.lin, self.tr))

    def __repr__(self):
        return "AffineElement(lin=%r, tr=%r)" % (self.lin, self.tr)

    def in_affine_weyl_group(self, data: RootSystemData) -> bool:
        """True iff the translation part lies in the coroot lattice Z Phi^v."""
        return data.in_coroot_lattice(self.tr)


class _Context:
    """Precomputed integer tables for one root system."""

    def __init__(self, data: RootSystemData):
        self.data = data
        n = data.rank
        self.n = n
        # pairing vectors: (x, alpha) = <coords(x), k(alpha)> for positive alpha
        self.pairings = data.positive_root_coords
        self.marks = tuple(int(m) for m in data.marks)
        atilde_coroot = positive_coroot_coords(data)[-1]  # of the highest root

        # s_i(x) = x - (<k, x> + c) * v: s_0 has k = marks, c = 1, v = highest^v;
        # s_i has k = e_i, c = 0 and v = alpha_i^v (row i of the Cartan matrix)
        self.walls = [(self.marks, 1, atilde_coroot)]
        for i, row in enumerate(data.cartan):
            unit = tuple(int(j == i) for j in range(n))
            self.walls.append((unit, 0, row))
        self.reflections = refs = [
            AffineElement(tuple(tuple(int(r == j) - v[r] * k[j] for j in range(n))
                                for r in range(n)), tuple(-c * x for x in v))
            for k, c, v in self.walls]

        # barycenter of A_id: average of {0, -w_i^v / eta_i}
        self.scale = (n + 1) * lcm(*self.marks)
        self.bary = tuple(-self.scale // ((n + 1) * self.marks[i]) for i in range(n))

        w0coords, w0word = dominant_coords(data, [Fraction(b, self.scale) for b in self.bary])
        w0 = AffineElement.identity(n)
        for i in w0word:
            w0 = refs[i] @ w0
        self.w0 = w0
        self.w0_word = w0word
        if _length(self, w0) != len(self.pairings):
            raise AlcovesError("longest element has wrong length")


@lru_cache(maxsize=None)
def _context(data: RootSystemData) -> _Context:
    return _Context(data)


def simple_reflection(data: RootSystemData, i: int) -> AffineElement:
    """s_i for i in 1..n; s_0 is the affine reflection through H_{highest,-1}."""
    ctx = _context(data)
    if not 0 <= i <= ctx.n:
        raise ValueError("reflection index out of range")
    return ctx.reflections[i]


def _length(ctx: _Context, w: AffineElement) -> int:
    bary = ctx.bary
    N = ctx.scale
    img = tuple(sum(r[k] * bary[k] for k in range(ctx.n)) + N * t
                for r, t in zip(w.lin, w.tr))
    total = 0
    for k in ctx.pairings:
        a = sum(bary[j] * k[j] for j in range(ctx.n))
        b = sum(img[j] * k[j] for j in range(ctx.n))
        total += abs(b // N - a // N)
    return total


def length(data: RootSystemData, w: AffineElement) -> int:
    """Separating-hyperplane count between A_id and A_w (works for all of W_e)."""
    return _length(_context(data), w)


def longest_finite_element(data: RootSystemData) -> tuple[AffineElement, list[int]]:
    ctx = _context(data)
    return ctx.w0, list(ctx.w0_word)


def element(data: RootSystemData, word) -> AffineElement:
    """The product s_{i_1} s_{i_2} ... of a word."""
    w = AffineElement.identity(data.rank)
    for i in word:
        w = w @ simple_reflection(data, i)
    return w


def alcove_point(data: RootSystemData, w: AffineElement) -> tuple[int, ...]:
    """N w(b): the image of the barycenter of A_id, at the scale that makes it integral."""
    ctx = _context(data)
    return tuple(sum(map(mul, row, ctx.bary)) + ctx.scale * t for row, t in zip(w.lin, w.tr))


@lru_cache(maxsize=None)
def _linear_inverse(lin: Mat) -> AffineElement:
    """L^{-1} as the last power of L before the identity (W_f is finite)."""
    el = AffineElement(lin, (0,) * len(lin))
    power = el
    while not (power @ el).is_identity():
        power = power @ el
    return power


def inverse(w: AffineElement) -> AffineElement:
    """x -> L^{-1} x - L^{-1} t."""
    inv = _linear_inverse(w.lin)
    return AffineElement(inv.lin, tuple(-sum(map(mul, row, w.tr)) for row in inv.lin))


def descents(data: RootSystemData, w: AffineElement) -> tuple[set[int], set[int]]:
    """Left and right descent sets within {0..n}."""
    ctx = _context(data)
    lw = length(data, w)
    left = {i for i in range(ctx.n + 1) if length(data, ctx.reflections[i] @ w) < lw}
    right = {i for i in range(ctx.n + 1) if length(data, w @ ctx.reflections[i]) < lw}
    return left, right


def lower_interval_elements(data: RootSystemData, w: AffineElement, word,
                            cap: int = DEFAULT_INTERVAL_CAP) -> set[AffineElement]:
    """{u : u <= w} by subword closure along one reduced word for w.

    S_0 = {id}; S_k = S_{k-1} united with S_{k-1} * s_{i_k}.  The result does
    not depend on which reduced word is supplied (tested property).
    """
    ctx = _context(data)
    word = list(word)
    if length(data, w) != len(word):
        raise ValueError("word is not reduced for this element")
    check = AffineElement.identity(ctx.n)
    for i in word:
        check = check @ ctx.reflections[i]
    if check != w:
        raise ValueError("word does not multiply to the element")

    n = ctx.n
    rng = range(n)
    ident = AffineElement.identity(n)
    elements: set = {(ident.lin, ident.tr)}
    gens = [(ctx.reflections[i].lin, ctx.reflections[i].tr) for i in range(n + 1)]
    for i in word:
        glin, gtr = gens[i]
        gcols = tuple(zip(*glin))
        new = []
        for lin, tr in elements:
            nlin = tuple(tuple(sum(lr[k] * gc[k] for k in rng) for gc in gcols) for lr in lin)
            ntr = tuple(sum(lr[k] * gtr[k] for k in rng) + t for lr, t in zip(lin, tr))
            key = (nlin, ntr)
            if key not in elements:
                new.append(key)
        elements.update(new)
        if len(elements) > cap:
            raise BudgetExceededError(
                "lower interval exceeds cap of %d elements" % cap)
    return {AffineElement(lin, tr) for lin, tr in elements}


def subword_closure(start, walls, word, scale: int) -> set:
    """P_0 = {start}; P_k = P_{k-1} united with s_{i_k}(P_{k-1}) along the word, with
    every point of P_{k-1} reflected again at each step, so quadratic in |P|: the
    reference for `affine._close`, which reflects each point at most once per wall."""
    points = {start}
    for i in word:
        k, c, v = walls[i]
        for p in list(points):
            m = sum(map(mul, k, p)) + c * scale
            points.add(tuple(a - m * b for a, b in zip(p, v)))
    return points


def enumerate_weyl_group(data: RootSystemData, cap: int = DEFAULT_GROUP_CAP) -> list[AffineElement]:
    """All of W_f by closure over the simple reflections.

    Refuses (with the order in the message) when |W_f| exceeds the cap;
    E7 and E8 are far beyond the default.
    """
    if data.wf_order > cap:
        raise BudgetExceededError(
            "refusing to enumerate W_f(%s): order %d exceeds cap %d"
            % (data.id, data.wf_order, cap))
    ctx = _context(data)
    gens = [ctx.reflections[i] for i in range(1, ctx.n + 1)]
    seen = {AffineElement.identity(ctx.n)}
    frontier = list(seen)
    while frontier:
        new = []
        for u in frontier:
            for s in gens:
                v = u @ s
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
    if len(seen) != data.wf_order:
        raise AlcovesError("enumerated order %d != %d" % (len(seen), data.wf_order))
    return sorted(seen, key=lambda e: (e.lin, e.tr))


# -- reference routes that no command reads ------------------------------------

def element_from_point(data: RootSystemData, point):
    """The unique w in W_a whose alcove contains the point, as (N w(b), reduced word).

    `point` is an alcove-interior point: a QVector in ambient coordinates,
    or any other sequence taken as coweight coordinates.
    """
    if isinstance(point, QVector):
        point = data.coweight_coords(point)
    p = [Fraction(c) for c in point]
    if len(p) != data.rank:
        raise ValueError("expected %d coweight coordinates" % data.rank)
    scale = lcm(*(c.denominator for c in p))
    return _fold(_alcove_context(data), tuple(int(c * scale) for c in p), scale)


def euclidean_volume(data: RootSystemData, J, lam) -> RadScalar:
    """Exact Euclidean |J|-volume of Conv(W_J . lambda) as a RadScalar."""
    J = simple_subset(data.rank, J)
    return RadScalar(relative_volumes(data, lam)[J], face_gram(data, J))


def squarefree_coefficient(data: RootSystemData, J) -> RadScalar:
    """Coefficient of prod_{j in J} m_j in the Euclidean V_J (positive).  r_J is
    homogeneous of degree |J| in the m_j, j in J, so that is Delta_J of r_J(1_S)."""
    J = simple_subset(data.rank, J)
    c = support_difference(lambda S: relative_volumes(data, indicator(data.rank, S))[J], J)
    if c <= 0:
        raise FormulaConsistencyError("squarefree volume coefficient must be positive")
    return RadScalar(c, face_gram(data, J))


def mu_full(data: RootSystemData) -> RadScalar:
    """mu of the full polytope: 1 / vol(A_id), exact."""
    return reciprocal(RadScalar(*data.alcove_volume))


def mu_euclidean(coeffs: GeometricCoefficients, data: RootSystemData, J) -> RadScalar:
    """The Euclidean coefficient mu_J = mu'_J / sqrt(gram_J)."""
    mu = coeffs.mu_prime[tuple(sorted(set(int(j) for j in J)))]
    return RadScalar(mu) * reciprocal(RadScalar.sqrt(face_gram(data, J)))


@lru_cache(maxsize=None)
def _stirling1_row(a: int) -> tuple[int, ...]:
    row = (1,)
    for r in range(1, a + 1):
        row = tuple((row[b - 1] if b >= 1 else 0) + (r - 1) * (row[b] if b < r else 0)
                    for b in range(r + 1))
    return row


def stirling1(a: int, b: int) -> int:
    """Unsigned Stirling number of the first kind [a, b]: [a, b] = [a-1, b-1] + (a-1) [a-1, b]."""
    if a < 0 or b < 0 or b > a:
        raise ValueError("stirling1 needs 0 <= b <= a")
    return _stirling1_row(a)[b]


@lru_cache(maxsize=None)
def _eulerian_row(r: int) -> tuple[int, ...]:
    row = (1,)
    for q in range(2, r + 1):
        row = tuple((q - s + 1) * (row[s - 2] if s >= 2 else 0)
                    + s * (row[s - 1] if s < q else 0) for s in range(1, q + 1))
    return row


def eulerian(r: int, s: int) -> int:
    """Eulerian number A(r, s), 1-indexed: A(1,1) = 1, A(3,2) = 4."""
    if r < 1 or not 1 <= s <= r:
        raise ValueError("eulerian needs 1 <= s <= r")
    return _eulerian_row(r)[s - 1]


def type_a_connected_mu(n: int) -> dict[tuple[int, ...], Fraction]:
    """Lattice-normalized mu' for every connected interval J = {u+1..u+l} in A_n.

    For each length l the coefficients solve a lower-triangular system whose
    matrix holds the m_i^l coefficients of V_J (Eulerian numbers over l!)
    and whose right side holds the t^l coefficients of (n+1)! E_{i,n+1}(t).
    The remaining rows of the overdetermined system and the closed forms for
    J = {1..l} are checked before returning.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    e = {}
    for i in range(1, n + 1):
        poly = hypersimplex_ehrhart(i, n + 1)
        for l in range(0, n + 1):
            e[(i, l)] = factorial(n + 1) * poly.terms.get((l,), 0)

    def c_prime(i: int, l: int, u: int) -> Fraction:
        # m_i^l coefficient of the relative volume of I(l, u) = {u+1..u+l}
        return Fraction(eulerian(l, i - u), factorial(l))

    out: dict[tuple[int, ...], Fraction] = {}
    for l in range(1, n + 1):
        windows = list(range(0, n - l + 1))  # J = I(l, u)
        mu = {}
        for row, i in enumerate(range(1, n - l + 2)):
            acc = e[(i, l)]
            for u in windows:
                if u + 1 <= i <= u + l and u != i - 1:
                    acc -= c_prime(i, l, u) * mu[u]
            mu[i - 1] = acc / c_prime(i, l, i - 1)
        # remaining equations of the overdetermined system must also hold
        for i in range(n - l + 2, n + 1):
            acc = Fraction(0)
            for u in windows:
                if u + 1 <= i <= u + l:
                    acc += c_prime(i, l, u) * mu[u]
            if acc != e[(i, l)]:
                raise FormulaConsistencyError(
                    "type-A system row %d is inconsistent for l=%d" % (i, l))
        for u in windows:
            out[tuple(range(u + 1, u + l + 1))] = mu[u]
        # closed form for the leading window J = {1..l}
        closed = factorial(l) * (n + 1) * stirling1(n + 1, l + 1)
        if out[tuple(range(1, l + 1))] != closed:
            raise FormulaConsistencyError("leading type-A coefficient mismatch at l=%d" % l)
    # l = n window must agree with the alcove-volume closed form
    full = mu_full(build_root_system("A", n)) * RadScalar.sqrt(Fraction(n + 1))
    if not is_rational(full) or full.coeff != out[tuple(range(1, n + 1))]:
        raise FormulaConsistencyError("type-A top coefficient disagrees with 1/vol(A_id)")
    return out


# -- mu' solved from counts at the 0/1 coweights ---------------------------------------

def relative_volumes(data: RootSystemData, lam) -> dict:
    """r_K(lambda) = |W_K| R_K / (|K|! Delta_K) for every K inside 1..n, by the library's
    integer recursion at the dominant coweight lambda, and one division for each K."""
    R = {(): 1}
    _scaled_volumes(data, dominant_coweight(data.rank, lam), tuple(range(1, data.rank + 1)), R)
    return {K: Fraction(v * _pyramid(data, K)[0], factorial(len(K)) * _pyramid(data, K)[4])
            for K, v in R.items()}


def indicator(n: int, S) -> tuple[int, ...]:
    """The point 1_S of Z^n: 1 on the (1-based) indices in S, 0 elsewhere."""
    return tuple(int(i + 1 in S) for i in range(n))


def support_difference(f, J) -> Fraction:
    """Delta_J f = sum over S in J of (-1)^{|J-S|} f(S).  For f(S) = p(1_S), this
    sums the coefficients of the polynomial p over the monomials with support J."""
    return sum((-1) ** (len(J) - k) * f(S) for k in range(len(J) + 1) for S in combinations(J, k))


def solve_from_counts(data: RootSystemData, counts) -> GeometricCoefficients:
    """Every mu'_J from the interval counts that counts maps each 0/1 coweight to: the
    count-based derivation, which shares no step with `_berline_vergne`.

    Delta_J (`support_difference`) of the values at the points 1_S keeps the
    monomials with support J, and r_K only involves the variables in K, so

        Delta_J count = sum over K containing J of mu'_K a_{K,J},  a_{K,J} = Delta_J r_K.

    The system is triangular in subset inclusion, and its diagonal a_{J,J} is
    the squarefree coefficient of r_J, which is positive; so mu' is solved
    from the largest J down, and checked against the closed-form pins.
    """
    n = data.rank
    every = subsets(tuple(range(1, n + 1)))
    diff = {J: support_difference(lambda S: counts[indicator(n, S)], J) for J in every}
    volumes = {S: relative_volumes(data, indicator(n, S)) for S in every}
    mu = {}
    for K in reversed(every):
        a = {J: support_difference(lambda S: volumes[S][K], J)
             for J in every if set(J) <= set(K)}
        if a[K] <= 0:
            raise FormulaConsistencyError("squarefree volume coefficient must be positive")
        mu[K] = diff[K] / a[K]
        for J, c in a.items():
            if J != K:
                diff[J] -= mu[K] * c
    try:
        return GeometricCoefficients(data.id, mu)  # the closed-form pins
    except ValueError as exc:
        raise FitVerificationError("fit failed verification: %s" % exc) from None


# -- the formula in Fractions -------------------------------------------------------

def evaluate_formula_by_fractions(data: RootSystemData, coeffs: GeometricCoefficients,
                                  lam) -> int:
    """sum_J mu'_J r_J(lambda); must land on a non-negative integer.

    The coefficients are valid by construction; ones of another system raise ValueError.
    """
    lam = dominant_coweight(data.rank, lam)
    if coeffs.system != data.id:
        raise ValueError("coefficients are for %s, not %s" % (coeffs.system, data.id))
    r = relative_volumes(data, lam)
    total = sum((mu * r[J] for J, mu in coeffs.mu_prime.items()), Fraction(0))
    if total.denominator != 1 or total < 0:
        raise FormulaConsistencyError("formula evaluation inconsistent at %r" % (lam,))
    return int(total)


# -- the argparse parser of the CLI ---------------------------------------------------

_COMMANDS = ("count", "fit", "verify", "ehrhart", "volumes", "faces", "rootdata")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads '-1,1' as an option flag, as it matches only '-1' or '-1.5' as a
        # negative number; no option here starts '-<digit>', so such an argument is a
        # value, and --lambda -1,1 or --J -1,2 reaches this CLI's own check
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def error(self, message):
        raise UsageError(message)


def _build_parser(command: str | None = None) -> _Parser:
    """The parser, with only the subparser of `command` when that is one of _COMMANDS
    (all seven took 3-4 ms to build); help, --version and usage errors see them all."""
    parser = _Parser(prog="alcoves", description=_CLI_DOC)
    parser.add_argument("--version", action="version", version="alcoves " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, text, func):  # the subparser of name, or None when it is not built
        if command in _COMMANDS and command != name:
            return None
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    def add_system_args(p, need_lambda=False):
        p.add_argument("--type", required=True, dest="family",
                       help="root system family letter (A/B/C/D/E/F/G)")
        p.add_argument("--rank", required=True, type=integer)
        if need_lambda:
            p.add_argument("--lambda", required=True, dest="lam",
                           help="comma-separated coweight coordinates")

    def add_caps(p):  # count and verify; fit reads --box-cap alone, the rest no cap
        p.add_argument("--interval-cap", type=budget, default=DEFAULT_INTERVAL_CAP)
        p.add_argument("--box-cap", type=budget, default=DEFAULT_BOX_CAP)
        p.add_argument("--cache-dir", default=None)

    if p := add("count", "count |<= theta(lambda)| one way", cmd_count):
        add_system_args(p, need_lambda=True)
        add_caps(p)
        p.add_argument("--method", required=True, choices=["bruhat", "lattice", "geometric"])
        p.add_argument("--coeffs", help="coefficient JSON for --method geometric")

    if p := add("fit", "fit geometric coefficients and write them to a file", cmd_fit):
        add_system_args(p)
        p.add_argument("--box-cap", type=budget, default=DEFAULT_BOX_CAP)
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true")

    if p := add("verify", "cross-check all three counting methods", cmd_verify):
        add_system_args(p)
        add_caps(p)
        p.add_argument("--max-coord", type=integer, default=2)

    if p := add("ehrhart", "hypersimplex Ehrhart polynomial", cmd_ehrhart):
        p.add_argument("--k", required=True, type=integer)
        p.add_argument("--d", required=True, type=integer)

    if p := add("volumes", "face volume polynomial", cmd_volumes):
        add_system_args(p)
        p.add_argument("--J", required=True, help="comma-separated indices, or 'empty'")

    if p := add("faces", "vertex data of one face (JSON for external tools)", cmd_faces):
        add_system_args(p, need_lambda=True)
        p.add_argument("--J", required=True, help="comma-separated indices, or 'empty'")

    if p := add("rootdata", "dump derived root system data", cmd_rootdata):
        add_system_args(p)
    return parser
