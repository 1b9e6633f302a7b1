"""Brute-force oracles used only by the tests.

The hull-volume routine computes the exact Euclidean volume of the convex
hull of rational points in dimension <= 3 by explicit facet enumeration and
simplicial decomposition, with no shared code path with the library's
pyramid recursion.  Polynomial interpolation recovers a counting polynomial
from its values by one dense solve, independently of the triangular fit.
The exponent-box scan finds X_lambda by testing every cell of a box that
contains it, and the coroot walk by following dominance steps down from
lambda, each independently of the library's search over the dual matrix B;
the walk reaches E7 and E8, where the box is too large to scan.  The volume
recursion with a Fraction at every step, each C_K^-1 by Gauss-Jordan, checks
the library's integer-scaled one.  The positive roots
by reflection closure of the ambient simple roots, and the J-mixed dual
basis nu_j as ambient vectors, check the library's integer root strings and
Cartan-matrix volume constants.  The element oracle keeps W_a as n x n
integer matrices with translations, multiplies them out, and finds lengths,
descents and lower intervals from them, against the library's alcove points.

The rest are reference routes and values that no command reads: a general
pivoting Gauss-Jordan elimination (det, rank, inverse and solve over row
lists), against which the library's bordering step and face dimensions are
checked, Gram determinants, radical reciprocals and squares,
polynomial degree tests, Euclidean face volumes and coefficients, the type-A
coefficient pipeline from hypersimplex Ehrhart polynomials, and the root data
derived from the ambient vectors, against which the integer core is checked.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, gcd, lcm, prod
from operator import mul, sub

from alcoves.affine import DEFAULT_INTERVAL_CAP, _context as _alcove_context, _fold
from alcoves.coefficients import GeometricCoefficients, _stirling1_row, hypersimplex_ehrhart
from alcoves.errors import AlcovesError, BudgetExceededError, FormulaConsistencyError
from alcoves.linalg import QVector
from alcoves.mpoly import MPoly
from alcoves.orbits import DEFAULT_BOX_CAP, _box_bounds, face
from alcoves.radicals import RadScalar, squarefree_decompose
from alcoves.rootdata import (RootSystemData, _exact_quotient, build_root_system,
                              dominant_coords, dominant_coweight, simple_subset, weyl_order)
from alcoves.volumes import face_gram, indicator, relative_volumes, subsets, support_difference


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
    d = matrix_det([[u.dot(v) for v in vectors] for u in vectors])
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
    roots, coroots = data.simple_roots, data.simple_coroots
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
            nu = nu + row[pos] * data.simple_roots[k - 1]
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


def enumerate_X_by_walk(data, lam):
    """All dominant mu <= lam, sorted: a walk from lam that subtracts positive coroots
    and keeps the dominant results reaches all of X_lambda, since dominant mu < nu are
    joined by a chain of dominant coweights, each a positive coroot below the last
    (Stembridge, The partial order of dominant weights, 1998).  mu - c is dominant iff
    mu_i >= c_i wherever c_i > 0, since mu_i - c_i >= mu_i >= 0 elsewhere."""
    lam = dominant_coweight(data.rank, lam)
    steps = [(c, [(i, x) for i, x in enumerate(c) if x > 0])
             for c in data.positive_coroot_coords]
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
    roots = [data.simple_roots[j - 1] for j in J]
    g = [[u.dot(v) for v in roots] for u in roots]
    coords = [tuple(solve_linear(g, [(v - vertices[0]).dot(u) for u in roots])) for v in vertices]
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
        atilde_coroot = data.positive_coroot_coords[-1]  # of the highest root

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
    return RadScalar(relative_volumes(data, dominant_coweight(data.rank, lam), J)[J], face_gram(data, J))


def squarefree_coefficient(data: RootSystemData, J) -> RadScalar:
    """Coefficient of prod_{j in J} m_j in the Euclidean V_J (positive).  r_J is
    homogeneous of degree |J| in the m_j, j in J, so that is Delta_J of r_J(1_S)."""
    J = simple_subset(data.rank, J)
    c = support_difference(lambda S: relative_volumes(data, indicator(data.rank, S), J)[J], J)
    if c <= 0:
        raise FormulaConsistencyError("squarefree volume coefficient must be positive")
    return RadScalar(c, face_gram(data, J))


def mu_full(data: RootSystemData) -> RadScalar:
    """mu of the full polytope: 1 / vol(A_id), exact."""
    return reciprocal(data.alcove_volume)


def mu_euclidean(coeffs: GeometricCoefficients, data: RootSystemData, J) -> RadScalar:
    """The Euclidean coefficient mu_J = mu'_J / sqrt(gram_J)."""
    mu = coeffs.mu_prime[tuple(sorted(set(int(j) for j in J)))]
    return RadScalar(mu) * reciprocal(RadScalar.sqrt(face_gram(data, J)))


def stirling1(a: int, b: int) -> int:
    """Unsigned Stirling number of the first kind [a, b], from the library's row."""
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
