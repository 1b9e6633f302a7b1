"""Brute-force oracles used only by the tests.

The hull-volume routine computes the exact Euclidean volume of the convex
hull of rational points in dimension <= 3 by explicit facet enumeration and
simplicial decomposition, with no shared code path with the library's
pyramid recursion.  Polynomial interpolation recovers a counting polynomial
from its values by one dense solve, independently of the triangular fit.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from alcoves.errors import SingularSystemError
from alcoves.linalg import QMatrix, QVector, gram_det, solve_linear
from alcoves.mpoly import MPoly
from alcoves.radicals import RadScalar


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
        coeffs = solve_linear(QMatrix(rows), rhs)
    except SingularSystemError:
        raise InterpolationError("insufficient sample geometry") from None
    poly = MPoly(nvars, dict(zip(support, coeffs)))
    for pt, val in samples[len(support):]:
        if poly.eval(pt) != Fraction(val):
            raise InterpolationError("inconsistent samples beyond the support")
    return poly


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
    """Exact volume of the convex hull of rational points in R^3."""
    pts = [tuple(Fraction(x) for x in p) for p in _dedupe(points)]
    if QMatrix([[a - b for a, b in zip(p, pts[0])] for p in pts]).rank() < 3:
        return Fraction(0)
    m = len(pts)
    centroid = tuple(sum(p[i] for p in pts) / m for i in range(3))
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
            elif QMatrix([basis[0], d]).rank() == 2:
                basis.append(d)
                break
        if len(basis) < 2:
            continue  # degenerate face contributes nothing
        g = QMatrix([[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis])
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
    return volume / 6


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

    Orbit points are expressed in the basis {alpha_j : j in J} of the face's
    linear span; the hull volume in those coordinates is rescaled by the
    root-basis lattice determinant sqrt(det Gram(alpha_j)).
    """
    J = tuple(sorted(J))
    k = len(J)
    if k == 0:
        return RadScalar(1)
    # W_J-orbit of lambda in coweight coordinates
    cart = data.cartan.rows
    n = data.rank
    lam = tuple(int(c) for c in lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for c in frontier:
            for j in J:
                cj = c[j - 1]
                if cj == 0:
                    continue
                img = tuple(c[i] - cj * cart[j - 1][i] for i in range(n))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    roots = [data.simple_roots[j - 1] for j in J]
    g = QMatrix([[u.dot(v) for v in roots] for u in roots])
    base = data.ambient_from_coweight(lam)
    coords = []
    for c in sorted(seen):
        d = data.ambient_from_coweight(c) - base
        rhs = QVector([d.dot(u) for u in roots])
        coords.append(tuple(solve_linear(g, rhs)))
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
        return RadScalar.zero()
    return RadScalar(rel, gram_det(roots))
