"""Orbit polytopes Conv(W_f . lambda): lattice points and faces.

The primary count follows the dominant-chamber decomposition: the coset
points of the polytope are the W_f-orbit of X_lambda, the set of dominant
coweights below lambda in dominance order, so

    |P(lambda) ^ (lambda + Z Phi^v)| = sum over mu in X_lambda of |W_f|/|W_Z(mu)|

and |<= theta(lambda)| is |W_f| times that.  A geometric membership test
(`contains`) over an exponent box gives an independent second route, which
the benchmark's reference pins run; it reads the ambient view, the coroot
walk does not.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import product
from operator import sub

from .errors import BudgetExceededError
from .linalg import QMatrix, QVector, rational_to_str
from .rootdata import RootSystemData, dominant_coords, weyl_order

DEFAULT_BOX_CAP = 10 ** 8


class DominantCoweight:
    """A dominant coweight by its coweight-basis coordinates; immutable and hashable."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(int(c) for c in coords)
        if any(c < 0 for c in coords):
            raise ValueError("coordinates must be non-negative")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value=None):
        raise AttributeError("DominantCoweight is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return DominantCoweight, (self.coords,)

    def __eq__(self, other):
        if not isinstance(other, DominantCoweight):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return "DominantCoweight(coords=%r)" % (self.coords,)

    @property
    def vanishing_set(self) -> frozenset[int]:
        return frozenset(j + 1 for j, c in enumerate(self.coords) if c == 0)

    def __iter__(self):
        return iter(self.coords)


def _coords(lam) -> tuple[int, ...]:
    if isinstance(lam, DominantCoweight):
        return lam.coords
    out = tuple(int(c) for c in lam)
    if any(c < 0 for c in out):
        raise ValueError("dominant coweight required")
    return out


def _box_bounds(data: RootSystemData, lam: tuple[int, ...], box_cap: int) -> tuple[int, ...]:
    """(lambda - w0 lambda, omega_j): exponent bound for each simple coroot.

    Refuses before any scan when the box has more than box_cap cells.
    """
    # w0 lambda is minus the dominant representative of -lambda
    plus, _ = dominant_coords(data, [-c for c in lam])
    bounds = data.coroot_coords_from_coweight([a + b for a, b in zip(lam, plus)])
    out = []
    for b in bounds:
        if b.denominator != 1 or b < 0:
            raise ValueError("non-integral box bound; lambda is not a coweight")
        out.append(int(b))
    size = math.prod(b + 1 for b in out)
    if size > box_cap:
        raise BudgetExceededError("exponent box has %d cells, exceeding cap %d" % (size, box_cap))
    return tuple(out)


def check_level_budget(data: RootSystemData, lam, box_cap: int) -> None:
    """Refuse when U = prod_j (floor(h / eta_j) + 1) > box_cap, h = sum_i eta_i lam_i.

    U bounds |X_lambda|: each mu in it has sum_i eta_i mu_i <= h.  U grows
    with h, so a coweight at least as large in every coordinate as each one
    of a batch bounds the whole batch.
    """
    h = sum(e * c for e, c in zip(data.marks, lam))
    cells = math.prod(h // e + 1 for e in data.marks)
    if cells > box_cap:
        raise BudgetExceededError("level simplex has %d cells, exceeding cap %d" % (cells, box_cap))


def enumerate_X(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> list[DominantCoweight]:
    """All dominant mu <= lam in dominance order, sorted by coordinates.

    A walk from lam that subtracts positive coroots and keeps the dominant
    results reaches all of X_lambda: dominant mu < nu are joined by a chain
    of dominant coweights, each a positive coroot below the last
    (Stembridge, The partial order of dominant weights, 1998).  It first
    refuses by `check_level_budget`.
    """
    lam = _coords(lam)
    check_level_budget(data, lam, box_cap)
    seen, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for c in data.positive_coroot_coords:
            nu = tuple(map(sub, mu, c))
            if min(nu) >= 0 and nu not in seen:
                seen.add(nu)
                todo.append(nu)
    return [DominantCoweight(mu) for mu in sorted(seen)]


def lattice_count(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|P(lambda) ^ (lambda + Z Phi^v)| by orbit-size summation over X_lambda."""
    total = 0
    order = data.wf_order
    stabs: dict[frozenset, int] = {}  # |W_Z(mu)| by vanishing set: at most 2^n keys
    for mu in enumerate_X(data, lam, box_cap=box_cap):
        z = mu.vanishing_set
        stab = stabs[z] if z in stabs else stabs.setdefault(z, weyl_order(data, z))
        if order % stab:
            raise AssertionError("stabilizer order must divide |W_f|")
        total += order // stab
    return total


def interval_size_lattice(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|<= theta(lambda)| via the lattice route: |W_f| * lattice_count."""
    return data.wf_order * lattice_count(data, lam, box_cap=box_cap)


def contains(data: RootSystemData, lam, p: QVector) -> bool:
    """Geometric membership of an ambient point p in Conv(W_f . lambda).

    p belongs to the orbit polytope iff its dominant representative p+
    satisfies lambda - p+ in the non-negative rational cone on the simple
    coroots.
    """
    lam = _coords(lam)
    coords = data.coweight_coords(p)
    plus, _ = dominant_coords(data, coords)
    diff = tuple(Fraction(a) - b for a, b in zip(lam, plus))
    return all(c >= 0 for c in data.coroot_coords_from_coweight(diff))


def lattice_count_by_membership(data: RootSystemData, lam,
                                box_cap: int = DEFAULT_BOX_CAP) -> int:
    """Independent brute-force coset-point count using `contains`.

    Scans lambda - sum x_j alpha_j^v over the full bounding box without any
    dominance shortcut; infrastructure for cross-checking lattice_count.
    """
    lam = _coords(lam)
    n = data.rank
    # every coset point lies in lambda - cone(alpha^v) and above w0.lambda
    bounds = _box_bounds(data, lam, box_cap)
    count = 0
    for exps in product(*(range(b + 1) for b in bounds)):
        coords = list(Fraction(c) for c in lam)
        for j in range(n):
            if exps[j]:
                row = data.cartan[j]
                for i in range(n):
                    coords[i] -= exps[j] * row[i]
        point = data.ambient_from_coweight(coords)
        if contains(data, lam, point):
            count += 1
    return count


class FaceDescriptor(namedtuple("FaceDescriptor", "J vertex_set dim orbit_face_count")):
    """The face Conv(W_J . lambda) of the orbit polytope containing lambda.

    orbit_face_count is [W_f : W_J]; it counts the W_f-orbit for generic lambda.
    """

    __slots__ = ()


def face(data: RootSystemData, lam, J) -> FaceDescriptor:
    """Vertex set {w . lambda : w in W_J} and affine-span dimension."""
    lam = _coords(lam)
    J = tuple(sorted(set(int(j) for j in J)))
    if any(j < 1 or j > data.rank for j in J):
        raise ValueError("J must be a subset of 1..%d" % data.rank)
    n = data.rank
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for c in frontier:
            for j in J:
                cj = c[j - 1]
                if cj == 0:
                    continue
                row = data.cartan[j - 1]
                img = tuple(c[i] - cj * row[i] for i in range(n))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    vertices = tuple(data.ambient_from_coweight(c) for c in sorted(seen))
    base = vertices[0]
    dim = QMatrix([list(v - base) for v in vertices]).rank() if len(vertices) > 1 else 0
    index = data.wf_order // weyl_order(data, J)
    return FaceDescriptor(J, vertices, dim, index)


def face_to_json(data: RootSystemData, lam, J) -> dict:
    f = face(data, lam, J)
    return {
        "schema": 1,
        "system": str(data.id),
        "lambda": list(_coords(lam)),
        "J": list(f.J),
        "dim": f.dim,
        "orbit_face_count": f.orbit_face_count,
        "vertices": [[rational_to_str(x) for x in v] for v in f.vertex_set],
    }
