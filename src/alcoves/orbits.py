"""Orbit polytopes Conv(W_f . lambda): lattice points and faces.

The primary count follows the dominant-chamber decomposition: the coset
points of the polytope are the W_f-orbit of X_lambda, the set of dominant
coweights below lambda in dominance order, so

    |P(lambda) ^ (lambda + Z Phi^v)| = sum over mu in X_lambda of |W_f|/|W_Z(mu)|

and |<= theta(lambda)| is |W_f| times that.  A geometric membership test
(`contains`) gives an independent second route to the same count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import BudgetExceededError
from .linalg import QMatrix, QVector, rational_to_str
from .rootdata import RootSystemData, dominant_coords, weyl_order

DEFAULT_BOX_CAP = 10 ** 8


@dataclass(frozen=True)
class DominantCoweight:
    """A dominant coweight by its coweight-basis coordinates."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if any(c < 0 for c in self.coords):
            raise ValueError("coordinates must be non-negative")

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


def _antidominant(data: RootSystemData, lam: tuple[int, ...]) -> tuple[int, ...]:
    """w0 . lambda, via the dominant representative of -lambda."""
    plus, _ = dominant_coords(data, [-c for c in lam])
    return tuple(-int(c) for c in plus)


def _box_bounds(data: RootSystemData, lam: tuple[int, ...], box_cap: int,
               what: str) -> tuple[int, ...]:
    """(lambda - w0 lambda, omega_j): exponent bound for each simple coroot.

    Refuses before any scan when the box has more than box_cap cells.
    """
    low = _antidominant(data, lam)
    diff = tuple(a - b for a, b in zip(lam, low))
    bounds = data.coroot_coords_from_coweight(diff)
    out = []
    for b in bounds:
        if b.denominator != 1 or b < 0:
            raise ValueError("non-integral box bound; lambda is not a coweight")
        out.append(int(b))
    size = math.prod(b + 1 for b in out)
    if size > box_cap:
        raise BudgetExceededError("%s has %d cells, exceeding cap %d" % (what, size, box_cap))
    return tuple(out)


def enumerate_X(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> list[DominantCoweight]:
    """All dominant mu <= lam in dominance order (exponent-box scan)."""
    lam = _coords(lam)
    n = data.rank
    bounds = _box_bounds(data, lam, box_cap, "dominance box")
    coroot_rows = [tuple(int(x) for x in row) for row in data.cartan.rows]
    out = []
    rng = range(n)
    for exps in product(*(range(b + 1) for b in bounds)):
        mu = list(lam)
        for j in rng:
            xj = exps[j]
            if xj:
                row = coroot_rows[j]
                for i in rng:
                    mu[i] -= xj * row[i]
        if all(c >= 0 for c in mu):
            out.append(DominantCoweight(tuple(mu)))
    out.sort(key=lambda m: m.coords)
    return out


def lattice_count(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|P(lambda) ^ (lambda + Z Phi^v)| by orbit-size summation over X_lambda."""
    total = 0
    order = data.wf_order
    for mu in enumerate_X(data, lam, box_cap=box_cap):
        stab = weyl_order(data, mu.vanishing_set)
        if order % stab:
            raise AssertionError("stabilizer order must divide |W_f|")
        total += order // stab
    return total


def interval_size_lattice(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|<= theta(lambda)| via the lattice route: |W_f| * lattice_count."""
    return data.wf_order * lattice_count(data, lam, box_cap=box_cap)


@lru_cache(maxsize=None)
def _cached_interval_size(family: str, rank: int, lam: tuple[int, ...], box_cap: int) -> int:
    from .rootdata import build_root_system
    return interval_size_lattice(build_root_system(family, rank), lam, box_cap=box_cap)


def interval_size_lattice_cached(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    return _cached_interval_size(data.family, data.rank, _coords(lam), box_cap)


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
    bounds = _box_bounds(data, lam, box_cap, "membership box")
    count = 0
    for exps in product(*(range(b + 1) for b in bounds)):
        coords = list(Fraction(c) for c in lam)
        for j in range(n):
            if exps[j]:
                row = data.cartan.rows[j]
                for i in range(n):
                    coords[i] -= exps[j] * row[i]
        point = data.ambient_from_coweight(coords)
        if contains(data, lam, point):
            count += 1
    return count


@dataclass(frozen=True)
class FaceDescriptor:
    """The face Conv(W_J . lambda) of the orbit polytope containing lambda."""

    J: tuple[int, ...]
    vertex_set: tuple[QVector, ...]
    dim: int
    orbit_face_count: int  # [W_f : W_J]; counts the W_f-orbit for generic lambda


def face(data: RootSystemData, lam, J) -> FaceDescriptor:
    """Vertex set {w . lambda : w in W_J} and affine-span dimension."""
    lam = _coords(lam)
    J = tuple(sorted(set(int(j) for j in J)))
    if any(j < 1 or j > data.rank for j in J):
        raise ValueError("J must be a subset of 1..%d" % data.rank)
    cart = data.cartan.rows
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
                row = cart[j - 1]
                img = tuple(c[i] - cj * int(row[i]) for i in range(n))
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
