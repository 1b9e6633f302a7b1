"""Orbit polytopes Conv(W_f . lambda): lattice points and faces.

The primary count follows the dominant-chamber decomposition: the coset
points of the polytope are the W_f-orbit of X_lambda, the set of dominant
coweights below lambda in dominance order, so

    |P(lambda) ^ (lambda + Z Phi^v)| = sum over mu in X_lambda of |W_f|/|W_Z(mu)|

and |<= theta(lambda)| is |W_f| times that.  A geometric membership test
(`contains`) over an exponent box gives an independent second route, which
the benchmark's reference pins run; it reads the ambient view, the coroot
walk does not.  Every walk of a system follows one shared graph of dominant
coweights and their children, so a coweight that many walks reach (`fit`
counts 52 coweights on a rank-4 system) is expanded once per process.  A
face Conv(W_J . lambda) has |W_J| / |W_{J ^ Z(lambda)}| vertices, known
before its walk, and dimension #{j in J the walk steps along}.
Every entry point reads lambda by `rootdata.dominant_coweight` and J by
`rootdata.simple_subset`, and works on plain coordinate tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import sub

from .errors import BudgetExceededError
from .linalg import QVector, rational_to_str
from .rootdata import (RootSystemData, dominant_coords, dominant_coweight, simple_subset,
                       weyl_order)

DEFAULT_BOX_CAP = 10 ** 8
MAX_FACE_VERTICES = 100_000  # the full E6 face, 51 840 vertices, takes about 2 s and 82 MB


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
        out.append(b.numerator)
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


@lru_cache(maxsize=None)
def _steps(data: RootSystemData) -> tuple:
    """Each positive coroot with the coordinates where it is positive: mu - c is
    dominant iff mu_i >= c_i at those, since mu_i - c_i >= mu_i >= 0 elsewhere."""
    return tuple((c, tuple((i, x) for i, x in enumerate(c) if x > 0))
                 for c in data.positive_coroot_coords)


@lru_cache(maxsize=None)
def _graph(data: RootSystemData) -> tuple[dict, list, list]:
    """The dominance graph walked so far, one per system: each coweight tuple once in
    `nodes`, its index in `index`, and in `children` at that index the indices of its
    dominant children mu - alpha^v, or None until it is expanded."""
    return {}, [], []


def enumerate_X(data: RootSystemData, lam,
                box_cap: int = DEFAULT_BOX_CAP) -> list[tuple[int, ...]]:
    """All dominant mu <= lam in dominance order, as sorted coordinate tuples.

    A walk from lam that subtracts positive coroots and keeps the dominant
    results reaches all of X_lambda: dominant mu < nu are joined by a chain
    of dominant coweights, each a positive coroot below the last
    (Stembridge, The partial order of dominant weights, 1998).  It first
    refuses by `check_level_budget`.  Every walk of a system shares `_graph`,
    so each coweight is tested against the coroots once per process, however
    many walks reach it.
    """
    lam = dominant_coweight(data.rank, lam)
    check_level_budget(data, lam, box_cap)
    index, nodes, children = _graph(data)
    steps = _steps(data)

    start = index.setdefault(lam, len(nodes))
    if start == len(nodes):
        nodes.append(lam)
        children.append(None)
    seen, todo = {start}, [start]
    while todo:
        k = todo.pop()
        kids = children[k]
        if kids is None:
            mu = nodes[k]
            kids = children[k] = []
            for c, mask in steps:
                for i, x in mask:
                    if mu[i] < x:
                        break
                else:
                    nu = tuple(map(sub, mu, c))
                    j = index.setdefault(nu, len(nodes))
                    if j == len(nodes):
                        nodes.append(nu)
                        children.append(None)
                    kids.append(j)
        for j in kids:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return sorted(map(nodes.__getitem__, seen))


def lattice_count(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|P(lambda) ^ (lambda + Z Phi^v)| by orbit-size summation over X_lambda."""
    total = 0
    order = data.wf_order
    sizes: dict[tuple, int] = {}  # |W_f| / |W_Z(mu)| by the support of mu: at most 2^n keys
    for mu in enumerate_X(data, lam, box_cap=box_cap):
        key = tuple(map(bool, mu))
        size = sizes.get(key)
        if size is None:
            stab = weyl_order(data, [j + 1 for j, b in enumerate(key) if not b])
            if order % stab:
                raise AssertionError("stabilizer order must divide |W_f|")
            size = sizes[key] = order // stab
        total += size
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
    lam = dominant_coweight(data.rank, lam)
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
    lam = dominant_coweight(data.rank, lam)
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


def face_vertex_count(data: RootSystemData, lam: tuple[int, ...], J) -> int:
    """|W_J . lambda| = |W_J| / |W_{J ^ Z(lambda)}|, Z(lambda) the zero coordinates:
    in W_J, a dominant lambda is fixed by exactly the parabolic subgroup on J ^ Z(lambda)."""
    return weyl_order(data, J) // weyl_order(data, [j for j in J if lam[j - 1] == 0])


def face(data: RootSystemData, lam, J) -> FaceDescriptor:
    """Vertex set {w . lambda : w in W_J} and affine-span dimension.

    Refuses, before the walk, a face of more than MAX_FACE_VERTICES vertices.
    """
    lam, J = dominant_coweight(data.rank, lam), simple_subset(data.rank, J)
    count = face_vertex_count(data, lam, J)
    if count > MAX_FACE_VERTICES:
        raise BudgetExceededError("the face has %d vertices, exceeding cap %d"
                                  % (count, MAX_FACE_VERTICES))
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
    # the vertex differences span the alpha_j^v stepped along, and those are independent
    dim = sum(any(c[j - 1] for c in seen) for j in J)
    index = data.wf_order // weyl_order(data, J)
    return FaceDescriptor(J, vertices, dim, index)


def face_to_json(data: RootSystemData, lam, J) -> dict:
    lam = dominant_coweight(data.rank, lam)
    f = face(data, lam, J)
    return {
        "schema": 1,
        "system": str(data.id),
        "lambda": list(lam),
        "J": list(f.J),
        "dim": f.dim,
        "orbit_face_count": f.orbit_face_count,
        "vertices": [[rational_to_str(x) for x in v] for v in f.vertex_set],
    }
