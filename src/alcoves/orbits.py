"""Orbit polytopes Conv(W_f . lambda): lattice points and faces.

The primary count follows the dominant-chamber decomposition: the coset
points of the polytope are the W_f-orbit of X_lambda, the set of dominant
coweights below lambda in dominance order, so

    |P(lambda) ^ (lambda + Z Phi^v)| = sum over mu in X_lambda of |W_f|/|W_Z(mu)|

and |<= theta(lambda)| is |W_f| times that.  X_lambda comes from a search
over the integer matrix B = det C (C^T)^-1 that shares nothing between calls:
a system keeps B, at most det C residue keys and at most 2^n orbit sizes.  A
geometric membership test (`contains`) over an exponent box gives an
independent second route, which the benchmark's reference pins run; it reads
the ambient view and imports `fractions`, the search does neither.  A face Conv(W_J . lambda) has
|W_J| / |W_{J ^ Z(lambda)}| vertices, known before its walk, and dimension
#{j in J the walk steps along}.
Every entry point reads lambda by `rootdata.dominant_coweight` and J by
`rootdata.simple_subset`, and works on plain coordinate tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import product
from operator import mul, sub

from .errors import DEFAULT_BOX_CAP, BudgetExceededError
from .rootdata import (RootSystemData, dominant_coords, dominant_coweight, simple_subset,
                       weyl_order)
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
def _first_value(data: RootSystemData, residues: tuple[int, ...]) -> int | None:
    """The least t >= 0 with t b = s mod D, b the last column of B, or None when no t
    solves it.  It depends on s mod D alone, a class of P^v/Q^v: at most D keys a system."""
    D, B = data._dual
    return next((t for t in range(D) if all((x - t * row[-1]) % D == 0
                                            for x, row in zip(residues, B))), None)


def enumerate_X(data: RootSystemData, lam,
                box_cap: int = DEFAULT_BOX_CAP) -> list[tuple[int, ...]]:
    """All dominant mu <= lam in dominance order, as sorted coordinate tuples.

    With D = det C and B = D (C^T)^-1, a positive integer matrix, mu <= lam iff
    the slack s = B (lam - mu) is >= 0 and = 0 mod D.  The set of mu >= 0 with
    s >= 0 is down-closed, so a search that fixes mu_1, mu_2, ... in turn, each
    step taking one column of B off the slack, meets no dead end: every prefix it
    visits is a point of the level simplex, and `check_level_budget`, run first,
    bounds its work.  Only the last coordinate meets the condition mod D, and its
    values are one arithmetic progression.  The list comes out sorted.
    """
    lam = dominant_coweight(data.rank, lam)
    check_level_budget(data, lam, box_cap)
    D, B = data._dual
    *inner, last = zip(*B)  # the columns of B
    g = D // math.gcd(D, *last)  # t b = 0 mod D for the last column b iff g divides t
    out = []

    def search(prefix, s):
        i = len(prefix)
        if i < len(inner):
            for t in range(min([x // c for x, c in zip(s, inner[i])]) + 1):
                search(prefix + (t,), s)
                s = list(map(sub, s, inner[i]))
        elif (t0 := _first_value(data, tuple([x % D for x in s]))) is not None:
            top = min([x // b for x, b in zip(s, last)])
            out.extend([prefix + (t,) for t in range(t0, top + 1, g)])

    search((), [sum(map(mul, row, lam)) for row in B])
    return out


@lru_cache(maxsize=None)
def _orbit_size(data: RootSystemData, support: tuple[bool, ...]) -> int:
    """|W_f| / |W_Z(mu)| for the mu of this support: at most 2^n keys per system."""
    stab = weyl_order(data, [j + 1 for j, b in enumerate(support) if not b])
    if data.wf_order % stab:
        raise AssertionError("stabilizer order must divide |W_f|")
    return data.wf_order // stab


def lattice_count(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|P(lambda) ^ (lambda + Z Phi^v)| by orbit-size summation over X_lambda."""
    return sum(_orbit_size(data, tuple(map(bool, mu)))
               for mu in enumerate_X(data, lam, box_cap=box_cap))


def interval_size_lattice(data: RootSystemData, lam, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """|<= theta(lambda)| via the lattice route: |W_f| * lattice_count."""
    return data.wf_order * lattice_count(data, lam, box_cap=box_cap)


def contains(data: RootSystemData, lam, p) -> bool:
    """Geometric membership of an ambient point p, a sequence of ambient_dim
    rationals, in Conv(W_f . lambda).

    p belongs to the orbit polytope iff its dominant representative p+
    satisfies lambda - p+ in the non-negative rational cone on the simple
    coroots.
    """
    from fractions import Fraction
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
    from fractions import Fraction
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
        "vertices": [[str(x) for x in v] for v in f.vertex_set],
    }
