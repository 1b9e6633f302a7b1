"""Irreducible root systems in their standard Bourbaki coordinates.

Each family is realized in an explicit ambient R^m (type A_n in the
sum-zero hyperplane of R^{n+1}, B/C/D in R^n, E-series in R^8, F4 in R^4,
G2 in the sum-zero plane of R^3).  Only the simple roots are transcribed
from the plates; everything else (positive roots, coroots, fundamental
weights and coweights, marks, group orders, lattice determinants) is
derived from them and invariant-checked at build time, which keeps
transcription errors out of the downstream volume and coefficient work.

Conventions:
  * coroot       alpha^v = 2*alpha/(alpha,alpha)
  * coweights    (w_i^v, alpha_j) = delta_ij    (basis of the span of Phi)
  * weights      (w_i,  alpha_j^v) = delta_ij
  * cartan[i][j] = (alpha_j, alpha_i^v)
  * marks eta_i  highest root = sum eta_i alpha_i
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import AlcovesError
from .linalg import QMatrix, QVector, gram_det, rational_to_str
from .radicals import RadScalar

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class RootSystemId:
    """A validated family/rank pair such as A3 or G2."""

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        rule = _RANK_RULES.get(fam)
        if rule is None or not rule(self.rank):
            raise ValueError("invalid root system %s%d" % (self.family, self.rank))

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


def _unit(m, i):
    return QVector([1 if j == i else 0 for j in range(m)])


def _simple_root_vectors(family: str, n: int) -> list[QVector]:
    e = _unit
    if family == "A":
        m = n + 1
        return [e(m, i) - e(m, i + 1) for i in range(n)]
    if family == "B":
        return [e(n, i) - e(n, i + 1) for i in range(n - 1)] + [e(n, n - 1)]
    if family == "C":
        return [e(n, i) - e(n, i + 1) for i in range(n - 1)] + [2 * e(n, n - 1)]
    if family == "D":
        return ([e(n, i) - e(n, i + 1) for i in range(n - 1)]
                + [e(n, n - 2) + e(n, n - 1)])
    if family == "E":
        m = 8
        half = Fraction(1, 2)
        a1 = QVector([half, -half, -half, -half, -half, -half, -half, half])
        a2 = e(m, 0) + e(m, 1)
        rest = [e(m, i) - e(m, i - 1) for i in range(1, 7)]  # alpha_{i+2} = e_i - e_{i-1}
        return ([a1, a2] + rest)[:n]
    if family == "F":
        return [
            e(4, 1) - e(4, 2),
            e(4, 2) - e(4, 3),
            e(4, 3),
            QVector([Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)]),
        ]
    if family == "G":
        return [e(3, 0) - e(3, 1), QVector([-2, 1, 1])]
    raise AssertionError(family)


class RootSystemData:
    """Fully derived, immutable data for one irreducible root system."""

    def __init__(self, id: RootSystemId):  # noqa: A002 - matches call sites
        self.id = id
        self.family = id.family
        self.rank = n = id.rank
        self.simple_roots = _simple_root_vectors(id.family, n)
        self.ambient_dim = len(self.simple_roots[0])

        def coroot(a: QVector) -> QVector:
            return a * Fraction(2, a.dot(a))

        self.simple_coroots = [coroot(a) for a in self.simple_roots]
        # cartan[i][j] = (alpha_j, alpha_i^v); integer, diag 2, offdiag <= 0
        self.cartan = QMatrix([[self.simple_roots[j].dot(self.simple_coroots[i])
                                for j in range(n)] for i in range(n)])
        # one inverse serves root coordinates, (co)weights and coroot coordinates
        self._cartan_inv = inv = self.cartan.inverse()

        pos = self._generate_positive_roots()
        self.positive_roots = [r for _, r in pos]
        # simple-root coordinates for each positive root (all non-negative ints)
        self._pos_coords = [c for c, _ in pos]

        hi = max(range(len(self.positive_roots)), key=lambda k: sum(self._pos_coords[k]))
        self.highest_root = self.positive_roots[hi]
        self.marks = tuple(int(c) for c in self._pos_coords[hi])

        # w_i^v = sum_k (C^-1)_ik alpha_k^v and w_i = sum_k (C^-1)_ki alpha_k
        zero = QVector.zero(self.ambient_dim)
        self.fundamental_coweights = [
            sum((inv[i][k] * self.simple_coroots[k] for k in range(n)), zero) for i in range(n)]
        self.fundamental_weights = [
            sum((inv[k][i] * self.simple_roots[k] for k in range(n)), zero) for i in range(n)]

        self.minuscule_set = frozenset(i + 1 for i in range(n) if self.marks[i] == 1)
        det_cartan = self.cartan.det()
        if det_cartan.denominator != 1 or det_cartan <= 0:
            raise AlcovesError("Cartan determinant should be a positive integer")
        self.index_of_connection = int(det_cartan)
        marks_product = math.prod(self.marks)
        self.wf_order = math.factorial(n) * marks_product * self.index_of_connection
        self.det_coweight_lattice = RadScalar.sqrt(gram_det(self.fundamental_coweights))
        self.alcove_volume = self.det_coweight_lattice / (math.factorial(n) * marks_product)

        self._check_invariants()

    # -- construction helpers -------------------------------------------------

    def _generate_positive_roots(self) -> list[tuple[tuple[int, ...], QVector]]:
        roots = set(self.simple_roots) | {-a for a in self.simple_roots}
        frontier = set(roots)
        while frontier:
            new = set()
            for r in frontier:
                for a, av in zip(self.simple_roots, self.simple_coroots):
                    img = r - r.dot(av) * a
                    if img not in roots:
                        new.add(img)
            roots |= new
            frontier = new
        pos = []
        for r in roots:
            coords = self._simple_coords(r)
            if all(c >= 0 for c in coords):
                pos.append((coords, r))
        pos.sort(key=lambda t: (sum(t[0]), t[0]))
        return pos

    def _simple_coords(self, root: QVector) -> tuple[int, ...]:
        # (root, alpha_i^v) = sum_j c_j (alpha_j, alpha_i^v) = (cartan c)_i
        rhs = QVector([root.dot(av) for av in self.simple_coroots])
        sol = self._cartan_inv.matvec(rhs)
        out = []
        for c in sol:
            if c.denominator != 1:
                raise AlcovesError("non-integral root coordinate")
            out.append(int(c))
        return tuple(out)

    def _check_invariants(self):
        n = self.rank
        for i in range(n):
            for j in range(n):
                cij = self.cartan[i][j]
                if cij.denominator != 1 or (i == j and cij != 2) or (i != j and cij > 0):
                    raise AlcovesError("bad Cartan matrix")
                if self.fundamental_coweights[i].dot(self.simple_roots[j]) != (1 if i == j else 0):
                    raise AlcovesError("coweight duality failed")
                if self.fundamental_weights[i].dot(self.simple_coroots[j]) != (1 if i == j else 0):
                    raise AlcovesError("weight duality failed")
        if any(m < 1 for m in self.marks):
            raise AlcovesError("marks must be positive")
        # each simple reflection permutes the other positive roots
        pos = set(self.positive_roots)
        for a, av in zip(self.simple_roots, self.simple_coroots):
            image = {r - r.dot(av) * a for r in pos if r != a}
            if image != pos - {a}:
                raise AlcovesError("simple reflection does not permute positive roots")
        # |W_f| from the classification must match eq-of-orders data
        if self.wf_order != weyl_order(self, range(1, n + 1)):
            raise AlcovesError("group order mismatch between formula and classification")

    # -- coordinates -----------------------------------------------------------

    def coweight_coords(self, v: QVector) -> tuple[Fraction, ...]:
        """Coordinates of v (in span Phi) on the fundamental coweight basis."""
        coords = tuple(v.dot(a) for a in self.simple_roots)
        if self.ambient_from_coweight(coords) != v:
            raise ValueError("vector is not in the span of the root system")
        return coords

    def ambient_from_coweight(self, coords) -> QVector:
        acc = QVector.zero(self.ambient_dim)
        for c, w in zip(coords, self.fundamental_coweights, strict=True):
            if c:
                acc = acc + Fraction(c) * w
        return acc

    def coroot_coords_from_coweight(self, coords) -> tuple[Fraction, ...]:
        """Rewrite coweight-basis coordinates on the simple-coroot basis."""
        # coords_i = sum_k c_k cartan[k][i], so c = (C^-1)^T coords
        inv = self._cartan_inv
        return tuple(sum((inv[i][k] * Fraction(x) for i, x in enumerate(coords)), Fraction(0))
                     for k in range(self.rank))

    def in_coroot_lattice(self, coords) -> bool:
        return all(c.denominator == 1 for c in self.coroot_coords_from_coweight(coords))

    def root_pairing_vectors(self) -> list[tuple[int, ...]]:
        """For each positive root alpha, ((w_i^v, alpha))_i = simple-root coords.

        Pairing a point given in coweight coordinates with alpha is the
        integer dot product against this vector.
        """
        return list(self._pos_coords)

    def to_json(self) -> dict:
        def vec(v):
            return [rational_to_str(x) for x in v]
        return {
            "schema": 1,
            "system": str(self.id),
            "ambient_dim": self.ambient_dim,
            "simple_roots": [vec(v) for v in self.simple_roots],
            "simple_coroots": [vec(v) for v in self.simple_coroots],
            "positive_root_count": len(self.positive_roots),
            "fundamental_coweights": [vec(v) for v in self.fundamental_coweights],
            "fundamental_weights": [vec(v) for v in self.fundamental_weights],
            "cartan": [[rational_to_str(x) for x in row] for row in self.cartan.rows],
            "highest_root": vec(self.highest_root),
            "marks": list(self.marks),
            "minuscule": sorted(self.minuscule_set),
            "index_of_connection": self.index_of_connection,
            "weyl_order": self.wf_order,
            "det_coweight_lattice": self.det_coweight_lattice.to_json(),
            "alcove_volume": self.alcove_volume.to_json(),
        }

    def __repr__(self):
        return "RootSystemData(%s)" % self.id


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystemData:
    return RootSystemData(RootSystemId(family, rank))


def build_root_system(id: RootSystemId | str, rank: int | None = None) -> RootSystemData:
    """Build (and cache) the full data for one root system.

    Accepts build_root_system(RootSystemId("A", 2)), ("A", 2) or "A2".
    """
    if isinstance(id, RootSystemId):
        return _build_cached(id.family, id.rank)
    if rank is None:
        fam, num = id[0], id[1:]
        return _build_cached(RootSystemId(fam, int(num)).family, int(num))
    return _build_cached(RootSystemId(id, rank).family, int(rank))


# -- parabolic subgroup orders -------------------------------------------------

_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}


def _component_order(data: RootSystemData, comp: list[int]) -> int:
    """Order of the Weyl group of one connected sub-diagram (1-based indices)."""
    k = len(comp)
    if k == 1:
        return 2
    cart = data.cartan
    prod = {}
    adj = {i: [] for i in comp}
    for x, i in enumerate(comp):
        for j in comp[x + 1:]:
            p = cart[i - 1][j - 1] * cart[j - 1][i - 1]
            if p:
                adj[i].append(j)
                adj[j].append(i)
                prod[(i, j)] = int(p)
    if any(p == 3 for p in prod.values()):
        return 12  # G2
    doubles = [pair for pair, p in prod.items() if p == 2]
    if doubles:
        if k == 4:
            i, j = doubles[0]
            if len(adj[i]) == 2 and len(adj[j]) == 2:
                return 1152  # F4: the double edge is interior
        return (2 ** k) * math.factorial(k)  # B_k / C_k
    branch = [i for i in comp if len(adj[i]) == 3]
    if not branch:
        return math.factorial(k + 1)  # A_k
    # arms of the unique trivalent node distinguish D from E
    b = branch[0]
    arms = []
    for start in adj[b]:
        length, prev, cur = 1, b, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return (2 ** (k - 1)) * math.factorial(k)  # D_k
    if arms == [1, 2, 2] or arms == [1, 2, 3] or arms == [1, 2, 4]:
        return _E_ORDERS[k]
    raise AlcovesError("unclassifiable sub-diagram %r" % (comp,))


def weyl_order(data: RootSystemData, subset) -> int:
    """|W_J| for J a subset of {1..n}: product over diagram components.

    Uses the classification table, never enumeration.
    """
    J = sorted(set(int(j) for j in subset))
    if any(j < 1 or j > data.rank for j in J):
        raise ValueError("index outside 1..%d" % data.rank)
    seen: set[int] = set()
    order = 1
    for j in J:
        if j in seen:
            continue
        comp, stack = [], [j]
        seen.add(j)
        while stack:
            i = stack.pop()
            comp.append(i)
            for other in J:
                if other not in seen and data.cartan[i - 1][other - 1] != 0:
                    seen.add(other)
                    stack.append(other)
        order *= _component_order(data, sorted(comp))
    return order


# -- chamber representatives ----------------------------------------------------

def dominant_coords(data: RootSystemData, coords) -> tuple[tuple[Fraction, ...], list[int]]:
    """Dominant representative in coweight coordinates, plus the word.

    Applies s_i (smallest i first) whenever coordinate i is negative; the
    word lists the reflections in application order, so
    v_plus = s_{word[-1]} ... s_{word[0]} v.
    """
    c = [Fraction(x) for x in coords]
    n = data.rank
    cart = data.cartan
    word: list[int] = []
    while True:
        for i in range(n):
            if c[i] < 0:
                ci = c[i]
                row = cart.rows[i]  # coweight coords of alpha_i^v
                for r in range(n):
                    c[r] -= ci * row[r]
                word.append(i + 1)
                break
        else:
            return tuple(c), word


def dominant_representative(data: RootSystemData, v: QVector) -> tuple[QVector, list[int]]:
    """W_f-dominant representative of an ambient vector in span(Phi)."""
    coords = data.coweight_coords(v)
    plus, word = dominant_coords(data, coords)
    return data.ambient_from_coweight(plus), word
