"""Irreducible root systems in their standard Bourbaki coordinates.

Each family is realized in an explicit ambient R^m (type A_n in the
sum-zero hyperplane of R^{n+1}, B/C/D in R^n, E-series in R^8, F4 in R^4,
G2 in the sum-zero plane of R^3).  Only the simple roots are transcribed
from the plates, doubled so that they are integer vectors; everything else is
derived from them and invariant-checked at build time, which keeps
transcription errors out of the downstream volume and coefficient work.  The
count paths read integers only: the Cartan matrix, norms, positive roots and
coroots (by root strings), marks, det C, |W_f| and, built on first read, the
positive integer matrix B = det C (C^T)^-1 of the lattice search and the
coroot-lattice test.  The ambient vectors, C^-1 and the lattice volumes that
`rootdata` and `faces` read are built on first read too; the fundamental
coweights are also kept as one integer matrix over a common denominator, so a
point in coweight coordinates reaches the ambient space by one integer
product.  Parabolic orders |W_J| come by a product over root heights.  The two
validators, `dominant_coweight` and `simple_subset`, decide for every module
what a valid lambda and a valid J are.

Conventions:
  * coroot       alpha^v = 2*alpha/(alpha,alpha)
  * coweights    (w_i^v, alpha_j) = delta_ij    (basis of the span of Phi)
  * weights      (w_i,  alpha_j^v) = delta_ij
  * cartan[i][j] = (alpha_j, alpha_i^v)
  * marks eta_i  highest root = sum eta_i alpha_i
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index, mul

from .errors import AlcovesError, BudgetExceededError
from .linalg import QVector, border, rational_to_str
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


class RootSystemId:
    """A validated family/rank pair such as A3 or G2; immutable and hashable."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        fam = family.upper()
        rule = _RANK_RULES.get(fam)
        if rule is None or not rule(rank):
            raise ValueError("invalid root system %s%d" % (fam, rank))
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value=None):
        raise AttributeError("RootSystemId is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return RootSystemId, (self.family, self.rank)

    def __eq__(self, other):
        if not isinstance(other, RootSystemId):
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return "RootSystemId(family=%r, rank=%r)" % (self.family, self.rank)

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


def _twice_simple_roots(family: str, n: int) -> list[tuple[int, ...]]:
    """2 alpha_i in the plates' ambient coordinates: doubling clears the only
    halves, in E's alpha_1 and F4's alpha_4, so every entry is an integer."""
    def vec(m, *entries):  # the vector of R^m with the given (index, value) entries
        x = [0] * m
        for i, c in entries:
            x[i] += c
        return tuple(x)

    def diff(m, i, j):  # 2 (e_i - e_j)
        return vec(m, (i, 2), (j, -2))

    if family == "A":
        return [diff(n + 1, i, i + 1) for i in range(n)]
    chain = [diff(n, i, i + 1) for i in range(n - 1)]
    if family == "B":
        return chain + [vec(n, (n - 1, 2))]
    if family == "C":
        return chain + [vec(n, (n - 1, 4))]
    if family == "D":
        return chain + [vec(n, (n - 2, 2), (n - 1, 2))]
    if family == "E":  # alpha_1 = (e_1 - e_2 - ... - e_7 + e_8) / 2, alpha_2 = e_1 + e_2
        return ([(1, -1, -1, -1, -1, -1, -1, 1), vec(8, (0, 2), (1, 2))]
                + [diff(8, i, i - 1) for i in range(1, 7)])[:n]  # alpha_{i+2} = e_i - e_{i-1}
    if family == "F":
        return [diff(4, 1, 2), diff(4, 2, 3), vec(4, (3, 2)), (1, -1, -1, -1)]
    if family == "G":
        return [diff(3, 0, 1), (-4, 2, 2)]
    raise AssertionError(family)


def _positive_root_coords(cart: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by height and then coordinates.

    The alpha_i-string through a root b runs from b - p alpha_i to b + q alpha_i
    with p - q = <b, alpha_i^v> = (cart b)_i, so b + alpha_i is a root iff
    p - <b, alpha_i^v> > 0.  Height by height, the string below b is known.
    """
    n = len(cart)
    layer = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    roots = set(layer)
    while layer:
        above = set()
        for b in layer:
            for i, row in enumerate(cart):
                down, p = list(b), 0
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - sum(map(mul, row, b)) > 0:
                    above.add(b[:i] + (b[i] + 1,) + b[i + 1:])
        roots |= above
        layer = above
    return sorted(roots, key=lambda c: (sum(c), c))


def dominant_coweight(rank: int, lam) -> tuple[int, ...]:
    """lam as exactly `rank` non-negative integer coweight coordinates.  Each is
    read by operator.index, so a float or a string is refused, never truncated."""
    lam = tuple(map(index, lam))
    if len(lam) != rank:
        raise ValueError("lambda needs exactly %d coordinates" % rank)
    if any(c < 0 for c in lam):
        raise ValueError("lambda coordinates must be non-negative integers")
    return lam


def simple_subset(rank: int, J) -> tuple[int, ...]:
    """J as a sorted tuple of distinct simple nodes in 1..rank, read by operator.index."""
    J = tuple(sorted(set(map(index, J))))
    if J and (J[0] < 1 or J[-1] > rank):
        raise ValueError("J must be a subset of 1..%d" % rank)
    return J


def _exact_quotient(a, b) -> int:
    q, r = divmod(a, b)
    if r:
        raise AlcovesError("%s / %s is not an integer" % (a, b))
    return q


# the ambient view: read by `rootdata`, `faces`, the membership route and the
# oracles, and built on the first read of any of these names
_AMBIENT = frozenset({"simple_roots", "simple_coroots", "ambient_dim", "highest_root",
                      "fundamental_coweights", "fundamental_weights",
                      "det_coweight_lattice", "alcove_volume", "_cartan_inv",
                      "_coweight_matrix"})


class RootSystemData:
    """Derived data for one irreducible root system.

    The constructor computes only integer data, from the doubled simple roots:
    the Cartan matrix, the norms |alpha_i|^2, the positive roots and coroots in
    simple coordinates, the marks, det C and |W_f|.  det C = |P^v/Q^v| is the
    number of special nodes of the extended diagram: node 0 and the nodes of
    mark 1.  The dual matrix `_dual` and the ambient view (the names in
    _AMBIENT) are each built once, on their first read.
    """

    def __init__(self, id: RootSystemId):  # noqa: A002 - matches call sites
        self.id = id
        self.family = id.family
        self.rank = n = id.rank
        self._twice_roots = roots = _twice_simple_roots(id.family, n)
        gram = [[sum(map(mul, a, b)) for b in roots] for a in roots]  # 4 (alpha_i, alpha_j)
        self.simple_root_norms = tuple(_exact_quotient(row[i], 4) for i, row in enumerate(gram))
        # cartan[i][j] = (alpha_j, alpha_i^v) = 2 g_ij / g_ii; diag 2, offdiag <= 0
        self.cartan = tuple(tuple(_exact_quotient(2 * g, row[i]) for g in row)
                            for i, row in enumerate(gram))
        if any(c > 0 for i, row in enumerate(self.cartan) for j, c in enumerate(row) if i != j):
            raise AlcovesError("bad Cartan matrix")
        # positive roots by simple-root coordinates c, which are also the pairings
        # ((w_i^v, alpha))_i: pairing a point in coweight coordinates with alpha is <c, x>
        self.positive_root_coords = _positive_root_coords(self.cartan)
        self._root_heights = [(sum(1 << i for i, c in enumerate(b) if c), sum(b))
                              for b in self.positive_root_coords]  # (support bitmask, height)

        # (alpha^v, alpha_i) = 2 (alpha, alpha_i) / (alpha, alpha) = 2 t_i / <c, t>
        # for alpha = sum_k c_k alpha_k and t = g c, t_i = 4 (alpha, alpha_i)
        self.positive_coroot_coords = []
        for c in self.positive_root_coords:
            t = [sum(map(mul, row, c)) for row in gram]
            ct = sum(map(mul, c, t))
            self.positive_coroot_coords.append(tuple(_exact_quotient(2 * x, ct) for x in t))

        # the highest root is the unique root of greatest height, sorted last
        self.marks = self.positive_root_coords[-1]
        self.minuscule_set = frozenset(i + 1 for i in range(n) if self.marks[i] == 1)
        self.index_of_connection = 1 + len(self.minuscule_set)  # det C, by the special nodes
        self.wf_order = math.factorial(n) * math.prod(self.marks) * self.index_of_connection
        self._check_invariants()

    @cached_property
    def _dual(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, B) with D = det C and B = D (C^T)^-1, by bordering C along 1..n.  A point
        x = C^T k in coweight coordinates has B x = D k, so x is in Q^v iff B x = 0 mod D.
        Every entry of B is a positive integer (Lusztig-Tits, *The inverse of a Cartan
        matrix*, 1992); both that and D = the number of special nodes are checked."""
        inv, D = [], 1
        for j in range(1, self.rank + 1):
            inv, s = border(self.cartan, range(j), inv)
            D *= s
        B = [[D * x for x in col] for col in zip(*inv)]
        if D != self.index_of_connection or any(x.denominator != 1 or x <= 0 for x in sum(B, [])):
            raise AlcovesError("det C = %s, or det C (C^T)^-1 is not positive and integral" % D)
        return D.numerator, tuple(tuple(x.numerator for x in row) for row in B)

    def _check_invariants(self):
        n = self.rank
        if any(m < 1 for m in self.marks):
            raise AlcovesError("marks must be positive")
        # each simple reflection s_i(b) = b - <b, alpha_i^v> e_i permutes the
        # other positive roots
        pos = set(self.positive_root_coords)
        for i, row in enumerate(self.cartan):
            simple = tuple(int(j == i) for j in range(n))
            image = {b[:i] + (b[i] - sum(map(mul, row, b)),) + b[i + 1:]
                     for b in pos if b != simple}
            if image != pos - {simple}:
                raise AlcovesError("simple reflection does not permute positive roots")
        # |W_f| by two theorems: n! prod(marks) det C (Bourbaki), root heights (Macdonald)
        if self.wf_order != weyl_order(self, range(1, n + 1)):
            raise AlcovesError("|W_f| = n! prod(marks) det C disagrees with the root heights")

    # -- the ambient view --------------------------------------------------------

    def __getattr__(self, name):
        # reached only for a name the instance lacks
        if name not in _AMBIENT:
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        self._build_ambient()
        return self.__dict__[name]

    def _build_ambient(self) -> None:
        """Set every name in _AMBIENT, after checking it against the integer core."""
        n = self.rank
        roots = [QVector(Fraction(x, 2) for x in a) for a in self._twice_roots]
        coroots = [a * Fraction(2, l) for a, l in zip(roots, self.simple_root_norms)]
        if [[a.dot(av) for a in roots] for av in coroots] != [list(r) for r in self.cartan]:
            raise AlcovesError("ambient Cartan matrix differs from the integer one")
        D, B = self._dual
        inv = [[Fraction(x, D) for x in col] for col in zip(*B)]  # C^-1 = B^T / D
        zero = QVector.zero(len(roots[0]))
        # w_i^v = sum_k (C^-1)_ik alpha_k^v and w_i = sum_k (C^-1)_ki alpha_k
        coweights = [sum((inv[i][k] * coroots[k] for k in range(n)), zero) for i in range(n)]
        weights = [sum((inv[k][i] * roots[k] for k in range(n)), zero) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if coweights[i].dot(roots[j]) != (1 if i == j else 0):
                    raise AlcovesError("coweight duality failed")
                if weights[i].dot(coroots[j]) != (1 if i == j else 0):
                    raise AlcovesError("weight duality failed")
        # den and the integer matrix den * (w_i^v)_a, one row per ambient coordinate a
        den = math.lcm(*(x.denominator for w in coweights for x in w))
        matrix = [[x.numerator * (den // x.denominator) for x in row] for row in zip(*coweights)]
        # the coweights are C^-1 times the coroots, whose Gram matrix is
        # diag(2/|alpha_i|^2) C^T: det Gram(w^v) = prod_i (2/|alpha_i|^2) / det C
        det = RadScalar.sqrt(math.prod(Fraction(2, l) for l in self.simple_root_norms)
                             / self.index_of_connection)
        vars(self).update(
            simple_roots=roots, simple_coroots=coroots, ambient_dim=len(zero),
            highest_root=sum((m * a for m, a in zip(self.marks, roots)), zero),
            fundamental_coweights=coweights, fundamental_weights=weights,
            det_coweight_lattice=det,
            alcove_volume=det / (math.factorial(n) * math.prod(self.marks)),
            _cartan_inv=inv, _coweight_matrix=(den, matrix))

    # -- coordinates -----------------------------------------------------------

    def coweight_coords(self, v: QVector) -> tuple[Fraction, ...]:
        """Coordinates of v (in span Phi) on the fundamental coweight basis."""
        coords = tuple(v.dot(a) for a in self.simple_roots)
        if self.ambient_from_coweight(coords) != v:
            raise ValueError("vector is not in the span of the root system")
        return coords

    def ambient_from_coweight(self, coords) -> QVector:
        """sum_i coords_i w_i^v: one integer (or, for Fraction coords, rational)
        product with the coweight matrix, then one division per entry."""
        den, matrix = self._coweight_matrix
        if len(coords) != self.rank:
            raise ValueError("expected %d coweight coordinates" % self.rank)
        return QVector(Fraction(sum(map(mul, coords, row)), den) for row in matrix)

    def coroot_coords_from_coweight(self, coords) -> tuple[Fraction, ...]:
        """Rewrite coweight-basis coordinates on the simple-coroot basis: B coords / D."""
        D, B = self._dual
        return tuple(Fraction(sum(map(mul, row, coords)), D) for row in B)

    def in_coroot_lattice(self, coords) -> bool:
        """coords lie in Q^v iff B coords = 0 mod D."""
        D, B = self._dual
        return all(sum(map(mul, row, coords)) % D == 0 for row in B)

    def to_json(self) -> dict:
        def vec(v):
            return [rational_to_str(x) for x in v]
        return {
            "schema": 1,
            "system": str(self.id),
            "ambient_dim": self.ambient_dim,
            "simple_roots": [vec(v) for v in self.simple_roots],
            "simple_coroots": [vec(v) for v in self.simple_coroots],
            "positive_root_count": len(self.positive_root_coords),
            "fundamental_coweights": [vec(v) for v in self.fundamental_coweights],
            "fundamental_weights": [vec(v) for v in self.fundamental_weights],
            "cartan": [[str(x) for x in row] for row in self.cartan],
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


_build_cached = lru_cache(maxsize=None)(RootSystemData)
MAX_RANK = 24  # A24 builds in under a second; every count above it is out of reach


def check_rank(system: RootSystemId) -> None:
    """Refuse, before any work, a system of rank above MAX_RANK."""
    if system.rank > MAX_RANK:
        raise BudgetExceededError("%s has rank %d, exceeding cap %d"
                                  % (system, system.rank, MAX_RANK))


def build_root_system(id: RootSystemId | str, rank: int | None = None) -> RootSystemData:
    """Build (and cache) the full data for one root system.

    Accepts build_root_system(RootSystemId("A", 2)), ("A", 2) or "A2".
    Refuses a rank above MAX_RANK with BudgetExceededError.
    """
    if not isinstance(id, RootSystemId):
        id = RootSystemId(id[0], int(id[1:])) if rank is None else RootSystemId(id, int(rank))
    check_rank(id)
    return _build_cached(id)


# -- parabolic subgroup orders -------------------------------------------------

def weyl_order(data: RootSystemData, subset) -> int:
    """|W_J| = prod (ht(alpha) + 1) / ht(alpha) over positive roots alpha supported in J.

    This is the Poincare series of W_J at t = 1 (Macdonald, *The Poincare series
    of a Coxeter group*, 1972).  J need not be connected; nothing is enumerated.
    """
    outside = ~sum(1 << (j - 1) for j in simple_subset(data.rank, subset))
    num = den = 1
    for support, height in data._root_heights:
        if not support & outside:
            num, den = num * (height + 1), den * height
    return num // den


# -- chamber representatives ----------------------------------------------------

def dominant_coords(data: RootSystemData, coords) -> tuple[tuple[Fraction, ...], list[int]]:
    """Dominant representative in coweight coordinates, plus the word.

    Applies s_i (smallest i first) whenever coordinate i is negative; the
    word lists the reflections in application order, so
    v_plus = s_{word[-1]} ... s_{word[0]} v.
    """
    c = [Fraction(x) for x in coords]
    n = data.rank
    word: list[int] = []
    while True:
        for i in range(n):
            if c[i] < 0:
                ci = c[i]
                row = data.cartan[i]  # coweight coords of alpha_i^v
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
