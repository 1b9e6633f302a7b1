"""The (extended) affine Weyl group in the alcove model.

Elements are exact affine maps.  Internally they act on *coweight-basis
coordinates*: every element of W_e maps the coweight lattice to itself, so
the linear part is an integer n x n matrix and the translation an integer
n-vector.  That keeps the enumeration cores in pure integer arithmetic;
the orthogonal ambient matrix used for serialization is derived on demand.

The fundamental alcove is A_id = {x : -1 < (x, alpha) < 0 for all positive
alpha}, with walls H_{alpha_i, 0} (i = 1..n) and H_{highest, -1} (the
affine wall, index 0).  Its barycenter - an exact rational interior point -
anchors every separating-hyperplane count:

    length(w) = #{H_{alpha,k} strictly between barycenter and w(barycenter)}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import AlcovesError, BudgetExceededError, WallPointError
from .linalg import QMatrix, QVector, nullspace_basis, rational_to_str
from .rootdata import RootSystemData, dominant_coords

DEFAULT_INTERVAL_CAP = 10 ** 6
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

    def inverse(self) -> "AffineElement":
        n = len(self.lin)
        m = QMatrix(self.lin).inverse()
        lin = []
        for row in m.rows:
            ints = []
            for x in row:
                if x.denominator != 1:
                    raise AlcovesError("non-integral inverse; element not lattice-preserving")
                ints.append(int(x))
            lin.append(tuple(ints))
        lin = tuple(lin)
        tr = tuple(-sum(lin[r][k] * self.tr[k] for k in range(n)) for r in range(n))
        return AffineElement(lin, tr)

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
        cart = [[int(x) for x in row] for row in data.cartan.rows]
        # pairing vectors: (x, alpha) = <coords(x), k(alpha)> for positive alpha
        self.pairings = [tuple(k) for k in data.root_pairing_vectors()]
        self.marks = tuple(int(m) for m in data.marks)
        atilde_cov = data.highest_root * Fraction(2, data.highest_root.dot(data.highest_root))
        self.atilde_coroot = tuple(int(atilde_cov.dot(a)) for a in data.simple_roots)

        refs = []
        # s_0: x -> x - ((x, highest) + 1) * highest^v
        av = self.atilde_coroot
        lin0 = tuple(tuple((1 if r == j else 0) - self.marks[j] * av[r] for j in range(n))
                     for r in range(n))
        refs.append(AffineElement(lin0, tuple(-a for a in av)))
        for i in range(n):
            col = cart[i]  # coweight coords of alpha_i^v
            lin = tuple(tuple((1 if r == j else 0) - (col[r] if j == i else 0) for j in range(n))
                        for r in range(n))
            refs.append(AffineElement(lin, (0,) * n))
        self.reflections = refs

        # barycenter of A_id: average of {0, -w_i^v / eta_i}
        self.scale = (n + 1) * math.lcm(*self.marks)
        self.bary = tuple(-self.scale // ((n + 1) * self.marks[i]) for i in range(n))

        w0coords, w0word = dominant_coords(data, [Fraction(b, self.scale) for b in self.bary])
        w0 = AffineElement.identity(n)
        for i in w0word:
            w0 = refs[i] @ w0
        self.w0 = w0
        self.w0_word = w0word
        if _length(self, w0) != len(data.positive_roots):
            raise AlcovesError("longest element has wrong length")

        # ambient conversion: columns = coweights then a basis of span(Phi)^perp
        cols = [list(v) for v in data.fundamental_coweights]
        perp = nullspace_basis(QMatrix([list(a) for a in data.simple_roots]))
        cols += [list(v) for v in perp]
        self.basis = QMatrix(cols).transpose()
        self.basis_inv = self.basis.inverse()
        self.perp_count = len(perp)


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


def element_from_point(data: RootSystemData, point) -> tuple[AffineElement, list[int]]:
    """The unique w in W_a whose alcove contains the point, plus a reduced word.

    `point` is an alcove-interior point: a QVector in ambient coordinates,
    or any other sequence taken as coweight coordinates.  The point is
    folded into A_id, reflecting in the violated wall of smallest index at
    each step; the fold sequence read in application order multiplies out to
    w, and its length is checked against length(w).
    """
    ctx = _context(data)
    n = ctx.n
    if isinstance(point, QVector):
        point = data.coweight_coords(point)
    p = [Fraction(c) for c in point]
    if len(p) != n:
        raise ValueError("expected %d coweight coordinates" % n)
    for k in ctx.pairings:
        v = sum(p[j] * k[j] for j in range(n))
        if v.denominator == 1:
            raise WallPointError("point on reflection hyperplane")
    word: list[int] = []
    refs = ctx.reflections
    max_steps = 0
    for k in ctx.pairings:
        a = Fraction(sum(ctx.bary[j] * k[j] for j in range(n)), ctx.scale)
        b = sum(p[j] * k[j] for j in range(n))
        max_steps += abs(math.floor(b) - math.floor(a))
    while True:
        if sum(p[j] * ctx.marks[j] for j in range(n)) < -1:
            idx = 0
        else:
            for i in range(n):
                if p[i] > 0:
                    idx = i + 1
                    break
            else:
                break
        p = list(refs[idx].apply(p))
        word.append(idx)
        if len(word) > max_steps:
            raise AlcovesError("fold failed to terminate in the expected step count")
    w = AffineElement.identity(n)
    for i in word:
        w = w @ refs[i]
    if length(data, w) != len(word):
        raise AlcovesError("fold produced a non-reduced word")
    return w, word


def longest_finite_element(data: RootSystemData) -> tuple[AffineElement, list[int]]:
    ctx = _context(data)
    return ctx.w0, list(ctx.w0_word)


def theta(data: RootSystemData, lam) -> tuple[AffineElement, list[int]]:
    """The element whose alcove is A_{w0} + lambda, with a reduced word.

    `lam` is a dominant coweight given by its non-negative integer
    coordinates.
    """
    ctx = _context(data)
    lam = tuple(int(c) for c in lam)
    if len(lam) != ctx.n or any(c < 0 for c in lam):
        raise ValueError("dominant coweight required")
    base = ctx.w0.apply([Fraction(b, ctx.scale) for b in ctx.bary])
    point = [Fraction(m) + c for m, c in zip(lam, base)]
    return element_from_point(data, point)


def lower_interval(data: RootSystemData, w: AffineElement, word,
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


def descents(data: RootSystemData, w: AffineElement) -> tuple[set[int], set[int]]:
    """Left and right descent sets within {0..n}."""
    ctx = _context(data)
    lw = length(data, w)
    left = {i for i in range(ctx.n + 1) if length(data, ctx.reflections[i] @ w) < lw}
    right = {i for i in range(ctx.n + 1) if length(data, w @ ctx.reflections[i]) < lw}
    return left, right


def sigma_reflection(data: RootSystemData, lam) -> int:
    """Index of s_sigma for the Omega-class of the coweight lam.

    0 when lam is in the coroot lattice; otherwise the unique minuscule i
    with lam + w_i^v in the coroot lattice.
    """
    lam = tuple(int(c) for c in lam)
    if data.in_coroot_lattice(lam):
        return 0
    for i in sorted(data.minuscule_set):
        shifted = tuple(c + (1 if j == i - 1 else 0) for j, c in enumerate(lam))
        if data.in_coroot_lattice(shifted):
            return i
    raise AlcovesError("no coset representative matched; data is inconsistent")


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


def ambient_affine(data: RootSystemData, w: AffineElement) -> tuple[QMatrix, QVector]:
    """Ambient (m x m orthogonal matrix, translation vector) view of w."""
    ctx = _context(data)
    n, m = ctx.n, data.ambient_dim
    block = [[Fraction(w.lin[i][j]) if i < n and j < n else
              Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    mat = ctx.basis.matmul(QMatrix(block)).matmul(ctx.basis_inv)
    tr = data.ambient_from_coweight(w.tr)
    return mat, tr


def element_to_json(data: RootSystemData, w: AffineElement, word=None) -> dict:
    mat, tr = ambient_affine(data, w)
    return {
        "linear": [[rational_to_str(x) for x in row] for row in mat.rows],
        "translation": [rational_to_str(x) for x in tr],
        "word": list(word) if word is not None else None,
    }
