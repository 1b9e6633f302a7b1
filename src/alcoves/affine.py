"""The affine Weyl group W_a in the alcove model.

An element w is named by its alcove w(A_id), and the alcove by the integer
point N w(b) in coweight coordinates: b is the barycenter of the fundamental
alcove A_id = {x : -1 < (x, alpha) < 0 for all positive alpha}, and the scale
N clears its denominators.  The stabiliser of b in W_a is trivial, so
counting points counts elements.  A_id has the walls H_{alpha_i, 0} (i = 1..n)
and the affine wall H_{highest, -1} (index 0).  Wall i is a triple (k, c, v)
(the root pairs with x as <k, x>, c is the level, v the coroot), and at
scale N the reflection in it is s_i(x) = x - (<k, x> + c N) v.

The length of w counts the hyperplanes H_{alpha, m} that separate b from
w(b) (Humphreys, Reflection Groups and Coxeter Groups, Ch. 4).  One fold
turns a point into a reduced word, and one subword closure of points serves
both interval counts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import DEFAULT_INTERVAL_CAP, AlcovesError, BudgetExceededError, WallPointError
from .rootdata import RootSystemData, dominant_coweight

Point = tuple[int, ...]


class _Context:
    """Integer tables for one root system: pairings, marks, walls, N and N b."""

    def __init__(self, data: RootSystemData):
        n = data.rank
        # pairing vectors: (x, alpha) = <coords(x), k(alpha)> for positive alpha
        self.pairings = data.positive_root_coords
        self.marks = data.marks
        # s_0: k = marks, c = 1, v = highest^v; s_i: k = e_i, c = 0, v = alpha_i^v (Cartan row i)
        self.walls = [(self.marks, 1, data.highest_coroot)] + [
            (tuple(int(j == i) for j in range(n)), 0, row) for i, row in enumerate(data.cartan)]
        # barycenter of A_id: average of {0, -w_i^v / eta_i}
        self.scale = (n + 1) * math.lcm(*self.marks)
        self.bary = tuple(-self.scale // ((n + 1) * m) for m in self.marks)


@lru_cache(maxsize=None)
def _context(data: RootSystemData) -> _Context:
    return _Context(data)


def _height(wall, x, scale: int) -> int:
    """<k, x> + c scale; its sign tells the side of the wall x lies on."""
    k, c, _ = wall
    return sum(map(mul, k, x)) + c * scale


def _act(ctx: _Context, word, x, scale: int) -> Point:
    """Apply s_{i_1}, then s_{i_2}, ... to the point x at the given scale."""
    for i in word:
        m = _height(ctx.walls[i], x, scale)
        x = tuple(a - m * b for a, b in zip(x, ctx.walls[i][2]))
    return x


def _length(ctx: _Context, x, scale: int) -> int:
    """Hyperplanes H_{alpha, m} strictly between b and x / scale: as (b, alpha)
    lies in (-1, 0), there are |floor((x, alpha)) + 1| of them for each alpha."""
    return sum(abs(sum(map(mul, k, x)) // scale + 1) for k in ctx.pairings)


def _fold(ctx: _Context, x, scale: int) -> tuple[Point, list[int]]:
    """(N w(b), a reduced word for w), for the w in W_a whose alcove holds x / scale.

    x is folded into A_id, reflecting in the violated wall of smallest index
    at each step.  Each step crosses one separating hyperplane, so the word,
    read in application order, is reduced and multiplies out to w.
    """
    if any(sum(map(mul, k, x)) % scale == 0 for k in ctx.pairings):
        raise WallPointError("point on reflection hyperplane")
    steps = _length(ctx, x, scale)
    word: list[int] = []
    while len(word) <= steps:
        if sum(map(mul, ctx.marks, x)) < -scale:
            i = 0
        else:
            i = next((j + 1 for j, c in enumerate(x) if c > 0), None)
            if i is None:
                break
        x = _act(ctx, (i,), x, scale)
        word.append(i)
    if len(word) != steps:
        raise AlcovesError("fold did not cross one separating hyperplane per step")
    return _act(ctx, reversed(word), ctx.bary, ctx.scale), word


def _theta_point(ctx: _Context, n: int, lam) -> Point:
    """N (lambda - b), a point of the alcove A_{w0} + lambda."""
    return tuple(ctx.scale * m - b for m, b in zip(dominant_coweight(n, lam), ctx.bary))


def theta(data: RootSystemData, lam) -> tuple[Point, list[int]]:
    """The element whose alcove is A_{w0} + lambda, as (N theta(b), reduced word).

    `lam` is a dominant coweight given by its non-negative integer
    coordinates.  w0 maps A_id to -A_id, so w0(b) = -b and that alcove holds
    lambda - b.
    """
    ctx = _context(data)
    return _fold(ctx, _theta_point(ctx, data.rank, lam), ctx.scale)


def _close(start: Point, walls, word, scale: int, cap: int, weight: int) -> set[Point]:
    """P_0 = {start}; P_k = P_{k-1} united with s_{i_k}(P_{k-1}) along the word, at
    the given scale.  Refuses once weight |P_k| exceeds the cap.  A wall reflects only
    the points found since its last step, whose images are not all in P_{k-1} yet, so
    each point is reflected at most once per wall."""
    points, found = {start}, [start]
    done = [0] * len(walls)
    for i in word:
        k, c, v = walls[i]
        for p in found[done[i]:]:
            m = sum(map(mul, k, p)) + c * scale
            if m:
                q = tuple(a - m * b for a, b in zip(p, v))
                if q not in points:
                    points.add(q)
                    found.append(q)
        done[i] = len(found)  # an image q reflects back to a point already found
        if weight * len(points) > cap:
            raise BudgetExceededError("lower interval exceeds cap of %d elements" % cap)
    return points


def lower_interval(data: RootSystemData, w, word,
                   cap: int = DEFAULT_INTERVAL_CAP) -> set[Point]:
    """{N u^{-1}(b) : u <= w} by subword closure along one reduced word for w.

    w is the point N w(b).  S_0 = {id} and S_k = S_{k-1} united with
    S_{k-1} s_{i_k}; since (u s)^{-1}(b) = s(u^{-1}(b)), that is the closure
    of {N b}, one point per element.  The result does not depend on which
    reduced word is supplied (tested property).
    """
    ctx = _context(data)
    word, w = list(word), tuple(w)
    if _length(ctx, w, ctx.scale) != len(word):
        raise ValueError("word is not reduced for this element")
    if _act(ctx, reversed(word), ctx.bary, ctx.scale) != w:
        raise ValueError("word does not multiply to the element")
    return _close(ctx.bary, ctx.walls, word, ctx.scale, cap, 1)


def interval_size_bruhat(data: RootSystemData, lam, cap: int = DEFAULT_INTERVAL_CAP) -> int:
    """|<= theta(lambda)| by subword closure on the left W_f-cosets it is made of.

    Every finite s_i is a left descent of theta(lambda), so by the lifting
    property (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.2.7)
    u <= theta(lambda) implies s_i u <= theta(lambda): the interval is a union
    of left W_f-cosets.  The stabiliser of 0 in W_a is W_f, so u^{-1}(0)
    names the coset W_f u: the closure of `lower_interval`, started at 0 at
    scale 1 instead of at N b, gives the coset points P.

    The cap counts elements, as in `lower_interval`: |S_k| <= |W_f| |P_k| <=
    |S|, so this refuses exactly when `lower_interval` does, with its message.
    The interval holds W_f and a chain of each length up to l = l(theta(lambda)),
    so it has at least max(|W_f|, l + 1) elements: that refuses before the fold
    builds the word, in O(|Phi+| n) steps.
    """
    ctx = _context(data)
    length = _length(ctx, _theta_point(ctx, data.rank, lam), ctx.scale)
    if max(data.wf_order, length + 1) > cap:
        raise BudgetExceededError("lower interval exceeds cap of %d elements" % cap)
    _, word = theta(data, lam)
    points = _close((0,) * data.rank, ctx.walls, word, 1, cap, data.wf_order)
    return data.wf_order * len(points)


def descents(data: RootSystemData, w) -> tuple[set[int], set[int]]:
    """Left and right descent sets within {0..n} of the element with point N w(b).

    s_i is a left descent when wall i of A_id separates b from w(b), and a
    right descent when it separates b from w^{-1}(b).
    """
    ctx = _context(data)
    _, word = _fold(ctx, tuple(w), ctx.scale)
    left, right = ({i for i, wall in enumerate(ctx.walls)
                    if _height(wall, x, ctx.scale) * _height(wall, ctx.bary, ctx.scale) < 0}
                   for x in (w, _act(ctx, word, ctx.bary, ctx.scale)))
    return left, right


def sigma_reflection(data: RootSystemData, lam) -> int:
    """Index of s_sigma for the Omega-class of the coweight lam.

    0 when lam is in the coroot lattice; otherwise the unique minuscule i
    with lam + w_i^v in the coroot lattice.
    """
    lam = dominant_coweight(data.rank, lam)
    if data.in_coroot_lattice(lam):
        return 0
    for i in sorted(data.minuscule_set):
        shifted = tuple(c + (1 if j == i - 1 else 0) for j, c in enumerate(lam))
        if data.in_coroot_lattice(shifted):
            return i
    raise AlcovesError("no coset representative matched; data is inconsistent")
