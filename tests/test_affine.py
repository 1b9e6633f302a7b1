"""Alcove-model checks: lengths, folding, theta, intervals, descents.

The library names an element by its alcove point N w(b); the element oracle
in `oracles` multiplies integer matrices.  Sampling is deterministic (fixed
word lists / fixed interior points) so failures reproduce.
"""

import itertools
from fractions import Fraction

import pytest

from alcoves.affine import (descents, interval_size_bruhat, lower_interval, sigma_reflection,
                            theta)
from alcoves.errors import BudgetExceededError, WallPointError
from alcoves.orbits import interval_size_lattice, lattice_count
from alcoves.rootdata import _RANK_RULES, build_root_system

from oracles import (AffineElement, alcove_point, element, element_from_point,
                     enumerate_weyl_group, inverse, length, longest_finite_element,
                     lower_interval_elements, simple_reflection)
from oracles import descents as oracle_descents


def _interior_point(data, weights=None):
    """A rational interior point of A_id: positive mix of its vertices."""
    n = data.rank
    weights = weights or list(range(1, n + 2))
    total = sum(weights)
    coords = [Fraction(0)] * n
    # vertices are 0 and -w_i^v / eta_i
    for i in range(n):
        coords[i] = Fraction(-weights[i + 1], data.marks[i] * total)
    return coords


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_simple_reflections_are_involutions(name):
    d = build_root_system(name)
    for i in range(d.rank + 1):
        s = simple_reflection(d, i)
        assert (s @ s).is_identity()


def test_a1_affine_reflection():
    d = build_root_system("A1")
    s0 = simple_reflection(d, 0)
    # s0(0) = -alpha^v; in coweight coordinates alpha^v = (2)
    assert s0.apply((0,)) == (-2,)
    # the wall midpoint -alpha^v/2 is fixed
    assert s0.apply((Fraction(-1),)) == (Fraction(-1),)


def test_lengths():
    d = build_root_system("A2")
    assert length(d, AffineElement.identity(2)) == 0
    w0, _ = longest_finite_element(d)
    assert length(d, w0) == 3
    g = build_root_system("G2")
    w0g, _ = longest_finite_element(g)
    assert length(g, w0g) == 6


def test_a1_theta_lengths():
    d = build_root_system("A1")
    for m in range(5):
        _, word = theta(d, (m,))
        assert length(d, element(d, word)) == m + 1 == len(word)


def test_element_from_point_identity_and_s1():
    d = build_root_system("A2")
    bary = _interior_point(d, [1, 1, 1])
    w, word = element_from_point(d, bary)
    assert w == alcove_point(d, AffineElement.identity(2)) and word == []
    s1 = simple_reflection(d, 1)
    w, word = element_from_point(d, s1.apply(bary))
    assert w == alcove_point(d, s1) and word == [1]


def test_element_from_point_accepts_ambient_vector():
    d = build_root_system("A2")
    w, word = theta(d, (1, 1))
    ambient = d.ambient_from_coweight(element(d, word).apply(_interior_point(d)))
    w2, word2 = element_from_point(d, ambient)
    assert w2 == w and len(word2) == 7


def test_element_from_point_rejects_wall():
    d = build_root_system("A2")
    with pytest.raises(WallPointError):
        element_from_point(d, (0, 0))
    with pytest.raises(WallPointError):
        element_from_point(d, (Fraction(1), Fraction(-1, 4)))  # lies on H_{alpha_1, 1}


def test_theta_examples():
    d = build_root_system("A2")
    w0, _ = longest_finite_element(d)
    t0, word0 = theta(d, (0, 0))
    assert t0 == alcove_point(d, w0) and element(d, word0) == w0
    t, word = theta(d, (1, 1))
    assert length(d, element(d, word)) == 7 == len(word)
    for lam in [(1, 0), (1, 1)]:
        _, wordl = theta(d, lam)
        assert element(d, wordl).in_affine_weyl_group(d)
    with pytest.raises(ValueError):
        theta(d, (-1, 0))


def test_lower_interval_identity():
    d = build_root_system("A2")
    ident = AffineElement.identity(2)
    assert lower_interval(d, alcove_point(d, ident), []) == {alcove_point(d, ident)}
    assert lower_interval_elements(d, ident, []) == {ident}


def test_lower_interval_a1_dihedral():
    # in the infinite dihedral group every element of length < L is below w,
    # and both elements of each positive length exist: |<= w| = 2 ell(w)
    d = build_root_system("A1")
    for m in range(5):
        w, word = theta(d, (m,))
        assert len(lower_interval(d, w, word)) == 2 * (m + 1)


def test_lower_interval_a2_rho():
    d = build_root_system("A2")
    w, word = theta(d, (1, 1))
    assert len(lower_interval(d, w, word)) == 42


def test_lower_interval_word_independence():
    d = build_root_system("A2")
    for lam in [(1, 1), (2, 1), (0, 2)]:
        w, word = theta(d, lam)
        # fold a different interior point of the same alcove
        q = element(d, word).apply(_interior_point(d, [2, 5, 3]))
        w2, word2 = element_from_point(d, q)
        assert w2 == w and len(word2) == len(word)
        assert lower_interval(d, w, word) == lower_interval(d, w, word2)


def test_lower_interval_rejects_bad_word():
    d = build_root_system("A2")
    w, word = theta(d, (1, 0))
    with pytest.raises(ValueError):
        lower_interval(d, w, word + [1, 1])  # not reduced
    with pytest.raises(ValueError):
        lower_interval(d, w, [1] * len(word))  # wrong product


def test_lower_interval_budget():
    d = build_root_system("A2")
    w, word = theta(d, (1, 1))
    with pytest.raises(BudgetExceededError):
        lower_interval(d, w, word, cap=10)


def test_bruhat_routes_refuse_exactly_above_the_interval_size():
    # interval_size_bruhat caps |W_f| |P_k|, which lies between |S_k| and |S|
    for name in ["A2", "B2", "G2"]:
        d = build_root_system(name)
        for lam in itertools.product(range(3), repeat=2):
            w, word = theta(d, lam)
            size = len(lower_interval(d, w, word))
            assert interval_size_bruhat(d, lam, cap=size) == size, (name, lam)
            with pytest.raises(BudgetExceededError,
                               match="lower interval exceeds cap of %d elements" % (size - 1)):
                interval_size_bruhat(d, lam, cap=size - 1)
            with pytest.raises(BudgetExceededError,
                               match="lower interval exceeds cap of %d elements" % (size - 1)):
                lower_interval(d, w, word, cap=size - 1)


def test_descents():
    d = build_root_system("A2")
    left, right = descents(d, alcove_point(d, AffineElement.identity(2)))
    assert left == set() and right == set()
    w0, _ = longest_finite_element(d)
    left, right = descents(d, alcove_point(d, w0))
    assert left == {1, 2} and right == {1, 2}
    t, _ = theta(d, (1, 1))
    left, right = descents(d, t)
    assert {1, 2} <= left
    assert {1, 2} <= right  # sigma(rho) = 0, so S minus {s_0}


def test_descent_structure_of_theta_sampled():
    # finite descents on the left, all of S but s_sigma on the right
    for name, maxc in [("A1", 3), ("A2", 2), ("B2", 2), ("G2", 2), ("A3", 2), ("B3", 1), ("C3", 1)]:
        d = build_root_system(name)
        for lam in itertools.product(range(maxc + 1), repeat=d.rank):
            w, _ = theta(d, lam)
            left, right = descents(d, w)
            assert set(range(1, d.rank + 1)) <= left, (name, lam)
            sigma = sigma_reflection(d, lam)
            assert (set(range(d.rank + 1)) - {sigma}) <= right, (name, lam)


def test_sigma_reflection():
    a2 = build_root_system("A2")
    assert sigma_reflection(a2, (1, 1)) == 0     # rho is in the coroot lattice
    assert sigma_reflection(a2, (1, 0)) == 2     # w1 + w2 = rho lands in it
    assert sigma_reflection(a2, (0, 1)) == 1
    a1 = build_root_system("A1")
    assert sigma_reflection(a1, (1,)) == 1
    b2 = build_root_system("B2")
    assert sigma_reflection(b2, (1, 0)) == 1
    assert sigma_reflection(b2, (0, 1)) == 0


def test_length_changes_by_one_and_inverse_invariance():
    d = build_root_system("B2")
    words = [[], [1], [0, 1], [1, 2, 0], [2, 1, 0, 1], [0, 1, 2, 1, 0],
             [1, 2, 1, 0, 1, 2], [0, 2, 1, 2, 0, 1, 2, 1]]
    for letters in words:
        w = inv = AffineElement.identity(2)
        for i in letters:
            w = w @ simple_reflection(d, i)
            inv = simple_reflection(d, i) @ inv
        assert (w @ inv).is_identity()
        lw = length(d, w)
        assert length(d, inv) == lw
        for i in range(3):
            assert abs(length(d, w @ simple_reflection(d, i)) - lw) == 1


def test_interval_closed_under_coset_actions():
    # {u <= theta(lam)} is W_f-stable on the left, W_{S minus s_sigma}-stable on the right
    d = build_root_system("A2")
    for lam in [(1, 1), (1, 0)]:
        _, word = theta(d, lam)
        interval = lower_interval_elements(d, element(d, word), word)
        sigma = sigma_reflection(d, lam)
        right_gens = [simple_reflection(d, i) for i in range(3) if i != sigma]
        left_gens = [simple_reflection(d, i) for i in (1, 2)]
        for u in interval:
            for s in left_gens:
                assert (s @ u) in interval
            for s in right_gens:
                assert (u @ s) in interval


def test_interval_size_divisible_by_group_order():
    for name, lams in [("A2", [(1, 1), (2, 0)]), ("B2", [(1, 1)]), ("G2", [(1, 0)])]:
        d = build_root_system(name)
        for lam in lams:
            w, word = theta(d, lam)
            assert len(lower_interval(d, w, word)) % d.wf_order == 0


def test_theta_size_matches_lattice_formula_spot():
    d = build_root_system("B2")
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
        w, word = theta(d, lam)
        assert len(lower_interval(d, w, word)) == interval_size_lattice(d, lam)


E7_E8_SINGLES = [
    ("E7", 1, 127), ("E7", 2, 632), ("E7", 3, 2899), ("E7", 4, 24753), ("E7", 5, 6176),
    ("E7", 6, 883), ("E7", 7, 56), ("E8", 1, 2401), ("E8", 2, 26401), ("E8", 7, 9121),
    ("E8", 8, 241)]


@pytest.mark.parametrize("name,i,points", E7_E8_SINGLES)
def test_bruhat_equals_lattice_on_e7_e8_fundamental_coweights(name, i, points):
    # the coset closure with a raised cap against the lattice search; |P| pins the closure
    d = build_root_system(name)
    lam = tuple(int(j == i) for j in range(1, d.rank + 1))
    count = interval_size_bruhat(d, lam, cap=10 ** 20)
    assert count == interval_size_lattice(d, lam) == d.wf_order * points


# every sum of two fundamental coweights of E7 and E8 with |P| <= 10^5
E7_E8_PAIRS = [
    ("E7", 1, 2, 10208), ("E7", 1, 3, 28785), ("E7", 1, 5, 57584), ("E7", 1, 6, 14673),
    ("E7", 1, 7, 2144), ("E7", 2, 3, 69680), ("E7", 2, 6, 35912), ("E7", 2, 7, 6987),
    ("E7", 3, 6, 98157), ("E7", 3, 7, 23816), ("E7", 5, 7, 38361), ("E7", 6, 7, 7688),
    ("E8", 1, 8, 56881)]


@pytest.mark.parametrize("name,i,j,points", E7_E8_PAIRS)
def test_bruhat_equals_lattice_on_e7_e8_pairs_of_fundamental_coweights(name, i, j, points):
    d = build_root_system(name)
    lam = tuple(int(k in (i, j)) for k in range(1, d.rank + 1))
    count = interval_size_bruhat(d, lam, cap=10 ** 20)
    assert count == interval_size_lattice(d, lam) == d.wf_order * points


def test_the_e7_e8_cross_checks_cover_every_coweight_of_at_most_two_ones_below_the_bound():
    # the two tests above hold exactly the coweights of E7 and E8 with one or two 1s, the
    # rest 0, and at most 10^5 coset points
    covered = {(name, (i,)) for name, i, _ in E7_E8_SINGLES} | {
        (name, (i, j)) for name, i, j, _ in E7_E8_PAIRS}
    small = set()
    for name in ("E7", "E8"):
        d = build_root_system(name)
        for size in (1, 2):
            for S in itertools.combinations(range(1, d.rank + 1), size):
                lam = tuple(int(k in S) for k in range(1, d.rank + 1))
                if lattice_count(d, lam) <= 10 ** 5:
                    small.add((name, S))
    assert covered == small


def test_parabolic_alcoves_are_translated_group_alcoves():
    # the maximal parabolic generated by S minus {s_i} tiles the alcoves
    # around the vertex -w_i^v exactly as W_f translated by it (minuscule i)
    for name in ["A2", "B2"]:
        d = build_root_system(name)
        bary = _interior_point(d, [1] * (d.rank + 1))
        wf_points = {tuple(w.apply(bary)) for w in enumerate_weyl_group(d)}
        for i in sorted(d.minuscule_set):
            gens = [simple_reflection(d, j) for j in range(d.rank + 1) if j != i]
            seen = {AffineElement.identity(d.rank)}
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
            assert len(seen) == d.wf_order
            sigma_pts = {tuple(w.apply(bary)) for w in seen}
            shift = tuple(-1 if k == i - 1 else 0 for k in range(d.rank))
            shifted = {tuple(p + s for p, s in zip(pt, shift)) for pt in wf_points}
            assert sigma_pts == shifted


def test_enumerate_weyl_group():
    d = build_root_system("A2")
    assert len(enumerate_weyl_group(d)) == 6
    e7 = build_root_system("E7")
    with pytest.raises(BudgetExceededError):
        enumerate_weyl_group(e7)
    e8 = build_root_system("E8")
    with pytest.raises(BudgetExceededError):
        enumerate_weyl_group(e8)


def test_ambient_view_is_orthogonal_and_permutes_roots():
    # (Lx, alpha) = (x, L^T k(alpha)) for the pairing vector k(alpha), so an
    # orthogonal L that permutes the roots is an L^T that permutes the +-k(alpha)
    d = build_root_system("B2")
    pairings = set()
    for k in d.positive_root_coords:
        pairings.add(tuple(int(x) for x in k))
        pairings.add(tuple(-int(x) for x in k))
    w = element(d, theta(d, (1, 1))[1])
    for el in [w, simple_reflection(d, 1) @ w, w @ simple_reflection(d, 0)]:
        images = {tuple(sum(el.lin[r][j] * k[r] for r in range(d.rank)) for j in range(d.rank))
                  for k in pairings}
        assert images == pairings
        assert d.in_coroot_lattice(el.tr)


def _oracle_grid():
    """Criterion 1's grid without the B3/C3 coweights that have a coordinate 2."""
    for name, maxc in [("A1", 2), ("A2", 3), ("B2", 3), ("G2", 3), ("A3", 2), ("B3", 1),
                       ("C3", 1)]:
        d = build_root_system(name)
        for lam in itertools.product(range(maxc + 1), repeat=d.rank):
            yield d, lam


def test_theta_and_folded_points_are_oracle_images_of_b():
    # theta's alcove is w0(A_id) + lambda, so its point is N (w0(b) + lambda)
    for d, lam in _oracle_grid():
        point, word = theta(d, lam)
        w0, _ = longest_finite_element(d)
        shifted = AffineElement(w0.lin, tuple(t + m for t, m in zip(w0.tr, lam)))
        w = element(d, word)
        assert point == alcove_point(d, w) == alcove_point(d, shifted), (d.id, lam)
        assert length(d, w) == len(word), (d.id, lam)
        off_center = _interior_point(d, [3, 1, 4, 1][:d.rank + 1])
        folded, word2 = element_from_point(d, w.apply(off_center))
        assert folded == point and len(word2) == len(word), (d.id, lam)


def test_lower_interval_is_the_oracle_interval_as_points():
    # {N u^{-1}(b) : u <= w}, and along the reversed word {N u(b) : u <= w}
    for d, lam in _oracle_grid():
        point, word = theta(d, lam)
        w = element(d, word)
        elements = lower_interval_elements(d, w, word)
        assert lower_interval(d, point, word) == {alcove_point(d, inverse(u)) for u in elements}
        assert (lower_interval(d, alcove_point(d, inverse(w)), word[::-1])
                == {alcove_point(d, u) for u in elements}), (d.id, lam)


def test_descents_match_the_element_oracle():
    # on every prefix of theta's word, so that left and right descents differ
    for d, lam in _oracle_grid():
        _, word = theta(d, lam)
        for k in range(len(word) + 1):
            u = element(d, word[:k])
            assert descents(d, alcove_point(d, u)) == oracle_descents(d, u), (d.id, lam, k)


@pytest.mark.parametrize("name", [f + str(n) for f, rule in _RANK_RULES.items()
                                  for n in range(1, 9) if rule(n)])
def test_longest_element_maps_b_to_minus_b(name):
    # w0(A_id) = -A_id; theta's point N lambda - N b rests on it
    d = build_root_system(name)
    w0, _ = longest_finite_element(d)
    b = alcove_point(d, AffineElement.identity(d.rank))
    assert alcove_point(d, w0) == tuple(-x for x in b)
