from fractions import Fraction
from itertools import permutations
from math import prod
from operator import mul

import pytest
from hypothesis import given, strategies as st

from alcoves.errors import AlcovesError
from alcoves.coefficients import _RATIONAL
from alcoves.rootdata import border

from oracles import (DegenerateBasisError, QVector, SingularSystemError, gram_det, matrix_det,
                     matrix_inverse, matrix_rank, matvec, solve_linear)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def _product(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_gram_det_single_coroot():
    # type A simple coroot has squared norm 2
    assert gram_det([QVector([1, -1, 0])]) == 2


def test_gram_det_a2_pair():
    # Gram matrix [[2,-1],[-1,2]] worked by hand: det = 3
    a1 = QVector([1, -1, 0])
    a2 = QVector([0, 1, -1])
    assert gram_det([a1, a2]) == matrix_det([[2, -1], [-1, 2]]) == 3


def test_gram_det_empty_is_one():
    assert gram_det([]) == 1


def test_gram_det_rejects_dependent():
    with pytest.raises(DegenerateBasisError):
        gram_det([QVector([1, 1]), QVector([2, 2])])


def test_solve_identity():
    m = _identity(3)
    b = QVector([5, Fraction(-7, 3), 0])
    assert solve_linear(m, b) == b


def test_solve_cartan_system():
    m = [[2, -1], [-1, 2]]
    x = solve_linear(m, QVector([1, 0]))
    assert x == QVector([Fraction(2, 3), Fraction(1, 3)])
    assert matvec(m, x) == QVector([1, 0])  # verified by substitution


def test_solve_singular_raises():
    with pytest.raises(SingularSystemError):
        solve_linear([[1, 1], [1, 1]], QVector([1, 0]))


def test_matrix_inverse_and_rank():
    m = [[2, -1], [-1, 2]]
    assert _product(m, matrix_inverse(m)) == _identity(2)
    assert matrix_rank(m) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1


def test_border_refuses_a_matrix_not_of_finite_type():
    affine_a1 = [[2, -2], [-2, 2]]  # positive semidefinite, det 0
    adj, det = border(affine_a1, [0], [], 1)
    assert (adj, det) == ([[1]], 2)
    with pytest.raises(AlcovesError):
        border(affine_a1, [0, 1], adj, det)


@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_gram_det_nonnegative(u, v):
    # positive for independent vectors; dependent ones, where it is zero, are refused
    if matrix_rank([u, v]) < 2:
        with pytest.raises(DegenerateBasisError):
            gram_det([QVector(u), QVector(v)])
    else:
        assert gram_det([QVector(u), QVector(v)]) > 0


def test_rational_string_roundtrip():
    # str() of a Fraction is the "p" or "p/q" that the JSON writers emit and from_json reads
    for q in [Fraction(3), Fraction(-2, 7), Fraction(0)]:
        assert _RATIONAL.fullmatch(str(q)) and Fraction(str(q)) == q


@st.composite
def small_matrices(draw, square=False):
    nr = draw(st.integers(1, 4))
    nc = nr if square else draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


def _leibniz_det(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


@given(small_matrices(square=True), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_square_elimination_properties(m, rhs):
    n = len(m)
    det = matrix_det(m)
    assert det == _leibniz_det(m)
    assert (det == 0) == (matrix_rank(m) < n)
    b = QVector(rhs[:n])
    if det == 0:
        with pytest.raises(SingularSystemError):
            matrix_inverse(m)
        with pytest.raises(SingularSystemError):
            solve_linear(m, b)
    else:
        assert _product(m, matrix_inverse(m)) == _identity(n)
        assert matvec(m, solve_linear(m, b)) == b


@given(small_matrices())
def test_row_rank_equals_column_rank(m):
    assert matrix_rank(m) == matrix_rank(list(zip(*m))) <= min(len(m), len(m[0]))
