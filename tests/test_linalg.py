from fractions import Fraction
from itertools import permutations
from math import prod
from operator import mul

import pytest
from hypothesis import given, strategies as st

from alcoves.errors import SingularSystemError
from alcoves.linalg import QMatrix, QVector, rational_to_str

from oracles import DegenerateBasisError, gram_det, matvec, solve_linear

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def _product(a: QMatrix, b: QMatrix) -> QMatrix:
    return QMatrix([[sum(map(mul, row, col)) for col in zip(*b.rows)] for row in a.rows])


def test_gram_det_single_coroot():
    # type A simple coroot has squared norm 2
    assert gram_det([QVector([1, -1, 0])]) == 2


def test_gram_det_a2_pair():
    # Gram matrix [[2,-1],[-1,2]] worked by hand: det = 3
    a1 = QVector([1, -1, 0])
    a2 = QVector([0, 1, -1])
    assert gram_det([a1, a2]) == QMatrix([[2, -1], [-1, 2]]).det() == 3


def test_gram_det_empty_is_one():
    assert gram_det([]) == 1


def test_gram_det_rejects_dependent():
    with pytest.raises(DegenerateBasisError):
        gram_det([QVector([1, 1]), QVector([2, 2])])


def test_solve_identity():
    m = QMatrix.identity(3)
    b = QVector([5, Fraction(-7, 3), 0])
    assert solve_linear(m, b) == b


def test_solve_cartan_system():
    m = QMatrix([[2, -1], [-1, 2]])
    x = solve_linear(m, QVector([1, 0]))
    assert x == QVector([Fraction(2, 3), Fraction(1, 3)])
    assert matvec(m, x) == QVector([1, 0])  # verified by substitution


def test_solve_singular_raises():
    with pytest.raises(SingularSystemError):
        solve_linear(QMatrix([[1, 1], [1, 1]]), QVector([1, 0]))


def test_matrix_inverse_and_rank():
    m = QMatrix([[2, -1], [-1, 2]])
    inv = m.inverse()
    assert _product(m, inv) == QMatrix.identity(2)
    assert m.rank() == 2
    assert QMatrix([[1, 2], [2, 4]]).rank() == 1


@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_gram_det_nonnegative(u, v):
    # positive for independent vectors; dependent ones, where it is zero, are refused
    if QMatrix([u, v]).rank() < 2:
        with pytest.raises(DegenerateBasisError):
            gram_det([QVector(u), QVector(v)])
    else:
        assert gram_det([QVector(u), QVector(v)]) > 0


def test_rational_string_roundtrip():
    for q in [Fraction(3), Fraction(-2, 7), Fraction(0)]:
        assert Fraction(rational_to_str(q)) == q


@st.composite
def small_matrices(draw, square=False):
    nr = draw(st.integers(1, 4))
    nc = nr if square else draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    return QMatrix(draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                                 min_size=nr, max_size=nr)))


def _leibniz_det(m: QMatrix) -> Fraction:
    n = m.nrows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


@given(small_matrices(square=True), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_square_elimination_properties(m, rhs):
    n = m.nrows
    det = m.det()
    assert det == _leibniz_det(m)
    assert (det == 0) == (m.rank() < n)
    b = QVector(rhs[:n])
    if det == 0:
        with pytest.raises(SingularSystemError):
            m.inverse()
        with pytest.raises(SingularSystemError):
            solve_linear(m, b)
    else:
        assert _product(m, m.inverse()) == QMatrix.identity(n)
        assert matvec(m, solve_linear(m, b)) == b


@given(small_matrices())
def test_row_rank_equals_column_rank(m):
    assert m.rank() == QMatrix(zip(*m.rows)).rank() <= min(m.nrows, m.ncols)
