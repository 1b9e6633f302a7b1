from fractions import Fraction

from hypothesis import given, strategies as st

from alcoves.radicals import RadScalar, squarefree_decompose

from oracles import is_rational, reciprocal, sqrt_decompose, square


def test_sqrt2_times_sqrt2():
    s = RadScalar(1, 2)
    assert s * s == RadScalar(2, 1)


def test_six_over_sqrt3_canonicalizes():
    # 6/sqrt(3) = 6 * sqrt(1/3) = 2*sqrt(3)
    v = RadScalar(6) * RadScalar(1, Fraction(1, 3))
    assert v.coeff == 2 and v.radicand == 3


def test_square_of_12_sqrt3():
    assert square(RadScalar(12, 3)) == 432


def test_zero_representation():
    z = RadScalar(0, 7)
    assert z.coeff == 0 and z.radicand == 1
    assert z == RadScalar(0) == 0 and RadScalar(0, 7) * RadScalar(5, 2) == z


def test_reciprocal():
    s = RadScalar(Fraction(1, 3), 3)  # sqrt(3)/3 = 1/sqrt(3)
    assert reciprocal(s) == RadScalar(1, 3)
    assert (s * reciprocal(s)) == RadScalar(1)


def test_sqrt_decompose_examples():
    assert sqrt_decompose(Fraction(1, 3)) == (Fraction(1, 3), 3)
    assert sqrt_decompose(Fraction(8)) == (Fraction(2), 2)
    assert sqrt_decompose(Fraction(9, 4)) == (Fraction(3, 2), 1)
    assert squarefree_decompose(360) == (6, 10)


def _squarefree(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


@given(st.fractions(min_value=Fraction(1, 100), max_value=500, max_denominator=100),
       st.integers(1, 400))
def test_canonical_radicand_squarefree(c, r):
    s = RadScalar(c, r)
    assert _squarefree(s.radicand)
    assert square(s) == c * c * r


@given(st.fractions(min_value=Fraction(-50), max_value=50, max_denominator=50),
       st.integers(1, 100))
def test_square_matches_self_product(c, r):
    s = RadScalar(c, r)
    prod = s * s
    assert is_rational(prod)
    assert prod.coeff == square(s)
