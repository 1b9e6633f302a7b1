from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from alcoves.mpoly import MPoly
from oracles import (InterpolationError, homogeneous_part, is_homogeneous, mpoly_interpolate,
                     variables_used)


def test_affine_interpolation():
    # support {1, x}: samples 0 -> 1, 1 -> 3 give 1 + 2x
    p = mpoly_interpolate([(0,), (1,)], [((0,), 1), ((1,), 3)])
    assert p == MPoly(1, {(0,): 1, (1,): 2})


def test_bilinear_recovery():
    support = [(0, 0), (1, 0), (0, 1), (1, 1)]
    samples = [((1, 1), 1), ((1, 2), 2), ((2, 1), 2), ((2, 2), 4)]  # f = xy
    p = mpoly_interpolate(support, samples)
    assert p == MPoly(2, {(1, 1): 1})


def test_extra_samples_checked():
    # support {x^2}: both samples fit 2x^2
    p = mpoly_interpolate([(2,)], [((1,), 2), ((2,), 8)])
    assert p == MPoly(1, {(2,): 2})
    with pytest.raises(InterpolationError):
        mpoly_interpolate([(2,)], [((1,), 2), ((2,), 9)])


def test_singular_sample_geometry():
    with pytest.raises(InterpolationError):
        mpoly_interpolate([(0,), (2,)], [((1,), 1), ((-1,), 1)])  # 1 and x^2 collide


def test_arithmetic_and_eval():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.eval((3, 2)) == 5
    assert is_homogeneous(p, 2)
    assert homogeneous_part(x * x + y, 2) == x * x
    assert variables_used(p) == frozenset({0, 1})


def test_zero_coefficients_dropped():
    p = MPoly(1, {(1,): 1}) - MPoly(1, {(1,): 1})
    assert p.terms == {}


def test_json_roundtrip_deterministic():
    p = MPoly(2, {(1, 0): Fraction(1, 2), (0, 2): -3})
    obj = p.to_json()
    assert list(obj) == sorted(obj)
    assert obj == {"0,2": "-3", "1,0": "1/2"}
    assert MPoly(2, {tuple(map(int, e.split(","))): Fraction(c) for e, c in obj.items()}) == p


@settings(max_examples=30)
@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    max_size=5))
def test_interpolation_recovers_polynomial(terms):
    p = MPoly(2, terms)
    support = sorted({(i, j) for i in range(3) for j in range(3)})
    grid = [(x, y) for x in range(1, 4) for y in range(1, 4)]
    samples = [(pt, p.eval(pt)) for pt in grid]
    q = mpoly_interpolate(support, samples)
    assert q == p
