import itertools
import math
from fractions import Fraction

import pytest

from alcoves.coefficients import (GeometricCoefficients, eulerian, evaluate_formula,
                                  fit_mu, hypersimplex_dilation_count,
                                  hypersimplex_ehrhart, mu_empty, mu_full,
                                  stirling1, type_a_connected_mu)
from alcoves.errors import (BudgetExceededError, FitVerificationError,
                            FormulaConsistencyError)
from alcoves.orbits import interval_size_lattice
from alcoves.radicals import RadScalar
from alcoves.rootdata import build_root_system
from alcoves.volumes import volume_polynomial
from oracles import mpoly_interpolate


def test_stirling_numbers():
    assert stirling1(4, 2) == 11
    assert all(stirling1(a, a) == 1 for a in range(7))
    assert stirling1(5, 1) == 24  # (a-1)!
    assert [stirling1(4, b) for b in range(5)] == [0, 6, 11, 6, 1]
    with pytest.raises(ValueError):
        stirling1(3, 4)
    with pytest.raises(ValueError):
        stirling1(3, -1)


def test_eulerian_numbers():
    assert eulerian(1, 1) == 1
    assert eulerian(3, 2) == 4
    assert [eulerian(4, s) for s in range(1, 5)] == [1, 11, 11, 1]
    for r in range(1, 7):
        assert sum(eulerian(r, s) for s in range(1, r + 1)) == math.factorial(r)
    with pytest.raises(ValueError):
        eulerian(2, 3)


def test_ehrhart_e13():
    poly = hypersimplex_ehrhart(1, 3)
    # (t+1)(t+2)/2
    assert poly.coeff((0,)) == 1
    assert poly.coeff((1,)) == Fraction(3, 2)
    assert poly.coeff((2,)) == Fraction(1, 2)
    assert poly.eval((2,)) == 6


def test_ehrhart_basic_values():
    for d in range(2, 7):
        for k in range(1, d + 1):
            poly = hypersimplex_ehrhart(k, d)
            assert poly.eval((0,)) == 1
            assert poly.eval((1,)) == math.comb(d, k)


def test_dilation_counter_against_itertools():
    # keep the DP oracle itself honest on tiny cases
    for d in range(1, 5):
        for k in range(1, d + 1):
            for m in range(3):
                direct = sum(
                    1 for xs in itertools.product(range(m + 1), repeat=d)
                    if sum(xs) == m * k)
                assert hypersimplex_dilation_count(k, d, m) == direct


def test_ehrhart_matches_dilation_counts():
    for d in range(2, 7):
        for k in range(1, d):
            poly = hypersimplex_ehrhart(k, d)
            for m in range(5):
                assert poly.eval((m,)) == hypersimplex_dilation_count(k, d, m)


def test_mu_empty():
    assert mu_empty(build_root_system("A2")) == 6
    assert mu_empty(build_root_system("G2")) == 12
    assert mu_empty(build_root_system("F4")) == 1152


def test_mu_full_closed_values():
    assert mu_full(build_root_system("A2")) == RadScalar(2, 3)
    assert mu_full(build_root_system("A2")).square() == 12
    assert mu_full(build_root_system("G2")) == RadScalar(12, 3)
    assert mu_full(build_root_system("G2")).square() == 432
    assert mu_full(build_root_system("F4")) == RadScalar(576)
    assert mu_full(build_root_system("F4")).square() == 331776


def test_type_a_pipeline_rank2():
    mu = type_a_connected_mu(2)
    assert mu == {(1,): 9, (2,): 9, (1, 2): 6}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_a_leading_windows_closed_form(n):
    mu = type_a_connected_mu(n)
    for l in range(1, n + 1):
        expected = math.factorial(l) * (n + 1) * stirling1(n + 1, l + 1)
        assert mu[tuple(range(1, l + 1))] == expected
    # top window equals the alcove-volume closed form, lattice-normalized
    top = mu_full(build_root_system("A", n)) * RadScalar.sqrt(n + 1)
    assert top.is_rational()
    assert mu[tuple(range(1, n + 1))] == top.coeff


def test_fit_a2_values_and_evaluation():
    d = build_root_system("A2")
    coeffs = fit_mu(d)
    assert coeffs.mu_prime == {(): 6, (1,): 9, (2,): 9, (1, 2): 6}
    assert evaluate_formula(d, coeffs, (1, 1)) == 42
    assert evaluate_formula(d, coeffs, (1, 0)) == 18
    assert evaluate_formula(d, coeffs, (2, 2)) == 114
    assert evaluate_formula(d, coeffs, (0, 0)) == 6


def test_fit_matches_type_a_pipeline_rank3():
    d = build_root_system("A3")
    coeffs = fit_mu(d)
    pipeline = type_a_connected_mu(3)
    for J, val in pipeline.items():
        assert coeffs.mu_prime[J] == val
    assert coeffs.mu_prime[()] == 24


def test_fit_closed_form_pins():
    for name in ["B2", "G2", "C3"]:
        d = build_root_system(name)
        coeffs = fit_mu(d)
        assert coeffs.mu_prime[()] == d.wf_order
        top = tuple(range(1, d.rank + 1))
        expected = mu_full(d) * RadScalar.sqrt(volume_polynomial(d, top).gram)
        assert expected.is_rational() and coeffs.mu_prime[top] == expected.coeff


def test_mu_euclidean_reporting():
    d = build_root_system("G2")
    coeffs = fit_mu(d)
    mu = coeffs.mu_euclidean(d, (1, 2))
    assert mu == RadScalar(12, 3)  # 12*sqrt(3), squares to 432
    assert mu.square() == 432


def test_coefficients_json_roundtrip():
    d = build_root_system("B2")
    coeffs = fit_mu(d)
    obj = coeffs.to_json()
    assert obj["system"] == "B2"
    assert obj["mu_prime"][""] == "8"
    back = GeometricCoefficients.from_json(obj)
    assert back.mu_prime == coeffs.mu_prime


def test_simplex_identity_rank2():
    # |<= theta(m w_k)| = (n+1)! E_{k,n+1}(m) in type A
    n = 2
    d = build_root_system("A", n)
    for k in (1, 2):
        poly = hypersimplex_ehrhart(k, n + 1)
        for m in range(5):
            lam = tuple(m if i + 1 == k else 0 for i in range(n))
            assert interval_size_lattice(d, lam) == math.factorial(n + 1) * poly.eval((m,))


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_degree_structure(name):
    # the degree-d part of the counting polynomial is sum over |J| = d
    d = build_root_system(name)
    n = d.rank
    coeffs = fit_mu(d)
    support = [e for e in itertools.product(range(n + 1), repeat=n)]
    grid = [pt for pt in itertools.product(range(n + 1), repeat=n)]
    samples = [(pt, interval_size_lattice(d, pt)) for pt in grid]
    counting_poly = mpoly_interpolate(support, samples)
    for deg in range(n + 1):
        part = counting_poly.homogeneous_part(deg)
        from alcoves.mpoly import MPoly
        acc = MPoly.zero(n)
        for J, mu in coeffs.mu_prime.items():
            if len(J) == deg:
                acc = acc + mu * volume_polynomial(d, J).rel_poly
        assert part == acc


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_formula_agrees_on_full_coordinate_box(name):
    # fitted coefficients reproduce the lattice count on every dominant
    # coweight with coordinates <= 4, generic or not
    from alcoves.orbits import interval_size_lattice_cached
    d = build_root_system(name)
    coeffs = fit_mu(d)
    for lam in itertools.product(range(5), repeat=d.rank):
        assert evaluate_formula(d, coeffs, lam) == \
            interval_size_lattice_cached(d, lam), (name, lam)


def test_evaluate_formula_rejects_inconsistent():
    d = build_root_system("A2")
    coeffs = fit_mu(d)
    broken = GeometricCoefficients(
        coeffs.system,
        {J: (v + Fraction(1, 2) if J == (1,) else v) for J, v in coeffs.mu_prime.items()})
    with pytest.raises(FormulaConsistencyError):
        evaluate_formula(d, broken, (1, 1))


def test_fit_budget_refusal():
    with pytest.raises(BudgetExceededError):
        fit_mu(build_root_system("A", 24))  # 2^24 subsets: desk-scale refusal


def test_fit_verification_failure_surfaces(monkeypatch):
    # corrupt one count, held out ((0, 3), (2, 1)) or used by the fit
    # (1, 0): the fit must fail loudly, never silently
    import alcoves.coefficients as coefmod
    d = build_root_system("A2")
    real = coefmod.interval_size_lattice_cached
    for bad in [(0, 3), (1, 0), (2, 1)]:
        seen = []

        def corrupted(data, lam, box_cap):
            seen.append(tuple(lam))
            value = real(data, lam, box_cap)
            return value + 1 if tuple(lam) == bad else value

        monkeypatch.setattr(coefmod, "interval_size_lattice_cached", corrupted)
        with pytest.raises(FitVerificationError):
            fit_mu(d)
        assert bad in seen
