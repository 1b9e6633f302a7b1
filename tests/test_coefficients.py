import itertools
import math
from fractions import Fraction

import pytest

from alcoves.coefficients import (GeometricCoefficients, check_coefficients, evaluate_formula,
                                  fit_mu, hypersimplex_dilation_count, hypersimplex_ehrhart)
from alcoves.errors import (BudgetExceededError, FitVerificationError,
                            FormulaConsistencyError)
from alcoves.orbits import interval_size_lattice
from alcoves.radicals import RadScalar
from alcoves.rootdata import _RANK_RULES, build_root_system
from alcoves.mpoly import MPoly
from alcoves.volumes import face_gram, volume_polynomial
from oracles import (eulerian, homogeneous_part, is_rational, mpoly_interpolate, mu_euclidean,
                     mu_full, square, stirling1, type_a_connected_mu)


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


def test_rows_beyond_the_recursion_limit():
    # both rows are built iteratively, so a row past the recursion limit is fine
    assert stirling1(1100, 1) == math.factorial(1099)
    assert eulerian(1100, 2) == 2 ** 1100 - 1101


def test_ehrhart_e13():
    poly = hypersimplex_ehrhart(1, 3)
    # (t+1)(t+2)/2
    assert poly.terms == {(0,): 1, (1,): Fraction(3, 2), (2,): Fraction(1, 2)}
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
    # mu of the vertex face class is the order of the finite Weyl group
    assert build_root_system("A2").wf_order == 6
    assert build_root_system("G2").wf_order == 12
    assert build_root_system("F4").wf_order == 1152


@pytest.mark.parametrize("name", [f + str(n) for f, rule in _RANK_RULES.items()
                                  for n in range(1, 9) if rule(n)])
def test_top_pin_is_the_weyl_group_order(name):
    # check_coefficients pins mu'_top = 1/vol(A_id) as |W_f|: sqrt(gram_top) is the
    # covolume of the coroot lattice, which is |W_f| vol(A_id)
    d = build_root_system(name)
    assert mu_full(d) * RadScalar.sqrt(face_gram(d, range(1, d.rank + 1))) == d.wf_order


def test_mu_full_closed_values():
    assert mu_full(build_root_system("A2")) == RadScalar(2, 3)
    assert square(mu_full(build_root_system("A2"))) == 12
    assert mu_full(build_root_system("G2")) == RadScalar(12, 3)
    assert square(mu_full(build_root_system("G2"))) == 432
    assert mu_full(build_root_system("F4")) == RadScalar(576)
    assert square(mu_full(build_root_system("F4"))) == 331776


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
    assert is_rational(top)
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
        assert is_rational(expected) and coeffs.mu_prime[top] == expected.coeff


def test_mu_euclidean_reporting():
    d = build_root_system("G2")
    coeffs = fit_mu(d)
    mu = mu_euclidean(coeffs, d, (1, 2))
    assert mu == RadScalar(12, 3)  # 12*sqrt(3), squares to 432
    assert square(mu) == 432


def test_coefficients_json_roundtrip():
    d = build_root_system("B2")
    coeffs = fit_mu(d)
    obj = coeffs.to_json()
    assert obj["system"] == "B2"
    assert obj["mu_prime"][""] == "8"
    back = GeometricCoefficients.from_json(obj)
    assert back.mu_prime == coeffs.mu_prime


def test_coefficients_are_equal_by_value_and_unhashable():
    d = build_root_system("A2")
    mu = {(): Fraction(6), (1,): Fraction(9), (2,): Fraction(9), (1, 2): Fraction(6)}
    coeffs = GeometricCoefficients(d.id, mu)
    assert coeffs.provenance == {}
    assert coeffs.provenance is not GeometricCoefficients(d.id, mu).provenance
    assert coeffs == GeometricCoefficients(build_root_system("A2").id, dict(mu), {})
    assert coeffs != GeometricCoefficients(d.id, {**mu, (): Fraction(7)})
    assert coeffs != GeometricCoefficients(d.id, mu, {(): "fitted"})
    assert coeffs != mu
    with pytest.raises(TypeError, match="unhashable"):
        hash(coeffs)
    back = GeometricCoefficients.from_json(coeffs.to_json())
    assert back == GeometricCoefficients(d.id, mu, {J: "fitted" for J in mu})


@pytest.mark.parametrize("obj", [
    [1], "A2", None, {}, {"mu_prime": {"": "6"}}, {"system": "", "mu_prime": {}},
    {"system": "Z2", "mu_prime": {}}, {"system": "A2"}, {"system": "A2", "mu_prime": [1]},
    {"system": "A2", "mu_prime": {"": "six"}}, {"system": "A2", "mu_prime": {"": None}},
    {"system": "A2", "mu_prime": {"x": "6"}}, {"system": "A2", "mu_prime": {"": float("inf")}},
    {"system": "A2", "mu_prime": {"": "6"}, "provenance": []},
    {"system": "A2", "mu_prime": {"": "1/0"}}, {"system": "A2", "mu_prime": {"": "1e100000000"}},
    {"system": "A2", "mu_prime": {" 1": "9"}},
    # a system name only as to_json writes it: int() alone would read each of these as A2
    *({"system": name, "mu_prime": {"": "6", "1": "9", "2": "9", "1,2": "6"}}
      for name in ["a2", "A\u0662", "A 2", "A+2", "A02", "A2 "]),
])
def test_from_json_rejects_malformed_objects(obj):
    with pytest.raises(ValueError):
        GeometricCoefficients.from_json(obj)


def test_check_coefficients_pins():
    d = build_root_system("A2")
    fitted = fit_mu(d).mu_prime
    check_coefficients(d, GeometricCoefficients(d.id, fitted))
    for J in [(), (1, 2)]:  # mu'_empty and mu'_top
        coeffs = GeometricCoefficients(d.id, {K: v + (K == J) for K, v in fitted.items()})
        with pytest.raises(ValueError, match="mu'_"):
            check_coefficients(d, coeffs)
        with pytest.raises(ValueError, match="mu'_"):
            evaluate_formula(d, coeffs, (0, 0))


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
        part = homogeneous_part(counting_poly, deg)
        acc = MPoly(n)
        for J, mu in coeffs.mu_prime.items():
            if len(J) == deg:
                acc = acc + mu * volume_polynomial(d, J).rel_poly
        assert part == acc


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_formula_agrees_on_full_coordinate_box(name):
    # fitted coefficients reproduce the lattice count on every dominant
    # coweight with coordinates <= 4, generic or not
    d = build_root_system(name)
    coeffs = fit_mu(d)
    for lam in itertools.product(range(5), repeat=d.rank):
        assert evaluate_formula(d, coeffs, lam) == \
            interval_size_lattice(d, lam), (name, lam)


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
    real = coefmod.interval_size_lattice
    for bad in [(0, 3), (1, 0), (2, 1)]:
        seen = []

        def corrupted(data, lam, box_cap):
            seen.append(tuple(lam))
            value = real(data, lam, box_cap)
            return value + 1 if tuple(lam) == bad else value

        monkeypatch.setattr(coefmod, "interval_size_lattice", corrupted)
        with pytest.raises(FitVerificationError):
            fit_mu(d)
        assert bad in seen
