import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from alcoves.affine import interval_size_bruhat
from alcoves.cli import DATA_DIR, main
import alcoves.coefficients as coefmod
from alcoves.coefficients import (GeometricCoefficients, _berline_vergne, _ratio_text, _wedge,
                                  evaluate_formula, fit_mu, hypersimplex_dilation_count,
                                  hypersimplex_ehrhart)
from alcoves.errors import (BudgetExceededError, FitVerificationError,
                            FormulaConsistencyError)
from alcoves.orbits import interval_size_lattice
from alcoves.rootdata import _RANK_RULES, build_root_system, weyl_order
from alcoves.mpoly import MPoly
from alcoves.volumes import _gram, _pyramid, face_gram, volume_polynomial
from oracles import (RadScalar, eulerian, evaluate_formula_by_fractions, homogeneous_part,
                     is_rational, matrix_inverse, mpoly_interpolate, mu_euclidean, mu_full,
                     solve_from_counts, square, stirling1, type_a_connected_mu,
                     wedge_by_schur_complement)
from test_golden import FITS, SHIPPED


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


@pytest.mark.parametrize("k, d, m, error", [
    (1, 3, -1, ValueError),
    (0, 3, 1, ValueError),
    (4, 3, 1, ValueError),
    (1, 3, 1.5, TypeError),
    (1.0, 3, 1, TypeError),
])
def test_dilation_counter_refuses_bad_input(k, d, m, error):
    with pytest.raises(error):
        hypersimplex_dilation_count(k, d, m)


def test_ehrhart_matches_dilation_counts():
    for d in range(2, 13):
        for k in range(1, d + 1):
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
    # the GeometricCoefficients constructor pins mu'_top = 1/vol(A_id) as |W_f|: sqrt(gram_top)
    # is the covolume of the coroot lattice, which is |W_f| vol(A_id)
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
    assert coeffs == GeometricCoefficients(build_root_system("A2").id, dict(mu))
    assert coeffs != mu
    # the pins fix every mu' of rank 3 or less (codimension 0 to 2), so two maps of one
    # system that differ are of A4
    a4 = _shipped("A4")
    assert a4 != GeometricCoefficients(a4.system, {**a4.mu_prime, (1,): Fraction(251)})
    with pytest.raises(TypeError, match="unhashable"):
        hash(coeffs)
    back = GeometricCoefficients.from_json(coeffs.to_json())
    assert back == GeometricCoefficients(d.id, mu)


def test_provenance_is_read_off_J():
    d = build_root_system("A2")
    mu = {(): Fraction(6), (1,): Fraction(9), (2,): Fraction(9), (1, 2): Fraction(6)}
    derived = {"": "closed-form", "1": "fitted", "2": "fitted", "1,2": "closed-form"}
    assert GeometricCoefficients(d.id, mu).to_json()["provenance"] == derived
    assert fit_mu(d).to_json()["provenance"] == derived
    obj = GeometricCoefficients(d.id, mu).to_json()
    assert GeometricCoefficients.from_json(obj) == GeometricCoefficients(d.id, mu)
    # an object without the fields to_json derives is not what to_json writes
    bare = {"system": "A2", "mu_prime": {"": "6", "1": "9", "2": "9", "1,2": "6"}}
    with pytest.raises(ValueError, match="gram, provenance, schema, version$"):
        GeometricCoefficients.from_json(bare)
    with pytest.raises(ValueError, match="gram, schema, version$"):
        GeometricCoefficients.from_json({**bare, "provenance": derived})


@pytest.mark.parametrize("provenance", [
    {"": "fitted", "1": "fitted", "2": "fitted", "1,2": "closed-form"},
    {"": "closed-form", "1": "fitted", "2": "closed-form", "1,2": "closed-form"},
    {"": "closed-form", "1": "fitted", "2": "fitted", "1,2": "unknown"},
    {"": "closed-form", "1": "fitted", "2": "fitted"},
    {"": "closed-form", "1": "fitted", "2": "fitted", "1,2": "closed-form", "3": "fitted"},
    {}, [], None, "fitted",
])
def test_from_json_refuses_a_provenance_other_than_the_derived_one(provenance):
    obj = {"system": "A2", "mu_prime": {"": "6", "1": "9", "2": "9", "1,2": "6"},
           "provenance": provenance}
    with pytest.raises(ValueError, match="provenance"):
        GeometricCoefficients.from_json(obj)


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


def test_constructor_pins():
    d = build_root_system("A2")
    fitted = fit_mu(d).mu_prime
    assert GeometricCoefficients(d.id, fitted).mu_prime == fitted
    for J in [(), (1, 2)]:  # mu'_empty and mu'_top
        with pytest.raises(ValueError, match="mu'_"):
            GeometricCoefficients(d.id, {K: v + (K == J) for K, v in fitted.items()})
    for J, i in [((2,), 1), ((1,), 2)]:  # mu'_{I-i}
        with pytest.raises(ValueError, match=r"mu'_\{I-i\} .* at i=%d$" % i):
            GeometricCoefficients(d.id, {K: v + Fraction(K == J, 3) for K, v in fitted.items()})
    for keys in [[(), (1,), (1, 2)], [(), (1,), (2,), (1, 2), (3,)], [(), (1,), (2, 1), (1, 2)]]:
        with pytest.raises(ValueError, match="exactly the 4 subsets of 1..2"):
            GeometricCoefficients(d.id, {K: Fraction(6) for K in keys})
    # mu'_{I-k-l}: on A3 and B3 each singleton is of codimension 2, and the empty set is
    # of A2, where the mu'_empty pin comes first
    for name in ["A3", "B3"]:
        shipped = _shipped(name).mu_prime
        for J, (k, l) in [((3,), (1, 2)), ((2,), (1, 3)), ((1,), (2, 3))]:
            with pytest.raises(ValueError, match=r"mu'_\{I-k-l\} .* at k=%d l=%d$" % (k, l)):
                GeometricCoefficients(build_root_system(name).id,
                                      {K: v + Fraction(K == J, 3) for K, v in shipped.items()})


def test_the_map_is_read_only_and_a_copy():
    d = build_root_system("A2")
    mu = {(): Fraction(6), (1,): Fraction(9), (2,): Fraction(9), (1, 2): Fraction(6)}
    coeffs = GeometricCoefficients(d.id, mu)
    with pytest.raises(TypeError):
        coeffs.mu_prime[()] = Fraction(7)
    with pytest.raises(TypeError):
        del coeffs.mu_prime[(1,)]
    mu[(1,)] = Fraction(10)
    assert coeffs.mu_prime[(1,)] == 9


def test_from_json_refuses_a_large_rank_before_any_rank_sized_work():
    # a short object naming A2000000: refused on the subset cap, before anything of
    # the size of the rank (a tuple of 1..n, the power 2^n) is built
    obj = {"system": "A2000000", "mu_prime": {"": "6"}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="subsets, exceeding cap 4096"):
            GeometricCoefficients.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
    # mu'_{1} is pinned up to A3 (codimension 2 there), not on A4
    d = build_root_system("A4")
    coeffs = fit_mu(d)
    broken = GeometricCoefficients(
        coeffs.system,
        {J: (v + Fraction(1, 2) if J == (1,) else v) for J, v in coeffs.mu_prime.items()})
    with pytest.raises(FormulaConsistencyError):
        evaluate_formula(d, broken, (1, 1, 1, 1))


def test_fit_budget_refusal():
    with pytest.raises(BudgetExceededError):
        fit_mu(build_root_system("A", 24))  # 2^24 subsets: desk-scale refusal


def _T(n):
    """The principal lattice T_n = {lambda >= 0 : sum lambda <= n}, by filtering a box."""
    return {lam for lam in itertools.product(range(n + 1), repeat=n) if sum(lam) <= n}


def _record_counts(monkeypatch, bad=None):
    """Route the fit's lattice counts through a recorder that adds one at bad; the list
    of the coweights counted, in order."""
    import alcoves.orbits as orbitsmod
    seen = []

    def count(data, lam, box_cap):  # the unpatched count, imported above, not a wrapper
        seen.append(lam)
        return interval_size_lattice(data, lam, box_cap) + (lam == bad)

    monkeypatch.setattr(orbitsmod, "interval_size_lattice", count)
    return seen


def _shipped(name) -> GeometricCoefficients:
    return GeometricCoefficients.from_json(
        json.loads(Path(DATA_DIR, "%s.json" % name).read_text()))


@pytest.mark.parametrize("name,size", [("A2", 6), ("B3", 20), ("F4", 70), ("D5", 252)])
def test_the_fit_counts_each_point_of_T_n_once_and_nothing_else(monkeypatch, name, size):
    d = build_root_system(name)
    seen = _record_counts(monkeypatch)
    fit_mu(d)
    assert len(seen) == len(set(seen)) == size == math.comb(2 * d.rank, d.rank)
    assert set(seen) == _T(d.rank)


def test_fit_verification_failure_surfaces(capsys, tmp_path, monkeypatch):
    # one count wrong at each point of T_2 in turn, and at a point of T_3 that is not 0/1:
    # the fit must fail loudly, never silently, name that point, and `fit` exit 3 without
    # writing
    for name, bad in [("A2", lam) for lam in sorted(_T(2))] + [("B3", (2, 0, 1))]:
        seen = _record_counts(monkeypatch, bad)
        with pytest.raises(FitVerificationError, match=r"at lambda=%s$" % re.escape(str(bad))):
            fit_mu(build_root_system(name))
        assert seen[-1] == bad and len(seen) == len(set(seen))
        out = tmp_path / "fit.json"
        code = main(["fit", "--type", name[0], "--rank", name[1:], "--out", str(out)])
        assert code == 3 and json.loads(capsys.readouterr().out)["error"]["type"] == "fit"
        assert not out.exists()


def test_a_wrong_count_at_lambda_0_stops_the_fit_at_its_first_count(capsys, tmp_path,
                                                                    monkeypatch):
    # stars and bars lists lambda = 0 first: a wrong count there is the only one made
    for name in ["A2", "B3", "D5"]:
        d = build_root_system(name)
        zero = (0,) * d.rank
        seen = _record_counts(monkeypatch, zero)
        with pytest.raises(FitVerificationError, match=r"at lambda=%s$" % re.escape(str(zero))):
            fit_mu(d)
        assert seen == [zero]
        out = tmp_path / "fit.json"
        assert main(["fit", "--type", name[0], "--rank", name[1:], "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "fit", "message": "fit failed verification at lambda=%r" % (zero,)}
        assert seen == [zero, zero] and not out.exists()


def test_a_fitted_formula_off_the_integers_on_T_n_exits_3(capsys, tmp_path, monkeypatch):
    # mu'_{1} of A4 (codimension 3) moved by 1/7 after the recursion passes every pin, and
    # r_{1}(1, 0, 0, 0) = 1: the formula leaves the integers there, a point of T_4, and the
    # fit fails naming it, as a wrong count would
    real = coefmod._berline_vergne

    def moved(data, f):
        return {J: v + Fraction(J == (1,), 7) for J, v in real(data, f).items()}

    monkeypatch.setattr(coefmod, "_berline_vergne", moved)
    d = build_root_system("A4")
    with pytest.raises(FitVerificationError, match=r"at lambda=\(1, 0, 0, 0\)$"):
        fit_mu(d)
    out = tmp_path / "fit.json"
    assert main(["fit", "--type", "A", "--rank", "4", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "fit", "message": "fit failed verification at lambda=(1, 0, 0, 0)"}
    assert not out.exists()


@pytest.mark.parametrize("name", FITS)
def test_each_shipped_file_of_rank_6_or_less_holds_on_the_sampled_validation_set(name):
    # the three families fit_mu sampled before T_n proved each fit: (2 on K, 1 off K) and
    # (3 on K, 0 off K) for every K, and 2 w_i^v for every i, degenerate coweights included
    d = build_root_system(name)
    masks = list(itertools.product((0, 1), repeat=d.rank))
    points = {tuple(1 + b for b in m) for m in masks} | {tuple(3 * b for b in m) for m in masks}
    points |= {tuple(2 * (j == i) for j in range(d.rank)) for i in range(d.rank)}
    coeffs = _shipped(name)
    for lam in sorted(points):
        assert evaluate_formula(d, coeffs, lam) == interval_size_lattice(d, lam), lam


@pytest.mark.parametrize("name", [name for name in FITS if int(name[1:]) <= 5])
def test_coefficients_solved_from_bruhat_counts_equal_the_shipped_file(name):
    # the 2^n counts at 0/1 coweights come from subword closure alone: the solve must land
    # on the shipped file exactly
    d = build_root_system(name)
    counts = {lam: interval_size_bruhat(d, lam, cap=10 ** 9)  # B5 (1^5) has 194 204 160
              for lam in itertools.product((0, 1), repeat=d.rank)}
    fitted, shipped = solve_from_counts(d, counts), _shipped(name)
    for J, value in shipped.mu_prime.items():
        assert fitted.mu_prime[J] == value, J
    assert fitted == shipped


@pytest.mark.parametrize("name", [name for name in FITS if 2 <= int(name[1:]) <= 4] + ["A5"])
def test_bruhat_equals_lattice_at_every_point_of_T_n(name):
    # the one input the fit's check trusts, the lattice count on T_n, by a second route
    d = build_root_system(name)
    for lam in sorted(_T(d.rank)):
        assert interval_size_bruhat(d, lam, cap=10 ** 9) == interval_size_lattice(d, lam), lam


# the subsets J with a negative mu'_J, and those with a zero one, by system; a system not
# named has none.  mu'_J = mu_J sqrt(gram_J) with gram_J > 0, so mu_J has the same sign
NEGATIVE_MU = {
    "C7": {"4", "6", "1,6", "2,6", "5,6"},
    "E7": {"4", "1,4", "1,6", "4,6", "2,3,5", "4,6,7", "2,3,5,6"},
    "B8": {"2,6", "4,6", "4,8", "6,8", "1,6,8", "2,6,8", "5,6,8"},
    "C8": {"5", "7", "1,5", "1,7", "2,5", "2,7", "3,5", "3,7", "4,5", "4,7", "4,8", "6,7",
           "6,8", "1,2,7", "1,3,7", "1,4,7", "1,6,7", "1,6,8", "2,3,7", "2,4,7", "2,6,7",
           "2,6,8", "3,4,7", "3,6,7", "5,6,7", "5,6,8", "1,2,3,7", "1,2,6,7"},
    "D8": {"2,6", "4,6"},
    "E8": {"1", "4", "6", "8", "1,4", "1,6", "1,8", "2,3", "2,5", "2,7", "3,5", "3,7", "4,5",
           "4,6", "4,8", "6,7", "6,8", "1,3,5", "1,3,7", "1,4,5", "1,4,6", "1,4,7", "1,4,8",
           "1,6,7", "1,6,8", "2,3,5", "2,3,7", "2,4,8", "2,5,6", "2,5,8", "2,7,8", "3,4,5",
           "3,4,6", "3,4,8", "3,5,6", "3,5,8", "3,7,8", "4,5,7", "4,6,7", "4,6,8", "1,2,3,5",
           "1,2,3,7", "1,2,4,5", "1,3,5,6", "1,3,5,8", "1,3,7,8", "1,4,5,7", "1,4,6,7",
           "1,4,6,8", "1,4,7,8", "1,6,7,8", "2,3,4,6", "2,3,4,8", "2,3,5,6", "2,3,5,7",
           "2,3,5,8", "2,3,7,8", "3,4,5,7", "3,4,6,7", "3,5,6,7", "3,5,6,8", "4,5,7,8",
           "4,6,7,8", "1,2,3,4,6", "1,2,3,5,6", "1,2,3,5,8", "2,3,4,6,7", "2,3,5,6,7",
           "2,3,5,6,8", "1,2,3,5,6,7"},
}
ZERO_MU = {"C7": {"3,6"}, "E7": {"1,2,3,5"}, "B8": {"3,6,8"}, "C8": {"3,6,8"},
           "E8": {"1,2,4,5,6", "1,4,6,7,8"}}


@pytest.mark.parametrize("name", SHIPPED)
def test_sign_pattern_of_each_shipped_fit(name):
    obj = json.loads(Path(DATA_DIR, "%s.json" % name).read_text())
    mu = {J: Fraction(v) for J, v in obj["mu_prime"].items()}
    assert {J for J, v in mu.items() if v < 0} == NEGATIVE_MU.get(name, set())
    assert {J for J, v in mu.items() if v == 0} == ZERO_MU.get(name, set())


# -- mu' by the Berline-Vergne recursion ---------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_berline_vergne_equals_each_shipped_file_at_both_directions(name):
    # a count-free derivation of every mu' of the 33 files (2498 values), against files
    # that `fit` or the solve from lattice counts re-derives (test_golden.py), but D8 and
    # E8, whose T_8 proof takes minutes at a raised box cap
    d = build_root_system(name)
    shipped = _shipped(name).mu_prime
    for f in [(1,) * d.rank, tuple(range(1, d.rank + 1))]:
        assert _berline_vergne(d, f) == shipped, f


@pytest.mark.parametrize("name", SHIPPED)
def test_each_shipped_file_loads_and_holds_the_codim_1_and_2_closed_forms(name):
    # mu(t_J) = 1/2 for the ray t_J of each J = 1..n minus i, and 1/4 + (g_kl/g_kk +
    # g_kl/g_ll) / 12 for the wedge of each J = 1..n minus {k, l}, g the Gram matrix of
    # the coroots k and l projected off those of J: as Fractions, by a matrix inverse,
    # against the constructor's integers and its adjugates
    d = build_root_system(name)
    top = tuple(range(1, d.rank + 1))
    mu = _shipped(name).mu_prime
    for i in top:
        J = top[:i - 1] + top[i:]
        assert mu[J] == Fraction(d.wf_order ** 2, 2 * weyl_order(d, J)), J
    # (alpha_a^v, alpha_b^v) = 2 C_ab / |alpha_b|^2, with C_ab = (alpha_b, alpha_a^v)
    G = [[Fraction(2 * c, d.simple_root_norms[b]) for b, c in enumerate(row)]
         for row in d.cartan]
    for k, l in itertools.combinations(top, 2):
        J = tuple(j for j in top if j not in (k, l))
        inv = matrix_inverse([[G[i - 1][j - 1] for j in J] for i in J]) if J else []

        def g(a, b):
            return G[a - 1][b - 1] - sum(G[a - 1][i - 1] * x * G[j - 1][b - 1]
                                         for i, row in zip(J, inv) for j, x in zip(J, row))

        wedge = Fraction(1, 4) + (g(k, l) / g(k, k) + g(k, l) / g(l, l)) / 12
        assert mu[J] == Fraction(d.wf_order ** 2, weyl_order(d, J)) * wedge, J


@pytest.mark.parametrize("name", SHIPPED)
def test_the_wedge_read_off_adj_c_is_the_schur_complement(name):
    # T_ab = det C_J C_ab - sum C_ai (adj C_J)_ij C_jb by double sums and Gauss-Jordan,
    # against the pin's reading of the {k, l} block of adj C, on every pair k < l
    d = build_root_system(name)
    for k, l in itertools.combinations(range(1, d.rank + 1), 2):
        assert _wedge(d, k, l) == wedge_by_schur_complement(d, k, l), (k, l)


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "E6", "B8"])
def test_the_constructor_reads_no_pyramid(name):
    # every pin reads the Cartan matrix, adj C and |W_J|: building the coefficients
    # neither hits nor misses the pyramid memo
    coeffs = _shipped(name)
    before = _pyramid.cache_info()
    GeometricCoefficients(coeffs.system, coeffs.mu_prime)
    after = _pyramid.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _bent_pyramid(J):
    """coefficients._pyramid with det C_J doubled, and adj C_J kept: the projections
    c_k^J of the series of J are then of no inner product."""
    real = coefmod._pyramid

    def bent(data, A):
        order, det, adj, steps, scale = real(data, A)
        return order, det * (1 + (A == J)), adj, steps, scale
    return bent


def test_the_pole_check_fires_on_a_series_broken_by_a_wrong_projection(monkeypatch, capsys,
                                                                      tmp_path):
    # on A3 a wrong det C_{2} leaves a pole in the series of the empty set
    monkeypatch.setattr(coefmod, "_pyramid", _bent_pyramid((2,)))
    with pytest.raises(FitVerificationError, match=r"a pole at J=\(\)"):
        fit_mu(build_root_system("A3"))
    out = tmp_path / "fit.json"
    assert main(["fit", "--type", "A", "--rank", "3", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "fit"
    assert not out.exists()


def test_the_direction_check_fires_on_a_series_broken_at_one_direction(monkeypatch, capsys,
                                                                       tmp_path):
    # on A2 a wrong det C_{1} leaves no pole, and moves mu'_empty from 6 to 27/4 at the
    # direction (1, 2) alone; the pins would catch that too, but the direction check
    # comes first
    d = build_root_system("A2")
    real = coefmod._berline_vergne

    def broken_at_the_second(data, f):
        if f == (1, 1):
            return real(data, f)
        with monkeypatch.context() as m:
            m.setattr(coefmod, "_pyramid", _bent_pyramid((1,)))
            return real(data, f)

    assert broken_at_the_second(d, (1, 2))[()] == Fraction(27, 4)  # past the pole check
    monkeypatch.setattr(coefmod, "_berline_vergne", broken_at_the_second)
    with pytest.raises(FitVerificationError, match="depends on the direction"):
        fit_mu(d)
    out = tmp_path / "fit.json"
    assert main(["fit", "--type", "A", "--rank", "2", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "fit"
    assert not out.exists()


# -- the formula in integers against the formula in Fractions -------------------------

@pytest.mark.parametrize("name", [name for name in SHIPPED if int(name[1:]) <= 5])
def test_the_integer_sum_equals_the_fraction_sum_at_every_point_of_T_n(name):
    d = build_root_system(name)
    coeffs = _shipped(name)
    for lam in sorted(_T(d.rank)):
        assert evaluate_formula(d, coeffs, lam) == evaluate_formula_by_fractions(d, coeffs, lam)


def test_the_integer_sum_equals_the_fraction_sum_on_every_reference():
    refs = json.loads((Path(__file__).resolve().parents[1] / "benchmarks"
                       / "references.json").read_text())
    entries = [ref for workload in refs.values() for ref in workload]
    assert len(entries) == 22
    for ref in entries:
        d, lam = build_root_system(ref["system"]), tuple(ref["lambda"])
        coeffs = _shipped(ref["system"])
        assert (evaluate_formula(d, coeffs, lam) == evaluate_formula_by_fractions(d, coeffs, lam)
                == ref["count"]), ref


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7), -1000])
def test_a_total_off_the_non_negative_integers_is_refused_by_both_sums(delta):
    # A4 at (1, 0, 0, 0) sums to 600 + delta * r_{1}(1, 0, 0, 0), r_{1}(1, 0, 0, 0) = 1:
    # not an integer, or below zero at -1000 (mu'_{1} is pinned up to A3, not on A4)
    d = build_root_system("A4")
    coeffs = _shipped("A4")
    broken = GeometricCoefficients(
        d.id, {J: v + delta if J == (1,) else v for J, v in coeffs.mu_prime.items()})
    for evaluate in (evaluate_formula, evaluate_formula_by_fractions):
        with pytest.raises(FormulaConsistencyError, match=r"inconsistent at \(1, 0, 0, 0\)"):
            evaluate(d, broken, (1, 0, 0, 0))


def test_the_integer_text_is_the_text_of_the_fraction():
    for p in range(-30, 31):
        for q in range(1, 31):
            assert _ratio_text(p, q) == str(Fraction(p, q)), (p, q)
    assert _ratio_text(-(10 ** 40), 6 * 10 ** 39) == str(Fraction(-(10 ** 40), 6 * 10 ** 39))


@pytest.mark.parametrize("name", SHIPPED)
def test_each_shipped_mu_prime_and_gram_prints_as_its_fraction(name):
    d = build_root_system(name)
    coeffs = _shipped(name)
    assert len(coeffs._pairs) == 2 ** d.rank
    for J, (p, q) in coeffs._pairs.items():
        assert _ratio_text(p, q) == str(Fraction(p, q)) == str(coeffs.mu_prime[J]), J
        assert _ratio_text(*_gram(d, J)) == str(Fraction(*_gram(d, J))) == str(face_gram(d, J))
