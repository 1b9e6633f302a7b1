"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything asserted here is an exact integer or exact rational identity;
there are no tolerances anywhere.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from alcoves.affine import (descents, interval_size_bruhat, lower_interval,
                            sigma_reflection, theta)
from alcoves.coefficients import fit_mu, hypersimplex_dilation_count, hypersimplex_ehrhart
from alcoves.errors import BudgetExceededError
from alcoves.mpoly import MPoly
from alcoves.orbits import interval_size_lattice, lattice_count
from alcoves.rootdata import build_root_system
from alcoves.volumes import volume_polynomial

from oracles import (RadScalar, diagram_components, element, element_from_point,
                     enumerate_weyl_group, gram_det, is_homogeneous, is_rational, mu_full,
                     reciprocal, square, squarefree_coefficient, stirling1, type_a_connected_mu,
                     variables_used)

OK = "ACCEPTANCE %s PASS: %s"


def _dominant_box(rank, max_coord):
    return itertools.product(range(max_coord + 1), repeat=rank)


def _bruhat_size(data, lam):
    w, word = theta(data, lam)
    return len(lower_interval(data, w, word))


def test_criterion_1_lattice_formula_oracle_equivalence():
    sweeps = [("A", 1, 2), ("A", 2, 3), ("B", 2, 3), ("G", 2, 3),
              ("A", 3, 2), ("B", 3, 2), ("C", 3, 2)]
    checked = 0
    for fam, rank, max_coord in sweeps:
        data = build_root_system(fam, rank)
        for lam in _dominant_box(rank, max_coord):
            size = _bruhat_size(data, lam)
            assert size == data.wf_order * lattice_count(data, lam), (fam, rank, lam)
            assert interval_size_bruhat(data, lam) == size, (fam, rank, lam)
            checked += 1
    cosets = 0
    for name in ["A4", "B4", "C4", "D4", "F4"]:
        data = build_root_system(name)
        for lam in _dominant_box(4, 1):
            assert (interval_size_bruhat(data, lam, cap=10 ** 8)
                    == interval_size_lattice(data, lam)), (name, lam)
            cosets += 1
    print(OK % (1, "Bruhat oracle == coset closure == |W_f| * lattice count on %d "
                "coweights across A1,A2,A3,B2,B3,C3,G2; coset closure == lattice "
                "count on %d more across A4,B4,C4,D4,F4" % (checked, cosets)))


def test_criterion_2_worked_a2_numbers():
    data = build_root_system("A2")
    fixtures = {(1, 1): 42, (1, 0): 18, (2, 2): 114, (0, 0): 6}
    for lam, expected in fixtures.items():
        assert _bruhat_size(data, lam) == expected
        assert data.wf_order * lattice_count(data, lam) == expected
    print(OK % (2, "A2 regression fixtures 42 / 18 / 114 / 6 reproduced by both routes"))


def test_criterion_3_longest_coefficient_closed_forms():
    # all values derived from group-order data and the plate realizations,
    # checked exactly as rational squares
    for n in (1, 2, 3, 4):
        sq = square(mu_full(build_root_system("A", n)))
        assert sq == Fraction(math.factorial(n + 1) ** 2, n + 1)
    expected_squares = {"B2": 16, "C3": 2304, "D4": 9216, "G2": 432, "F4": 331776}
    for name, sq in expected_squares.items():
        assert square(mu_full(build_root_system(name))) == sq, name
    # E-series: n! eta_1..eta_n / det(coweight lattice), squared
    assert square(mu_full(build_root_system("E6"))) == (math.factorial(6) * 24) ** 2 * 3
    assert square(mu_full(build_root_system("E7"))) == (math.factorial(7) * 288) ** 2 * 2
    assert square(mu_full(build_root_system("E8"))) == (math.factorial(8) * 17280) ** 2
    # internal consistency that pins the derivation: det(coroot lattice) /
    # det(coweight lattice) must give back the index of connection
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D3", "D4",
                 "E6", "E7", "E8", "F4", "G2"]:
        data = build_root_system(name)
        det_coroot = RadScalar.sqrt(gram_det(data.simple_coroots))
        ratio = det_coroot * reciprocal(RadScalar(*data.det_coweight_lattice))
        assert ratio == RadScalar(data.index_of_connection), name
    print(OK % (3, "1/vol(A_id) squares match the closed forms for A1-A4, B2, C3, "
                "D4, E6, E7, E8, F4, G2, all derived from plate data"))


def test_criterion_4_type_a_pipeline_consistency():
    for n in (1, 2, 3, 4):
        pipeline = type_a_connected_mu(n)
        data = build_root_system("A", n)
        # (a) closed form for leading windows
        for l in range(1, n + 1):
            assert pipeline[tuple(range(1, l + 1))] == \
                math.factorial(l) * (n + 1) * stirling1(n + 1, l + 1)
        # (b) independent fit agrees on every connected window
        fitted = fit_mu(data)
        for J, value in pipeline.items():
            assert fitted.mu_prime[J] == value, (n, J)
        # (c) full window equals the alcove-volume closed form
        top = mu_full(data) * RadScalar.sqrt(volume_polynomial(
            data, tuple(range(1, n + 1))).gram)
        assert is_rational(top)
        assert pipeline[tuple(range(1, n + 1))] == top.coeff
    print(OK % (4, "type-A coefficient pipeline == closed forms == fit for n <= 4"))


def test_criterion_5_hypersimplex_identities():
    for n in (1, 2, 3):
        data = build_root_system("A", n)
        for k in range(1, n + 1):
            poly = hypersimplex_ehrhart(k, n + 1)
            for m in range(5):
                lam = tuple(m if i + 1 == k else 0 for i in range(n))
                assert interval_size_lattice(data, lam) == \
                    math.factorial(n + 1) * poly.eval((m,)), (n, k, m)
    for d in range(2, 7):
        for k in range(1, d):
            poly = hypersimplex_ehrhart(k, d)
            for m in range(5):
                assert poly.eval((m,)) == hypersimplex_dilation_count(k, d, m)
    print(OK % (5, "(n+1)! E_{k,n+1}(m) == interval sizes (n<=3, m<=4) and "
                "Ehrhart coefficients == dilation counts (d<=6)"))


def test_criterion_6_formula_beyond_generic():
    from alcoves.coefficients import evaluate_formula
    systems = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
    checked = 0
    for name in systems:
        data = build_root_system(name)
        coeffs = fit_mu(data)
        for lam in _dominant_box(data.rank, 3):
            if 0 not in lam:
                continue
            assert evaluate_formula(data, coeffs, lam) == \
                interval_size_lattice(data, lam), (name, lam)
            checked += 1
    print(OK % (6, "fitted coefficients exact on %d degenerate coweights "
                "(>=1 zero coordinate, coords <= 3, rank <= 3)" % checked))


def test_criterion_7_property_suites():
    # volume structure on every subset of every rank <= 4 system
    rank4 = ["A4", "B4", "D4", "F4", "A3", "B3", "C3", "A2", "B2", "G2", "A1"]
    for name in rank4:
        data = build_root_system(name)
        n = data.rank
        for size in range(n + 1):
            for J in itertools.combinations(range(1, n + 1), size):
                vp = volume_polynomial(data, J)
                assert is_homogeneous(vp.rel_poly, len(J))
                assert variables_used(vp.rel_poly) <= {j - 1 for j in J}
                if J:
                    assert squarefree_coefficient(data, J).coeff > 0
                # component factorization
                comps = diagram_components(data, J)
                if len(comps) > 1:
                    prod = MPoly.constant(n, 1)
                    for K in comps:
                        prod = prod * volume_polynomial(data, K).rel_poly
                    assert vp.rel_poly == prod

    # descent structure of theta (finite descents left, S minus s_sigma right)
    for name, max_coord in [("A2", 2), ("B2", 2), ("G2", 2), ("A3", 1), ("B3", 1)]:
        data = build_root_system(name)
        for lam in _dominant_box(data.rank, max_coord):
            w, _word = theta(data, lam)
            left, right = descents(data, w)
            assert set(range(1, data.rank + 1)) <= left
            assert (set(range(data.rank + 1)) - {sigma_reflection(data, lam)}) <= right

    # lower intervals: reduced-word independence and |W_f| divisibility
    for name, lams in [("A2", [(1, 1), (2, 1)]), ("B2", [(1, 1)]), ("G2", [(2, 1)])]:
        data = build_root_system(name)
        for lam in lams:
            w, word = theta(data, lam)
            interval = lower_interval(data, w, word)
            assert len(interval) % data.wf_order == 0
            alt_point = element(data, word).apply(_off_center_interior_point(data))
            w2, word2 = element_from_point(data, alt_point)
            assert w2 == w
            assert lower_interval(data, w, word2) == interval
    print(OK % (7, "volume structure (rank <= 4), positive squarefree coefficients, "
                "descent laws, word independence, |W_f| divisibility"))


def test_criterion_8_documented_refusals():
    for name in ("E7", "E8"):
        with pytest.raises(BudgetExceededError):
            enumerate_weyl_group(build_root_system(name))
    with pytest.raises(BudgetExceededError):
        fit_mu(build_root_system("A", 24))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "E7" in readme and "E8" in readme
    assert "A24" in readme or "rank 24" in readme
    print(OK % (8, "E7/E8 W_f enumeration (the element oracle) and rank-24 fits refuse "
                "loudly; E7, E8 and rank 24 are documented in the README"))


def _off_center_interior_point(data):
    n = data.rank
    weights = list(range(2, n + 3))
    total = sum(weights) + 1
    return [Fraction(-weights[i], data.marks[i] * total) for i in range(n)]
