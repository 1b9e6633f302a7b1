import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from alcoves import (contains, enumerate_X, evaluate_formula, face, fit_mu,
                     interval_size_bruhat, interval_size_lattice, lattice_count,
                     lattice_count_by_membership, relative_volumes, sigma_reflection, theta,
                     volume_polynomial)
from alcoves.errors import AlcovesError, BudgetExceededError
from alcoves.linalg import QVector
from alcoves.orbits import face_to_json
from alcoves.radicals import RadScalar
from alcoves.rootdata import (MAX_RANK, RootSystemData, RootSystemId, build_root_system,
                              dominant_representative, weyl_order)
from alcoves.volumes import _pyramid_table, face_gram

from oracles import (AffineElement, ambient_core, generate_positive_roots, gram_det, length,
                     longest_finite_element, matrix_inverse, simple_reflection)

ALL_SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D3", "D4", "G2", "F4", "E6"]
UP_TO_RANK_8 = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
                + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(3, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


def test_id_validation():
    RootSystemId("A", 1)
    RootSystemId("E", 7)
    for fam, rank in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            RootSystemId(fam, rank)


def test_id_is_an_immutable_value():
    a3 = RootSystemId("A", 3)
    assert a3 == RootSystemId("a", 3) and a3.family == "A" and a3.rank == 3
    assert a3 != RootSystemId("A", 2) and a3 != "A3" and a3 != ("A", 3)
    assert str(a3) == "A3" and "%s" % a3 == "A3" and "traced-%s.json" % a3 == "traced-A3.json"
    assert repr(a3) == "RootSystemId(family='A', rank=3)"
    assert len({a3, RootSystemId("A", 3), RootSystemId("B", 3)}) == 2
    calls = []

    @lru_cache(maxsize=None)
    def build(system):
        calls.append(system)
        return str(system)

    assert build(a3) == build(RootSystemId("a", 3)) == "A3" and calls == [a3]
    for attempt in [lambda: setattr(a3, "rank", 4), lambda: setattr(a3, "other", 1),
                    lambda: delattr(a3, "family")]:
        with pytest.raises(AttributeError):
            attempt()
    assert (a3.family, a3.rank) == ("A", 3)
    assert copy.copy(a3) == pickle.loads(pickle.dumps(a3)) == a3
    with pytest.raises(ValueError, match="invalid root system Z2"):
        RootSystemId("z", 2)


def test_a2_constants():
    d = build_root_system("A2")
    assert d.wf_order == 6
    assert d.marks == (1, 1)
    assert d.index_of_connection == 3


def test_g2_constants():
    d = build_root_system("G2")
    assert math.prod(d.marks) == 6
    assert d.det_coweight_lattice == RadScalar(1, Fraction(1, 3))   # 1/sqrt(3)
    assert d.alcove_volume == RadScalar(Fraction(1, 12), Fraction(1, 3))  # 1/(12 sqrt 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_an_alcove_volume(n):
    d = build_root_system("A", n)
    expected = RadScalar.sqrt(n + 1) / math.factorial(n + 1)
    assert d.alcove_volume == expected


def test_weyl_order_examples():
    a3 = build_root_system("A3")
    assert weyl_order(a3, [1, 3]) == 4
    a4 = build_root_system("A4")
    assert weyl_order(a4, [1, 2, 4]) == 12
    assert weyl_order(a4, []) == 1
    assert weyl_order(a4, [1, 2, 3, 4]) == a4.wf_order


def test_weyl_order_against_closure():
    # independent oracle: generate W_J explicitly and count, for every J
    for name in ["A4", "B3", "C3", "D4", "G2", "F4"]:
        d = build_root_system(name)
        for size in range(d.rank + 1):
            for J in itertools.combinations(range(1, d.rank + 1), size):
                gens = [simple_reflection(d, j) for j in J]
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
                assert len(seen) == weyl_order(d, J), (name, J)


def test_weyl_order_mixed_subdiagrams():
    f4 = build_root_system("F4")
    assert weyl_order(f4, [2, 3]) == 8       # B2
    assert weyl_order(f4, [1, 2, 3, 4]) == 1152
    d4 = build_root_system("D4")
    assert weyl_order(d4, [1, 3, 4]) == 8    # three A1 components
    assert weyl_order(d4, [1, 2, 3, 4]) == 192
    e6 = build_root_system("E6")
    assert weyl_order(e6, [1, 2, 3, 4, 5, 6]) == 51840
    assert weyl_order(e6, [2, 3, 4, 5]) == 192  # D4 inside E6
    e7 = build_root_system("E7")
    assert weyl_order(e7, range(1, 8)) == 2903040
    assert weyl_order(e7, range(1, 7)) == 51840        # E6
    assert weyl_order(e7, range(2, 8)) == 23040        # D6
    e8 = build_root_system("E8")
    assert weyl_order(e8, range(1, 9)) == 696729600
    assert weyl_order(e8, range(1, 8)) == 2903040      # E7
    assert weyl_order(e8, range(2, 9)) == 322560       # D7
    assert weyl_order(e8, [1, 3, 4, 5, 6, 7, 8]) == 40320  # A7


@pytest.mark.parametrize("name", ALL_SMALL)
def test_positive_root_count_equals_longest_length(name):
    d = build_root_system(name)
    w0, _ = longest_finite_element(d)
    assert len(generate_positive_roots(d)) == length(d, w0)


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_positive_coroot_coords(name):
    # ((alpha^v, alpha_i))_i computed in the ambient space, alpha^v = 2 alpha / (alpha, alpha)
    d = build_root_system(name)
    positive_roots = [r for _, r in generate_positive_roots(d)]
    ambient = [tuple(2 * r.dot(a) / r.dot(r) for a in d.simple_roots) for r in positive_roots]
    assert d.positive_coroot_coords == ambient
    assert set(d.cartan) <= set(d.positive_coroot_coords)


@pytest.mark.parametrize("name", UP_TO_RANK_8 + ["A10", "B10"])
def test_root_strings_equal_the_reflection_closure(name):
    # the integer root strings give the ambient closure's roots, in its order,
    # and the highest of them is the ambient highest root
    d = build_root_system(name)
    oracle = generate_positive_roots(d)
    assert d.positive_root_coords == [c for c, _ in oracle]
    assert d.highest_root == oracle[-1][1]
    assert d.to_json()["positive_root_count"] == len(oracle)


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_det_coweight_lattice_equals_ambient_gram(name):
    d = build_root_system(name)
    assert d.det_coweight_lattice == RadScalar.sqrt(gram_det(d.fundamental_coweights))


@pytest.mark.parametrize("name", UP_TO_RANK_8 + ["A24", "B24", "D24"])
def test_integer_core_equals_the_ambient_derivation(name):
    # the integer core from the doubled simple roots, against Fraction dot products of
    # the ambient vectors and the reflection closure of the roots
    d = build_root_system(name)
    ambient = ambient_core(d)
    assert d.cartan == ambient["cartan"]
    assert d.simple_root_norms == ambient["norms"]
    assert d.positive_coroot_coords == ambient["positive_coroot_coords"]
    assert d.marks == ambient["marks"]
    assert d.index_of_connection == ambient["det"]
    assert d.wf_order == ambient["wf_order"]
    assert all(type(x) is int for x in d.simple_root_norms + d.marks)


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_bordered_inverses_equal_the_oracle(name):
    # C_J^-1 of the pyramid table for every J, and the ambient C^-1, against Gauss-Jordan
    d = build_root_system(name)
    table = _pyramid_table(d, tuple(range(1, d.rank + 1)))
    assert len(table) == 2 ** d.rank
    for J, (_, _, inv, _, _) in table.items():
        assert inv == matrix_inverse([[d.cartan[i - 1][k - 1] for k in J] for i in J]), J
    assert d._cartan_inv == matrix_inverse(d.cartan)


def test_the_ambient_view_is_built_once_on_first_read(monkeypatch):
    d = RootSystemData(RootSystemId("G", 2))  # fresh, so the cached one is left alone
    real = RootSystemData._build_ambient
    calls = []

    def record(data):
        calls.append(data)
        real(data)

    monkeypatch.setattr(RootSystemData, "_build_ambient", record)
    assert d.wf_order == 12 and calls == []
    assert d.to_json()["ambient_dim"] == 3 and d.simple_roots and d._cartan_inv
    assert calls == [d]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        d.no_such_name
    assert calls == [d]


def test_reflection_check_refuses_a_root_set_that_is_not_closed():
    for drop in (1, -1):  # a simple root, and the highest root
        d = RootSystemData(RootSystemId("B", 3))  # fresh, so the cached one is left alone
        d._check_invariants()
        del d.positive_root_coords[drop]
        with pytest.raises(AlcovesError, match="does not permute positive roots"):
            d._check_invariants()


def test_rank_cap_refuses_before_any_build():
    build_root_system("A", MAX_RANK)
    for args in [("A", MAX_RANK + 1), ("A", 100000), ("B%d" % (MAX_RANK + 1),),
                 (RootSystemId("D", 10 ** 9),)]:
        with pytest.raises(BudgetExceededError, match="exceeding cap %d" % MAX_RANK):
            build_root_system(*args)


@pytest.mark.parametrize("name", ALL_SMALL + ["E7", "E8"])
def test_cartan_shape(name):
    d = build_root_system(name)
    for i in range(d.rank):
        for j in range(d.rank):
            c = d.cartan[i][j]
            assert type(c) is int
            assert (c == 2) if i == j else (c <= 0)


def test_dominant_representative_examples():
    a2 = build_root_system("A2")
    rho = a2.fundamental_coweights[0] + a2.fundamental_coweights[1]
    v, word = dominant_representative(a2, rho)
    assert v == rho and word == []
    # s1(rho) comes back to rho with one reflection
    s1rho = rho - rho.dot(a2.simple_roots[0]) * a2.simple_coroots[0]
    v, word = dominant_representative(a2, s1rho)
    assert v == rho and word == [1]
    a1 = build_root_system("A1")
    w1 = a1.fundamental_coweights[0]
    v, word = dominant_representative(a1, -1 * w1)
    assert v == w1 and word == [1]


def test_dominant_representative_idempotent_and_invariant():
    a2 = build_root_system("A2")
    v0 = 2 * a2.fundamental_coweights[0] + 1 * a2.fundamental_coweights[1]
    plus, _ = dominant_representative(a2, v0)
    assert plus == v0
    # every W_f image maps to the same representative
    images = [v0]
    for _ in range(4):
        nxt = []
        for v in images:
            for a, av in zip(a2.simple_roots, a2.simple_coroots):
                nxt.append(v - v.dot(a) * av)
        images.extend(nxt)
    for v in images:
        got, _ = dominant_representative(a2, v)
        assert got == v0


def test_stabilizer_matches_vanishing_set():
    a3 = build_root_system("A3")
    lam = 2 * a3.fundamental_coweights[0] + 0 * a3.fundamental_coweights[1] \
        + 1 * a3.fundamental_coweights[2]
    for i in range(3):
        s_lam = lam - lam.dot(a3.simple_roots[i]) * a3.simple_coroots[i]
        fixed = s_lam == lam
        assert fixed == (lam.dot(a3.simple_roots[i]) == 0)


def test_vector_outside_span_rejected():
    a2 = build_root_system("A2")
    with pytest.raises(ValueError):
        dominant_representative(a2, QVector([1, 0, 0]))  # nonzero coordinate sum


def test_rootdata_json():
    d = build_root_system("B2")
    obj = d.to_json()
    assert obj["weyl_order"] == 8
    assert obj["marks"] == [1, 2]
    assert obj["index_of_connection"] == 2
    assert len(obj["simple_roots"]) == 2


@lru_cache(maxsize=None)
def _a2_coefficients():
    return fit_mu(build_root_system("A2"))


# every public entry point that reads a dominant coweight lambda, or a subset J of 1..n
LAMBDA_ROUTES = {
    "theta": theta,
    "interval_size_bruhat": interval_size_bruhat,
    "enumerate_X": enumerate_X,
    "lattice_count": lattice_count,
    "interval_size_lattice": interval_size_lattice,
    "contains": lambda d, lam: contains(d, lam, QVector([0, 0, 0])),
    "lattice_count_by_membership": lattice_count_by_membership,
    "evaluate_formula": lambda d, lam: evaluate_formula(d, _a2_coefficients(), lam),
    "sigma_reflection": sigma_reflection,
    "face": lambda d, lam: face(d, lam, (1,)),
    "face_to_json": lambda d, lam: face_to_json(d, lam, (1,)),
}
J_ROUTES = {
    "weyl_order": weyl_order,
    "face": lambda d, J: face(d, (1, 1), J),
    "face_to_json": lambda d, J: face_to_json(d, (1, 1), J),
    "face_gram": face_gram,
    "volume_polynomial": volume_polynomial,
    "relative_volumes": lambda d, J: relative_volumes(d, (1, 1), J),
}
# a lattice route can run without end on a coweight of the wrong length (the coroot walk
# once did), so a regression there would hang the suite: those cases run in a subprocess
# below, under a timeout
WALKS = ("enumerate_X", "lattice_count", "interval_size_lattice")


@pytest.mark.parametrize("route,lam,error", [
    (route, lam, error) for route in LAMBDA_ROUTES
    for lam, error in [((1,), ValueError), ((1, 1, 5), ValueError), ((-1, 0), ValueError),
                       ((1.9, 1), TypeError)]
    if not (route in WALKS and len(lam) < 2)])
def test_every_lambda_route_refuses_an_invalid_coweight(route, lam, error):
    # 1.9 used to be truncated to 1, and (1, 1, 5) to its first two coordinates
    with pytest.raises(error):
        LAMBDA_ROUTES[route](build_root_system("A2"), lam)


@pytest.mark.parametrize("route,J,error", [
    (route, J, error) for route in J_ROUTES
    for J, error in [((0,), ValueError), ((3,), ValueError), ((2.5,), TypeError)]])
def test_every_J_route_refuses_an_invalid_subset(route, J, error):
    with pytest.raises(error):
        J_ROUTES[route](build_root_system("A2"), J)


def test_the_walks_refuse_a_coweight_of_the_wrong_length_at_once():
    code = ("from alcoves import build_root_system, enumerate_X, interval_size_lattice, "
            "lattice_count\n"
            "d = build_root_system('A2')\n"
            "for route in (enumerate_X, lattice_count, interval_size_lattice):\n"
            "    try:\n"
            "        route(d, (1,))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["lambda needs exactly 2 coordinates"] * len(WALKS)


@pytest.mark.parametrize("name", ["A2", "G2", "E6"])
def test_ambient_from_coweight_equals_the_sum_of_coweights(name):
    d = build_root_system(name)
    for coords in [(1,) * d.rank, tuple(range(d.rank)), tuple(Fraction(i, 3) for i in range(d.rank))]:
        expected = QVector.zero(d.ambient_dim)
        for c, w in zip(coords, d.fundamental_coweights):
            expected = expected + c * w
        assert d.ambient_from_coweight(coords) == expected
    with pytest.raises(ValueError):
        d.ambient_from_coweight((1,) * (d.rank + 1))
