import gc
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from alcoves import orbits, rootdata
from alcoves.affine import interval_size_bruhat
from alcoves.coefficients import fit_mu
from alcoves.errors import BudgetExceededError
from alcoves.orbits import (MAX_FACE_VERTICES, _box_bounds, contains,
                            enumerate_X, face, face_to_json, face_vertex_count,
                            interval_size_lattice, lattice_count, lattice_count_by_membership)
from alcoves.rootdata import RootSystemData, RootSystemId, build_root_system, weyl_order
from oracles import (QVector, enumerate_X_by_box, enumerate_X_by_walk, enumerate_weyl_group,
                     matrix_rank)
from test_affine import E7_E8_PAIRS, E7_E8_SINGLES

# The box scan costs about 1.5 us a cell, and F4 (3,3,3,3) alone has 3.8e7
# cells, so the oracle runs where the box has at most this many.
ORACLE_CELLS = 10 ** 4
REFERENCES = json.loads((Path(__file__).resolve().parents[1] / "benchmarks"
                         / "references.json").read_text(encoding="utf-8"))


def test_face_descriptor_fields():
    # the fields face_to_json reads
    a2 = build_root_system("A2")
    f = face(a2, (1, 1), (1,))
    assert (f.J, f.dim, f.orbit_face_count) == ((1,), 1, 3)
    assert len(f.vertex_set) == 2 and all(type(v) is tuple and len(v) == 3 for v in f.vertex_set)
    assert all(type(x) is Fraction for v in f.vertex_set for x in v)
    with pytest.raises(AttributeError):
        f.dim = 2


def test_enumerate_X_examples():
    a2 = build_root_system("A2")
    assert enumerate_X(a2, (0, 0)) == [(0, 0)]
    assert enumerate_X(a2, (1, 1)) == [(0, 0), (1, 1)]
    assert enumerate_X(a2, (1, 0)) == [(1, 0)]


def test_lattice_count_examples():
    a2 = build_root_system("A2")
    assert lattice_count(a2, (1, 1)) == 7
    assert lattice_count(a2, (1, 0)) == 3
    assert lattice_count(a2, (2, 2)) == 19


def test_interval_size_examples():
    a2 = build_root_system("A2")
    assert interval_size_lattice(a2, (0, 0)) == 6
    assert interval_size_lattice(a2, (1, 1)) == 42
    assert interval_size_lattice(a2, (1, 0)) == 18


def test_orbit_sum_structure():
    # for lam in the coroot lattice, 0 is a coset point: count = 1 + sum of
    # the nonzero orbit sizes, each dividing |W_f|
    a2 = build_root_system("A2")
    for lam in [(1, 1), (2, 2), (3, 0)]:
        X = enumerate_X(a2, lam)
        sizes = {}
        for mu in X:
            zeros = [j + 1 for j, c in enumerate(mu) if c == 0]
            sizes[mu] = a2.wf_order // weyl_order(a2, zeros)
            assert a2.wf_order % weyl_order(a2, zeros) == 0
        assert (0, 0) in sizes and sizes[(0, 0)] == 1
        assert lattice_count(a2, lam) == 1 + sum(
            v for k, v in sizes.items() if k != (0, 0))


@pytest.mark.parametrize("name,lams", [
    ("A2", [(1, 1), (2, 2), (2, 1), (1, 0)]),
    ("B2", [(1, 1), (2, 1)]),
    ("G2", [(1, 1), (1, 0)]),
    ("A3", [(1, 1, 1), (2, 1, 0)]),
    ("F4", [(1, 0, 0, 0)]),                  # membership box of 525 cells
    ("E6", [(1, 0, 0, 0, 0, 0)]),            # 2160 cells
])
def test_membership_count_agrees(name, lams):
    d = build_root_system(name)
    for lam in lams:
        assert lattice_count(d, lam) == lattice_count_by_membership(d, lam)


def test_contains():
    a2 = build_root_system("A2")
    lam = (1, 0)
    vertex = a2.ambient_from_coweight(lam)
    assert contains(a2, lam, vertex)
    for w in enumerate_weyl_group(a2):
        mat_coords = w.apply(lam)
        assert contains(a2, lam, a2.ambient_from_coweight(mat_coords))
    # the origin lies inside the triangle even though it is in another coset
    assert contains(a2, lam, QVector([0, 0, 0]))
    # far outside
    assert not contains(a2, lam, a2.ambient_from_coweight((5, 0)))


def test_dominance_monotonicity():
    # mu <= lam implies X_mu contained in X_lam: check against every member of X_lam
    a3 = build_root_system("A3")
    lam = (2, 1, 2)
    all_coords = set(enumerate_X(a3, lam))
    for mu in enumerate_X(a3, lam):
        assert set(enumerate_X(a3, mu)) <= all_coords


def test_face_examples():
    a2 = build_root_system("A2")
    f0 = face(a2, (1, 1), ())
    assert f0.dim == 0 and len(f0.vertex_set) == 1

    rho = QVector(a2.ambient_from_coweight((1, 1)))
    edge = face(a2, (1, 1), (1,))
    assert edge.dim == 1
    expected = {rho, rho - a2.simple_coroots[0]}
    assert set(edge.vertex_set) == expected

    hexagon = face(a2, (1, 1), (1, 2))
    assert hexagon.dim == 2
    assert len(hexagon.vertex_set) == 6
    assert hexagon.orbit_face_count == 1


@pytest.mark.parametrize("name,expected", [
    # generic orbit polytopes: (vertices, edges, 2-faces, ...)
    ("A2", [6, 6, 1]),
    ("B2", [8, 8, 1]),
    ("A3", [24, 36, 14, 1]),
])
def test_face_count_sums(name, expected):
    d = build_root_system(name)
    n = d.rank
    for dim, count in enumerate(expected):
        total = sum(d.wf_order // weyl_order(d, J)
                    for J in itertools.combinations(range(1, n + 1), dim))
        assert total == count


def test_degenerate_lambda_zero():
    a2 = build_root_system("A2")
    assert lattice_count(a2, (0, 0)) == 1
    f = face(a2, (0, 0), (1, 2))
    assert f.dim == 0 and len(f.vertex_set) == 1


def test_box_budget():
    a2 = build_root_system("A2")
    with pytest.raises(BudgetExceededError):
        enumerate_X(a2, (5, 5), box_cap=10)


def _level_cells(d, lam) -> int:
    h = sum(e * c for e, c in zip(d.marks, lam))
    return math.prod(h // e + 1 for e in d.marks)


def _check_walk(d, lam) -> None:
    """|X| <= U <= box, with U = prod_j (floor(h / eta_j) + 1) exactly the search's
    budget, and X equal to the box-scan oracle's list wherever the box is small."""
    U = _level_cells(d, lam)
    box = math.prod(b + 1 for b in _box_bounds(d, lam, math.inf))
    with pytest.raises(BudgetExceededError):
        enumerate_X(d, lam, box_cap=U - 1)
    X = enumerate_X(d, lam, box_cap=U)
    assert len(X) <= U <= box, (d, lam)
    if box <= ORACLE_CELLS:
        assert X == enumerate_X_by_box(d, lam), (d, lam)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                                  "C4", "D3", "D4", "F4", "G2"])
def test_walk_matches_box_scan_on_small_ranks(name):
    d = build_root_system(name)
    for lam in itertools.product(range(4), repeat=d.rank):
        _check_walk(d, lam)


@pytest.mark.parametrize("name", ["A5", "B5", "D5", "E6"])
def test_walk_matches_box_scan_on_sampled_coweights(name):
    d = build_root_system(name)
    rng = random.Random(name)
    lams = set(itertools.product(range(2), repeat=d.rank))
    lams |= {tuple(rng.randrange(4) for _ in range(d.rank)) for _ in range(12)}
    for lam in sorted(lams):
        _check_walk(d, lam)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2",
                                  "C3", "C4", "C5", "D3", "D4", "D5", "F4", "G2"])
def test_shared_walk_matches_box_scan_in_either_order(name):
    # no count leans on an earlier one: each coweight is searched after the others of its
    # system, from above or from below, and then again; lambda in {0,1,2}^n up to rank 3
    # and {0,1}^n above, where the box has at most 3 * ORACLE_CELLS cells (at least 7
    # coweights a system)
    d = build_root_system(name)
    lams = [lam for lam in itertools.product(range(3 if d.rank <= 3 else 2), repeat=d.rank)
            if math.prod(b + 1 for b in _box_bounds(d, lam, math.inf)) <= 3 * ORACLE_CELLS]
    assert len(lams) > d.rank
    expected = {lam: enumerate_X_by_box(d, lam) for lam in lams}
    for order in (lams, lams[::-1]):
        for lam in order:
            assert enumerate_X(d, lam) == expected[lam], (order is lams, lam)
        for lam in order:
            assert enumerate_X(d, lam) == expected[lam], (order is lams, lam)


def test_a_returned_list_is_the_callers_own():
    d = build_root_system("B3")
    X = enumerate_X(d, (1, 1, 1))
    expected = list(X)
    X.reverse()
    X.append((9, 9, 9))
    del X[0]
    assert enumerate_X(d, (1, 1, 1)) == expected
    assert lattice_count(d, (1, 1, 1)) == sum(d.wf_order // weyl_order(
        d, [j + 1 for j, c in enumerate(mu) if c == 0]) for mu in expected)


def test_the_budget_refuses_a_coweight_whose_nodes_are_all_cached():
    # after a larger coweight, and lambda itself at cap U, have filled whatever a route
    # keeps, the budget still refuses U - 1 on every route
    d = build_root_system("D4")
    lam = (1, 1, 1, 1)
    U = _level_cells(d, lam)
    for route in (enumerate_X, lattice_count, interval_size_lattice):
        route(d, (2, 2, 2, 2))
        route(d, lam, box_cap=U)
        with pytest.raises(BudgetExceededError):
            route(d, lam, box_cap=U - 1)
    assert enumerate_X(d, lam, box_cap=U) == enumerate_X_by_box(d, lam)


def _library_state(d) -> int:
    """The objects that the module-level containers and caches of `orbits` and `rootdata`
    hold, and that d holds, counted once each; only dicts, lists, tuples and sets are
    looked into, so another system's data counts as one object."""
    todo = [vars(d)]
    for module in (orbits, rootdata):
        for value in vars(module).values():
            if hasattr(value, "cache_info"):  # an lru_cache: its cache dict is a referent
                todo += [r for r in gc.get_referents(value) if type(r) is dict]
            elif isinstance(value, (dict, list, set)):
                todo.append(value)
    seen = set()
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, dict):
                todo += [*obj.keys(), *obj.values()]
            elif isinstance(obj, (list, tuple, set, frozenset)):
                todo += obj
    return len(seen)


@pytest.mark.parametrize("name", ["B4", "D4"])
def test_a_fit_leaves_no_per_coweight_state(monkeypatch, name):
    # the counts of a fit once left a graph of every coweight they reached, 987 on B4
    # and 668 on D4 after 52 counts; now a fit, one count at each of the 70 points of
    # T_4, and larger counts after it, may add per system only B (n + 1 tuples, n^2
    # entries) and at most D residue keys and 2^n orbit sizes, each cache entry allowed
    # n + 2 objects, and a few objects for the caches themselves
    d = RootSystemData(RootSystemId(name[0], 4))  # fresh, so no cache holds it yet
    n, D = d.rank, d.index_of_connection
    real = orbits.interval_size_lattice
    asked = []

    def record(data, lam, box_cap):
        asked.append(lam)
        return real(data, lam, box_cap)

    monkeypatch.setattr(orbits, "interval_size_lattice", record)
    before = _library_state(d)
    fit_mu(d)
    assert len(asked) == math.comb(2 * n, n) == 70
    for lam in [(3, 3, 3, 3), (4, 0, 2, 1), (0, 5, 0, 3)]:
        assert lattice_count(d, lam) == lattice_count(build_root_system(name), lam)
    bound = (n + 1 + n * n) + (D + 2 ** n) * (n + 2) + 12
    assert _library_state(d) - before <= bound < {"B4": 987, "D4": 668}[name]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                                  "D3", "D4", "F4", "G2"])
def test_walk_oracle_equals_box_oracle_on_small_ranks(name):
    # the two lattice oracles on lambda in {0,1,2}^n up to rank 3 and {0,1}^4 at rank 4,
    # where the box has at most 3 * ORACLE_CELLS cells (more than n coweights a system)
    d = build_root_system(name)
    lams = [lam for lam in itertools.product(range(3 if d.rank <= 3 else 2), repeat=d.rank)
            if math.prod(b + 1 for b in _box_bounds(d, lam, math.inf)) <= 3 * ORACLE_CELLS]
    assert len(lams) > d.rank
    for lam in lams:
        assert enumerate_X_by_walk(d, lam) == enumerate_X_by_box(d, lam), lam


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2",
                                  "C3", "C4", "C5", "D3", "D4", "D5", "F4", "G2"])
def test_search_equals_walk_oracle_up_to_rank_5(name):
    # on all of {0,1,2}^n, where the box is mostly too large to scan
    d = build_root_system(name)
    for lam in itertools.product(range(3), repeat=d.rank):
        assert enumerate_X(d, lam) == enumerate_X_by_walk(d, lam), lam


@pytest.mark.parametrize("name,lam,count", [("E7", (2,) * 7, 35212801051),
                                            ("E8", (1,) * 8, 487274378641)])
def test_search_equals_walk_oracle_on_e7_e8(name, lam, count):
    # the box holds 1.5e14 cells at E7 (2^7) and 1.6e17 at E8 (1^8): only the walk
    # reaches here
    d = build_root_system(name)
    X = enumerate_X(d, lam, box_cap=10 ** 9)
    assert X == enumerate_X_by_walk(d, lam)
    assert lattice_count(d, lam, box_cap=10 ** 9) == count


def test_search_equals_walk_oracle_on_the_e7_e8_coweights_bruhat_closes():
    # every coweight of E7 and E8 that tests/test_affine.py checks against bruhat
    lams = [(name, (i,)) for name, i, _ in E7_E8_SINGLES]
    lams += [(name, (i, j)) for name, i, j, _ in E7_E8_PAIRS]
    for name, S in lams:
        d = build_root_system(name)
        lam = tuple(int(k in S) for k in range(1, d.rank + 1))
        assert enumerate_X(d, lam) == enumerate_X_by_walk(d, lam), (name, S)


@pytest.mark.parametrize("workload,entry", [(w, e) for w, rows in REFERENCES.items() for e in rows],
                         ids=lambda x: x if isinstance(x, str) else
                         "%s-%s" % (x["system"], ",".join(map(str, x["lambda"]))))
def test_benchmark_reference_counts(workload, entry):
    # each count in the file was confirmed by a second, independent route
    d = build_root_system(entry["system"])
    assert interval_size_lattice(d, entry["lambda"]) == entry["count"]


def test_face_json():
    a2 = build_root_system("A2")
    obj = face_to_json(a2, (1, 1), (1,))
    assert obj["J"] == [1]
    assert len(obj["vertices"]) == 2
    assert obj["dim"] == 1


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                                  "D3", "D4", "F4", "G2"])
def test_face_dim_and_vertex_count_equal_the_oracles(name):
    # dim from the steps of the orbit walk against the rank of the vertex differences, and
    # the vertex count |W_J| / |W_{J ^ Z(lambda)}| against the walk, on lambda in {0,1,2}^n
    # up to rank 3 and {0,1}^4 at rank 4
    d = build_root_system(name)
    n = d.rank
    for lam in itertools.product(range(3 if n <= 3 else 2), repeat=n):
        for size in range(n + 1):
            for J in itertools.combinations(range(1, n + 1), size):
                f = face(d, lam, J)
                base = f.vertex_set[0]
                assert f.dim == matrix_rank([list(QVector(v) - base) for v in f.vertex_set]), \
                    (lam, J)
                assert face_vertex_count(d, lam, J) == len(f.vertex_set), (lam, J)


def test_face_cap_admits_the_full_e6_face_and_refuses_e7():
    e6, e7 = build_root_system("E6"), build_root_system("E7")
    assert face_vertex_count(e6, (1,) * 6, range(1, 7)) == 51840 <= MAX_FACE_VERTICES
    with pytest.raises(BudgetExceededError, match="the face has 2903040 vertices"):
        face(e7, (1,) * 7, range(1, 8))


@pytest.mark.parametrize("name,lam,count", [("E6", (0, 1, 0, 0, 0, 1), 675),
                                            ("D4", (1, 1, 1, 1), 601)])
def test_a_lattice_or_bruhat_count_builds_no_fraction(monkeypatch, name, lam, count):
    # both routes read integers only: det C and adj(C)^T come by integer bordering
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    system = RootSystemId(name[0], int(name[1:]))
    assert lattice_count(RootSystemData(system), lam) == count and built == []
    d = RootSystemData(system)  # fresh, so neither route finds the other's _dual
    assert interval_size_bruhat(d, lam, cap=10 ** 8) == d.wf_order * count and built == []
    assert Fraction(1, 3) and len(built) == 1  # the wrapper does see a construction
