import itertools
import random
from fractions import Fraction

import pytest

from alcoves import volumes
from alcoves.errors import BudgetExceededError
from alcoves.mpoly import MPoly
from alcoves.rootdata import RootSystemData, RootSystemId, build_root_system, weyl_order
from alcoves.volumes import _pyramid, face_gram, subsets, volume_polynomial

from oracles import (QVector, RadScalar, diagram_components, euclidean_volume, eulerian,
                     gram_det, indicator, is_homogeneous, matrix_det, mixed_basis_nu,
                     orbit_face_euclidean_volume, relative_volumes, relative_volumes_by_fractions,
                     sqrt_decompose, squarefree_coefficient, support_difference, variables_used)

RANK4 = ["A4", "B4", "D4", "F4"]
SMALL = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


def _subsets(n):
    out = []
    for size in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def test_nu_single_index_a2():
    a2 = build_root_system("A2")
    nu = mixed_basis_nu(a2, (1,))
    vec, normsq = nu[1]
    assert vec == Fraction(1, 2) * QVector(a2.simple_roots[0])
    assert normsq == Fraction(1, 2)


def test_nu_full_set_gives_fundamental_weights():
    for name in ["A2", "B2", "G2", "A3"]:
        d = build_root_system(name)
        nu = mixed_basis_nu(d, range(1, d.rank + 1))
        for j in range(1, d.rank + 1):
            assert nu[j][0] == d.fundamental_weights[j - 1]


@pytest.mark.parametrize("name", RANK4 + ["G2", "C3"])
def test_nu_pairs_positively_with_coweights(name):
    d = build_root_system(name)
    for J in _subsets(d.rank):
        if not J:
            continue
        nu = mixed_basis_nu(d, J)
        for j in J:
            assert nu[j][0].dot(d.fundamental_coweights[j - 1]) > 0


def test_volume_polynomials_a2():
    a2 = build_root_system("A2")
    v_empty = volume_polynomial(a2, ())
    assert v_empty.rel_poly == MPoly.constant(2, 1) and v_empty.gram == 1

    v1 = volume_polynomial(a2, (1,))
    assert v1.rel_poly == MPoly(2, {(1, 0): 1})
    assert v1.gram == 2

    v12 = volume_polynomial(a2, (1, 2))
    assert v12.rel_poly == MPoly(2, {(2, 0): Fraction(1, 2),
                                     (1, 1): 2,
                                     (0, 2): Fraction(1, 2)})
    assert v12.gram == 3
    assert euclidean_volume(a2, (1, 2), (1, 1)) == RadScalar(3, 3)  # hexagon: 3*sqrt(3)


def test_squarefree_coefficients_a2():
    a2 = build_root_system("A2")
    assert squarefree_coefficient(a2, (1,)) == RadScalar(1, 2)
    assert squarefree_coefficient(a2, (1, 2)) == RadScalar(2, 3)


@pytest.mark.parametrize("name", SMALL)
def test_squarefree_monomial_triangularity(name):
    # the m_J monomial appears in V_K only for K = J
    d = build_root_system(name)
    n = d.rank
    for K in _subsets(n):
        vk = volume_polynomial(d, K)
        for J in _subsets(n):
            expo = tuple(1 if i + 1 in J else 0 for i in range(n))
            if J != K:
                assert expo not in vk.rel_poly.terms
        assert squarefree_coefficient(d, K).coeff > 0


@pytest.mark.parametrize("name", RANK4 + SMALL)
def test_homogeneity_and_locality(name):
    d = build_root_system(name)
    for J in _subsets(d.rank):
        vp = volume_polynomial(d, J)
        assert is_homogeneous(vp.rel_poly, len(J))
        assert variables_used(vp.rel_poly) <= {j - 1 for j in J}


@pytest.mark.parametrize("name", RANK4)
def test_component_factorization(name):
    d = build_root_system(name)
    n = d.rank
    for J in _subsets(n):
        vp = volume_polynomial(d, J)
        prod = MPoly.constant(n, 1)
        gram = Fraction(1)
        for K in diagram_components(d, J):
            vk = volume_polynomial(d, K)
            prod = prod * vk.rel_poly
            gram *= vk.gram
        assert vp.rel_poly == prod
        assert vp.gram == gram


@pytest.mark.parametrize("name", RANK4)
def test_volume_family_linearly_independent(name):
    d = build_root_system(name)
    n = d.rank
    subsets = _subsets(n)
    points = [tuple(2 if i + 1 in K else 1 for i in range(n)) for K in subsets]
    rows = [[volume_polynomial(d, J).rel_poly.eval(pt) for J in subsets]
            for pt in points]
    assert matrix_det(rows) != 0


HULL_CASES = [
    ("A2", [(1, 1), (2, 1), (3, 3), (1, 0)]),
    ("B2", [(1, 1), (2, 1), (3, 2)]),
    ("G2", [(1, 1), (1, 2), (3, 3)]),
    ("A3", [(1, 1, 1), (2, 1, 1), (1, 0, 2)]),
    ("B3", [(1, 1, 1), (2, 1, 3)]),
    ("C3", [(1, 1, 1), (1, 2, 0)]),
]


@pytest.mark.parametrize("name,lams", HULL_CASES)
def test_volumes_match_exact_hull_decomposition(name, lams):
    d = build_root_system(name)
    for lam in lams:
        for J in _subsets(d.rank):
            if not J:
                continue
            expected = orbit_face_euclidean_volume(d, J, lam)
            assert euclidean_volume(d, J, lam) == expected, (name, lam, J)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_a_top_coefficients_are_eulerian(n):
    # m_j^l coefficient of V_{1..l} in A_n equals sqrt(l+1)/l! * A(l, j)
    import math
    d = build_root_system("A", n)
    for l in range(1, n + 1):
        vp = volume_polynomial(d, tuple(range(1, l + 1)))
        assert vp.gram == l + 1
        for j in range(1, l + 1):
            expo = tuple(l if i + 1 == j else 0 for i in range(n))
            assert vp.rel_poly.terms[expo] == Fraction(eulerian(l, j), math.factorial(l))


def test_volume_json():
    a2 = build_root_system("A2")
    vp = volume_polynomial(a2, (1, 2))
    # the fields to_json reads
    assert vp.J == (1, 2) and vp.gram == 3 and isinstance(vp.rel_poly, MPoly)
    with pytest.raises(AttributeError):
        vp.gram = 1
    obj = vp.to_json()
    assert obj["J"] == [1, 2] and obj["rel_poly"] == vp.rel_poly.to_json()
    assert obj["gram"] == "3"
    assert obj["rel_poly"] == {"0,2": "1/2", "1,1": "2", "2,0": "1/2"}


RANK_AT_MOST_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
                  "F4", "G2"]


def _e6_sample():
    rng = random.Random(6)
    return [tuple(rng.randrange(4) for _ in range(6)) for _ in range(12)]


@pytest.mark.parametrize("name,lams", [
    (name, list(itertools.product(range(4), repeat=int(name[1:])))) for name in RANK_AT_MOST_4
] + [("E6", _e6_sample())])
def test_numeric_recursion_equals_the_polynomials(name, lams):
    d = build_root_system(name)
    polys = {J: volume_polynomial(d, J).rel_poly for J in _subsets(d.rank)}
    for lam in lams:
        values = relative_volumes(d, lam)
        assert values.keys() == polys.keys()
        for J, poly in polys.items():
            assert values[J] == poly.eval(lam), (lam, J)


UP_TO_RANK_8 = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
                + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(3, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", UP_TO_RANK_8 + ["B12"])
def test_scaled_recursion_equals_the_fraction_oracle(name):
    # the order-free integer recursion, times |W_K| / (|K|! Delta_K) once, against r_K
    # with a Fraction at every step, C_K^-1 by Gauss-Jordan and c_{K,j} from the group
    # orders: up to rank 8 at every 0/1 point, (1, 2, ..., n) and (3, ..., 3), and at
    # one point on B12, whose 4096 subsets take the oracle 6 s
    d = build_root_system(name)
    n = d.rank
    lams = [(1, 0, 2, 1, 3, 0, 1, 1, 2, 0, 1, 1)] if n > 8 else (
        list(itertools.product(range(2), repeat=n)) + [tuple(range(1, n + 1)), (3,) * n])
    for lam in lams:
        assert relative_volumes(d, lam) == relative_volumes_by_fractions(d, lam), lam


@pytest.mark.parametrize("name", RANK_AT_MOST_4 + ["D5", "E6", "E7"])
def test_cartan_constants_equal_the_ambient_derivation(name):
    # gram_J, each column of adj C_J / det C_J as the pairings (w_i^v, nu_j) with the
    # mixed dual basis nu_j, and the scale, w_{J,j} det C_J Delta_{J-j} = Delta_J.  The
    # pyramid's Euclidean factor t_j = sqrt(gram_{J-j}) / |nu_j| is sqrt(gram_J), so the
    # c_{J,j} that the order-free constants imply through r_J = |W_J| R_J / (|J|! Delta_J)
    # is the ambient one, [W_J : W_{J-j}] t_j / (|J| sqrt(gram_J))
    d = build_root_system(name)
    for J in _subsets(d.rank):
        gram = gram_det([d.simple_coroots[j - 1] for j in J])
        assert face_gram(d, J) == gram == volume_polynomial(d, J).gram
        s_J = sqrt_decompose(gram)
        nu = mixed_basis_nu(d, J)
        order, det, adj, steps, scale = _pyramid(d, J)
        assert order == weyl_order(d, J)
        for p, (j, (rest, w, _)) in enumerate(zip(J, steps)):
            vec, normsq = nu[j]
            col = {i: Fraction(row[p], det) for i, row in zip(J, adj)}
            assert col == {i: vec.dot(d.fundamental_coweights[i - 1]) for i in J}
            rest_order, _, _, _, rest_scale = _pyramid(d, rest)
            assert w * det * rest_scale == scale
            t_j = sqrt_decompose(gram_det([d.simple_coroots[k - 1] for k in rest]) / normsq)
            assert t_j == s_J
            index = weyl_order(d, J) // weyl_order(d, rest)
            implied = Fraction(order * w * det * rest_scale, len(J) * rest_order * scale)
            assert implied == index * t_j[0] / (len(J) * s_J[0])


def test_the_pyramid_constants_are_built_without_a_fraction(monkeypatch):
    # every entry of the 33 systems up to rank 8, each on a fresh RootSystemData so that
    # the memo misses, comes from integers alone
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    fresh = [RootSystemData(RootSystemId(name[0], int(name[1:]))) for name in UP_TO_RANK_8]
    misses = _pyramid.cache_info().misses
    monkeypatch.setattr(Fraction, "__new__", counted)
    for d in fresh:
        for J in subsets(tuple(range(1, d.rank + 1))):
            _pyramid(d, J)
    monkeypatch.undo()
    assert made == []
    assert _pyramid.cache_info().misses - misses == sum(2 ** d.rank for d in fresh)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "A4", "D4", "F4"])
def test_support_differences_equal_the_coefficient_sums(name):
    # a_{K,J} from values at 0/1 points, against the MPoly terms of r_K
    d = build_root_system(name)
    n = d.rank
    values = {S: relative_volumes(d, indicator(n, S)) for S in _subsets(n)}
    for K in _subsets(n):
        sums = {}
        for expo, c in volume_polynomial(d, K).rel_poly.terms.items():
            J = tuple(i + 1 for i, e in enumerate(expo) if e)
            sums[J] = sums.get(J, 0) + c
        for J in _subsets(n):
            assert support_difference(lambda S: values[S][K], J) == sums.get(J, 0), (K, J)
        assert squarefree_coefficient(d, K) == RadScalar(sums[K], face_gram(d, K))


def test_every_route_to_the_pyramid_table_refuses_a13_before_any_bordering(monkeypatch):
    # A13 needs 8192 subsets, above MAX_SUBSETS; the refusal comes before the first
    # bordering step, and leaves the memo as it was
    d = build_root_system("A13")
    entries = volumes._pyramid.cache_info().currsize
    monkeypatch.setattr(volumes, "border", lambda *args: pytest.fail("bordered"))
    top = tuple(range(1, 14))
    routes = [lambda: relative_volumes(d, (1,) * 13), lambda: face_gram(d, top),
              lambda: volume_polynomial(d, top)]
    for route in routes:
        with pytest.raises(BudgetExceededError, match="8192 subsets, exceeding cap 4096"):
            route()
    assert volumes._pyramid.cache_info().currsize == entries
