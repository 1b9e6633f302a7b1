import itertools
import random
from fractions import Fraction

import pytest

from alcoves.linalg import QMatrix
from alcoves.mpoly import MPoly
from alcoves.radicals import RadScalar
from alcoves.rootdata import build_root_system, weyl_order
from alcoves.volumes import (_pyramid_table, face_gram, indicator, relative_volumes,
                             support_difference, volume_polynomial)

from oracles import (diagram_components, euclidean_volume, eulerian, gram_det, is_homogeneous,
                     mixed_basis_nu, orbit_face_euclidean_volume, sqrt_decompose,
                     squarefree_coefficient, variables_used)

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
    assert vec == Fraction(1, 2) * a2.simple_roots[0]
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
            assert d.fundamental_coweights[j - 1].dot(nu[j][0]) > 0


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
    assert QMatrix(rows).det() != 0


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


@pytest.mark.parametrize("name", RANK_AT_MOST_4 + ["D5", "E6", "E7"])
def test_cartan_constants_equal_the_ambient_derivation(name):
    # gram_J and c_{J,j} as the ambient recursion derived them from the
    # coroots and the mixed dual basis nu_j
    d = build_root_system(name)
    table = _pyramid_table(d)
    for J in _subsets(d.rank):
        gram = gram_det([d.simple_coroots[j - 1] for j in J])
        assert face_gram(d, J) == gram == volume_polynomial(d, J).gram
        s_J, _ = sqrt_decompose(gram)
        nu = mixed_basis_nu(d, J)
        for j, (rest, c, col) in zip(J, table[J][1]):
            vec, normsq = nu[j]
            assert dict(col) == {i: d.fundamental_coweights[i - 1].dot(vec) for i in J}
            t_j, _ = sqrt_decompose(gram_det([d.simple_coroots[k - 1] for k in rest]) / normsq)
            index = weyl_order(d, J) // weyl_order(d, rest)
            assert c == index * t_j / (len(J) * s_J)


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
