"""Geometric coefficients: the unique mu_J with |<= theta(lambda)| = sum mu_J V_J.

Everything is kept lattice-normalized: mu'_J := mu_J * sqrt(gram_J) is
rational, and the master identity becomes the exact rational statement

    |<= theta(lambda)| = sum over J of mu'_J * r_J(lambda).

Closed forms pin the extremes (mu'_empty = |W_f|, mu_{I_n} = 1/vol(A_id));
connected type-A coefficients come from lower-triangular systems fed by
hypersimplex Ehrhart polynomials (coefficients per Ferroni's formula) and
Eulerian-number volume coefficients; everything else is fitted from exact
lattice counts at 0/1 coweights, which uniqueness makes sound.  Fits are
verified on further coweights (degenerate ones included) and never
returned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import BudgetExceededError, FitVerificationError, FormulaConsistencyError
from .linalg import rational_to_str
from .mpoly import MPoly
from .radicals import RadScalar
from .rootdata import RootSystemData, RootSystemId, build_root_system
from .orbits import DEFAULT_BOX_CAP, interval_size_lattice_cached
from .volumes import squarefree_coefficient, volume_polynomial

DEFAULT_SUBSET_CAP = 4096


# -- combinatorial number sequences ---------------------------------------------

@lru_cache(maxsize=None)
def _stirling1_row(a: int) -> tuple[int, ...]:
    if a == 0:
        return (1,)
    prev = _stirling1_row(a - 1)
    row = []
    for b in range(a + 1):
        val = (prev[b - 1] if b >= 1 else 0) + (a - 1) * (prev[b] if b <= a - 1 else 0)
        row.append(val)
    return tuple(row)


def stirling1(a: int, b: int) -> int:
    """Unsigned Stirling number of the first kind [a, b]."""
    if a < 0 or b < 0 or b > a:
        raise ValueError("stirling1 needs 0 <= b <= a")
    return _stirling1_row(a)[b]


def _stirling1_or_zero(a: int, b: int) -> int:
    if a < 0 or b < 0 or b > a:
        return 0
    return _stirling1_row(a)[b]


@lru_cache(maxsize=None)
def _eulerian_row(r: int) -> tuple[int, ...]:
    if r == 1:
        return (1,)
    prev = _eulerian_row(r - 1)

    def get(s):
        return prev[s - 1] if 1 <= s <= r - 1 else 0
    return tuple((r - s + 1) * get(s - 1) + s * get(s) for s in range(1, r + 1))


def eulerian(r: int, s: int) -> int:
    """Eulerian number A(r, s), 1-indexed: A(1,1) = 1, A(3,2) = 4."""
    if r < 1 or not 1 <= s <= r:
        raise ValueError("eulerian needs 1 <= s <= r")
    return _eulerian_row(r)[s - 1]


# -- hypersimplex Ehrhart polynomials -------------------------------------------

def hypersimplex_dilation_count(k: int, d: int, m: int) -> int:
    """|Z^d ^ m*Delta_{k,d}| by direct dynamic programming (the oracle)."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    target = m * k
    ways = [0] * (target + 1)
    ways[0] = 1
    for _ in range(d):
        new = [0] * (target + 1)
        for s, w in enumerate(ways):
            if not w:
                continue
            for x in range(min(m, target - s) + 1):
                new[s + x] += w
        ways = new
    return ways[target]


@lru_cache(maxsize=None)
def hypersimplex_ehrhart(k: int, d: int) -> MPoly:
    """Ehrhart polynomial E_{k,d}(t) of the hypersimplex, exact in one variable.

    Coefficients by Ferroni's closed formula; the result is gated against
    the direct dilation counter on small dilations before being returned.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if k == d:
        poly = MPoly.constant(1, 1)  # a single point in every dilation
    else:
        terms = {}
        fact = math.factorial(d - 1)
        for m in range(d):
            total = 0
            for j in range(k):
                for i in range(d - m):
                    total += ((-1) ** (i + j) * math.comb(d, j) * (k - j) ** m
                              * _stirling1_or_zero(d - j, m + 1 + i - j)
                              * _stirling1_or_zero(j, j - i))
            if total:
                terms[(m,)] = Fraction(total, fact)
        poly = MPoly(1, terms)
    for m in range(3):
        if poly.eval((m,)) != hypersimplex_dilation_count(k, d, m):
            raise FormulaConsistencyError(
                "Ehrhart coefficients disagree with dilation counts for k=%d d=%d" % (k, d))
    return poly


# -- closed forms ----------------------------------------------------------------

def mu_empty(data: RootSystemData) -> Fraction:
    """mu of the vertex face class: the order of the finite Weyl group."""
    return Fraction(data.wf_order)


def mu_full(data: RootSystemData) -> RadScalar:
    """mu of the full polytope: 1 / vol(A_id), exact."""
    marks_product = math.prod(data.marks)
    return (math.factorial(data.rank) * marks_product) * data.det_coweight_lattice.reciprocal()


# -- type A connected coefficients ------------------------------------------------

def type_a_connected_mu(n: int) -> dict[tuple[int, ...], Fraction]:
    """Lattice-normalized mu' for every connected interval J = {u+1..u+l} in A_n.

    For each length l the coefficients solve a lower-triangular system whose
    matrix holds the m_i^l coefficients of V_J (Eulerian numbers over l!)
    and whose right side holds the t^l coefficients of (n+1)! E_{i,n+1}(t).
    The remaining rows of the overdetermined system and the closed forms for
    J = {1..l} are checked before returning.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    e = {}
    for i in range(1, n + 1):
        poly = hypersimplex_ehrhart(i, n + 1)
        for l in range(0, n + 1):
            e[(i, l)] = math.factorial(n + 1) * poly.coeff((l,))

    def c_prime(i: int, l: int, u: int) -> Fraction:
        # m_i^l coefficient of the relative volume of I(l, u) = {u+1..u+l}
        return Fraction(eulerian(l, i - u), math.factorial(l))

    out: dict[tuple[int, ...], Fraction] = {}
    for l in range(1, n + 1):
        windows = list(range(0, n - l + 1))  # J = I(l, u)
        mu = {}
        for row, i in enumerate(range(1, n - l + 2)):
            acc = e[(i, l)]
            for u in windows:
                if u + 1 <= i <= u + l and u != i - 1:
                    acc -= c_prime(i, l, u) * mu[u]
            mu[i - 1] = acc / c_prime(i, l, i - 1)
        # remaining equations of the overdetermined system must also hold
        for i in range(n - l + 2, n + 1):
            acc = Fraction(0)
            for u in windows:
                if u + 1 <= i <= u + l:
                    acc += c_prime(i, l, u) * mu[u]
            if acc != e[(i, l)]:
                raise FormulaConsistencyError(
                    "type-A system row %d is inconsistent for l=%d" % (i, l))
        for u in windows:
            out[tuple(range(u + 1, u + l + 1))] = mu[u]
        # closed form for the leading window J = {1..l}
        closed = math.factorial(l) * (n + 1) * stirling1(n + 1, l + 1)
        if out[tuple(range(1, l + 1))] != closed:
            raise FormulaConsistencyError("leading type-A coefficient mismatch at l=%d" % l)
    # l = n window must agree with the alcove-volume closed form
    data = build_root_system("A", n)
    full = mu_full(data) * RadScalar.sqrt(Fraction(n + 1))
    if not full.is_rational() or full.coeff != out[tuple(range(1, n + 1))]:
        raise FormulaConsistencyError("type-A top coefficient disagrees with 1/vol(A_id)")
    return out


# -- coefficient containers --------------------------------------------------------

def _subset_key(J) -> tuple[int, ...]:
    return tuple(sorted(set(int(j) for j in J)))


@dataclass
class GeometricCoefficients:
    """The map J -> mu'_J (lattice-normalized, rational) for one system."""

    system: RootSystemId
    mu_prime: dict[tuple[int, ...], Fraction]
    provenance: dict[tuple[int, ...], str] = field(default_factory=dict)

    def mu_euclidean(self, data: RootSystemData, J) -> RadScalar:
        """The Euclidean coefficient mu_J = mu'_J / sqrt(gram_J)."""
        J = _subset_key(J)
        vp = volume_polynomial(data, J)
        return RadScalar(self.mu_prime[J]) * RadScalar.sqrt(vp.gram).reciprocal()

    def to_json(self) -> dict:
        from . import __version__
        key = lambda J: ",".join(map(str, J))
        data = build_root_system(self.system.family, self.system.rank)
        return {
            "schema": 1,
            "version": __version__,
            "system": str(self.system),
            "mu_prime": {key(J): rational_to_str(v) for J, v in sorted(self.mu_prime.items())},
            "provenance": {key(J): self.provenance.get(J, "fitted")
                           for J in sorted(self.mu_prime)},
            "gram": {key(J): rational_to_str(volume_polynomial(data, J).gram)
                     for J in sorted(self.mu_prime)},
        }

    @staticmethod
    def from_json(obj: dict) -> "GeometricCoefficients":
        name = obj["system"]
        system = RootSystemId(name[0], int(name[1:]))
        mu = {}
        prov = {}
        for key, val in obj["mu_prime"].items():
            J = tuple(int(x) for x in key.split(",")) if key else ()
            mu[J] = Fraction(val)
            prov[J] = obj.get("provenance", {}).get(key, "unknown")
        return GeometricCoefficients(system, mu, prov)


def evaluate_formula(data: RootSystemData, coeffs: GeometricCoefficients, lam) -> int:
    """sum_J mu'_J r_J(lambda); must land on a non-negative integer.

    The coefficients must belong to data's system and hold one value for
    each of the 2^n subsets J; anything else raises ValueError.
    """
    if coeffs.system != data.id:
        raise ValueError("coefficients are for %s, not %s" % (coeffs.system, data.id))
    if coeffs.mu_prime.keys() != set(_all_subsets(data.rank)):
        raise ValueError("coefficients for %s must cover exactly the %d subsets of 1..%d"
                         % (data.id, 2 ** data.rank, data.rank))
    lam = tuple(int(c) for c in lam)
    total = Fraction(0)
    for J, mu in coeffs.mu_prime.items():
        total += mu * volume_polynomial(data, J).rel_poly.eval(lam)
    if total.denominator != 1 or total < 0:
        raise FormulaConsistencyError("formula evaluation inconsistent at %r" % (lam,))
    return int(total)


# -- fitting -------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _all_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every J in {1..n}, by size and then lexicographically."""
    return tuple(J for size in range(n + 1) for J in combinations(range(1, n + 1), size))


def fit_mu(data: RootSystemData,
           max_subsets: int = DEFAULT_SUBSET_CAP,
           box_cap: int = DEFAULT_BOX_CAP) -> GeometricCoefficients:
    """Determine every mu'_J from exact interval counts at 0/1 coweights.

    Write 1_S for the coweight with coordinate 1 on S and 0 elsewhere.  The
    finite difference Delta_J f = sum over S in J of (-1)^{|J-S|} f(1_S)
    keeps exactly the monomials of f whose support is J.  Since r_K only
    involves the variables in K, applying it to the counting formula gives

        Delta_J count = sum over K containing J of mu'_K a_{K,J},

    where a_{K,J} sums the coefficients of r_K over the monomials with
    support exactly J.  The system is triangular in subset inclusion, and
    its diagonal a_{J,J} is the squarefree coefficient of r_J, which is
    positive; so mu' is solved from the largest J down.  Every count runs
    through the lattice route under `box_cap`.  The result must match the
    closed forms for the empty and full subsets and reproduce the lattice
    counts on a validation set: (2 on K, 1 off K) and (3 on K, 0 off K) for
    every K, and 2 w_i^v for every i.
    """
    n = data.rank
    if 2 ** n > max_subsets:
        raise BudgetExceededError(
            "fitting %s needs %d subsets, exceeding cap %d" % (data.id, 2 ** n, max_subsets))
    subsets = _all_subsets(n)
    polys = {J: volume_polynomial(data, J) for J in subsets}

    def count(lam) -> int:
        return interval_size_lattice_cached(data, lam, box_cap)

    at_indicator = {S: count(tuple(int(i + 1 in S) for i in range(n))) for S in subsets}
    diff = {J: sum((-1) ** (len(J) - k) * at_indicator[S]
                   for k in range(len(J) + 1) for S in combinations(J, k))
            for J in subsets}
    mu = {}
    for K in reversed(subsets):
        squarefree_coefficient(data, K)  # raises unless a_{K,K} > 0
        a: dict[tuple[int, ...], Fraction] = {}
        for expo, c in polys[K].rel_poly.terms.items():
            J = tuple(i + 1 for i, e in enumerate(expo) if e)
            a[J] = a.get(J, 0) + c
        mu[K] = diff[K] / a[K]
        for J, c in a.items():
            if J != K:
                diff[J] -= mu[K] * c

    coeffs = GeometricCoefficients(
        data.id, mu,
        {J: ("closed-form" if J in ((), tuple(range(1, n + 1))) else "fitted")
         for J in subsets})

    # closed-form pins
    if mu[()] != data.wf_order:
        raise FitVerificationError("fit failed verification: mu'_empty != |W_f|")
    top = tuple(range(1, n + 1))
    expected_top = mu_full(data) * RadScalar.sqrt(polys[top].gram)
    if not expected_top.is_rational() or expected_top.coeff != mu[top]:
        raise FitVerificationError("fit failed verification: mu'_top != 1/vol(A_id)")

    # validation, degenerate coweights included
    validation = {tuple(2 if i + 1 in K else 1 for i in range(n)) for K in subsets}
    validation |= {tuple(3 if i + 1 in K else 0 for i in range(n)) for K in subsets}
    validation |= {tuple(2 if j == i else 0 for j in range(n)) for i in range(n)}
    for lam in sorted(validation):
        if evaluate_formula(data, coeffs, lam) != count(lam):
            raise FitVerificationError("fit failed verification at lambda=%r" % (lam,))
    return coeffs
