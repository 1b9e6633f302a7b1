"""Geometric coefficients: the unique mu_J with |<= theta(lambda)| = sum mu_J V_J.

Everything is kept lattice-normalized: mu'_J := mu_J * sqrt(gram_J) is
rational, and the master identity becomes the exact rational statement

    |<= theta(lambda)| = sum over J of mu'_J * r_J(lambda).

Every mu'_J is fitted from exact lattice counts at 0/1 coweights, which
uniqueness makes sound; closed forms pin the extremes (mu'_empty = |W_f|,
mu_{I_n} = 1/vol(A_id)), and fits are verified on further coweights
(degenerate ones included) and never returned silently.  Hypersimplex
Ehrhart polynomials (coefficients per Ferroni's formula) give the type-A
identity |<= theta(m w_k^v)| = (n+1)! E_{k,n+1}(m) that `verify` checks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import BudgetExceededError, FitVerificationError, FormulaConsistencyError
from .linalg import rational_to_str
from .mpoly import MPoly
from .rootdata import RootSystemData, RootSystemId, build_root_system
from .orbits import DEFAULT_BOX_CAP, check_level_budget, interval_size_lattice
from .volumes import face_gram, indicator, relative_volumes, support_difference

MAX_SUBSETS = 4096  # 2^n <= 4096 exactly when the rank is at most 12
# what linalg.rational_to_str writes, and all that from_json reads: "p" or "p/q", q != 0
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


# -- combinatorial number sequences ---------------------------------------------

@lru_cache(maxsize=None)
def _stirling1_row(a: int) -> tuple[int, ...]:
    row = (1,)
    for r in range(1, a + 1):
        row = tuple((row[b - 1] if b >= 1 else 0) + (r - 1) * (row[b] if b < r else 0)
                    for b in range(r + 1))
    return row


def _stirling1_or_zero(a: int, b: int) -> int:
    if a < 0 or b < 0 or b > a:
        return 0
    return _stirling1_row(a)[b]


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


# -- coefficient containers --------------------------------------------------------

class GeometricCoefficients:
    """The map J -> mu'_J (lattice-normalized, rational) for one system."""

    __hash__ = None  # equal by value, and its maps may change

    def __init__(self, system: RootSystemId, mu_prime: dict[tuple[int, ...], Fraction],
                 provenance: dict[tuple[int, ...], str] | None = None):
        self.system = system
        self.mu_prime = mu_prime
        self.provenance = {} if provenance is None else provenance

    def __eq__(self, other):
        if not isinstance(other, GeometricCoefficients):
            return NotImplemented
        return ((self.system, self.mu_prime, self.provenance)
                == (other.system, other.mu_prime, other.provenance))

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
            "gram": {key(J): rational_to_str(face_gram(data, J))
                     for J in sorted(self.mu_prime)},
        }

    @staticmethod
    def from_json(obj: dict) -> "GeometricCoefficients":
        """Parse the output of to_json; a malformed object raises ValueError."""
        try:
            name = obj["system"]
            system = RootSystemId(name[0], int(name[1:]))
            if str(system) != name:
                raise ValueError("system %r is not as to_json writes it" % (name,))
            mu = {}
            prov = {}
            for key, val in obj["mu_prime"].items():
                J = tuple(int(x) for x in key.split(",")) if key else ()
                if key != ",".join(map(str, J)) or not _RATIONAL.fullmatch(val):
                    raise ValueError("mu_prime %r: %r is not as to_json writes it" % (key, val))
                mu[J] = Fraction(*map(int, val.split("/")))
                prov[J] = obj.get("provenance", {}).get(key, "unknown")
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValueError("malformed coefficient object: %s %s"
                             % (type(exc).__name__, exc)) from None
        return GeometricCoefficients(system, mu, prov)


def check_coefficients(data: RootSystemData, coeffs: GeometricCoefficients) -> None:
    """Raise ValueError unless coeffs can be the coefficients of data's system.

    They must name the system, hold one value for each of the 2^n subsets J,
    and meet the closed forms mu'_empty = |W_f| and mu'_top = 1/vol(A_id)
    (lattice-normalized).
    """
    if coeffs.system != data.id:
        raise ValueError("coefficients are for %s, not %s" % (coeffs.system, data.id))
    # the count first, so a file naming a large system is refused before 2^n subsets are built
    if (len(coeffs.mu_prime) != 2 ** data.rank
            or coeffs.mu_prime.keys() != set(_all_subsets(data.rank))):
        raise ValueError("coefficients for %s must cover exactly the %d subsets of 1..%d"
                         % (data.id, 2 ** data.rank, data.rank))
    if coeffs.mu_prime[()] != data.wf_order:
        raise ValueError("mu'_empty != |W_f|")
    # sqrt(gram_top) = covol(Q^v) = |W_f| vol(A_id), so mu'_top = |W_f| too
    if coeffs.mu_prime[tuple(range(1, data.rank + 1))] != data.wf_order:
        raise ValueError("mu'_top != 1/vol(A_id)")


def check_subset_cap(system: RootSystemId) -> None:
    """Refuse, before any work, a fit of more than MAX_SUBSETS subsets."""
    if 2 ** system.rank > MAX_SUBSETS:
        raise BudgetExceededError("fitting %s needs %d subsets, exceeding cap %d"
                                  % (system, 2 ** system.rank, MAX_SUBSETS))


def evaluate_formula(data: RootSystemData, coeffs: GeometricCoefficients, lam) -> int:
    """sum_J mu'_J r_J(lambda); must land on a non-negative integer.

    Coefficients that fail check_coefficients raise ValueError.
    """
    check_coefficients(data, coeffs)
    lam = tuple(int(c) for c in lam)
    r = relative_volumes(data, lam)
    total = sum((mu * r[J] for J, mu in coeffs.mu_prime.items()), Fraction(0))
    if total.denominator != 1 or total < 0:
        raise FormulaConsistencyError("formula evaluation inconsistent at %r" % (lam,))
    return int(total)


# -- fitting -------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _all_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every J in {1..n}, by size and then lexicographically."""
    return tuple(J for size in range(n + 1) for J in combinations(range(1, n + 1), size))


def fit_mu(data: RootSystemData, box_cap: int = DEFAULT_BOX_CAP) -> GeometricCoefficients:
    """Determine every mu'_J from exact interval counts at 0/1 coweights.

    Delta_J (`support_difference`) of the values at the points 1_S keeps the
    monomials with support J, and r_K only involves the variables in K, so

        Delta_J count = sum over K containing J of mu'_K a_{K,J},  a_{K,J} = Delta_J r_K.

    The system is triangular in subset inclusion, and its diagonal a_{J,J} is
    the squarefree coefficient of r_J, which is positive; so mu' is solved
    from the largest J down.  Every count runs through the lattice route
    under `box_cap`.  The result must match the closed forms for the empty
    and full subsets and reproduce the lattice counts on a validation set:
    (2 on K, 1 off K) and (3 on K, 0 off K) for every K, and 2 w_i^v for
    every i.  (3, ..., 3) is above every coweight counted, so its budget
    check refuses before the first count whenever any count would.
    """
    n = data.rank
    check_subset_cap(data.id)
    check_level_budget(data, (3,) * n, box_cap)
    subsets = _all_subsets(n)

    def count(lam) -> int:
        return interval_size_lattice(data, lam, box_cap)

    at_indicator = {S: count(indicator(n, S)) for S in subsets}
    diff = {J: support_difference(at_indicator.__getitem__, J) for J in subsets}
    volumes = {S: relative_volumes(data, indicator(n, S)) for S in subsets}
    mu = {}
    for K in reversed(subsets):
        a = {J: support_difference(lambda S: volumes[S][K], J)
             for J in subsets if set(J) <= set(K)}
        if a[K] <= 0:
            raise FormulaConsistencyError("squarefree volume coefficient must be positive")
        mu[K] = diff[K] / a[K]
        for J, c in a.items():
            if J != K:
                diff[J] -= mu[K] * c

    coeffs = GeometricCoefficients(
        data.id, mu,
        {J: ("closed-form" if J in ((), tuple(range(1, n + 1))) else "fitted")
         for J in subsets})

    try:
        check_coefficients(data, coeffs)  # the closed-form pins
    except ValueError as exc:
        raise FitVerificationError("fit failed verification: %s" % exc) from None

    # validation, degenerate coweights included
    validation = {tuple(2 if i + 1 in K else 1 for i in range(n)) for K in subsets}
    validation |= {tuple(3 if i + 1 in K else 0 for i in range(n)) for K in subsets}
    validation |= {tuple(2 if j == i else 0 for j in range(n)) for i in range(n)}
    for lam in sorted(validation):
        if evaluate_formula(data, coeffs, lam) != count(lam):
            raise FitVerificationError("fit failed verification at lambda=%r" % (lam,))
    return coeffs
