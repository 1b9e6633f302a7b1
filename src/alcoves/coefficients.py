"""Geometric coefficients: the unique mu_J with |<= theta(lambda)| = sum mu_J V_J.

Everything is kept lattice-normalized: mu'_J := mu_J * sqrt(gram_J) is
rational, and the master identity becomes the exact rational statement

    |<= theta(lambda)| = sum over J of mu'_J * r_J(lambda).

Every mu'_J is derived from the Cartan matrix alone, by the local Euler-Maclaurin
formula of Berline and Vergne (`_berline_vergne`), which makes no lattice count;
closed forms pin the extremes (mu'_empty = |W_f|, mu_{I_n} = 1/vol(A_id)) and every
mu'_J of codimension 1 and 2, and agreement with the lattice count at each point of
T_n, checked as it is counted, proves each fit (`fit_mu`).  So provenance is a
function of J: `closed-form` on the empty set and 1..n, `fitted` (derived by the fit)
elsewhere.  GeometricCoefficients is the one validator: no map that fails the pins is
ever held, and `from_json` reads an object only if `to_json` writes it back field for
field.  The fits of the 31 systems that the default box cap admits ship with the
package, as `fit --out` writes them, in `alcoves/data`; the CLI reads those instead
of fitting, and the tests re-derive each one: by `fit` up to rank 6, by a solve from
lattice counts at ranks 7 and 8, by the recursion all.  Hypersimplex Ehrhart
polynomials (by Katzman's inclusion-exclusion, *The Hilbert series of algebras of the
Veronese type*, 2005) give the type-A identity |<= theta(m w_k^v)| = (n+1)! E_{k,n+1}(m)
that `verify` checks.

Each mu'_J is held as a reduced pair (p, q) of integers, and the formula is summed
over one common denominator, so a count imports neither `fractions` nor `mpoly`
nor `orbits`: only `hypersimplex_ehrhart`, `_berline_vergne`, the `mu_prime` view
and `fit_mu` do.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import cached_property
from itertools import combinations
from operator import index
from types import MappingProxyType

from .errors import DEFAULT_BOX_CAP, FitVerificationError, FormulaConsistencyError
from .rootdata import (RootSystemData, RootSystemId, build_root_system, dominant_coweight,
                       weyl_order)
from .volumes import MAX_SUBSETS, _gram, _pyramid, _scaled_volumes, check_subset_cap, subsets

# what str() writes of a Fraction, and all that from_json reads: "p" or "p/q", q != 0
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
# a value from_json read, in lowest terms, held as the constructor reads a Fraction
_Ratio = namedtuple("_Ratio", "numerator denominator")
# the most bytes the CLI reads of a coefficient file.  B8, the largest shipped file, has
# 16 122 bytes for 256 subsets, about 63 a subset: 1 KiB a subset at the cap of 2^12
# subsets, 4 MiB, leaves a wide margin, and a larger file (/dev/zero) is refused unparsed
MAX_FILE_BYTES = 1024 * MAX_SUBSETS


def _ratio_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, in integers: "p" or "p/q" in lowest terms."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else "%d/%d" % (p // g, q // g)


# -- hypersimplex Ehrhart polynomials -------------------------------------------

def hypersimplex_dilation_count(k: int, d: int, m: int) -> int:
    """|Z^d ^ m*Delta_{k,d}| by direct dynamic programming (the oracle)."""
    k, d, m = index(k), index(d), index(m)
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if m < 0:
        raise ValueError("need a dilation m >= 0")
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


def hypersimplex_ehrhart(k: int, d: int) -> MPoly:
    """Ehrhart polynomial E_{k,d}(m) of the hypersimplex, exact in one variable.

    E_{k,d}(m) counts x in {0..m}^d with sum km; inclusion-exclusion over the
    j coordinates forced above m gives

        (d-1)! E_{k,d}(m) = sum_{j<k} (-1)^j C(d,j) prod_{s=1}^{d-1} ((k-j) m - j + s),

    a sum of products of integer linear factors, divided by (d-1)! once.  The
    result is gated against the direct dilation counter on small dilations.
    """
    from fractions import Fraction
    from .mpoly import MPoly
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    total = [0] * d  # (d-1)! E_{k,d}, coefficients by ascending power of m
    for j in range(k):
        coeffs = [(-1) ** j * math.comb(d, j)]
        for s in range(1, d):  # times (k-j) m + (s-j)
            coeffs = [(s - j) * c + (k - j) * p for c, p in zip(coeffs + [0], [0] + coeffs)]
        total = [t + c for t, c in zip(total, coeffs)]
    fact = math.factorial(d - 1)
    for m in range(3):  # in integers, before the division by (d-1)!
        scaled = sum(c * m ** e for e, c in enumerate(total))
        if scaled != fact * hypersimplex_dilation_count(k, d, m):
            raise FormulaConsistencyError(
                "Ehrhart coefficients disagree with dilation counts for k=%d d=%d" % (k, d))
    return MPoly(1, {(e,): Fraction(c, fact) for e, c in enumerate(total)})


# -- coefficient containers --------------------------------------------------------

def _wedge(data: RootSystemData, k: int, l: int) -> tuple[int, int, int]:
    """(T_kk, T_ll, T_kl) for k < l and J = 1..n minus {k, l}: T = det C_J S, S the Schur
    complement of C_J in C.  The {k, l} block of adj C is det C_J adj S, so T_kk =
    (adj C)_ll, T_ll = (adj C)_kk and T_kl = -(adj C)_kl, read off B = adj(C)^T."""
    B = data._dual[1]
    return B[l - 1][l - 1], B[k - 1][k - 1], -B[l - 1][k - 1]


class GeometricCoefficients:
    """The map J -> mu'_J (lattice-normalized, rational) for one system, valid by
    construction: the constructor checks, cheapest first, a rank within the subset cap,
    exactly the 2^n subsets of 1..n as keys, and the closed forms mu'_empty = |W_f| and
    mu'_top = 1/vol(A_id) (lattice-normalized, |W_f| too, as sqrt(gram_top) = covol(Q^v)
    = |W_f| vol(A_id)), then the closed forms that `_berline_vergne` gives in codimension
    1 and 2, in integers: mu'_{I-i} = |W_f|^2 / (2 |W_{I-i}|), and with J = I-k-l,

        mu'_J = (|W_f|^2 / |W_J|) (1/4 + (g_kl/g_kk + g_kl/g_ll) / 12),

    g the Gram matrix of alpha_k^v and alpha_l^v projected orthogonally to the alpha_j^v,
    j in J.  T = det C_J S, S the Schur complement of C_J in C, is g_ab |alpha_b|^2
    det C_J / 2, and it is read off adj C (`_wedge`), so with mu'_J = p/q and
    n_x = |alpha_x|^2 the pin reads 12 p |W_J| T_kk T_ll n_l = |W_f|^2 q
    (3 T_kk T_ll n_l + T_kl n_k T_ll + T_kl T_kk n_l).  It raises ValueError otherwise.
    Each mu'_J is held as a reduced pair (p, q), q > 0; `mu_prime` is the same map as
    read-only Fractions."""

    __hash__ = None  # equal by value, and unhashable as the map it holds is

    def __init__(self, system: RootSystemId, mu_prime: dict[tuple[int, ...], Fraction]):
        """mu_prime maps each J to an int or a Fraction."""
        n = system.rank
        if MAX_SUBSETS >> n == 0:  # 2^n > MAX_SUBSETS, without an n-bit power
            raise ValueError("coefficients for %s would need 2^%d subsets, exceeding cap %d"
                             % (system, n, MAX_SUBSETS))
        if len(mu_prime) != 2 ** n or mu_prime.keys() != set(subsets(tuple(range(1, n + 1)))):
            raise ValueError("coefficients for %s must cover exactly the %d subsets of 1..%d"
                             % (system, 2 ** n, n))
        pairs = {J: (v.numerator, v.denominator) for J, v in mu_prime.items()}
        data, top = build_root_system(system), tuple(range(1, n + 1))
        if pairs[()] != (data.wf_order, 1):
            raise ValueError("mu'_empty != |W_f|")
        if pairs[top] != (data.wf_order, 1):
            raise ValueError("mu'_top != 1/vol(A_id)")
        for i in top:  # a transverse cone of codimension 1 is a ray, of mu 1/2
            J = top[:i - 1] + top[i:]
            if 2 * weyl_order(data, J) * pairs[J][0] != data.wf_order ** 2 * pairs[J][1]:
                raise ValueError("mu'_{I-i} != |W_f|^2 / (2 |W_{I-i}|) at i=%d" % i)
        norms = data.simple_root_norms
        for k, l in combinations(top, 2):  # of codimension 2, a wedge
            J = tuple(j for j in top if j not in (k, l))
            kk, ll, kl = _wedge(data, k, l)
            (p, q), nk, nl = pairs[J], norms[k - 1], norms[l - 1]
            if (12 * p * weyl_order(data, J) * kk * ll * nl
                    != data.wf_order ** 2 * q * (3 * kk * ll * nl + kl * nk * ll + kl * kk * nl)):
                raise ValueError("mu'_{I-k-l} != |W_f|^2 (1/4 + (g_kl/g_kk + g_kl/g_ll)/12)"
                                 " / |W_{I-k-l}| at k=%d l=%d" % (k, l))
        self.system = system
        self._pairs = pairs

    @cached_property
    def mu_prime(self) -> MappingProxyType:
        from fractions import Fraction
        return MappingProxyType({J: Fraction(p, q) for J, (p, q) in self._pairs.items()})

    def __eq__(self, other):
        if not isinstance(other, GeometricCoefficients):
            return NotImplemented
        return (self.system, self._pairs) == (other.system, other._pairs)

    def to_json(self) -> dict:
        """The file format; provenance is read off J, as closed forms pin () and 1..n."""
        from . import __version__
        key = lambda J: ",".join(map(str, J))
        data = build_root_system(self.system)
        every = sorted(self._pairs)
        return {
            "schema": 1,
            "version": __version__,
            "system": str(self.system),
            "mu_prime": {key(J): _ratio_text(*self._pairs[J]) for J in every},
            "provenance": {key(J): "closed-form" if len(J) in (0, data.rank) else "fitted"
                           for J in every},
            "gram": {key(J): _ratio_text(*_gram(data, J)) for J in every},
        }

    @staticmethod
    def from_json(obj) -> "GeometricCoefficients":
        """The coefficients of which obj is the to_json(), and nothing else: obj must equal
        to_json() of the result field for field and type for type, no field missing or
        extra.  Anything else raises ValueError, naming every field that differs."""
        try:
            name = obj["system"]
            system = RootSystemId(name[0], int(name[1:]))
            pairs = {}
            for key, val in obj["mu_prime"].items():
                if not _RATIONAL.fullmatch(val):
                    raise ValueError("mu_prime %r: %r is not a rational" % (key, val))
                p, _, q = val.partition("/")
                p, q = int(p), int(q or 1)
                g = math.gcd(p, q)
                pairs[tuple(map(int, key.split(","))) if key else ()] = _Ratio(p // g, q // g)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValueError("malformed coefficient object: %s %s"
                             % (type(exc).__name__, exc)) from None
        coeffs = GeometricCoefficients(system, pairs)
        written = coeffs.to_json()
        # the values to_json writes are ints, strings and maps of strings to strings, so
        # the type of each field and == decide equality as JSON
        differ = sorted((field for field in written.keys() | obj.keys()
                         if field not in written or field not in obj
                         or type(obj[field]) is not type(written[field])
                         or obj[field] != written[field]), key=str)
        if differ:
            raise ValueError("coefficient object differs from what to_json writes in %s"
                             % ", ".join(map(str, differ)))
        return coeffs


def evaluate_formula(data: RootSystemData, coeffs: GeometricCoefficients, lam) -> int:
    """sum_J mu'_J r_J(lambda); must land on a non-negative integer.

    With mu'_J = p_J / q_J and r_J(lambda) = |W_J| R_J / (|J|! Delta_J) (`volumes`),
    the sum is sum_J p_J |W_J| R_J (L / d_J) / L over d_J = q_J |J|! Delta_J and
    L = lcm_J d_J, all in integers, and one division by L.  The coefficients are valid
    by construction; ones of another system raise ValueError.
    """
    lam = dominant_coweight(data.rank, lam)
    if coeffs.system != data.id:
        raise ValueError("coefficients are for %s, not %s" % (coeffs.system, data.id))
    R = {(): 1}
    _scaled_volumes(data, lam, tuple(range(1, data.rank + 1)), R)
    terms = []  # (p_J |W_J| R_J, d_J)
    for J, (p, q) in coeffs._pairs.items():
        order, _, _, _, scale = _pyramid(data, J)
        terms.append((p * order * R[J], q * math.factorial(len(J)) * scale))
    L = math.lcm(*(d for _, d in terms))
    total, rest = divmod(sum(a * (L // d) for a, d in terms), L)
    if rest or total < 0:
        raise FormulaConsistencyError("formula evaluation inconsistent at %r" % (lam,))
    return total


# -- fitting -------------------------------------------------------------------------

def _berline_vergne(data: RootSystemData, f) -> dict:
    """Every mu'_J by the local Euler-Maclaurin formula of Berline and Vergne (*Local
    Euler-Maclaurin formula for polytopes*, Moscow Math. J. 7, 2007): no lattice count.

    P(lambda) has [W_f : W_J] congruent faces of type J, of lattice volume r_J(lambda),
    so mu'_J = |W_f|^2 mu(t_J) / |W_J|, t_J the unimodular cone on the projections v_k of
    -alpha_k^v, k not in J, orthogonal to the alpha_j^v, j in J.  On the line t eta, with
    f_a = |alpha_a|^2 <eta, alpha_a^v> > 0, <eta, v_k> is the negative number
    c_k^A = -(f_k - sum_{a,b in A} f_a (adj C_A)_ab C_bk / det C_A) / |alpha_k|^2.  From
    A = 1..n down, Q_A = t^{n-|A|} mu_A(t), truncated at t^n, is

        prod_{k not in A} (-sum_m B_m (c_k^A)^{m-1} t^m / m!)
        - sum_{B strictly containing A} Q_B prod_{b in B-A} (-1 / c_b^A),

    nought below t^{n-|A|}, else FitVerificationError, and mu(t_A) at t^{n-|A|}.
    """
    from fractions import Fraction
    n, C, norms = data.rank, data.cartan, data.simple_root_norms
    bernoulli = [Fraction(1)]
    for m in range(1, n + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bernoulli)) / (m + 1))
    todd = [-b / math.factorial(m) for m, b in enumerate(bernoulli)]
    Q, mu = {}, {}
    for A in reversed(subsets(tuple(range(1, n + 1)))):
        order, det, adj, _, _ = _pyramid(data, A)
        rest = tuple(k for k in range(1, n + 1) if k not in A)
        c = {k: Fraction(sum(f[a - 1] * x * C[b - 1][k - 1] for a, row in zip(A, adj)
                             for b, x in zip(A, row)) - f[k - 1] * det, det * norms[k - 1])
             for k in rest}
        series = [Fraction(1)] + [Fraction(0)] * n
        for k in rest:
            factor = [t * c[k] ** (m - 1) for m, t in enumerate(todd)]
            series = [sum(x * factor[m - i] for i, x in enumerate(series[:m + 1]) if x)
                      for m in range(n + 1)]
        for S in subsets(rest)[1:]:
            factor = (-1) ** len(S) / math.prod(c[b] for b in S)
            series = [x - factor * q if q else x for x, q in zip(series, Q[tuple(sorted(A + S))])]
        if any(series[:n - len(A)]):
            raise FitVerificationError("fit failed verification: a pole at J=%r" % (A,))
        Q[A] = series
        mu[A] = Fraction(data.wf_order ** 2, order) * series[n - len(A)]
    return mu


def fit_mu(data: RootSystemData, box_cap: int = DEFAULT_BOX_CAP) -> GeometricCoefficients:
    """mu' by `_berline_vergne` at two directions, proved on T_n by lattice counts.

    Both sides of |<= theta(lambda)| = sum_J mu'_J r_J(lambda) have degree <= n on
    dominant lambda: the count is McMullen's mixed lattice-point polynomial of
    sum_i lambda_i (P(w_i^v) - w_i^v) (*Valuations and Euler-type relations on certain
    classes of convex polytopes*, 1977).  T_n = {lambda >= 0 : sum_i lambda_i <= n} is
    unisolvent for that degree (Chung and Yao, *On lattices admitting unique Lagrange
    interpolations*, 1977), so agreement on its C(2n, n) points proves the formula.  The
    points come by stars and bars, lambda = 0 first; each is counted once and checked at
    once, and none is kept, so the first point where the formula differs from the count
    or leaves the non-negative integers raises FitVerificationError, naming it, before
    any later point is counted.  A mu' that depends on the direction or fails the pins
    raises it too.  n w_i^v, i of largest mark, tops T_n in level, so its budget check
    refuses before any count that would.
    """
    from .orbits import check_level_budget, interval_size_lattice
    n = data.rank
    check_subset_cap(data.id, n)
    top = data.marks.index(max(data.marks))
    check_level_budget(data, [n * (i == top) for i in range(n)], box_cap)
    mu = _berline_vergne(data, (1,) * n)
    if _berline_vergne(data, tuple(range(1, n + 1))) != mu:
        raise FitVerificationError("fit failed verification: mu' depends on the direction")
    try:
        coeffs = GeometricCoefficients(data.id, mu)  # the closed-form pins
    except ValueError as exc:
        raise FitVerificationError("fit failed verification: %s" % exc) from None
    for c in combinations(range(2 * n), n):
        lam = tuple(b - a - 1 for a, b in zip((-1,) + c, c))
        count = interval_size_lattice(data, lam, box_cap)
        try:
            wrong = evaluate_formula(data, coeffs, lam) != count
        except FormulaConsistencyError:  # the formula left the non-negative integers here
            wrong = True
        if wrong:
            raise FitVerificationError("fit failed verification at lambda=%r" % (lam,))
    return coeffs
