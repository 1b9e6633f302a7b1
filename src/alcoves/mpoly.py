"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a dict from exponent tuples to nonzero Fractions.
Serialization orders exponent vectors lexicographically so equal
polynomials always produce identical JSON.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import rational_to_str


class MPoly:
    """Polynomial in `nvars` variables, exponent-vector -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector %r" % (expo,))
            clean[expo] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @staticmethod
    def constant(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly(nvars, {expo: Fraction(1)})

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MPoly(self.nvars, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            s = Fraction(other)
            return MPoly(self.nvars, {e: c * s for e, c in self.terms.items()})
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, terms)

    __rmul__ = __mul__

    def eval(self, point: Sequence) -> Fraction:
        pt = [Fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for expo, c in self.terms.items():
            v = c
            for x, e in zip(pt, expo):
                if e:
                    v *= x ** e
            total += v
        return total

    def to_json(self) -> dict:
        return {",".join(map(str, e)): rational_to_str(c)
                for e, c in sorted(self.terms.items())}

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join("m%d^%d" % (i + 1, x) for i, x in enumerate(e) if x)
            bits.append("%s%s" % (c, "*" + mono if mono else ""))
        return "MPoly(%s)" % " + ".join(bits)

