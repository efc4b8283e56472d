"""Sparse Laurent polynomials in x_1..x_n with Scalar coefficients."""

from __future__ import annotations

from operator import add
from typing import Mapping, Optional, Sequence

from .errors import (DegreeError, DimensionError, DivisionByZero,
                     UnsupportedSubstitution)
from .scalars import Quotient, Scalar, evaluate_laurent
from .shapes import Permutation


class LaurentPoly:
    """Map from integer exponent vectors to nonzero Scalars.

    A check may hold unreduced Quotients as the coefficients instead, to
    compare two polynomials monomial by monomial without reducing; such
    a polynomial is only compared (==, is_zero) and printed."""

    __slots__ = ("n", "terms", "_plans")

    def __init__(self, n: int, terms: Optional[Mapping] = None, _clean=False):
        self.n = n
        self._plans = None  # see evaluate
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = dict(terms)
        else:
            self.terms = {tuple(e): c for e, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "LaurentPoly":
        return LaurentPoly(n, {}, _clean=True)

    @staticmethod
    def constant(n: int, c: Scalar) -> "LaurentPoly":
        if c.is_zero():
            return LaurentPoly.zero(n)
        return LaurentPoly(n, {(0,) * n: c}, _clean=True)

    @staticmethod
    def monomial(n: int, exp: Sequence[int], c: Scalar) -> "LaurentPoly":
        if len(exp) != n:
            raise DimensionError("exponent length mismatch")
        if c.is_zero():
            return LaurentPoly.zero(n)
        return LaurentPoly(n, {tuple(exp): c}, _clean=True)

    @staticmethod
    def variable(n: int, i: int, one: Scalar) -> "LaurentPoly":
        """x_i (1-based) with the given unit coefficient."""
        e = tuple(1 if j == i else 0 for j in range(1, n + 1))
        return LaurentPoly(n, {e: one}, _clean=True)

    # -- ring structure ---------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.n != other.n:
            raise DimensionError("variable count mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(self.n, out, _clean=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(b) < len(a):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                p = ca * cb
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(self.n, out, _clean=True)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "LaurentPoly":
        if c.is_zero():
            return LaurentPoly.zero(self.n)
        return LaurentPoly(self.n, {e: x * c for e, x in self.terms.items()},
                           _clean=True)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise DivisionByZero("negative power of a polynomial")
        if not self.terms:
            if k == 0:
                raise DivisionByZero("0^0 of the zero polynomial")
            return self
        some = next(iter(self.terms.values()))
        out = LaurentPoly.constant(self.n, some.__class__.one(some.gens))
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        return all(min(e) >= 0 for e in self.terms)

    def total_degree(self) -> int:
        """Max exponent sum; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    # -- queried structure --------------------------------------------------------

    def coefficient(self, exp: Sequence[int], zero: Scalar) -> Scalar:
        return self.terms.get(tuple(exp), zero)

    def top_part(self, d: int) -> "LaurentPoly":
        """Sum of terms of total degree exactly d; raises DegreeError if
        any term exceeds d."""
        if any(sum(e) > d for e in self.terms):
            raise DegreeError(f"terms above degree {d}")
        return LaurentPoly(self.n, {e: c for e, c in self.terms.items()
                                    if sum(e) == d}, _clean=True)

    # -- evaluation and substitution -------------------------------------------------

    def evaluate(self, point) -> Scalar:
        """Exact value at a SpectralPoint or sequence of Scalars: the
        value of evaluate_unreduced, reduced once, which gives the same
        canonical form as a term-by-term sum."""
        return self.evaluate_unreduced(point).reduced()

    def evaluate_unreduced(self, point) -> Quotient:
        """Exact value at a SpectralPoint or sequence of Scalars, as the
        sum of the terms over one common denominator, not reduced (see
        scalars.evaluate_laurent).  The coefficient part of that work,
        the lcm pieces and each coefficient's cofactor, is planned on the
        first evaluation over a generator set and kept in _plans (terms
        never change after construction)."""
        coords = tuple(point)
        if len(coords) != self.n:
            raise DimensionError("point length mismatch")
        if self._plans is None:
            self._plans = {}
        return evaluate_laurent(self.terms, coords, self._plans)

    def permute_vars(self, w: Permutation) -> "LaurentPoly":
        """(w.f)(x) = f at the w-permuted variables: exponent vectors
        transform by the shapes-module vector action."""
        if w.n != self.n:
            raise DimensionError("permutation size mismatch")
        return LaurentPoly(self.n, {w.act(e): c for e, c in self.terms.items()},
                           _clean=True)

    def affine_substitute(self, maps: Mapping[int, tuple]) -> "LaurentPoly":
        """Substitute x_i -> c*x_j + d per the map {i: (c, j, d)}; variables
        absent from the map are untouched.  Negative powers of x_i require
        d = 0."""
        factor_cache: dict = {}

        def factor_power(i: int, k: int) -> "LaurentPoly":
            got = factor_cache.get((i, k))
            if got is not None:
                return got
            c, j, d = maps[i]
            if k >= 0:
                base = LaurentPoly(self.n, {
                    tuple(1 if m == j else 0 for m in range(1, self.n + 1)): c})
                if not d.is_zero():
                    base = base + LaurentPoly.constant(self.n, d)
                out = base ** k
            else:
                if not d.is_zero():
                    raise UnsupportedSubstitution(
                        f"negative power of x_{i} under a non-monomial map")
                if c.is_zero():
                    raise DivisionByZero(f"x_{i} mapped to zero at negative power")
                e = tuple(k if m == j else 0 for m in range(1, self.n + 1))
                out = LaurentPoly(self.n, {e: c ** k})
            factor_cache[(i, k)] = out
            return out

        result = LaurentPoly.zero(self.n)
        for e, coeff in self.terms.items():
            term = None
            passive = [0] * self.n
            for i1 in range(1, self.n + 1):
                k = e[i1 - 1]
                if k == 0:
                    continue
                if i1 in maps:
                    f = factor_power(i1, k)
                    term = f if term is None else term * f
                else:
                    passive[i1 - 1] = k
            if term is None:
                term = LaurentPoly(self.n, {(0,) * self.n: coeff}, _clean=True)
            else:
                term = term.scale(coeff)
            if any(passive):
                term = LaurentPoly(self.n, {
                    tuple(x + y for x, y in zip(ex, passive)): c
                    for ex, c in term.terms.items()}, _clean=True)
            result = result + term
        return result

    # -- divided differences ---------------------------------------------------------

    def swap_adjacent(self, i: int) -> "LaurentPoly":
        """s_i f: exchange x_i and x_{i+1}."""
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i - 1], ne[i] = ne[i], ne[i - 1]
            out[tuple(ne)] = c
        return LaurentPoly(self.n, out, _clean=True)

    def divided_difference(self, i: int) -> "LaurentPoly":
        """(f - s_i f) / (x_i - x_{i+1}), exact by telescoping.
        exact_div_check reverifies the division by multiplying back."""
        out = LaurentPoly.zero(self.n)
        a, b = i - 1, i
        for e, c in self.terms.items():
            p, s = e[a], e[b]
            if p == s:
                continue
            neg = p < s
            if neg:
                p, s = s, p
            terms = {}
            for k in range(p - s):
                ne = list(e)
                ne[a] = s + (p - s - 1) - k
                ne[b] = s + k
                ne = tuple(ne)
                terms[ne] = (terms[ne] - c if neg else terms[ne] + c) \
                    if ne in terms else (-c if neg else c)
            out = out + LaurentPoly(self.n, terms)
        return out

    # -- presentation ------------------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0])))

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}^{k}" if k != 1 else f"x{i+1}"
                for i, k in enumerate(e) if k)
            cs = str(c)
            if mono:
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                else:
                    if ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and not (
                            cs.startswith("(") and cs.endswith(")")):
                        cs = f"({cs})"
                    parts.append(f"{cs}*{mono}")
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<poly n={self.n}: {self.pretty()}>"

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"exp": list(e), "coeff": c.to_json()}
                          for e, c in self.sorted_terms()]}

    @staticmethod
    def from_json(data: Mapping) -> "LaurentPoly":
        terms = {tuple(t["exp"]): Scalar.from_json(t["coeff"])
                 for t in data["terms"]}
        return LaurentPoly(data["n"], terms)


def exact_div_check(f: LaurentPoly, quotient: LaurentPoly, i: int) -> bool:
    """Verify quotient * (x_i - x_{i+1}) == f - s_i f."""
    n = f.n
    if quotient.is_zero():
        return f == f.swap_adjacent(i)
    one = next(iter(quotient.terms.values()))
    one = one.__class__.one(one.gens)
    diff = LaurentPoly.variable(n, i, one) - LaurentPoly.variable(n, i + 1, one)
    return quotient * diff == f - f.swap_adjacent(i)


def shift_all(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f(x_1 + c, ..., x_n + c)."""
    one = c.__class__.one(c.gens)
    return f.affine_substitute({i: (one, i, c) for i in range(1, f.n + 1)})


def scale_all(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f(c x_1, ..., c x_n)."""
    zero = c.__class__.zero(c.gens)
    return f.affine_substitute({i: (c, i, zero) for i in range(1, f.n + 1)})


def negate_shift_all(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f(-x_1 - c, ..., -x_n - c)."""
    one = c.__class__.one(c.gens)
    return f.affine_substitute({i: (-one, i, -c) for i in range(1, f.n + 1)})
