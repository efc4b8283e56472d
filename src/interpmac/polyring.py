"""Sparse Laurent polynomials in x_1..x_n with Scalar coefficients.

One accumulator, _collect, sums every coefficient: (exponent, Scalar) pairs
in order, pairwise with Scalar +, a sum that reaches zero dropped, so a
coefficient's generator set depends on that order.  Summing each monomial
once (scalars.linear_combination) was measured slower: +20% wall on check
all --n 3 --deg 3 through + and *, +30% CPU on symbolic q,t substitution,
whose coefficients like 1/q put denominators into the one sum.

A polynomial that is only compared takes unreduced() first: each
coefficient becomes a scalars.Quotient over one common denominator, and
every operation here then runs unchanged on integer numerators with no
gcd, because Quotient arithmetic never reduces.  Constructions keep
canonical Scalars: reducing once per coefficient after an unreduced
recursion step was measured slower."""

from __future__ import annotations

from math import comb
from operator import add
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (DegreeError, DimensionError, DivisionByZero,
                     UnsupportedSubstitution, UsageError)
from .scalars import (Quotient, Scalar, evaluate_laurent, evaluation_plan,
                      over_one_denominator)
from .shapes import Permutation


def _collect(pairs: Iterable[tuple], terms: Optional[Mapping] = None) -> dict:
    """A copy of terms with the (exponent, Scalar) pairs summed in."""
    out = {} if terms is None else dict(terms)
    for e, c in pairs:
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _products(a: Mapping, b: Mapping) -> Iterator[tuple]:
    """The pairs of a product of two term dicts, the smaller one outer."""
    if len(b) < len(a):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            yield tuple(map(add, ea, eb)), ca * cb


class LaurentPoly:
    """Map from integer exponent vectors to nonzero Scalars.

    A check may hold unreduced Quotients as the coefficients instead (see
    unreduced), to compare two polynomials monomial by monomial without
    reducing; such a polynomial goes through the ring operations,
    substitutions and operators, is compared (==, is_zero) and printed,
    but is not hashed, evaluated or serialized."""

    __slots__ = ("n", "terms", "_plan")

    def __init__(self, n: int, terms: Optional[Mapping] = None, _clean=False):
        self.n = n
        self._plan = None  # see evaluate_unreduced
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

    def unreduced(self) -> "LaurentPoly":
        """The same polynomial with every coefficient num/den an unreduced
        Quotient num*(L/den) over the lcm L of the denominators, all
        terms on one list of L's pieces: sums of its coefficients, and
        of their products with one Scalar, add numerators only."""
        if not self.terms:
            return self
        return LaurentPoly(self.n, dict(zip(
            self.terms, over_one_denominator(list(self.terms.values())))),
            _clean=True)

    # -- ring structure ---------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.n != other.n:
            raise DimensionError("variable count mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly(self.n, _collect(other.terms.items(), self.terms),
                           _clean=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        return LaurentPoly(self.n, _collect(_products(self.terms, other.terms)),
                           _clean=True)

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
        out = LaurentPoly.constant(self.n, Scalar.one(some.gens))
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
        """Exact value at a sequence of Scalars: the value of
        evaluate_unreduced, reduced once, which gives the same canonical
        form as a term-by-term sum."""
        return self.evaluate_unreduced(point).reduced()

    def evaluate_unreduced(self, point) -> Quotient:
        """Exact value at a sequence of Scalars, as the sum of the terms
        over one common denominator, not reduced (see
        scalars.evaluate_laurent).  What depends only on the terms (the
        exponent shape, the lcm pieces and each coefficient's cofactor)
        is planned on the first evaluation and kept in _plan, one plan
        for every point (terms never change after construction)."""
        coords = tuple(point)
        if len(coords) != self.n:
            raise DimensionError("point length mismatch")
        if self._plan is None and self.terms:
            self._plan = evaluation_plan(self.terms)
        return evaluate_laurent(self.terms, coords, self._plan)

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
        d = 0.  Each term is summed before it is added to the result."""
        n = self.n
        powers: dict = {}

        def power(i: int, k: int) -> dict:
            """(c*x_j + d)^k by the binomial theorem, highest power first;
            the coefficient of x_j^k has the generators of c, the others
            those of c and d (of d alone when c = 0)."""
            if (i, k) not in powers:
                c, j, d = maps[i]
                if k < 0 and not d.is_zero():
                    raise UnsupportedSubstitution(
                        f"negative power of x_{i} under a non-monomial map")
                if k < 0 and c.is_zero():
                    raise DivisionByZero(f"x_{i} mapped to zero at negative power")
                if d.is_zero():
                    coeffs = [(k, c ** k)]
                elif c.is_zero():
                    coeffs = [(0, d ** k)]
                else:
                    coeffs = [(k, c ** k)] + [(m, comb(k, m) * c ** m * d ** (k - m))
                                              for m in range(k - 1, -1, -1)]
                powers[i, k] = {tuple(m if v == j else 0 for v in range(1, n + 1)): x
                                for m, x in coeffs if not x.is_zero()}
            return powers[i, k]

        def pairs():
            for e, c in self.terms.items():
                term = {tuple(0 if i in maps else k for i, k in enumerate(e, 1)): c}
                for i, k in enumerate(e, 1):
                    if k and i in maps:
                        term = _collect(_products(term, power(i, k)))
                yield from term.items()

        return LaurentPoly(n, _collect(pairs()), _clean=True)

    # -- divided differences ---------------------------------------------------------

    def swap_adjacent(self, i: int) -> "LaurentPoly":
        """s_i f: exchange x_i and x_{i+1}."""
        return LaurentPoly(self.n, {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: c
                                    for e, c in self.terms.items()}, _clean=True)

    def divided_difference(self, i: int) -> "LaurentPoly":
        """(f - s_i f) / (x_i - x_{i+1}), exact by telescoping: for p > s,
        c x_i^p x_{i+1}^s gives c x_i^(p-1-k) x_{i+1}^(s+k) for k < p - s,
        and c x_i^s x_{i+1}^p gives their negatives.  exact_div_check
        reverifies the division by multiplying back."""
        def pairs():
            for e, c in self.terms.items():
                p, s = e[i - 1], e[i]
                if p < s:
                    p, s, c = s, p, -c
                for k in range(p - s):
                    yield e[:i - 1] + (p - 1 - k, s + k) + e[i + 1:], c

        return LaurentPoly(self.n, _collect(pairs()), _clean=True)

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
        n = data["n"]
        if type(n) is not int:
            raise UsageError("the variable count n must be an int")
        terms = {tuple(t["exp"]): Scalar.from_json(t["coeff"])
                 for t in data["terms"]}
        if any(len(e) != n for e in terms):
            raise DimensionError(f"an exponent vector of length other "
                                 f"than n = {n}")
        if any(type(k) is not int for e in terms for k in e) \
                or len(terms) != len(data["terms"]):
            raise UsageError("exponents must be distinct vectors of ints")
        return LaurentPoly(n, terms)


def exact_div_check(f: LaurentPoly, quotient: LaurentPoly, i: int) -> bool:
    """Verify quotient * (x_i - x_{i+1}) == f - s_i f."""
    n = f.n
    if quotient.is_zero():
        return f == f.swap_adjacent(i)
    one = Scalar.one(next(iter(quotient.terms.values())).gens)
    diff = LaurentPoly.variable(n, i, one) - LaurentPoly.variable(n, i + 1, one)
    return quotient * diff == f - f.swap_adjacent(i)


def shift_all(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f(x_1 + c, ..., x_n + c)."""
    one = Scalar.one(c.gens)
    return f.affine_substitute({i: (one, i, c) for i in range(1, f.n + 1)})


def scale_all(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f(c x_1, ..., c x_n)."""
    zero = Scalar.zero(c.gens)
    return f.affine_substitute({i: (c, i, zero) for i in range(1, f.n + 1)})


def negate_shift_all(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f(-x_1 - c, ..., -x_n - c)."""
    one = Scalar.one(c.gens)
    return f.affine_substitute({i: (-one, i, -c) for i in range(1, f.n + 1)})
