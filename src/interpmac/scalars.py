"""Exact coefficient arithmetic.

Two kinds of scalars share one representation: plain rationals (empty
generator set) and reduced fractions of integer-coefficient polynomials
in an ordered subset of the generators q, t, r, a.  Every operation
returns a canonical form, so structural equality is mathematical
equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable, Mapping, Sequence

from .errors import DivisionByZero, SpecializationCollision, UsageError

GEN_ORDER = ("q", "t", "r", "a")

Terms = dict  # exponent tuple -> nonzero int coefficient

_ONE: Terms = {(): 1}


# ---------------------------------------------------------------------------
# integer-coefficient polynomial dictionaries
# ---------------------------------------------------------------------------

def _dict_const(c: int, k: int) -> Terms:
    return {(0,) * k: c} if c else {}


def _dict_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _dict_neg(a: Terms) -> Terms:
    return {e: -c for e, c in a.items()}


def _dict_mul(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out: Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _grlex_key(e: tuple) -> tuple:
    return (sum(e), e)


def _leading_coeff(a: Terms) -> int:
    """Coefficient of the graded-lex leading term (0 for the zero poly)."""
    if not a:
        return 0
    return a[max(a, key=_grlex_key)]


def _dict_divexact(a: Terms, b: Terms, k: int) -> Terms:
    """Exact multivariate division a / b; raises if not exact."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(b) == 1:
        (eb, cb), = b.items()
        out: Terms = {}
        for ea, ca in a.items():
            e = tuple(x - y for x, y in zip(ea, eb))
            if any(x < 0 for x in e) or ca % cb:
                raise ArithmeticError("inexact polynomial division")
            out[e] = ca // cb
        return out
    rem = dict(a)
    quot: Terms = {}
    eb = max(b, key=_grlex_key)
    cb = b[eb]
    while rem:
        ea = max(rem, key=_grlex_key)
        ca = rem[ea]
        e = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in e) or ca % cb:
            raise ArithmeticError("inexact polynomial division")
        q = ca // cb
        quot[e] = q
        for eb2, cb2 in b.items():
            et = tuple(x + y for x, y in zip(e, eb2))
            s = rem.get(et, 0) - q * cb2
            if s:
                rem[et] = s
            else:
                rem.pop(et, None)
    return quot


# --- multivariate gcd: recursive content / primitive part over a primitive
# --- pseudo-remainder sequence in the last generator ------------------------

def _split_main(a: Terms) -> dict:
    """View a k-generator poly as univariate in the last generator."""
    out: dict[int, Terms] = {}
    for e, c in a.items():
        out.setdefault(e[-1], {})[e[:-1]] = c
    return out


def _join_main(uni: Mapping[int, Terms]) -> Terms:
    out: Terms = {}
    for d, sub in uni.items():
        for e, c in sub.items():
            out[e + (d,)] = c
    return out


def _poly_content(a: Terms, k: int) -> Terms:
    """gcd of the coefficients of a, viewed in the last generator."""
    uni = _split_main(a)
    unit = {(0,) * (k - 1): 1}
    g: Terms = {}
    for sub in uni.values():
        g = _poly_gcd(g, sub, k - 1)
        if g == unit:
            break
    return g


def _uni_gcd_int(a: dict, b: dict) -> dict:
    """Primitive-PRS gcd of univariate integer polynomials given as
    degree -> coefficient maps; positive leading coefficient."""
    def content(p):
        g = 0
        for c in p.values():
            g = int_gcd(g, c)
            if g == 1:
                return 1
        return g

    ca, cb = content(a), content(b)
    c = int_gcd(ca, cb)
    f = {d: x // ca for d, x in a.items()}
    g = {d: x // cb for d, x in b.items()}
    if max(f) < max(g):
        f, g = g, f
    while g:
        dg = max(g)
        lcg = g[dg]
        r = f
        while r and max(r) >= dg:
            dr = max(r)
            lcr = r[dr]
            nr = {}
            for d, x in r.items():
                nr[d] = x * lcg
            for d, x in g.items():
                dd = d + dr - dg
                s = nr.get(dd, 0) - x * lcr
                if s:
                    nr[dd] = s
                else:
                    nr.pop(dd, None)
            r = nr
        f = g
        if r:
            cr = content(r)
            g = {d: x // cr for d, x in r.items()}
        else:
            g = {}
    if f[max(f)] < 0:
        c = -c
    return {d: c * x for d, x in f.items()}


def _uni_mul(a: Mapping[int, Terms], b: Mapping[int, Terms]) -> dict:
    out: dict[int, Terms] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            prod = _dict_mul(ca, cb)
            out[d] = _dict_add(out[d], prod) if d in out else prod
    return {d: c for d, c in out.items() if c}


def _uni_sub(a: Mapping[int, Terms], b: Mapping[int, Terms]) -> dict:
    out = {d: dict(c) for d, c in a.items()}
    for d, c in b.items():
        s = _dict_add(out.get(d, {}), _dict_neg(c))
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _pseudo_rem(f: dict, g: dict, k: int) -> dict:
    """Pseudo-remainder of univariate polys with k-generator coefficients."""
    dg = max(g)
    lcg = {0: g[dg]}
    r = f
    while r and max(r) >= dg:
        dr = max(r)
        lcr = r[dr]
        shifted = {d + dr - dg: c for d, c in g.items()}
        r = _uni_sub(_uni_mul(r, lcg), _uni_mul(shifted, {0: lcr}))
    return r


def _monomial_gcd(mono: Terms, other: Terms) -> Terms:
    (em, cm), = mono.items()
    g = abs(cm)
    for c in other.values():
        g = int_gcd(g, c)
        if g == 1:
            break
    exps = [min(e[i] for e in other) for i in range(len(em))]
    return {tuple(min(x, y) for x, y in zip(em, exps)): g}


def _poly_gcd(a: Terms, b: Terms, k: int) -> Terms:
    """gcd of integer-coefficient polys in k generators, with positive
    graded-lex leading coefficient."""
    if not a:
        g = dict(b)
    elif not b:
        g = dict(a)
    elif k == 0:
        return {(): int_gcd(a[()], b[()])}
    elif len(a) == 1:
        return _monomial_gcd(a, b)
    elif len(b) == 1:
        return _monomial_gcd(b, a)
    elif k == 1:
        g = _uni_gcd_int({e[0]: c for e, c in a.items()},
                         {e[0]: c for e, c in b.items()})
        return {(d,): c for d, c in g.items()}
    else:
        da = max(e[-1] for e in a)
        db = max(e[-1] for e in b)
        if da == 0 or db == 0:
            # one side is free of the main generator: its gcd with the
            # other can only involve the other's content
            flat_a = a if da else {e[:-1]: c for e, c in a.items()}
            flat_b = b if db else {e[:-1]: c for e, c in b.items()}
            ca = _poly_content(a, k) if da else flat_a
            cb = _poly_content(b, k) if db else flat_b
            g = _lift_terms_mul(_poly_gcd(ca, cb, k - 1))
        else:
            ua, ub = _split_main(a), _split_main(b)
            ca = _poly_content(a, k)
            cb = _poly_content(b, k)
            cont = _poly_gcd(ca, cb, k - 1)
            fa = {d: _dict_divexact(c, ca, k - 1) for d, c in ua.items()}
            fb = {d: _dict_divexact(c, cb, k - 1) for d, c in ub.items()}
            if max(fa) < max(fb):
                fa, fb = fb, fa
            while fb:
                r = _pseudo_rem(fa, fb, k)
                fa = fb
                if r:
                    rc = _poly_content(_join_main(r), k)
                    fb = {d: _dict_divexact(c, rc, k - 1)
                          for d, c in r.items()}
                else:
                    fb = {}
            g = _dict_mul(_join_main(fa), _lift_terms_mul(cont))
    if _leading_coeff(g) < 0:
        g = _dict_neg(g)
    return g


def _lift_terms(terms: Terms, pos: Sequence[int], k: int) -> Terms:
    """Re-index exponents into k generators, old generator j going to
    position pos[j]."""
    if all(p == j for j, p in enumerate(pos)):
        pad = (0,) * (k - len(pos))
        return {e + pad: c for e, c in terms.items()}
    out = {}
    for e, c in terms.items():
        ne = [0] * k
        for p, x in zip(pos, e):
            ne[p] = x
        out[tuple(ne)] = c
    return out


def _lift_terms_mul(sub: Terms) -> Terms:
    """Embed a (k-1)-generator poly as a degree-0 poly in the k-th one."""
    return {e + (0,): c for e, c in sub.items()}


def _dict_eval(a: Terms, gens: Sequence[str], at: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        v = Fraction(c)
        for g, p in zip(gens, e):
            if p:
                v *= Fraction(at[g]) ** p
        total += v
    return total


def _dict_degree_in(a: Terms, idx: int) -> int:
    return max((e[idx] for e in a), default=0)


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Q or of the fraction field Q(gens), gens an ordered
    subset of (q, t, r, a).

    Canonical form: numerator and denominator are coprime integer
    polynomials and the denominator has positive graded-lex leading
    coefficient.  Instances are immutable and hashable.
    """

    __slots__ = ("gens", "num", "den", "_hash")

    def __init__(self, gens: tuple, num: Terms, den: Terms, _canonical=False):
        if not _canonical:
            gens, num, den = _reduce_parts(gens, num, den)
        self.gens = gens
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(x, gens: tuple = ()) -> "Scalar":
        f = Fraction(x)
        k = len(gens)
        num = _dict_const(f.numerator, k)
        den = _dict_const(f.denominator, k)
        return Scalar(gens, num, den, _canonical=True)

    @staticmethod
    def generator(name: str, gens: tuple) -> "Scalar":
        if name not in gens:
            raise UsageError(f"generator {name!r} not among {gens}")
        e = tuple(1 if g == name else 0 for g in gens)
        return Scalar(gens, {e: 1}, _dict_const(1, len(gens)), _canonical=True)

    @staticmethod
    def zero(gens: tuple = ()) -> "Scalar":
        return Scalar(gens, {}, _dict_const(1, len(gens)), _canonical=True)

    @staticmethod
    def one(gens: tuple = ()) -> "Scalar":
        k = len(gens)
        return Scalar(gens, _dict_const(1, k), _dict_const(1, k), _canonical=True)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def is_polynomial(self) -> bool:
        return self.den == _dict_const(1, len(self.gens))

    def lift(self, gens: tuple) -> "Scalar":
        """Embed into a larger ordered generator set."""
        if gens == self.gens:
            return self
        if any(g not in gens for g in self.gens):
            raise UsageError(f"cannot lift {self.gens} into {gens}")
        pos = [gens.index(g) for g in self.gens]
        k = len(gens)
        num, den = _lift_terms(self.num, pos, k), _lift_terms(self.den, pos, k)
        if pos != sorted(pos) and _leading_coeff(den) < 0:
            # reordering generators can move the graded-lex leading term
            num, den = _dict_neg(num), _dict_neg(den)
        return Scalar(gens, num, den, _canonical=True)

    def _pair(self, other) -> tuple["Scalar", "Scalar"]:
        if isinstance(other, Scalar):
            if other.gens == self.gens:
                return self, other
            merged = tuple(g for g in GEN_ORDER if g in self.gens or g in other.gens)
            return self.lift(merged), other.lift(merged)
        return self, Scalar.from_fraction(other, self.gens)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        a, b = self._pair(other)
        k = len(a.gens)
        unit = _dict_const(1, k)
        if a.den == unit and b.den == unit:
            return Scalar(a.gens, _dict_add(a.num, b.num), a.den,
                          _canonical=True)
        if not a.num:
            return b
        if not b.num:
            return a
        # denominators-only reduction: with reduced inputs the result
        # below is already canonical
        g1 = _poly_gcd(a.den, b.den, k)
        if g1 == unit:
            num = _dict_add(_dict_mul(a.num, b.den), _dict_mul(b.num, a.den))
            if not num:
                return Scalar.zero(a.gens)
            return Scalar(a.gens, num, _dict_mul(a.den, b.den),
                          _canonical=True)
        db = _dict_divexact(b.den, g1, k)
        da = _dict_divexact(a.den, g1, k)
        t = _dict_add(_dict_mul(a.num, db), _dict_mul(b.num, da))
        if not t:
            return Scalar.zero(a.gens)
        g2 = _poly_gcd(t, g1, k)
        if g2 != unit:
            t = _dict_divexact(t, g2, k)
            den = _dict_mul(da, _dict_divexact(b.den, g2, k))
        else:
            den = _dict_mul(da, b.den)
        return Scalar(a.gens, t, den, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.gens, _dict_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other) -> "Scalar":
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        a, b = self._pair(other)
        k = len(a.gens)
        unit = _dict_const(1, k)
        if a.den == unit and b.den == unit:
            return Scalar(a.gens, _dict_mul(a.num, b.num), a.den,
                          _canonical=True)
        if not a.num or not b.num:
            return Scalar.zero(a.gens)
        g1 = _poly_gcd(a.num, b.den, k)
        g2 = _poly_gcd(b.num, a.den, k)
        na = a.num if g1 == unit else _dict_divexact(a.num, g1, k)
        db = b.den if g1 == unit else _dict_divexact(b.den, g1, k)
        nb = b.num if g2 == unit else _dict_divexact(b.num, g2, k)
        da = a.den if g2 == unit else _dict_divexact(a.den, g2, k)
        return Scalar(a.gens, _dict_mul(na, nb), _dict_mul(da, db),
                      _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        a, b = self._pair(other)
        return a * b.invert()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.from_fraction(other, self.gens) / self

    def invert(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverting zero")
        num, den = self.den, self.num
        if _leading_coeff(den) < 0:
            num, den = _dict_neg(num), _dict_neg(den)
        return Scalar(self.gens, num, den, _canonical=True)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.invert() ** (-k)
        out = Scalar.one(self.gens)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(other, self.gens)
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # equality lifts both sides to a common generator set, so hash a
        # key free of unused generators and of their order (with the sign
        # normalized for the order the key uses); rationals hash like the
        # Fraction they equal
        if self._hash is None:
            used = sorted({i for t in (self.num, self.den) for e in t
                           for i, x in enumerate(e) if x},
                          key=lambda i: self.gens[i])
            if not used:
                self._hash = hash(Fraction(next(iter(self.num.values()), 0),
                                           next(iter(self.den.values()))))
            else:
                num, den = ({tuple(e[i] for i in used): c
                             for e, c in t.items()}
                            for t in (self.num, self.den))
                sign = 1 if _leading_coeff(den) > 0 else -1
                self._hash = hash((
                    tuple(self.gens[i] for i in used),
                    frozenset((e, sign * c) for e, c in num.items()),
                    frozenset((e, sign * c) for e, c in den.items())))
        return self._hash

    # -- specialization ---------------------------------------------------------

    def specialize(self, assignments: Mapping[str, Fraction]) -> Fraction:
        """Exact rational value at the assignment; raises
        SpecializationCollision if the denominator vanishes there."""
        missing = [g for g in self.gens if g not in assignments
                   and (_dict_degree_in(self.num, self.gens.index(g))
                        or _dict_degree_in(self.den, self.gens.index(g)))]
        if missing:
            raise UsageError(f"assignment missing generators {missing}")
        den = _dict_eval(self.den, self.gens, assignments)
        if den == 0:
            raise SpecializationCollision(
                f"denominator vanishes at {dict(assignments)}")
        return _dict_eval(self.num, self.gens, assignments) / den

    # -- presentation ----------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.gens:
            raise UsageError("scalar is symbolic")
        return Fraction(self.num.get((), 0), self.den[()])

    def _poly_str(self, terms: Terms) -> str:
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, key=_grlex_key, reverse=True):
            c = terms[e]
            mono = "*".join(
                f"{g}^{p}" if p != 1 else g
                for g, p in zip(self.gens, e) if p)
            if mono:
                lead = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{lead}{mono}")
            else:
                parts.append(str(c))
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __str__(self) -> str:
        if not self.gens:
            return str(self.as_fraction())
        ns = self._poly_str(self.num)
        if self.is_polynomial():
            return ns
        ds = self._poly_str(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        if not self.gens:
            f = self.as_fraction()
            return f"{f.numerator}/{f.denominator}"
        enc = lambda t: {",".join(map(str, e)): str(c) for e, c in t.items()}
        return {"num": enc(self.num), "den": enc(self.den), "gens": list(self.gens)}

    @staticmethod
    def from_json(data) -> "Scalar":
        if isinstance(data, str):
            if "/" in data:
                p, q = data.split("/")
                return Scalar.from_fraction(Fraction(int(p), int(q)))
            return Scalar.from_fraction(int(data))
        gens = tuple(data["gens"])
        dec = lambda t: {tuple(int(x) for x in e.split(",")) if e else (): int(c)
                         for e, c in t.items()}
        return Scalar(gens, dec(data["num"]), dec(data["den"]))


def _reduce_parts(gens: tuple, num: Terms, den: Terms) -> tuple:
    """Canonicalize a raw fraction of term dicts."""
    if not den:
        raise DivisionByZero("zero denominator")
    k = len(gens)
    if not num:
        return gens, {}, _dict_const(1, k)
    if den == _dict_const(1, k):
        return gens, num, den
    if k == 0:
        p, q = num[()], den[()]
        g = int_gcd(p, q)
        if q < 0:
            g = -g
        return gens, {(): p // g}, {(): q // g}
    g = _poly_gcd(num, den, k)
    if g != _dict_const(1, k):
        num = _dict_divexact(num, g, k)
        den = _dict_divexact(den, g, k)
    if _leading_coeff(den) < 0:
        num, den = _dict_neg(num), _dict_neg(den)
    return gens, num, den


def _common_gens(values: Sequence[Scalar]) -> tuple:
    """The generator set the arithmetic operators would leave on a
    combination of values: their shared tuple, or the union in GEN_ORDER."""
    gens = values[0].gens
    if any(v.gens != gens for v in values):
        used = {g for v in values for g in v.gens}
        gens = tuple(g for g in GEN_ORDER if g in used)
    return gens


def _lcm_pieces(dens: Iterable[Terms], k: int) -> list:
    """Factors whose product is the lcm of dens: each denominator enters
    with what the earlier factors do not already cover."""
    unit = _dict_const(1, k)
    pieces: list = []
    for d in dens:
        for p in pieces:
            if d == unit:
                break
            g = _poly_gcd(p, d, k)
            if g != unit:
                d = _dict_divexact(d, g, k)
        if d != unit:
            pieces.append(d)
    return pieces


def _dict_prod(factors: Iterable[Terms], k: int) -> Terms:
    out = _dict_const(1, k)
    for f in factors:
        out = _dict_mul(out, f)
    return out


def clear_denominators(values: Sequence[Scalar], gens: tuple) -> tuple:
    """(nums, pieces) with values[j] == nums[j] / prod(pieces) over gens:
    every nums[j] is an integer polynomial and the product of the pieces
    is the lcm of the denominators.  Gcds run only between distinct
    denominators."""
    k = len(gens)
    unit = _dict_const(1, k)
    lifted = [v.lift(gens) for v in values]
    dens: dict = {}
    for v in lifted:
        dens.setdefault(frozenset(v.den.items()), v.den)
    pieces = _lcm_pieces(dens.values(), k)
    lcm = _dict_prod(pieces, k)
    cofactor = {key: _dict_divexact(lcm, d, k) for key, d in dens.items()}
    nums = []
    for v in lifted:
        c = cofactor[frozenset(v.den.items())]
        nums.append(v.num if c == unit else _dict_mul(v.num, c))
    return nums, pieces


def _reduce_over(gens: tuple, num: Terms, pieces: list) -> Scalar:
    """Canonical num / prod(pieces), with one gcd per distinct piece:
    dividing num and a piece by their gcd leaves them coprime, and a
    piece coprime to num stays coprime to every later, smaller num, so
    one pass leaves num coprime to the product."""
    k = len(gens)
    unit = _dict_const(1, k)
    if not num:
        return Scalar.zero(gens)
    coprime = set()
    kept = []
    for p in pieces:
        key = frozenset(p.items())
        if key not in coprime:
            g = _poly_gcd(num, p, k)
            if g == unit:
                coprime.add(key)
            else:
                num = _dict_divexact(num, g, k)
                p = _dict_divexact(p, g, k)
        kept.append(p)
    den = _dict_prod(kept, k)
    if _leading_coeff(den) < 0:
        num, den = _dict_neg(num), _dict_neg(den)
    return Scalar(gens, num, den, _canonical=True)


def _dict_addmul(acc: Terms, a: Terms, b: Terms) -> None:
    """acc += a * b, in place."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                del acc[e]


def evaluate_laurent(terms: Mapping[tuple, Scalar],
                     coords: Sequence[Scalar]) -> Scalar:
    """Exact value of sum_e terms[e] * prod_i coords[i]**e[i] over
    integer exponent vectors e, with one reduction.

    The coefficients are put over L, the lcm of their denominators, and
    each coordinate x_i = u_i/v_i is cleared by u_i^(-s_i) v_i^(T_i), with
    s_i <= 0 <= T_i the lowest and highest exponent of x_i.  Every term
    becomes the integer polynomial num*(L/den) * prod_i u_i^(e_i-s_i)
    v_i^(T_i-e_i); their sum over L * prod_i u_i^(-s_i) v_i^(T_i) is
    reduced once, by one gcd per factor of that denominator.  The result
    lives on the generator set the term-by-term sum would have: that of
    the coefficients and of every coordinate raised to a nonzero power.
    A constant polynomial returns its coefficient.
    """
    if not terms:
        return Scalar.zero(coords[0].gens if coords else ())
    n = len(coords)
    lo, hi = [0] * n, [0] * n
    for e in terms:
        for i, x in enumerate(e):
            if x < lo[i]:
                lo[i] = x
            elif x > hi[i]:
                hi[i] = x
    active = [i for i in range(n) if lo[i] or hi[i]]
    if not active:
        return next(iter(terms.values()))
    for i in active:
        if lo[i] < 0 and coords[i].is_zero():
            raise DivisionByZero(f"zero coordinate x_{i+1} at negative exponent")
    coeffs = list(terms.values())
    gens = _common_gens(coeffs + [coords[i] for i in active])
    k = len(gens)
    unit = _dict_const(1, k)
    nums, pieces = clear_denominators(coeffs, gens)

    # factor[i][x] = u_i^(x - s_i) * v_i^(T_i - x), built from power tables
    lifted = {i: coords[i].lift(gens) for i in active}
    factor: dict = {}
    for i, x in lifted.items():
        s, top = lo[i], hi[i]
        upow, vpow = [unit], [unit]
        for _ in range(top - s):
            upow.append(_dict_mul(upow[-1], x.num))
            vpow.append(_dict_mul(vpow[-1], x.den))
        factor[i] = {p: _dict_mul(upow[p - s], vpow[top - p])
                     for p in range(s, top + 1)}

    # products of the factors, shared between terms with a common prefix
    # of exponents on the active coordinates
    mono: dict = {(): unit}
    total: Terms = {}
    for e, num in zip(terms, nums):
        key = tuple(e[i] for i in active)
        m = mono.get(key)
        if m is None:
            j = len(key) - 1
            while key[:j] not in mono:
                j -= 1
            m = mono[key[:j]]
            for j in range(j, len(key)):
                m = _dict_mul(m, factor[active[j]][key[j]])
                mono[key[:j + 1]] = m
        _dict_addmul(total, num, m)
    for i, x in lifted.items():
        pieces += [x.num] * -lo[i] + [x.den] * hi[i]
    return _reduce_over(gens, total, pieces)


# ---------------------------------------------------------------------------
# field configuration
# ---------------------------------------------------------------------------

VARIANT_GENS = {
    "qt": ("q", "t"),
    "r": ("r",),
}


@dataclass(frozen=True)
class FieldConfig:
    """Which coefficient field to compute in.

    variant picks the generator set; assignments (a tuple of
    (name, Fraction) pairs covering exactly that set) switch from the
    symbolic fraction field to exact rational specialization.  The
    inverted flag replaces every occurrence of q, t by its reciprocal
    and is only meaningful for the qt variant.
    """

    variant: str
    assignments: tuple = None
    inverted: bool = False

    def __post_init__(self):
        if self.variant not in VARIANT_GENS:
            raise UsageError(f"unknown field variant {self.variant!r}")
        if self.inverted and self.variant != "qt":
            raise UsageError("inverted parameters only apply to q,t fields")
        if self.assignments is not None:
            got = tuple(sorted(name for name, _ in self.assignments))
            want = tuple(sorted(VARIANT_GENS[self.variant]))
            if got != want:
                raise UsageError(
                    f"specialized {self.variant} config must assign exactly {want}")
            for name, val in self.assignments:
                val = Fraction(val)
                if name in ("q", "t") and val in (0, 1, -1):
                    raise SpecializationCollision(
                        f"specialization {name}={val} rejected: spectral points "
                        f"collide ({name} must not be 0, 1, or -1)")

    # -- helpers -------------------------------------------------------------

    @property
    def symbolic(self) -> bool:
        return self.assignments is None

    def gens(self) -> tuple:
        return VARIANT_GENS[self.variant] if self.symbolic else ()

    def scalar(self, x) -> Scalar:
        return Scalar.from_fraction(x, self.gens())

    def zero(self) -> Scalar:
        return Scalar.zero(self.gens())

    def one(self) -> Scalar:
        return Scalar.one(self.gens())

    def gen(self, name: str) -> Scalar:
        """The generator as a field element, honoring specialization and
        the inverted-parameters flag."""
        if name not in VARIANT_GENS[self.variant]:
            raise UsageError(f"generator {name!r} not in variant {self.variant!r}")
        if not self.symbolic:
            v = Fraction(dict(self.assignments)[name])
            return Scalar.from_fraction(1 / v if self.inverted else v)
        g = Scalar.generator(name, self.gens())
        return g.invert() if self.inverted else g

    def gen_power(self, name: str, k: int) -> Scalar:
        return self.gen(name) ** k

    def with_inverted(self) -> "FieldConfig":
        return FieldConfig(self.variant, self.assignments, not self.inverted)

    def cache_token(self) -> str:
        if self.symbolic:
            body = "sym"
        else:
            body = ",".join(f"{n}={Fraction(v)}" for n, v in sorted(self.assignments))
        inv = ",inv" if self.inverted else ""
        return f"{self.variant}[{body}{inv}]"

    def describe(self) -> dict:
        out = {"variant": self.variant}
        if self.symbolic:
            out["mode"] = "symbolic"
        else:
            out["mode"] = "specialized"
            out["assignments"] = {n: str(Fraction(v))
                                  for n, v in sorted(self.assignments)}
        if self.inverted:
            out["inverted"] = True
        return out


def qt_config(q=None, t=None, inverted=False) -> FieldConfig:
    if q is None and t is None:
        return FieldConfig("qt", None, inverted)
    return FieldConfig("qt", (("q", Fraction(q)), ("t", Fraction(t))), inverted)


def r_config(r=None) -> FieldConfig:
    if r is None:
        return FieldConfig("r", None)
    return FieldConfig("r", (("r", Fraction(r)),))


# the values seeded_rationals draws from: p/q with 2 <= p <= 99, 1 <= q <= 9
_CANDIDATES = len({Fraction(p, q) for p in range(2, 100) for q in range(1, 10)})


def seeded_rationals(rng) -> Iterable[Fraction]:
    """Deterministic stream of distinct candidate specialization values;
    raises SpecializationCollision once every candidate has been drawn."""
    seen = set()
    while len(seen) < _CANDIDATES:
        v = Fraction(rng.randint(2, 99), rng.randint(1, 9))
        if v in seen:
            continue
        seen.add(v)
        yield v
    raise SpecializationCollision(
        f"all {_CANDIDATES} candidate specialization values are used up")


def dumps_canonical(obj) -> str:
    """Stable JSON used everywhere reports or caches are written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
