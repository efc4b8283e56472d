"""Exact coefficient arithmetic, the kernel every field computes in.

Two kinds of scalars share one representation: plain rationals (empty
generator set) and reduced fractions of integer-coefficient polynomials
in an ordered subset of the generators q, t, r, a (a field config in
variant.py says which subset its field uses).  Every operation
returns a canonical form, so structural equality is mathematical
equality.  A Quotient is a value left unreduced, a numerator over a
list of denominator pieces: evaluation and linear combination produce
one first, and a comparison needs no reduction (see Quotient).

A polynomial is a dict from monomial keys to nonzero int coefficients.
The key of x_0^e_0 ... x_{k-1}^e_{k-1} (k <= 4 generators) is one int:
four slots of _W = 13 bits, generator j in slot 3 - j (the first
generator in the most significant slot, unused slots zero), and the
total degree above them.  Integer order is then graded-lex order, so
the leading term is max(keys), a monomial product is ea + eb, and an
embedding into appended generators ((r) into (r, a), (q, t) into
(q, t, a)) keeps every key.

Every key has total degree at most MAX_DEGREE = 2^12 - 1, so each
exponent stays below the top bit of its slot, the guard bit.  The sum
of two keys then never carries from one slot into the next; products
whose leading key would pass MAX_DEGREE raise DegreeError instead of
wrapping.  For a quotient ea - eb the guard bits detect a slot that
borrows: (ea - eb + _GUARD) keeps every guard bit set exactly when
every exponent of ea is at least that of eb.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd as int_gcd
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (DegreeError, DivisionByZero, SpecializationCollision,
                     UsageError)

GEN_ORDER = ("q", "t", "r", "a")

Terms = dict  # packed monomial key -> nonzero int coefficient

# ---------------------------------------------------------------------------
# monomial keys
# ---------------------------------------------------------------------------

_W = 13
_MASK = (1 << _W) - 1
_DEG_SHIFT = len(GEN_ORDER) * _W
# bit offset of generator j's slot, and the key of the generator itself
_SHIFT = tuple((len(GEN_ORDER) - 1 - j) * _W for j in range(len(GEN_ORDER)))
_GEN_KEY = tuple((1 << _DEG_SHIFT) | (1 << s) for s in _SHIFT)
_GUARD = sum(1 << (s + _W - 1) for s in _SHIFT)
MAX_DEGREE = (1 << (_W - 1)) - 1
_KEY_LIMIT = (MAX_DEGREE + 1) << _DEG_SHIFT

_UNIT: Terms = {0: 1}  # for comparisons only; never handed out


def _unpack(key: int, k: int) -> tuple:
    """Exponent tuple of a key over k generators."""
    return tuple([(key >> s) & _MASK for s in _SHIFT[:k]])


def _pack_terms(terms: Mapping[tuple, int], k: int) -> Terms:
    """Polynomial given by exponent tuples of length k, packed; raises
    DegreeError for an exponent the slots cannot hold."""
    out: Terms = {}
    for e, c in terms.items():
        if len(e) != k or min(e, default=0) < 0 or sum(e) > MAX_DEGREE:
            raise DegreeError(
                f"exponent {e} outside the polynomial kernel's range: "
                f"{k} nonnegative exponents of total degree at most "
                f"{MAX_DEGREE}")
        if c:
            out[sum(map(mul, e, _GEN_KEY))] = c
    return out


def _degree_overflow() -> DegreeError:
    return DegreeError(f"product of total degree above {MAX_DEGREE}, the "
                       f"limit of the polynomial kernel")


def _used_gens(polys: Iterable[Terms], k: int) -> list:
    """Positions of the generators with a nonzero exponent in some term."""
    bits = 0
    for t in polys:
        for e in t:
            bits |= e
    return [j for j in range(k) if (bits >> _SHIFT[j]) & _MASK]


# ---------------------------------------------------------------------------
# integer-coefficient polynomial dictionaries
# ---------------------------------------------------------------------------

def _dict_const(c: int) -> Terms:
    return {0: c} if c else {}


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
    if len(a) == 1:
        # a single term scales b by a constant or shifts it by a monomial
        (ea, ca), = a.items()
        if ea:
            if ea + max(b) >= _KEY_LIMIT:
                raise _degree_overflow()
            return {ea + eb: ca * cb for eb, cb in b.items()}
        return {eb: ca * cb for eb, cb in b.items()} if ca != 1 else dict(b)
    out: Terms = {}
    _dict_addmul(out, a, b)
    return out


def _dict_addmul(acc: Terms, a: Terms, b: Terms) -> None:
    """acc += a * b, in place."""
    if a and b and max(a) + max(b) >= _KEY_LIMIT:
        raise _degree_overflow()
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                del acc[e]


def _int_content(values: Iterable[int], g: int = 0) -> int:
    """gcd of g and the integers values, stopping as soon as it is 1."""
    for c in values:
        g = int_gcd(g, c)
        if g == 1:
            break
    return g


def _leading_coeff(a: Terms) -> int:
    """Coefficient of the graded-lex leading term (0 for the zero poly)."""
    return a[max(a)] if a else 0


def _dict_divexact(a: Terms, b: Terms) -> Terms:
    """Exact multivariate division a / b; raises if not exact."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(b) == 1:
        (eb, cb), = b.items()
        out: Terms = {}
        for ea, ca in a.items():
            e = ea - eb
            if (e + _GUARD) & _GUARD != _GUARD or ca % cb:
                raise ArithmeticError("inexact polynomial division")
            out[e] = ca // cb
        return out
    rem = dict(a)
    quot: Terms = {}
    eb = max(b)
    cb = b[eb]
    while rem:
        ea = max(rem)
        ca = rem[ea]
        e = ea - eb
        if (e + _GUARD) & _GUARD != _GUARD or ca % cb:
            raise ArithmeticError("inexact polynomial division")
        q = ca // cb
        quot[e] = q
        for eb2, cb2 in b.items():
            et = e + eb2
            s = rem.get(et, 0) - q * cb2
            if s:
                rem[et] = s
            else:
                rem.pop(et, None)
    return quot


# --- multivariate gcd: recursive content / primitive part over a primitive
# --- pseudo-remainder sequence in the last generator ------------------------

def _split_main(a: Terms, k: int) -> dict:
    """View a k-generator poly as univariate in the last generator, with
    (k-1)-generator coefficients."""
    s, g = _SHIFT[k - 1], _GEN_KEY[k - 1]
    out: dict[int, Terms] = {}
    for e, c in a.items():
        d = (e >> s) & _MASK
        out.setdefault(d, {})[e - d * g] = c
    return out


def _join_main(uni: Mapping[int, Terms], k: int) -> Terms:
    g = _GEN_KEY[k - 1]
    return {e + d * g: c for d, sub in uni.items() for e, c in sub.items()}


def _poly_content(uni: Mapping[int, Terms], k: int) -> Terms:
    """gcd of the coefficients of a k-generator poly given by its
    univariate view in the last generator."""
    g: Terms = {}
    for sub in uni.values():
        g = _poly_gcd(g, sub, k - 1)
        if g == _UNIT:
            break
    return g


def _uni_gcd_int(a: dict, b: dict) -> dict:
    """Primitive-PRS gcd of univariate integer polynomials given as
    degree -> coefficient maps; positive leading coefficient."""
    ca, cb = _int_content(a.values()), _int_content(b.values())
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
            cr = _int_content(r.values())
            g = {d: x // cr for d, x in r.items()}
        else:
            g = {}
    if f[max(f)] < 0:
        c = -c
    return {d: c * x for d, x in f.items()}


def _pseudo_rem(f: dict, g: dict) -> dict:
    """Pseudo-remainder of univariate polys with polynomial coefficients."""
    dg = max(g)
    lcg = g[dg]
    r = f
    while r and max(r) >= dg:
        dr = max(r)
        lcr = r[dr]
        nr = {d: _dict_mul(c, lcg) for d, c in r.items()}
        for d, c in g.items():
            dd = d + dr - dg
            s = _dict_add(nr.get(dd, {}), _dict_neg(_dict_mul(c, lcr)))
            if s:
                nr[dd] = s
            else:
                nr.pop(dd, None)
        r = nr
    return r


def _monomial_gcd(mono: Terms, other: Terms, k: int) -> Terms:
    (em, cm), = mono.items()
    g = _int_content(other.values(), abs(cm))
    key = 0
    if em:
        for s, gen in zip(_SHIFT[:k], _GEN_KEY):
            x = (em >> s) & _MASK
            if x:
                key += min(x, min([(e >> s) & _MASK for e in other])) * gen
    return {key: g}


# --- modular coprimality certificate ---------------------------------------

_P = (1 << 61) - 1
# fixed evaluation point, one value per generator position (k <= 4)
_XI = (1234567891011, 987654321987654, 271828182845904, 314159265358979)
_XI_SHIFTS = 3


def _image_mod_p(terms: list, i: int, deg: int, pows: list) -> list:
    """a(x_i; xi) mod p as dense coefficients in x_i, for a given as
    (exponent tuple, coefficient) pairs, pows[j][d] being xi_j^d mod p."""
    out = [0] * (deg + 1)
    for e, c in terms:
        for j, x in enumerate(e):
            if x and j != i:
                c = c * pows[j][x] % _P
        out[e[i]] += c
    return [c % _P for c in out]


def _uni_gcd_degree_mod_p(f: list, g: list) -> int:
    """Degree of gcd(f, g) over F_p, for dense f and g with f[-1] != 0."""
    while g and not g[-1]:
        g.pop()
    while g:
        inv = pow(g[-1], -1, _P)
        dg = len(g) - 1
        while len(f) > dg:
            c = f[-1] * inv % _P
            off = len(f) - 1 - dg
            for j in range(dg):
                f[off + j] = (f[off + j] - c * g[j]) % _P
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime_certificate(a: Terms, b: Terms, k: int):
    """{0: c} with c the gcd of every integer coefficient of a and b when
    gcd(a, b) is proved to be that integer, else None."""
    ta = [(_unpack(e, k), c) for e, c in a.items()]
    tb = [(_unpack(e, k), c) for e, c in b.items()]
    dega = [max(e[j] for e, _ in ta) for j in range(k)]
    degb = [max(e[j] for e, _ in tb) for j in range(k)]
    todo = [i for i in range(k) if dega[i] and degb[i]]
    for shift in range(_XI_SHIFTS):
        if not todo:
            break
        pows = []
        for j in range(k):
            x = _XI[j] + shift
            row = [1]
            for _ in range(max(dega[j], degb[j])):
                row.append(row[-1] * x % _P)
            pows.append(row)
        missed = []
        for i in todo:
            fa = _image_mod_p(ta, i, dega[i], pows)
            if not fa[-1]:
                missed.append(i)
            elif _uni_gcd_degree_mod_p(fa, _image_mod_p(tb, i, degb[i], pows)):
                return None
        todo = missed
    if todo:
        return None
    return _dict_const(_int_content(b.values(), _int_content(a.values())))


def _poly_gcd(a: Terms, b: Terms, k: int) -> Terms:
    """gcd of integer-coefficient polys in k generators, with positive
    graded-lex leading coefficient.

    For k >= 2 non-monomial operands a modular certificate runs first.
    Let g = gcd(a, b) and fix a generator x_i.  Map Z[gens] to F_p[x_i]
    (p = 2^61 - 1) by sending every other generator x_j to a fixed xi_j.
    If the x_i-leading coefficient of a does not vanish there, then
    neither does that of its factor g, so the image of g keeps degree
    deg_i g and divides the images of a and b; a constant F_p gcd of the
    two images therefore proves deg_i g = 0.  A generator in which a or b
    has degree 0 needs no test.  Once every generator is proved absent,
    g is the integer gcd of all coefficients.  When an image gcd is not
    constant, or the leading coefficient still vanishes after a few
    shifts of xi, the primitive pseudo-remainder sequence below decides.

    A poly free of the last generator has the same keys over k - 1
    generators, so contents and the gcd of contents need no re-keying.
    """
    if not a:
        g = dict(b)
    elif not b:
        g = dict(a)
    elif k == 0:
        return {0: int_gcd(a[0], b[0])}
    elif len(a) == 1:
        return _monomial_gcd(a, b, k)
    elif len(b) == 1:
        return _monomial_gcd(b, a, k)
    elif k == 1:
        # one generator: the total degree is its exponent
        g = _uni_gcd_int({e >> _DEG_SHIFT: c for e, c in a.items()},
                         {e >> _DEG_SHIFT: c for e, c in b.items()})
        return {d * _GEN_KEY[0]: c for d, c in g.items()}
    else:
        cert = _coprime_certificate(a, b, k)
        if cert is not None:
            return cert
        ua, ub = _split_main(a, k), _split_main(b, k)
        da, db = max(ua), max(ub)
        if da == 0 or db == 0:
            # one side is free of the main generator: its gcd with the
            # other can only involve the other's content
            ca = _poly_content(ua, k) if da else a
            cb = _poly_content(ub, k) if db else b
            g = _poly_gcd(ca, cb, k - 1)
        else:
            ca = _poly_content(ua, k)
            cb = _poly_content(ub, k)
            cont = _poly_gcd(ca, cb, k - 1)
            fa = {d: _dict_divexact(c, ca) for d, c in ua.items()}
            fb = {d: _dict_divexact(c, cb) for d, c in ub.items()}
            if max(fa) < max(fb):
                fa, fb = fb, fa
            while fb:
                r = _pseudo_rem(fa, fb)
                fa = fb
                if r:
                    rc = _poly_content(r, k)
                    fb = {d: _dict_divexact(c, rc) for d, c in r.items()}
                else:
                    fb = {}
            g = _dict_mul(_join_main(fa, k), cont)
    if _leading_coeff(g) < 0:
        g = _dict_neg(g)
    return g


def _lift_terms(terms: Terms, pos: Sequence[int]) -> Terms:
    """Re-key a poly in len(pos) generators, old generator j going to
    position pos[j]."""
    moves = list(zip(_SHIFT, [_GEN_KEY[p] for p in pos]))
    return {sum(((e >> s) & _MASK) * g for s, g in moves): c
            for e, c in terms.items()}


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
            if not den:
                raise DivisionByZero("zero denominator")
            reduced = _reduce_over(gens, num, [den])
            num, den = reduced.num, reduced.den
        self.gens = gens
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(x, gens: tuple = ()) -> "Scalar":
        f = Fraction(x)
        return Scalar(gens, _dict_const(f.numerator),
                      _dict_const(f.denominator), _canonical=True)

    @staticmethod
    def generator(name: str, gens: tuple) -> "Scalar":
        if name not in gens:
            raise UsageError(f"generator {name!r} not among {gens}")
        return Scalar(gens, {_GEN_KEY[gens.index(name)]: 1}, _dict_const(1),
                      _canonical=True)

    @staticmethod
    def zero(gens: tuple = ()) -> "Scalar":
        return Scalar(gens, {}, _dict_const(1), _canonical=True)

    @staticmethod
    def one(gens: tuple = ()) -> "Scalar":
        return Scalar(gens, _dict_const(1), _dict_const(1), _canonical=True)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def is_polynomial(self) -> bool:
        return self.den == _UNIT

    def lift(self, gens: tuple) -> "Scalar":
        """Embed into a larger ordered generator set."""
        if gens == self.gens:
            return self
        if gens[:len(self.gens)] == self.gens:
            # appended generators: every key stays, the dicts are shared
            return Scalar(gens, self.num, self.den, _canonical=True)
        if any(g not in gens for g in self.gens):
            raise UsageError(f"cannot lift {self.gens} into {gens}")
        pos = [gens.index(g) for g in self.gens]
        num, den = _lift_terms(self.num, pos), _lift_terms(self.den, pos)
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
        if a.den == _UNIT and b.den == _UNIT:
            return Scalar(a.gens, _dict_add(a.num, b.num), a.den,
                          _canonical=True)
        if not a.num:
            return b
        if not b.num:
            return a
        # denominators-only reduction: with reduced inputs the result
        # below is already canonical
        g1 = _poly_gcd(a.den, b.den, k)
        if g1 == _UNIT:
            num = _dict_add(_dict_mul(a.num, b.den), _dict_mul(b.num, a.den))
            if not num:
                return Scalar.zero(a.gens)
            return Scalar(a.gens, num, _dict_mul(a.den, b.den),
                          _canonical=True)
        db = _dict_divexact(b.den, g1)
        da = _dict_divexact(a.den, g1)
        t = _dict_add(_dict_mul(a.num, db), _dict_mul(b.num, da))
        if not t:
            return Scalar.zero(a.gens)
        g2 = _poly_gcd(t, g1, k)
        if g2 != _UNIT:
            t = _dict_divexact(t, g2)
            den = _dict_mul(da, _dict_divexact(b.den, g2))
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
        if a.den == _UNIT and b.den == _UNIT:
            return Scalar(a.gens, _dict_mul(a.num, b.num), a.den,
                          _canonical=True)
        if not a.num or not b.num:
            return Scalar.zero(a.gens)
        g1 = _poly_gcd(a.num, b.den, k)
        g2 = _poly_gcd(b.num, a.den, k)
        na = a.num if g1 == _UNIT else _dict_divexact(a.num, g1)
        db = b.den if g1 == _UNIT else _dict_divexact(b.den, g1)
        nb = b.num if g2 == _UNIT else _dict_divexact(b.num, g2)
        da = a.den if g2 == _UNIT else _dict_divexact(a.den, g2)
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
        # key free of unused generators and of their order: the used ones
        # in GEN_ORDER, with the sign normalized for that order (keys are
        # re-packed only when the used generators are not already the
        # leading ones in that order); rationals hash like the Fraction
        # they equal
        if self._hash is None:
            used = sorted(_used_gens((self.num, self.den), len(self.gens)),
                          key=lambda j: GEN_ORDER.index(self.gens[j]))
            if not used:
                self._hash = hash(Fraction(self.num.get(0, 0), self.den[0]))
            else:
                num, den = self.num, self.den
                if used != list(range(len(used))):
                    # an unused generator has exponent 0: any slot will do
                    pos = [used.index(j) if j in used else 0
                           for j in range(len(self.gens))]
                    num, den = _lift_terms(num, pos), _lift_terms(den, pos)
                sign = 1 if _leading_coeff(den) > 0 else -1
                self._hash = hash((
                    tuple(self.gens[j] for j in used),
                    frozenset((e, sign * c) for e, c in num.items()),
                    frozenset((e, sign * c) for e, c in den.items())))
        return self._hash

    # -- presentation ----------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.gens:
            raise UsageError("scalar is symbolic")
        return Fraction(self.num.get(0, 0), self.den[0])

    def _poly_str(self, terms: Terms) -> str:
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            mono = "*".join(
                f"{g}^{p}" if p != 1 else g
                for g, p in zip(self.gens, _unpack(e, len(self.gens))) if p)
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
        k = len(self.gens)
        enc = lambda t: {",".join(map(str, _unpack(e, k))): str(c)
                         for e, c in t.items()}
        return {"num": enc(self.num), "den": enc(self.den), "gens": list(self.gens)}

    @staticmethod
    def from_json(data) -> "Scalar":
        if isinstance(data, str):
            if "/" in data:
                p, q = data.split("/")
                return Scalar.from_fraction(Fraction(int(p), int(q)))
            return Scalar.from_fraction(int(data))
        gens = tuple(data["gens"])
        if len(set(gens)) != len(gens) or not set(gens) <= set(GEN_ORDER):
            raise UsageError(f"generators {gens} are not distinct members "
                             f"of {GEN_ORDER}")
        dec = lambda t: _pack_terms(
            {tuple(int(x) for x in e.split(",")) if e else (): int(c)
             for e, c in t.items()}, len(gens))
        return Scalar(gens, dec(data["num"]), dec(data["den"]))


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
    pieces: list = []
    for d in dens:
        for p in pieces:
            if d == _UNIT:
                break
            g = _poly_gcd(p, d, k)
            if g != _UNIT:
                d = _dict_divexact(d, g)
        if d != _UNIT:
            pieces.append(d)
    return pieces


def _dict_prod(factors: Iterable[Terms]) -> Terms:
    out = _dict_const(1)
    for f in factors:
        out = _dict_mul(out, f)
    return out


def _clearing_plan(lifted: Sequence[Scalar], k: int) -> tuple:
    """(pieces, cofactors) for values already lifted to k generators: the
    product of the pieces is the lcm of their denominators (gcds run only
    between distinct ones), and cofactors[j] is lcm / den of values[j],
    None where that is 1."""
    dens: dict = {}
    for v in lifted:
        dens.setdefault(frozenset(v.den.items()), v.den)
    pieces = _lcm_pieces(dens.values(), k)
    lcm = _dict_prod(pieces)
    cofactor = {key: _dict_divexact(lcm, d) for key, d in dens.items()}
    cofactors = [cofactor[frozenset(v.den.items())] for v in lifted]
    return pieces, [None if c == _UNIT else c for c in cofactors]


def _cleared(lifted: Sequence[Scalar], cofactors: Sequence) -> list:
    return [v.num if c is None else _dict_mul(v.num, c)
            for v, c in zip(lifted, cofactors)]


def clear_denominators(values: Sequence[Scalar], gens: tuple) -> tuple:
    """(nums, pieces) with values[j] == nums[j] / prod(pieces) over gens:
    every nums[j] is an integer polynomial and the product of the pieces
    is the lcm of the denominators (see _clearing_plan)."""
    lifted = [v.lift(gens) for v in values]
    pieces, cofactors = _clearing_plan(lifted, len(gens))
    return _cleared(lifted, cofactors), pieces


def _reduce_over(gens: tuple, num: Terms, pieces: list) -> Scalar:
    """Canonical num / prod(pieces), with one gcd per distinct piece:
    dividing num and a piece by their gcd leaves them coprime, and a
    piece coprime to num stays coprime to every later, smaller num, so
    one pass leaves num coprime to the product."""
    k = len(gens)
    if not num:
        return Scalar.zero(gens)
    coprime = set()
    kept = []
    for p in pieces:
        key = frozenset(p.items())
        if key not in coprime:
            g = _poly_gcd(num, p, k)
            if g == _UNIT:
                coprime.add(key)
            else:
                num = _dict_divexact(num, g)
                p = _dict_divexact(p, g)
        kept.append(p)
    den = _dict_prod(kept)
    if _leading_coeff(den) < 0:
        num, den = _dict_neg(num), _dict_neg(den)
    return Scalar(gens, num, den, _canonical=True)


class Quotient:
    """The exact value num / prod(pieces) over gens, left unreduced.

    Deciding a comparison needs no canonical form: a value is zero
    exactly when num is empty, and two values are equal exactly when
    num * prod(other.pieces) == other.num * prod(pieces) in Z[gens]
    (pieces common to both sides cancel first).  That is the same
    relation as equality of the canonical forms, with zero tolerance.
    reduced() gives the canonical Scalar; a Quotient prints as that
    Scalar."""

    __slots__ = ("gens", "num", "pieces", "_reduced")

    def __init__(self, gens: tuple, num: Terms, pieces: list,
                 _reduced: Optional[Scalar] = None):
        self.gens = gens
        self.num = num
        self.pieces = pieces
        self._reduced = _reduced

    @staticmethod
    def of(x: Scalar) -> "Quotient":
        return Quotient(x.gens, x.num, [] if x.den == _UNIT else [x.den], x)

    def is_zero(self) -> bool:
        return not self.num

    def reduced(self) -> Scalar:
        if self._reduced is not None:
            return self._reduced
        return _reduce_over(self.gens, self.num, self.pieces)

    def lift(self, gens: tuple) -> "Quotient":
        """Embed into a larger ordered generator set."""
        if gens == self.gens:
            return self
        if gens[:len(self.gens)] == self.gens:
            return Quotient(gens, self.num, self.pieces)
        if any(g not in gens for g in self.gens):
            raise UsageError(f"cannot lift {self.gens} into {gens}")
        pos = [gens.index(g) for g in self.gens]
        return Quotient(gens, _lift_terms(self.num, pos),
                        [_lift_terms(p, pos) for p in self.pieces])

    def _pair(self, other) -> tuple["Quotient", "Quotient"]:
        if isinstance(other, Scalar):
            other = Quotient.of(other)
        if other.gens == self.gens:
            return self, other
        merged = tuple(g for g in GEN_ORDER if g in self.gens or g in other.gens)
        return self.lift(merged), other.lift(merged)

    def __mul__(self, other) -> "Quotient":
        """The product, unreduced, on the generators Scalar * would give."""
        a, b = self._pair(other)
        return Quotient(a.gens, _dict_mul(a.num, b.num), a.pieces + b.pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Quotient, Scalar)):
            return NotImplemented
        a, b = self._pair(other)
        if not a.num or not b.num:
            return not a.num and not b.num
        own, rest = [], list(b.pieces)
        for p in a.pieces:
            if p in rest:
                rest.remove(p)
            else:
                own.append(p)
        return _dict_mul(a.num, _dict_prod(rest)) == \
            _dict_mul(b.num, _dict_prod(own))

    def __str__(self) -> str:
        return str(self.reduced())

    __repr__ = __str__


def linear_combination(weights: Sequence[Scalar], rows: Sequence[Mapping],
                       gens: Optional[tuple] = None) -> dict:
    """{key: sum_j weights[j] * rows[j][key]} over the keys of the rows,
    as canonical Scalars on gens, zero sums left out: the sums of
    linear_combination_unreduced, each reduced once."""
    return {key: v.reduced() for key, v in
            linear_combination_unreduced(weights, rows, gens).items()}


def linear_combination_unreduced(weights: Sequence[Scalar],
                                 rows: Sequence[Mapping],
                                 gens: Optional[tuple] = None) -> dict:
    """{key: sum_j weights[j] * rows[j][key]} over the keys of the rows,
    as unreduced Quotients on gens, zero sums left out.  gens defaults
    to the union of the generators of the weights and of the entries.

    The weights are put over one common denominator once and the entries
    under each key over theirs; each sum is one integer polynomial over
    the pieces of both."""
    if gens is None:
        gens = _common_gens(list(weights)
                            + [v for row in rows for v in row.values()])
    wnums, wpieces = clear_denominators(weights, gens)
    by_key: dict = {}
    for wnum, row in zip(wnums, rows):
        for key, v in row.items():
            by_key.setdefault(key, []).append((wnum, v))
    out = {}
    for key, pairs in by_key.items():
        nums, pieces = clear_denominators([v for _, v in pairs], gens)
        total: Terms = {}
        for (wnum, _), num in zip(pairs, nums):
            _dict_addmul(total, wnum, num)
        if total:
            out[key] = Quotient(gens, total, wpieces + pieces)
    return out


def evaluate_laurent(terms: Mapping[tuple, Scalar], coords: Sequence[Scalar],
                     plans: dict) -> Quotient:
    """Exact value of sum_e terms[e] * prod_i coords[i]**e[i] over
    integer exponent vectors e, as one unreduced Quotient.

    The coefficients are put over L, the lcm of their denominators, and
    each coordinate x_i = u_i/v_i is cleared by u_i^(-s_i) v_i^(T_i), with
    s_i <= 0 <= T_i the lowest and highest exponent of x_i.  Every term
    becomes the integer polynomial num*(L/den) * prod_i u_i^(e_i-s_i)
    v_i^(T_i-e_i); their sum is the numerator, over the factors of
    L * prod_i u_i^(-s_i) v_i^(T_i) as the pieces, so that reduced()
    takes one gcd per factor of that denominator.  The value lives on
    the generator set the term-by-term sum would have: that of the
    coefficients and of every coordinate raised to a nonzero power.
    A constant polynomial gives its coefficient.

    The pieces of L and the cofactors L/den depend only on the terms and
    the generator set: they are planned once per set, in plans (a dict
    kept with the terms), so a call only builds the power tables of the
    point, the products num*(L/den) and the sum.
    """
    if not terms:
        return Quotient(coords[0].gens if coords else (), {}, [])
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
        return Quotient.of(next(iter(terms.values())))
    for i in active:
        if lo[i] < 0 and coords[i].is_zero():
            raise DivisionByZero(f"zero coordinate x_{i+1} at negative exponent")
    coeffs = list(terms.values())
    gens = _common_gens(coeffs + [coords[i] for i in active])
    k = len(gens)
    unit = _dict_const(1)
    coeffs = [c.lift(gens) for c in coeffs]
    if gens not in plans:
        plans[gens] = _clearing_plan(coeffs, k)
    pieces, cofactors = plans[gens]
    nums = _cleared(coeffs, cofactors)

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
        # a new list: the plan keeps the coefficients' pieces
        pieces = pieces + [x.num] * -lo[i] + [x.den] * hi[i]
    return Quotient(gens, total, pieces)


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
