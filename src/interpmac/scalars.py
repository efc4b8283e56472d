"""Exact coefficient arithmetic, the kernel every field computes in.

Two kinds of scalars share one representation: plain rationals (empty
generator set) and reduced fractions of integer-coefficient polynomials
in an ordered subset of the generators q, t, r, a (a field config in
variant.py says which subset its field uses).  Every operation
returns a canonical form, so structural equality is mathematical
equality.  A Quotient is a value left unreduced, a numerator over a
list of denominator pieces: evaluation, linear combination and
over_one_denominator produce one first, sums and products of Quotients
stay unreduced (a sum over the same pieces is one numerator sum), and a
comparison needs no reduction (see Quotient).  A Scalar operation with
a Quotient operand returns NotImplemented, so the Quotient's reflected
method takes it.  A sum of two Scalars over one denominator takes one
gcd, of the numerator sum with that denominator.

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

A polynomial is evaluated over one common denominator, left unreduced
(evaluate_laurent).  At a point whose coordinates are each one term over
one term, such as every q,t spectral point, each term's power product is
one monomial c*X^k, so the term is its cleared numerator with every key
shifted by k and every coefficient scaled by c.

Multivariate gcds run the heuristic gcd at integer points xi >= 2 min
norm + 2, each answer proved by an exact division; past a few points or
a bit cap, a pseudo-remainder sequence decides (see _poly_gcd).
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


# --- gcd fallback: primitive pseudo-remainder sequence in the last generator

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
            nr = {d: x * lcg for d, x in r.items()}
            for d, x in g.items():
                dd = d + dr - dg
                s = nr.get(dd, 0) - x * lcr
                if s:
                    nr[dd] = s
                else:
                    nr.pop(dd, None)
            r = nr
        f, cr = g, _int_content(r.values())
        g = {d: x // cr for d, x in r.items()}
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


# --- heuristic gcd: integer gcds of images at one big point ----------------

_HEU_ATTEMPTS = 6
_HEU_MAX_BITS = 1 << 16  # cap on the bit length of an image coefficient


def _eval_last(a: Terms, k: int, xi: int) -> Terms:
    """a at x_{k-1} = xi, keyed over the first k - 1 generators."""
    s, g = _SHIFT[k - 1], _GEN_KEY[k - 1]
    out: Terms = {}
    for e, c in a.items():
        d = (e >> s) & _MASK
        if d:
            e, c = e - d * g, c * xi ** d
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _lift_balanced(h: Terms, k: int, xi: int, top: int):
    """The poly of degree <= top in x_{k-1} with coefficients in (-xi/2,
    xi/2] (balanced base-xi digits) and image h at x_{k-1} = xi, or None."""
    g, out = _GEN_KEY[k - 1], {}
    for e, c in h.items():
        for _ in range(top + 1):
            c, d = divmod(c, xi)
            if 2 * d > xi:
                d, c = d - xi, c + 1
            if d:
                out[e] = d
            e += g
        if c:
            return None
    return out


def _heu_gcd(a: Terms, b: Terms, k: int):
    """gcd of non-monomial a and b in k >= 2 generators by the heuristic
    in _poly_gcd, or None.  Operands free of the last generator and the
    images take _poly_gcd over k - 1 generators (_uni_gcd_int at
    k - 1 = 1), so only this level can give up."""
    s = _SHIFT[k - 1]
    da, db = [max([(e >> s) & _MASK for e in t]) for t in (a, b)]
    if not (da or db):
        return _poly_gcd(a, b, k - 1)
    ca, cb = _int_content(a.values()), _int_content(b.values())
    if ca != 1:
        a = {e: c // ca for e, c in a.items()}
    if cb != 1:
        b = {e: c // cb for e, c in b.items()}
    na, nb = max(map(abs, a.values())), max(map(abs, b.values()))
    xi = 2 * min(na, nb) + 2
    for _ in range(_HEU_ATTEMPTS):
        if (max(da, db) * xi.bit_length() + max(na, nb).bit_length()
                > _HEU_MAX_BITS):
            return None
        fa, fb = _eval_last(a, k, xi), _eval_last(b, k, xi)
        h = _poly_gcd(fa, fb, k - 1) if fa and fb else {}
        p = _lift_balanced(h, k, xi, min(da, db))
        if p:
            cp = _int_content(p.values())
            p = {e: c // (cp if _leading_coeff(p) > 0 else -cp)
                 for e, c in p.items()}
            try:
                if p != _UNIT:
                    _dict_divexact(a, p), _dict_divexact(b, p)
                c = int_gcd(ca, cb)
                return p if c == 1 else {e: c * x for e, x in p.items()}
            except ArithmeticError:
                pass
        xi = xi * 73794 // 27011
    return None


def _poly_gcd(a: Terms, b: Terms, k: int) -> Terms:
    """gcd of integer-coefficient polys in k generators, with positive
    graded-lex leading coefficient.

    If one operand is a monomial, the gcd is the integer gcd of all
    coefficients times the lowest power of each generator in both; at
    k = 1 the primitive pseudo-remainder sequence _uni_gcd_int decides.
    Otherwise the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
    J. Symbolic Comput. 7, 1989) runs first.  With the integer contents
    divided out, it sets the last generator y to an integer
    xi >= 2 min(|a|, |b|) + 2 (|.| the largest absolute coefficient),
    takes the gcd h' of the images by _poly_gcd over k - 1 generators,
    and writes h' in balanced base xi, digits in (-xi/2, xi/2]: a poly h
    with h(y = xi) = h'.  Its primitive part P is accepted only if it
    divides a and b exactly; the gcd is then igcd(content a, content b) P.
    The division is the proof:
    - Let G = gcd(a, b) = P u.  G(xi) divides h' = cont(h) P(xi), so
      u(x', xi) divides cont(h): it is an integer c, 0 < |c| <= xi/2.
    - Let a be the operand of smaller norm.  If u depended on x', its
      x'-leading coefficient LC(u) in Z[y] would divide LC(a) and vanish
      at xi, but every root rho of LC(a) has |rho| < 1 + |a| <= xi/2.
    - So u is in Z[y] and divides a nonzero coefficient of a, whose
      roots are below xi/2 too.  If deg u >= 1, then
      |u(xi)| > (xi/2)^deg u >= xi/2 >= |c|, a contradiction: u is a
      constant.
    A failed division grows xi (times 73794/27011) for up to
    _HEU_ATTEMPTS points; past them, or once an image coefficient could
    pass _HEU_MAX_BITS bits, the primitive pseudo-remainder sequence in
    the last generator decides at this level only: every inner gcd is
    exact.  A poly free of the last generator has the same keys over
    k - 1 generators: images and contents need no re-keying.
    """
    if not a or not b:
        g = dict(a or b)
    elif k == 0:
        return {0: int_gcd(a[0], b[0])}
    elif len(a) == 1 or len(b) == 1:
        if len(b) == 1:
            a, b = b, a
        (em, cm), = a.items()
        key = 0
        if em:
            for s, gen in zip(_SHIFT[:k], _GEN_KEY):
                x = (em >> s) & _MASK
                if x:
                    key += min(x, min([(e >> s) & _MASK for e in b])) * gen
        return {key: _int_content(b.values(), abs(cm))}
    elif k == 1:
        # one generator: the total degree is its exponent
        g = _uni_gcd_int({e >> _DEG_SHIFT: c for e, c in a.items()},
                         {e >> _DEG_SHIFT: c for e, c in b.items()})
        return {d * _GEN_KEY[0]: c for d, c in g.items()}
    elif (g := _heu_gcd(a, b, k)) is None:
        ua, ub = _split_main(a, k), _split_main(b, k)
        ca, cb = _poly_content(ua, k), _poly_content(ub, k)
        fa = {d: _dict_divexact(c, ca) for d, c in ua.items()}
        fb = {d: _dict_divexact(c, cb) for d, c in ub.items()}
        if max(fa) < max(fb):
            fa, fb = fb, fa
        while fb:
            fa, r = fb, _pseudo_rem(fa, fb)
            rc = _poly_content(r, k)
            fb = {d: _dict_divexact(c, rc) for d, c in r.items()}
        g = _dict_mul(_join_main(fa, k), _poly_gcd(ca, cb, k - 1))
    if _leading_coeff(g) < 0:
        g = _dict_neg(g)
    return g


def _in_gen_order(used) -> tuple:
    """The generators in used, in GEN_ORDER: where two values meet."""
    return tuple(g for g in GEN_ORDER if g in used)


def _lift_positions(gens: tuple, into: tuple) -> list:
    """The position in into of each generator of gens."""
    if any(g not in into for g in gens):
        raise UsageError(f"cannot lift {gens} into {into}")
    return [into.index(g) for g in gens]


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

    def is_polynomial(self) -> bool:
        return self.den == _UNIT

    def lift(self, gens: tuple) -> "Scalar":
        """Embed into a larger ordered generator set."""
        if gens == self.gens:
            return self
        if gens[:len(self.gens)] == self.gens:
            # appended generators: every key stays, the dicts are shared
            return Scalar(gens, self.num, self.den, _canonical=True)
        pos = _lift_positions(self.gens, gens)
        num, den = _lift_terms(self.num, pos), _lift_terms(self.den, pos)
        if pos != sorted(pos) and _leading_coeff(den) < 0:
            # reordering generators can move the graded-lex leading term
            num, den = _dict_neg(num), _dict_neg(den)
        return Scalar(gens, num, den, _canonical=True)

    def _pair(self, other) -> tuple["Scalar", "Scalar"]:
        if isinstance(other, Scalar):
            if other.gens == self.gens:
                return self, other
            merged = _in_gen_order(self.gens + other.gens)
            return self.lift(merged), other.lift(merged)
        return self, Scalar.from_fraction(other, self.gens)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if other.__class__ is Quotient:
            return NotImplemented
        a, b = self._pair(other)
        k = len(a.gens)
        if a.den == _UNIT and b.den == _UNIT:
            return Scalar(a.gens, _dict_add(a.num, b.num), a.den,
                          _canonical=True)
        if not a.num:
            return b
        if not b.num:
            return a
        if a.den == b.den:
            # what the path below computes with g1 = den, da = db = 1
            t = _dict_add(a.num, b.num)
            if not t:
                return Scalar.zero(a.gens)
            g2 = _poly_gcd(t, a.den, k)
            if g2 == _UNIT:
                return Scalar(a.gens, t, a.den, _canonical=True)
            return Scalar(a.gens, _dict_divexact(t, g2),
                          _dict_divexact(a.den, g2), _canonical=True)
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
        if other.__class__ is Quotient:
            return NotImplemented
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is Quotient:
            return NotImplemented
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
        if len(self.den) > 1 or "*" in ds:
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
        gens = _in_gen_order({g for v in values for g in v.gens})
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
    Sums, differences and products with Quotients or Scalars stay
    unreduced: a sum of two values over the same pieces (the same list,
    or equal lists) is one numerator sum, and otherwise the pieces of
    both, common ones counted once, are the denominator.  A Scalar
    operand is Quotient.of(it): Scalar arithmetic hands a Quotient
    operand over to these methods.  reduced() gives the canonical
    Scalar; a Quotient prints as that Scalar."""

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
        pos = _lift_positions(self.gens, gens)
        return Quotient(gens, _lift_terms(self.num, pos),
                        [_lift_terms(p, pos) for p in self.pieces])

    def _pair(self, other) -> tuple["Quotient", "Quotient"]:
        if isinstance(other, Scalar):
            other = Quotient.of(other)
        if other.gens == self.gens:
            return self, other
        merged = _in_gen_order(self.gens + other.gens)
        return self.lift(merged), other.lift(merged)

    def __mul__(self, other) -> "Quotient":
        """The product, unreduced, on the generators Scalar * would give."""
        a, b = self._pair(other)
        pieces = a.pieces + b.pieces if a.pieces and b.pieces \
            else a.pieces or b.pieces
        return Quotient(a.gens, _dict_mul(a.num, b.num), pieces)

    __rmul__ = __mul__

    def __add__(self, other) -> "Quotient":
        a, b = self._pair(other)
        if a.pieces is b.pieces or a.pieces == b.pieces:
            return Quotient(a.gens, _dict_add(a.num, b.num), a.pieces)
        own, rest = _uncommon(a.pieces, b.pieces)
        return Quotient(a.gens, _dict_add(_dict_mul(a.num, _dict_prod(rest)),
                                          _dict_mul(b.num, _dict_prod(own))),
                        a.pieces + rest)

    __radd__ = __add__

    def __neg__(self) -> "Quotient":
        return Quotient(self.gens, _dict_neg(self.num), self.pieces)

    def __sub__(self, other) -> "Quotient":
        return self + (-other)

    def __rsub__(self, other) -> "Quotient":
        return (-self) + other

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Quotient, Scalar)):
            return NotImplemented
        a, b = self._pair(other)
        if not a.num or not b.num:
            return not a.num and not b.num
        if a.pieces is b.pieces:
            return a.num == b.num
        own, rest = _uncommon(a.pieces, b.pieces)
        return _dict_mul(a.num, _dict_prod(rest)) == \
            _dict_mul(b.num, _dict_prod(own))

    def __str__(self) -> str:
        return str(self.reduced())

    __repr__ = __str__


def _uncommon(a: list, b: list) -> tuple:
    """(own, rest): the pieces of a not in b and of b not in a, each
    piece matched at most once."""
    own, rest = [], list(b)
    for p in a:
        if p in rest:
            rest.remove(p)
        else:
            own.append(p)
    return own, rest


def over_one_denominator(values: Sequence[Scalar]) -> list:
    """The values as unreduced Quotients num*(L/den) over the lcm L of
    their denominators, all on one list of L's pieces (see
    _clearing_plan), on the generators their sum would have."""
    gens = _common_gens(values)
    nums, pieces = clear_denominators(values, gens)
    return [Quotient(gens, num, pieces) for num in nums]


def linear_combination(weights: Sequence[Scalar], rows: Sequence[Mapping],
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


def _term_shape(terms: Mapping[tuple, Scalar]) -> tuple:
    """What an evaluation needs of the exponents alone: (lo, hi, active,
    keys), with lo[i] <= 0 <= hi[i] the lowest and highest exponent of
    x_i, active the coordinates where one of them is nonzero, and keys[j]
    the exponents of term j on the active coordinates."""
    n = len(next(iter(terms)))
    lo, hi = [0] * n, [0] * n
    for e in terms:
        for i, x in enumerate(e):
            if x < lo[i]:
                lo[i] = x
            elif x > hi[i]:
                hi[i] = x
    active = [i for i in range(n) if lo[i] or hi[i]]
    if len(active) == n:
        return lo, hi, active, list(terms)
    return lo, hi, active, [tuple(e[i] for i in active) for e in terms]


def _monomial_factors(lifted: Mapping[int, Scalar], lo: Sequence[int],
                      hi: Sequence[int]) -> Optional[list]:
    """One table {p: (key, c)} per lifted coordinate x_i = u_i/v_i, in
    order, with c*X^key = u_i^(p - s_i) * v_i^(T_i - p), when every one of
    them is one term over one term (a zero coordinate is not); None
    otherwise.  Raises DegreeError where the power tables of u_i and v_i
    up to T_i - s_i would."""
    tables = []
    for i, x in lifted.items():
        if len(x.num) != 1 or len(x.den) != 1:
            return None
        (ku, cu), = x.num.items()
        (kv, cv), = x.den.items()
        s, top = lo[i], hi[i]
        if max(ku, kv) * (top - s) >= _KEY_LIMIT:
            raise _degree_overflow()
        tables.append({p: (ku * (p - s) + kv * (top - p),
                           cu ** (p - s) * cv ** (top - p))
                       for p in range(s, top + 1)})
    return tables


def evaluate_laurent(terms: Mapping[tuple, Scalar], coords: Sequence[Scalar],
                     plans: dict) -> Quotient:
    """Exact value of sum_e terms[e] * prod_i coords[i]**e[i] over
    integer exponent vectors e, as one unreduced Quotient.

    The coefficients are put over L, the lcm of their denominators, and
    each coordinate x_i = u_i/v_i is cleared by u_i^(-s_i) v_i^(T_i), with
    s_i <= 0 <= T_i the lowest and highest exponent of x_i.  Every term
    becomes the integer polynomial num*(L/den) * prod_i u_i^(e_i-s_i)
    v_i^(T_i-e_i); their sum is the numerator, over the factors of
    L * prod_i u_i^(-s_i) v_i^(T_i) other than 1 as the pieces, so that
    reduced() takes one gcd per factor of that denominator.  The value
    lives on the generator set the term-by-term sum would have: that of
    the coefficients and of every coordinate raised to a nonzero power.
    A constant polynomial gives its coefficient.

    Where every such x_i is one term over one term, as at every q,t
    spectral point and its a-scalings, each product over i is one
    monomial c*X^k, and a term adds its cleared numerator shifted by
    the key k and scaled by the int c.  Otherwise the products come from
    power tables of u_i and v_i, shared between terms with a common
    prefix of exponents.  Both give the same sum.

    What depends only on the terms is planned once per generator set in
    plans (a dict kept with the terms): the exponent shape (_term_shape,
    the same in every plan), the pieces of L and the cofactors L/den.  A
    call then builds only the per-point factors, the products
    num*(L/den) and the sum.
    """
    if not terms:
        return Quotient(coords[0].gens if coords else (), {}, [])
    plan = next(iter(plans.values()), None)
    lo, hi, active, keys = plan[0] if plan else _term_shape(terms)
    if not active:
        return Quotient.of(next(iter(terms.values())))
    for i in active:
        if lo[i] < 0 and coords[i].is_zero():
            raise DivisionByZero(f"zero coordinate x_{i+1} at negative exponent")
    coeffs = list(terms.values())
    gens = _common_gens(coeffs + [coords[i] for i in active])
    coeffs = [c.lift(gens) for c in coeffs]
    plan = plans.get(gens)
    if plan is None:
        plan = plans[gens] = ((lo, hi, active, keys),
                              *_clearing_plan(coeffs, len(gens)))
    _, pieces, cofactors = plan
    nums = _cleared(coeffs, cofactors)
    lifted = {i: coords[i].lift(gens) for i in active}
    total: Terms = {}
    tables = _monomial_factors(lifted, lo, hi)
    if tables is not None:
        for key, num in zip(keys, nums):
            shift, c = 0, 1
            for table, p in zip(tables, key):
                k, cp = table[p]
                shift += k
                c *= cp
            if max(num) + shift >= _KEY_LIMIT:
                raise _degree_overflow()
            for e, a in num.items():
                e += shift
                s = total.get(e, 0) + a * c
                if s:
                    total[e] = s
                else:
                    del total[e]
    else:
        # factor[i][p] = u_i^(p - s_i) * v_i^(T_i - p), from power tables
        unit = _dict_const(1)
        factor: dict = {}
        for i, x in lifted.items():
            s, top = lo[i], hi[i]
            upow, vpow = [unit], [unit]
            for _ in range(top - s):
                upow.append(_dict_mul(upow[-1], x.num))
                vpow.append(_dict_mul(vpow[-1], x.den))
            factor[i] = {p: _dict_mul(upow[p - s], vpow[top - p])
                         for p in range(s, top + 1)}
        mono: dict = {(): unit}
        for key, num in zip(keys, nums):
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
        if x.num != _UNIT:
            pieces = pieces + [x.num] * -lo[i]
        if x.den != _UNIT:
            pieces = pieces + [x.den] * hi[i]
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
