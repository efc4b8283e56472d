import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpmac import scalars
from interpmac.errors import (DegreeError, DivisionByZero,
                              SpecializationCollision, UsageError)
from interpmac.scalars import (GEN_ORDER, Scalar, dumps_canonical,
                               seeded_rationals)
from interpmac.variant import QtConfig, RConfig, qt_config

GENS = ("q", "t")
Q = Scalar.generator("q", GENS)
T = Scalar.generator("t", GENS)
ONE = Scalar.one(GENS)
ZERO = Scalar.zero(GENS)


def rational(p, q=1):
    return Scalar.from_fraction(Fraction(p, q), GENS)


def _enc(terms, k):
    """Packed kernel form of a polynomial keyed by exponent tuples."""
    return scalars._pack_terms(terms, k)


def _dec(terms, k):
    """Exponent-tuple form of a packed polynomial."""
    return {scalars._unpack(e, k): c for e, c in terms.items()}


def _dict_eval(terms, gens, at):
    """Value of a packed integer polynomial at the rationals at."""
    total = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for g, p in zip(gens, scalars._unpack(e, len(gens))):
            if p:
                v *= Fraction(at[g]) ** p
        total += v
    return total


def specialize(x, at):
    """Reference value of the Scalar x at the assignment at, a rational
    per generator: a UsageError when a generator x uses is missing, a
    SpecializationCollision when the denominator vanishes there."""
    missing = [x.gens[j] for j in scalars._used_gens((x.num, x.den),
                                                     len(x.gens))
               if x.gens[j] not in at]
    if missing:
        raise UsageError(f"assignment missing generators {missing}")
    den = _dict_eval(x.den, x.gens, at)
    if den == 0:
        raise SpecializationCollision(f"denominator vanishes at {dict(at)}")
    return _dict_eval(x.num, x.gens, at) / den


def test_reduce_exact_division():
    assert (Q * Q - ONE) / (Q - ONE) == Q + ONE
    assert (Q * Q - ONE) / (ONE - Q) == -(Q + ONE)


def test_hash_agrees_with_equality():
    assert Scalar.one(()) == Scalar.one(("r",))
    assert len({Scalar.one(()), Scalar.one(("r",))}) == 1
    q_alone = Scalar.generator("q", ("q",))
    assert q_alone == Q and hash(q_alone) == hash(Q)
    reordered = Scalar.generator("q", ("t", "q")) / (T + ONE)
    assert reordered == Q / (T + ONE)
    assert hash(reordered) == hash(Q / (T + ONE))
    assert hash(rational(3, 4)) == hash(Fraction(3, 4))
    assert len({ZERO, Scalar.zero(), Fraction(0)}) == 1


def test_reduce_zero_numerator():
    assert ZERO / T == ZERO
    assert _dec((ZERO / T).num, 2) == {}
    assert _dec((ZERO / T).den, 2) == {(0, 0): 1}
    assert Scalar.zero().to_json() == "0/1"


def test_reduce_common_factor():
    assert (Q * T - T) / T == Q - ONE


def test_reduce_idempotent():
    x = (Q * Q - ONE) / (T * (Q - ONE))
    again = Scalar(x.gens, x.num, x.den)
    assert again.num == x.num and again.den == x.den


def test_denominator_sign_normalized():
    x = (Q - T) / (T - Q)
    assert x == Scalar.from_fraction(-1, GENS)
    y = ONE / (ZERO - T)
    assert _dec(y.den, 2) == {(0, 1): 1}
    assert _dec(y.num, 2) == {(0, 0): -1}


def test_specialize_examples():
    assert specialize(Q + ONE, {"q": Fraction(2)}) == 3
    x = ONE / (Q * T - ONE)
    assert specialize(x, {"q": Fraction(2), "t": Fraction(3)}) == Fraction(1, 5)


def test_specialize_pole_raises():
    x = ONE / (Q - ONE)
    with pytest.raises(SpecializationCollision):
        specialize(x, {"q": Fraction(1)})


def test_specialize_needs_all_generators():
    with pytest.raises(UsageError):
        specialize(Q + T, {"q": Fraction(2)})


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.invert()


def _random_scalar(rng):
    num = ZERO
    den = ZERO
    while den.is_zero():
        num = ZERO
        den = ZERO
        for e1 in range(2):
            for e2 in range(2):
                num = num + rational(rng.randint(-3, 3)) * Q**e1 * T**e2
                den = den + rational(rng.randint(-3, 3)) * Q**e1 * T**e2
    return num / den


def test_field_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        if not a.is_zero():
            assert a * a.invert() == ONE
            assert a / a == ONE


def test_specialize_is_ring_homomorphism():
    rng = random.Random(99)
    at = {"q": Fraction(5, 3), "t": Fraction(-7, 2)}
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        try:
            va, vb = specialize(a, at), specialize(b, at)
            assert specialize(a * b, at) == va * vb
            assert specialize(a + b, at) == va + vb
        except SpecializationCollision:
            continue


def test_multiplicative_independence_q2_t3():
    # q^j t^{-k} values pairwise distinct over the desk-scale exponent box
    at = {"q": Fraction(2), "t": Fraction(3)}
    seen = {}
    for j in range(6):
        for k in range(5):
            v = specialize(Q**j * T**(-k), at)
            assert v not in seen, (j, k, seen[v])
            seen[v] = (j, k)


def test_inverted_parameters_symbolic():
    cfg = qt_config()
    inv = cfg.with_inverted()
    assert inv.gen("q") == ONE / Q
    assert inv.gen_power("t", -1) == T


def test_inverted_parameters_specialized():
    cfg = qt_config(2, 3).with_inverted()
    assert cfg.gen("q") == Scalar.from_fraction(Fraction(1, 2))
    assert cfg.gen("t") == Scalar.from_fraction(Fraction(1, 3))


def test_str_brackets_a_denominator_of_several_factors():
    # 1/q*t would read as t/q
    assert str(ONE / (Q * T)) == "1/(q*t)"
    assert str(-(Q + 1) / (Q * T ** 2)) == "(-q - 1)/(q*t^2)"
    assert str(ONE / (2 * Q)) == "1/(2*q)"
    assert str(ONE / Q ** 2) == "1/q^2"
    assert str((Q + 1) / (Q - T)) == "(q + 1)/(q - t)"


def test_field_config_validation():
    with pytest.raises(SpecializationCollision):
        qt_config(1, 3)
    with pytest.raises(SpecializationCollision):
        qt_config(2, -1)
    with pytest.raises(UsageError):
        RConfig(inverted=True)
    with pytest.raises(UsageError):
        QtConfig((("q", Fraction(2)),))


def test_seeded_rationals_drains_without_repeats():
    stream = seeded_rationals(random.Random(7))
    drawn = []
    with pytest.raises(SpecializationCollision):
        for v in stream:
            drawn.append(v)
    candidates = {Fraction(p, q) for p in range(2, 100) for q in range(1, 10)}
    assert len(drawn) == len(set(drawn)) == len(candidates) == 574
    assert set(drawn) == candidates


def test_lift_and_mixed_gens():
    r = Scalar.generator("r", ("r",))
    a = Scalar.generator("a", ("r", "a"))
    s = r + a
    assert s.gens == ("r", "a")
    assert s - a == r.lift(("r", "a"))
    assert (Q + r).gens == ("q", "t", "r")


@st.composite
def _lifted_pairs(draw):
    """A reduced scalar over a subset of (q, t, r) and its lift into the
    same generators reordered and padded with an unused one."""
    gens = tuple(g for g in ("q", "t", "r") if draw(st.booleans()))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(gens)),
                           st.integers(-3, 3), max_size=3)
    num = {e: c for e, c in draw(poly).items() if c}
    den = {e: c for e, c in draw(poly).items() if c} or {(0,) * len(gens): 1}
    x = Scalar(gens, _enc(num, len(gens)), _enc(den, len(gens)))
    wide = tuple(reversed(gens)) + ("a",)
    return x, x.lift(tuple(g for g in GEN_ORDER if g in wide)), wide


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lifted_pairs())
def test_hash_survives_lifting(pair):
    x, lifted, wide = pair
    reordered = Scalar(wide, *[_enc({tuple(e[lifted.gens.index(g)] for g in wide): c
                                     for e, c in _dec(t, len(lifted.gens)).items()},
                                    len(wide))
                               for t in (lifted.num, lifted.den)])
    assert x == lifted == reordered
    assert hash(x) == hash(lifted) == hash(reordered)
    assert len({x, lifted, reordered}) == 1


def test_serialization_round_trip():
    x = (Q * Q - T) / (T * T * (Q + ONE))
    data = x.to_json()
    back = Scalar.from_json(data)
    assert back == x
    frac = Scalar.from_fraction(Fraction(-7, 3))
    assert Scalar.from_json(frac.to_json()) == frac
    assert dumps_canonical(data) == dumps_canonical(back.to_json())


def test_integer_coercion():
    assert Q + 1 == Q + ONE
    assert 2 * T == T + T
    assert (T - T) == 0
    assert 1 / T == T.invert()


# --- heuristic gcd in _poly_gcd ----------------------------------------------

def _prs_gcd(a, b, k):
    """_poly_gcd with the heuristic disabled: the pseudo-remainder
    sequence alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_heu_gcd", lambda a, b, k: None)
        return scalars._poly_gcd(a, b, k)


def _mul(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = scalars._dict_mul(out, f)
    return out


def _unit(k, j):
    return tuple(int(i == j) for i in range(k))


def _norm(a):
    """Largest absolute coefficient of the primitive part of a."""
    return max(map(abs, a.values())) // scalars._int_content(a.values())


def _xis(a, b, count):
    """The first count points the heuristic sets the last generator of a
    and b to."""
    xi = 2 * min(_norm(a), _norm(b)) + 2
    out = []
    for _ in range(count):
        out.append(xi)
        xi = xi * 73794 // 27011
    return out


def _minus(k, j, xi):
    """x_j - xi."""
    return _enc({_unit(k, j): 1, (0,) * k: -xi}, k)


def _polys(k, deg, size):
    return st.dictionaries(st.tuples(*[st.integers(0, deg)] * k),
                           st.integers(-5, 5).filter(bool),
                           min_size=1, max_size=size).map(
                               lambda t: _enc(t, k))


@st.composite
def _gcd_cases(draw):
    """(a, b, k, planted): two polynomials in k generators and the common
    factor of positive degree planted in both, or None."""
    k = draw(st.sampled_from([2, 3]))
    a = draw(_polys(k, 3 if k == 2 else 2, 4))
    b = draw(_polys(k, 3 if k == 2 else 2, 4))
    j = draw(st.integers(0, k - 1))
    i = (j + 1) % k
    kind = draw(st.sampled_from(["random", "planted", "content", "one-gen",
                                 "lc-vanishes", "lc-vanishes-shared",
                                 "lc-vanishes-always"]))
    planted = None
    if kind == "planted":
        planted = draw(_polys(k, 1, 3).filter(any))
    elif kind == "content":
        a = {e: 2 * c for e, c in a.items()}
        b = {e: 4 * c for e, c in b.items()}
    elif kind == "one-gen":
        planted = _enc({_unit(k, j): draw(st.integers(1, 3)),
                        (0,) * k: draw(st.integers(-3, 3))}, k)
    elif kind == "lc-vanishes":
        xi, = _xis(a, b, 1)
        a = _mul(a, _minus(k, j, xi), _enc({_unit(k, i): 1, (0,) * k: 1}, k))
    elif kind == "lc-vanishes-shared":
        # a factor of both whose leading coefficients vanish at the first
        # point of the unplanted pair
        xi, = _xis(a, b, 1)
        planted = scalars._dict_add(_mul(_minus(k, j, xi), _minus(k, i, xi)),
                                    _enc({(0,) * k: draw(st.integers(1, 3))}, k))
    else:
        a = _mul(a, *[_minus(k, j, xi) for xi in _xis(a, b, 3)],
                 _enc({_unit(k, i): 1}, k))
    if planted is not None:
        a, b = _mul(a, planted), _mul(b, planted)
    return a, b, k, planted


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gcd_cases())
def test_poly_gcd_matches_prs(case):
    a, b, k, planted = case
    want = _prs_gcd(a, b, k)
    assert scalars._poly_gcd(a, b, k) == want
    assert scalars._heu_gcd(a, b, k) in (None, want)
    if planted is not None:
        scalars._dict_divexact(want, planted)


@st.composite
def _combinations(draw):
    """Weights and rows of scalars over subsets of one generator set."""
    gens = draw(st.sampled_from([(), ("a",), ("r", "a"), ("q", "t", "a")]))

    def scalar():
        sub = tuple(g for g in gens if draw(st.booleans()))
        poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(sub)),
                               st.integers(-3, 3), max_size=3)
        num = {e: c for e, c in draw(poly).items() if c}
        den = {e: c for e, c in draw(poly).items() if c} or {(0,) * len(sub): 1}
        return Scalar(sub, _enc(num, len(sub)), _enc(den, len(sub)))

    m = draw(st.integers(1, 4))
    weights = [scalar() for _ in range(m)]
    rows = [{key: scalar() for key in draw(st.sets(st.integers(0, 3),
                                                   max_size=3))}
            for _ in range(m)]
    return weights, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_combinations())
def test_linear_combination_matches_termwise(case):
    weights, rows = case
    want: dict = {}
    for w, row in zip(weights, rows):
        for key, v in row.items():
            want[key] = w * v if key not in want else want[key] + w * v
    want = {key: v for key, v in want.items() if not v.is_zero()}
    got = scalars.linear_combination(weights, rows)
    assert {key: v.reduced() for key, v in got.items()} == want
    # with the generators given, every entry lives on exactly those
    gens = GEN_ORDER
    got = {key: v.reduced() for key, v in
           scalars.linear_combination(weights, rows, gens).items()}
    assert {key: dumps_canonical(v.to_json()) for key, v in got.items()} == \
        {key: dumps_canonical(v.lift(gens).to_json()) for key, v in want.items()}


def _small_poly(draw, k, nonzero):
    """Up to 3 terms of degree <= 2 per generator in k generators, keyed
    by exponent tuples."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * k),
                                 st.integers(-3, 3), max_size=3))
    terms = {e: c for e, c in terms.items() if c}
    if nonzero and not terms:
        terms = {(0,) * k: draw(st.sampled_from([-2, -1, 1, 2]))}
    return terms


def _rekey(terms, src, dst):
    """A polynomial over the generators src, keyed over dst."""
    return {tuple(e[src.index(g)] if g in src else 0 for g in dst): c
            for e, c in terms.items()}


def _mul_tuples(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@st.composite
def _quotient_cases(draw):
    """(x, y, same, y_off): unreduced values over 0-3 generators in any
    order; pieces may have a negative leading coefficient and a numerator
    may be zero.  When same, y is x written in another unreduced form:
    over its generators reordered or widened, times f / f.  y_off is y
    with one numerator coefficient changed by one."""
    def gens(at_least=()):
        pool = [g for g in GEN_ORDER if g not in at_least]
        size = draw(st.integers(len(at_least), 3))
        extra = list(draw(st.permutations(pool)))[:size - len(at_least)]
        return tuple(draw(st.permutations(list(at_least) + extra)))

    gx = gens()
    num = _small_poly(draw, len(gx), nonzero=False)
    pieces = [_small_poly(draw, len(gx), nonzero=True)
              for _ in range(draw(st.integers(0, 3)))]
    same = draw(st.booleans())
    if same:
        gy = gens(gx)
        f = _small_poly(draw, len(gy), nonzero=True)
        ynum = _mul_tuples(_rekey(num, gx, gy), f)
        ypieces = [_rekey(p, gx, gy) for p in pieces] + [f]
        ypieces = list(draw(st.permutations(ypieces)))
    else:
        gy = gens()
        ynum = _small_poly(draw, len(gy), nonzero=False)
        ypieces = [_small_poly(draw, len(gy), nonzero=True)
                   for _ in range(draw(st.integers(0, 3)))]
    key = draw(st.sampled_from(sorted(ynum))) if ynum else (0,) * len(gy)
    yoff = dict(ynum)
    yoff[key] = yoff.get(key, 0) + draw(st.sampled_from([-1, 1]))

    def quotient(g, n, ps):
        return scalars.Quotient(g, _enc(n, len(g)),
                                [_enc(p, len(g)) for p in ps])

    return (quotient(gx, num, pieces), quotient(gy, ynum, ypieces), same,
            quotient(gy, yoff, ypieces))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_quotient_cases())
def test_quotient_comparison_matches_reduced_equality(case):
    x, y, same, y_off = case
    rx, ry = x.reduced(), y.reduced()
    assert x.is_zero() == rx.is_zero() and y.is_zero() == ry.is_zero()
    want = rx == ry
    assert (x == y) == (y == x) == want
    assert (x == ry) == (ry == x) == want
    assert (x != y) == (not want)
    if same:
        assert x == y
    assert (x == y_off) == (rx == y_off.reduced())
    assert y != y_off and y_off != y
    if want:
        assert x != y_off
    assert (x * y).reduced() == rx * ry


def test_quotient_examples():
    r = ("r",)
    one_plus_r = _enc({(0,): 1, (1,): 1}, 1)
    # (r + 1)^2 / (r + 1) over two forms and over reordered generators
    x = scalars.Quotient(r, scalars._dict_mul(one_plus_r, one_plus_r),
                         [one_plus_r])
    y = scalars.Quotient(("a", "r"), _enc({(0, 0): -1, (0, 1): -1}, 2),
                         [_enc({(0, 0): -1}, 2)])
    assert x == y and str(x) == str(y) == "r + 1"
    assert x.reduced() == Scalar(r, one_plus_r, _enc({(0,): 1}, 1))
    zero = scalars.Quotient(r, {}, [one_plus_r])
    assert zero.is_zero() and zero == Scalar.zero(("q",))
    assert zero != x and x != zero


def test_heuristic_gcd_examples(monkeypatch):
    heu = scalars._heu_gcd
    # content only
    two_q = _enc({(1, 0): 2, (0, 0): 2}, 2)
    four_t = _enc({(0, 1): 4, (0, 0): 2}, 2)
    assert _dec(heu(two_q, four_t, 2), 2) == {(0, 0): 2}
    assert _dec(scalars._poly_gcd(two_q, four_t, 2), 2) == {(0, 0): 2}
    q_t = _enc({(1, 0): 1, (0, 1): 1}, 2)
    assert _dec(heu(_mul(two_q, two_q, q_t), _mul(four_t, q_t, q_t), 2),
                2) == {(1, 0): 2, (0, 1): 2}
    # b - a = t - 8 vanishes at the first point, 8: the images agree
    # there, the first lift is a, which does not divide b, and the
    # second point proves the gcd is 1
    a = _enc({(1, 0): 1, (0, 1): 1, (0, 0): -3}, 2)
    b = _enc({(1, 0): 1, (0, 1): 2, (0, 0): -11}, 2)
    assert _xis(a, b, 1) == [8]
    assert _dec(heu(a, b, 2), 2) == {(0, 0): 1}
    monkeypatch.setattr(scalars, "_HEU_ATTEMPTS", 1)
    assert heu(a, b, 2) is None
    assert _dec(scalars._poly_gcd(a, b, 2), 2) == {(0, 0): 1}
    # with no attempt at all the pseudo-remainder sequence decides
    monkeypatch.setattr(scalars, "_HEU_ATTEMPTS", 0)
    assert heu(_mul(a, q_t), _mul(b, q_t), 2) is None
    assert scalars._poly_gcd(_mul(a, q_t), _mul(b, q_t), 2) == q_t
    monkeypatch.undo()
    # an image coefficient could pass the bit cap: the same fallback
    big = _enc({(1, 0): 1, (0, 1): 2 ** 70000, (0, 0): 1}, 2)
    other = _enc({(1, 0): 1, (0, 1): -1, (0, 0): 3}, 2)
    a, b = _mul(big, q_t), _mul(other, q_t)
    assert heu(a, b, 2) is None
    assert scalars._poly_gcd(a, b, 2) == _prs_gcd(a, b, 2) == q_t
    # a common factor is never dropped, also where it is constant or
    # small at a point near the operands' norms; every such factor here
    # has negative coefficients, and the heuristic itself finds it
    for c in range(1, 40):
        for u in (_enc({(1, 1): 1, (1, 0): -c, (0, 0): 1}, 2),
                  _enc({(0, 1): 1, (0, 0): -c}, 2),
                  _enc({(0, 2): 1, (1, 0): -c, (0, 0): -1}, 2)):
            for f, g in ((_enc({(1, 0): 1, (0, 0): 1}, 2),
                          _enc({(1, 0): 1, (0, 0): 2}, 2)),
                         (_enc({(0, 0): 1}, 2), q_t),
                         (_enc({(1, 0): 1, (0, 0): -1}, 2),
                          _enc({(0, 1): 3, (0, 0): -1}, 2))):
                a, b = _mul(u, f), _mul(u, g)
                assert heu(a, b, 2) == u, (c, u, f, g)


def test_heuristic_gcd_recovers_from_an_inner_miss(monkeypatch):
    # a pair of `check all --n 2 --deg 4 --symbolic --seed 42` whose gcd
    # is the monomial x_0^9.  When the inner levels ran the heuristic
    # themselves, the one-generator level missed at all of its points on
    # the first pair of one-generator images, and its None sent the
    # whole call to the pseudo-remainder sequence
    data = json.loads((pathlib.Path(__file__).parent / "data"
                       / "heu_gcd_inner_fallback.json").read_text())
    k = data["k"]
    a, b = [_enc({tuple(map(int, e.split(","))): c
                  for e, c in data[x].items()}, k) for x in ("a", "b")]
    want = _prs_gcd(a, b, k)
    assert _dec(want, k) == {(9, 0, 0): 1}
    assert scalars._heu_gcd(a, b, k) == want
    splits = []
    split_main = scalars._split_main
    monkeypatch.setattr(scalars, "_split_main",
                        lambda t, k: splits.append(k) or split_main(t, k))
    assert scalars._poly_gcd(a, b, k) == want
    assert splits == []


def test_poly_gcd_and_canonical_forms_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    for gens in (("q", "t"), ("r", "a")):
        syms = sympy.symbols(gens)
        k = len(gens)

        def poly(terms):
            return sympy.Poly.from_dict(_dec(terms, k) or {(0,) * k: 0}, *syms)

        def rand_terms(size, deg):
            terms = {}
            for _ in range(size):
                e = tuple(rng.randint(0, deg) for _ in range(k))
                terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
            return _enc({e: c for e, c in terms.items() if c}
                        or {(0,) * k: 1}, k)

        for _ in range(40):
            f = rand_terms(rng.randint(1, 3), 1)
            a = _mul(rand_terms(rng.randint(1, 4), 2), f)
            b = _mul(rand_terms(rng.randint(1, 4), 2), f)
            g = poly(scalars._poly_gcd(a, b, k))
            want = sympy.gcd(poly(a), poly(b))
            assert g in (want, -want), (a, b)

            c, d = rand_terms(3, 2), rand_terms(3, 2)
            x, y = Scalar(gens, a, b), Scalar(gens, c, d)
            ex = poly(a).as_expr() / poly(b).as_expr()
            ey = poly(c).as_expr() / poly(d).as_expr()
            for value, expr in ((x, ex), (x + y, ex + ey), (x * y, ex * ey)):
                # same value as sympy's reduced form, coprime over Z,
                # positive graded-lex leading coefficient
                p, q = (sympy.Poly(e, *syms, domain="QQ")
                        for e in sympy.fraction(sympy.cancel(expr)))
                num, den = poly(value.num), poly(value.den)
                assert num * q == den * p, (a, b, c, d)
                assert sympy.gcd(num, den) in (1, -1), (a, b, c, d)
                assert den.LC(order="grlex") > 0


# --- packed kernel against tuple-keyed references ----------------------------

M = scalars.MAX_DEGREE


def _grlex_key(e):
    return (sum(e), e)


def _ref_dict_mul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _ref_dict_addmul(acc, a, b):
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                del acc[e]


def _ref_dict_divexact(a, b, k):
    if len(b) == 1:
        (eb, cb), = b.items()
        out = {}
        for ea, ca in a.items():
            e = tuple(x - y for x, y in zip(ea, eb))
            if any(x < 0 for x in e) or ca % cb:
                raise ArithmeticError("inexact polynomial division")
            out[e] = ca // cb
        return out
    rem = dict(a)
    quot = {}
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


def _degree(terms):
    return max((sum(e) for e in terms), default=0)


@st.composite
def _kernel_operand(draw, k):
    """A polynomial in k generators keyed by exponent tuples: zero, a
    constant (often +-1), one term, a few terms with signed coefficients,
    or terms of total degree M // 2, M // 2 + 1 or M, so that products
    land on the slot limit or one past it."""
    coeff = st.integers(-6, 6).filter(bool)
    kind = draw(st.sampled_from(["zero", "constant", "unit", "term",
                                 "general", "general", "limit"]))
    if kind == "zero":
        return {}
    if kind == "constant":
        return {(0,) * k: draw(coeff)}
    if kind == "unit":
        return {(0,) * k: draw(st.sampled_from([1, -1]))}
    if kind == "limit":
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [draw(st.integers(0, 1)) for _ in range(k)]
            if k:
                j = draw(st.integers(0, k - 1))
                e[j] += draw(st.sampled_from([M // 2, M // 2 + 1, M])) - sum(e)
            terms[tuple(e)] = draw(coeff)
        return terms
    exps = st.tuples(*[st.integers(0, 3)] * k)
    if kind == "term":
        return {draw(exps): draw(coeff)}
    return draw(st.dictionaries(exps, coeff, min_size=1, max_size=5))


@st.composite
def _kernel_cases(draw):
    k = draw(st.integers(0, 4))
    return (k, draw(_kernel_operand(k)), draw(_kernel_operand(k)),
            draw(_kernel_operand(k)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError:
        return ArithmeticError


def _packed_divexact(a, b, k):
    """_dict_divexact on the packed forms, decoded."""
    return _dec(scalars._dict_divexact(_enc(a, k), _enc(b, k)), k)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_exponent_kernel_matches_reference(case):
    k, a, b, c = case
    pa, pb, pc = (_enc(x, k) for x in (a, b, c))
    pa0, pb0 = dict(pa), dict(pb)
    want = _ref_dict_mul(a, b)
    if _degree(want) > M:
        # a product past the slots raises instead of wrapping
        with pytest.raises(DegreeError):
            scalars._dict_mul(pa, pb)
        with pytest.raises(DegreeError):
            scalars._dict_addmul(dict(pc), pa, pb)
        return
    prod = scalars._dict_mul(pa, pb)
    assert _dec(prod, k) == want
    # a fresh dict, the operands untouched
    assert prod is not pa and prod is not pb and pa == pa0 and pb == pb0

    acc, ref = dict(pc), dict(c)
    scalars._dict_addmul(acc, pa, pb)
    _ref_dict_addmul(ref, a, b)
    assert _dec(acc, k) == ref
    # the product cancels against its negation to exactly zero
    acc = scalars._dict_neg(prod)
    scalars._dict_addmul(acc, pa, pb)
    assert acc == {}

    if b:
        # exact divisions give the cofactor back; c * b + a is most often
        # inexact, and then both forms must raise
        assert _dec(scalars._dict_divexact(prod, pb), k) == \
            _ref_dict_divexact(want, b, k) == a
        num = scalars._dict_add(_ref_dict_mul(c, b), a)
        if _degree(num) <= M:
            assert _outcome(_packed_divexact, num, b, k) == \
                _outcome(_ref_dict_divexact, num, b, k)


def test_exponent_kernel_examples():
    x, y = _enc({(1, 0): 1}, 2), _enc({(0, 1): 1}, 2)
    # (x + y)(x - y): the mixed terms cancel
    assert _dec(scalars._dict_mul(_enc({(1, 0): 1, (0, 1): 1}, 2),
                                  _enc({(1, 0): 1, (0, 1): -1}, 2)), 2) == \
        {(2, 0): 1, (0, 2): -1}
    assert _dec(scalars._dict_mul(_enc({(0, 0): -3}, 2), x), 2) == {(1, 0): -3}
    assert _dec(scalars._dict_mul(y, _enc({(1, 0): 2, (0, 0): 1}, 2)), 2) == \
        {(1, 1): 2, (0, 1): 1}
    assert _dec(scalars._dict_mul({0: 4}, {0: -2}), 0) == {(): -8}
    assert _dec(scalars._dict_divexact({0: 6}, {0: 3}), 0) == {(): 2}
    for a, b, k in (({(): 6}, {(): 4}, 0),            # integer remainder
                    ({(1, 0): 1}, {(0, 1): 1}, 2),    # negative exponent
                    ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}, 2),
                    # total degree suffices, but the t slot borrows
                    ({(2, 0): 1}, {(1, 1): 1}, 2),
                    ({(2, 0): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): 1}, 2),
                    ({(M, 0, 0): 1}, {(0, 0, 1): 1}, 3),
                    ({(0, 0, 0, M): 1}, {(0, 0, 1, 1): 1}, 4)):
        with pytest.raises(ArithmeticError):
            scalars._dict_divexact(_enc(a, k), _enc(b, k))
    # the graded-lex order is the integer order of the keys
    exps = [(0, 0, 2), (1, 0, 0), (0, 1, 1), (2, 0, 0), (0, 0, M), (M, 0, 0)]
    keys = [scalars._pack_terms({e: 1}, 3).popitem()[0] for e in exps]
    assert sorted(exps, key=_grlex_key) == \
        [e for _, e in sorted(zip(keys, exps))]


def test_slot_overflow_raises():
    q = Scalar.generator("q", GENS)
    assert _dec((q ** M).num, 2) == {(M, 0): 1}
    with pytest.raises(DegreeError):
        q ** (M + 1)
    with pytest.raises(DegreeError):
        q ** 99999999999999
    with pytest.raises(DegreeError):
        qt_config().gen_power("t", -(M + 1))
    with pytest.raises(DegreeError):
        (q ** M) * T
    with pytest.raises(DegreeError):
        (q ** M + ONE) * (T + ONE)
    at_limit = {"gens": ["q", "t"], "num": {f"{M},0": "1"}, "den": {"0,0": "1"}}
    assert Scalar.from_json(at_limit) == q ** M
    for exps in (f"{M + 1},0", f"{M},1", "-1,0", "1,0,0"):
        data = dict(at_limit, num={exps: "1"})
        with pytest.raises(DegreeError):
            Scalar.from_json(data)
    with pytest.raises(UsageError):
        Scalar.from_json(dict(at_limit, gens=["q", "x"]))


def test_lift_into_appended_generators_keeps_keys():
    x = (Q * Q - T) / (T + ONE)
    wide = x.lift(("q", "t", "a"))
    assert wide.num is x.num and wide.den is x.den
    assert wide == x and hash(wide) == hash(x)
    r = Scalar.generator("r", ("r",)) + 1
    assert r.lift(("r", "a")).num is r.num
    # a generator moved to another slot is re-keyed
    a = Scalar.generator("a", ("a",))
    assert _dec(a.lift(("r", "a")).num, 2) == {(0, 1): 1}


def _den_cases(gens, rng, count):
    """(x, y) pairs of canonical Scalars over gens with x.den == y.den != 1:
    d = f1*f2, x = n1/d and y = n2/d, where n1 + n2 is f1*u (a common
    factor with d), -n1 (a sum that cancels to 0) or unrelated."""
    k = len(gens)

    def poly(terms, deg):
        return _enc({tuple(rng.randint(0, deg) for _ in range(k)):
                     rng.randint(-4, 4) for _ in range(terms)}, k)

    out = []
    while len(out) < count:
        f1, f2 = poly(2, 2), poly(2, 1)
        if k == 0:
            f1, f2 = {0: rng.randint(2, 9)}, {0: rng.randint(1, 5)}
        d = scalars._dict_mul(f1, f2)
        if not d or scalars._leading_coeff(d) < 0:
            continue
        n1 = poly(3, 2)
        kind = len(out) % 3
        n2 = (scalars._dict_add(scalars._dict_mul(f1, poly(2, 1)),
                                scalars._dict_neg(n1)) if kind == 0
              else scalars._dict_neg(n1) if kind == 1 else poly(3, 2))
        if not n1 or not n2:
            continue
        x, y = Scalar(gens, n1, d), Scalar(gens, n2, d)
        if x.den == d and y.den == d and d != {0: 1}:
            out.append((x, y))
    return out


@pytest.mark.parametrize("gens", [(), ("r",), ("r", "a"), ("q", "t")],
                         ids=["Q", "Q(r)", "Q(r,a)", "Q(q,t)"])
def test_equal_denominator_sum_matches_general_path(gens):
    rng = random.Random(f"equal-den|{gens}")
    zeros = 0
    for x, y in _den_cases(gens, rng, 60):
        # the general path: over den * den, reduced by the constructor
        want = Scalar(gens, scalars._dict_add(
            scalars._dict_mul(x.num, y.den), scalars._dict_mul(y.num, x.den)),
            scalars._dict_mul(x.den, y.den))
        got = x + y
        assert (got.num, got.den) == (want.num, want.den)
        assert dumps_canonical(got.to_json()) == \
            dumps_canonical(want.to_json())
        assert (x - (-y)) == got
        zeros += got.is_zero()
    assert zeros >= 20


def _quotient_sum_cases(rng, gens):
    """(x, y, qx, qy): random Scalars and Quotients equal to them, on
    their own pieces, on one shared piece list, and on equal but
    distinct lists."""
    for _ in range(25):
        x, y = _random_scalar(rng), _random_scalar(rng)
        if gens != GENS:
            x, y = x.lift(gens), y.lift(gens) * Scalar.generator("a", gens)
        yield x, y, scalars.Quotient.of(x), scalars.Quotient.of(y)
        qx, qy = scalars.over_one_denominator([x, y])
        assert qx.pieces is qy.pieces
        yield x, y, qx, qy
        yield x, y, qx, scalars.Quotient(qy.gens, qy.num, list(qy.pieces))


@pytest.mark.parametrize("gens", [GENS, ("q", "t", "a")],
                         ids=["Q(q,t)", "Q(q,t,a)"])
def test_quotient_sums_match_scalar_arithmetic(gens):
    rng = random.Random(f"quotient-sum|{gens}")
    for x, y, qx, qy in _quotient_sum_cases(rng, gens):
        for got, want in [(qx + qy, x + y), (qx - qy, x - y), (-qx, -x),
                          (qx + y, x + y), (x + qy, x + y),
                          (qx - y, x - y), (x - qy, x - y),
                          (y * qx, x * y), (qx * y, x * y)]:
            assert isinstance(got, scalars.Quotient)
            assert got.reduced() == want and got == want
        assert (qx - qx).is_zero() and (x - qx).is_zero()
        assert (qx == qy) == (x == y) and (qx == qx + qy - qy)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_quotient_cases())
def test_quotient_sums_match_reduced_sums(case):
    x, y, _, _ = case
    rx, ry = x.reduced(), y.reduced()
    assert (x + y).reduced() == rx + ry
    assert (x - y).reduced() == rx - ry
    assert (ry + x).reduced() == (x + ry).reduced() == rx + ry
    assert (rx - y).reduced() == rx - ry
