import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpmac.errors import (DivisionByZero, SpecializationCollision,
                              UsageError)
from interpmac.scalars import (GEN_ORDER, FieldConfig, Scalar,
                               dumps_canonical, qt_config, r_config, with_a)

GENS = ("q", "t")
Q = Scalar.generator("q", GENS)
T = Scalar.generator("t", GENS)
ONE = Scalar.one(GENS)
ZERO = Scalar.zero(GENS)


def rational(p, q=1):
    return Scalar.from_fraction(Fraction(p, q), GENS)


def test_reduce_exact_division():
    assert (Q * Q - ONE) / (Q - ONE) == Q + ONE
    from interpmac.scalars import reduce as reduce_fraction
    assert reduce_fraction(Q * Q - ONE, Q - ONE) == Q + ONE


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
    assert (ZERO / T).num == {}
    assert (ZERO / T).den == {(0, 0): 1}
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
    assert y.den == {(0, 1): 1}
    assert y.num == {(0, 0): -1}


def test_specialize_examples():
    assert (Q + ONE).specialize({"q": Fraction(2)}) == 3
    x = ONE / (Q * T - ONE)
    assert x.specialize({"q": Fraction(2), "t": Fraction(3)}) == Fraction(1, 5)


def test_specialize_pole_raises():
    x = ONE / (Q - ONE)
    with pytest.raises(SpecializationCollision):
        x.specialize({"q": Fraction(1)})


def test_specialize_needs_all_generators():
    with pytest.raises(UsageError):
        (Q + T).specialize({"q": Fraction(2)})


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
            assert (a * a.invert()).is_one()
            assert a / a == ONE


def test_specialize_is_ring_homomorphism():
    rng = random.Random(99)
    at = {"q": Fraction(5, 3), "t": Fraction(-7, 2)}
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        try:
            va, vb = a.specialize(at), b.specialize(at)
            assert (a * b).specialize(at) == va * vb
            assert (a + b).specialize(at) == va + vb
        except SpecializationCollision:
            continue


def test_multiplicative_independence_q2_t3():
    # q^j t^{-k} values pairwise distinct over the desk-scale exponent box
    at = {"q": Fraction(2), "t": Fraction(3)}
    seen = {}
    for j in range(6):
        for k in range(5):
            v = (Q**j * T**(-k)).specialize(at)
            assert v not in seen, (j, k, seen[v])
            seen[v] = (j, k)


def test_inverted_parameters_symbolic():
    assert (Q + ONE).substitute_reciprocal(["q"]) == (Q + ONE) / Q
    cfg = qt_config()
    inv = cfg.with_inverted()
    assert inv.gen("q") == ONE / Q
    assert inv.gen_power("t", -1) == T


def test_inverted_parameters_specialized():
    cfg = qt_config(2, 3).with_inverted()
    assert cfg.gen("q") == Scalar.from_fraction(Fraction(1, 2))
    assert cfg.gen("t") == Scalar.from_fraction(Fraction(1, 3))


def test_field_config_validation():
    with pytest.raises(SpecializationCollision):
        qt_config(1, 3)
    with pytest.raises(SpecializationCollision):
        qt_config(2, -1)
    with pytest.raises(UsageError):
        FieldConfig("nope")
    with pytest.raises(UsageError):
        FieldConfig("r", inverted=True)
    with pytest.raises(UsageError):
        FieldConfig("qt", (("q", Fraction(2)),))


def test_with_a_extension():
    ra = with_a(r_config())
    assert ra.gens() == ("r", "a")
    qta = with_a(qt_config(2, 3), Fraction(5))
    assert qta.gen("a") == Scalar.from_fraction(5)
    assert qta.family_config().cache_token() == qt_config(2, 3).cache_token()
    with pytest.raises(UsageError):
        with_a(qt_config(), Fraction(5))


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
    x = Scalar(gens, num, den)
    wide = tuple(reversed(gens)) + ("a",)
    return x, x.lift(tuple(g for g in GEN_ORDER if g in wide)), wide


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lifted_pairs())
def test_hash_survives_lifting(pair):
    x, lifted, wide = pair
    reordered = Scalar(wide, *[{tuple(e[lifted.gens.index(g)] for g in wide): c
                                for e, c in t.items()}
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
