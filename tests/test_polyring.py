import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpmac.errors import (DegreeError, DimensionError, DivisionByZero,
                              UnsupportedSubstitution)
from interpmac import scalars
from interpmac.interpolation import FamilyCache, FamilyKey, g_recursive
from interpmac.polyring import (LaurentPoly, exact_div_check,
                                negate_shift_all, scale_all, shift_all)
from interpmac.scalars import Scalar, clear_denominators, dumps_canonical
from interpmac.shapes import (Permutation, enumerate_compositions,
                              reciprocal_point, spectral_qt, spectral_r,
                              tau_point)
from interpmac.variant import qt_config, r_config

QT = qt_config()
R = r_config()
ONE = QT.one()


def x(i, n=2, cfg=QT):
    return LaurentPoly.variable(n, i, cfg.one())


def const(c, n=2):
    return LaurentPoly.constant(n, c)


def test_evaluate_examples():
    f = x(2) - const(QT.gen_power("t", -1))
    assert f.evaluate(tau_point(2, QT)).is_zero()
    assert const(ONE).evaluate((QT.scalar(7), QT.scalar(9))).is_one()
    g = x(1) * x(2)
    q, tinv = QT.gen("q"), QT.gen_power("t", -1)
    assert g.evaluate((q, tinv)) == q * tinv


def test_evaluate_zero_at_negative_power():
    f = LaurentPoly.monomial(2, (-1, 0), ONE)
    with pytest.raises(DivisionByZero):
        f.evaluate((QT.zero(), QT.one()))
    # (0, 0)-bar = rho = (0, -r): its zero coordinate only at a negative power
    rho = spectral_r((0, 0), R)
    g = LaurentPoly(2, {(-1, 1): R.one(), (0, 2): R.gen("r")})
    with pytest.raises(DivisionByZero):
        g.evaluate(rho)
    h = LaurentPoly(2, {(1, 1): R.one(), (0, 2): R.gen("r")})
    assert h.evaluate(rho) == R.gen("r") ** 3


def test_evaluate_homomorphism():
    rng = random.Random(31)
    pt = (QT.scalar(rng.randint(1, 5)), QT.gen("q") + 1)
    for _ in range(20):
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


def _random_poly(rng, n=2, deg=2):
    terms = {}
    for e1 in range(deg + 1):
        for e2 in range(deg + 1 - e1):
            c = rng.randint(-4, 4)
            if c:
                terms[(e1, e2)] = QT.scalar(c)
    return LaurentPoly(n, terms)


def test_ring_axioms_randomized():
    rng = random.Random(12)
    for _ in range(25):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        if not f.is_zero() and not g.is_zero():
            assert (f * g).total_degree() <= f.total_degree() + g.total_degree()


def test_permute_vars_examples():
    f = x(1) + x(2).scale(QT.scalar(2))
    assert f.permute_vars(Permutation((1, 2))) == f
    assert x(1).permute_vars(Permutation((2, 1))) == x(2)
    assert f.permute_vars(Permutation.longest(2)) == \
        x(2) + x(1).scale(QT.scalar(2))


def test_permute_vars_group_action():
    rng = random.Random(77)
    import itertools
    f = LaurentPoly(3, {(1, 0, 2): QT.scalar(3), (0, 1, 0): QT.scalar(-1)})
    for wu in itertools.permutations((1, 2, 3)):
        for wv in itertools.permutations((1, 2, 3)):
            u, w = Permutation(wu), Permutation(wv)
            assert f.permute_vars(u * w) == \
                f.permute_vars(w).permute_vars(u)


def test_affine_substitute_examples():
    m = LaurentPoly.variable(1, 1, ONE)
    sub = m.affine_substitute({1: (QT.gen("q").invert(), 1, QT.zero())})
    assert sub == LaurentPoly.monomial(1, (1,), QT.gen_power("q", -1))

    r = R.gen("r")
    f = LaurentPoly.variable(2, 2, R.one()) + LaurentPoly.constant(2, r)
    assert negate_shift_all(f, r) == LaurentPoly.variable(2, 2, -R.one())

    a = Scalar.generator("a", ("a",))
    g = LaurentPoly.variable(1, 1, Scalar.one(("a",))) + \
        LaurentPoly.constant(1, Scalar.one(("a",)))
    scaled = g.affine_substitute({1: (a, 1, Scalar.zero(("a",)))})
    assert scaled.coefficient((1,), Scalar.zero(("a",))) == a


def test_affine_substitute_negative_power_guard():
    f = LaurentPoly.monomial(2, (-1, 0), ONE)
    ok = f.affine_substitute({1: (QT.gen("q"), 2, QT.zero())})
    assert ok == LaurentPoly.monomial(2, (0, -1), QT.gen_power("q", -1))
    with pytest.raises(UnsupportedSubstitution):
        f.affine_substitute({1: (QT.one(), 1, QT.one())})


def test_top_part_examples():
    f = x(2) - const(QT.gen_power("t", -1))
    assert f.top_part(1) == x(2)
    assert const(ONE).top_part(0) == const(ONE)
    g = x(1) + x(2) - const(ONE) - const(QT.gen_power("t", -1))
    assert g.top_part(1) == x(1) + x(2)
    with pytest.raises(DegreeError):
        (x(1) * x(2)).top_part(1)


def test_coefficient_examples():
    f = x(2) - const(QT.gen_power("t", -1))
    assert f.coefficient((0, 1), QT.zero()).is_one()
    assert f.coefficient((0, 0), QT.zero()) == -QT.gen_power("t", -1)
    assert f.coefficient((5, 5), QT.zero()).is_zero()


def test_divided_difference_divisibility():
    rng = random.Random(9)
    for _ in range(25):
        f = _random_poly(rng)
        dd = f.divided_difference(1)
        assert exact_div_check(f, dd, 1)
    lau = LaurentPoly(2, {(-2, 1): ONE, (0, -1): QT.gen("q")})
    assert exact_div_check(lau, lau.divided_difference(1), 1)


def test_shift_and_scale_helpers():
    f = x(1) * x(2)
    assert shift_all(f, ONE) == f + x(1) + x(2) + const(ONE)
    q = QT.gen("q")
    assert scale_all(x(1) + x(2), q) == (x(1) + x(2)).scale(q)


def test_clear_denominators():
    tinv = QT.gen_power("t", -1)
    f = x(1).scale(tinv) + x(2).scale(QT.gen("q") / (QT.gen("t") + 1))
    gens = QT.gens()
    nums, pieces = clear_denominators(list(f.terms.values()), gens)
    unit = QT.one().den
    c = QT.one()
    for p in pieces:
        c = c * Scalar(gens, p, unit)
    assert c == QT.gen("t") * (QT.gen("t") + 1)
    cleared = LaurentPoly(f.n, {e: Scalar(gens, num, unit)
                                for e, num in zip(f.terms, nums)})
    assert f == cleared.scale(c.invert())
    for coeff in cleared.terms.values():
        assert coeff.is_polynomial()


# -- evaluate against a term-by-term reference -----------------------------------

def _evaluate_termwise(f, coords):
    """Reference value: one reduced Scalar operation per term."""
    if not f.terms:
        return coords[0] - coords[0] if coords else Scalar.zero()
    total = None
    for e, c in f.terms.items():
        term = c
        for i, k in enumerate(e):
            if k:
                if k < 0 and coords[i].is_zero():
                    raise DivisionByZero("zero coordinate at negative exponent")
                term = term * coords[i] ** k
        total = term if total is None else total + term
    return total


A = Scalar.generator("a", ("a",))
QT_SPEC = qt_config(2, 3)

# coefficient fields: the generator sets coefficients are drawn from, and
# the spectral points (before inversion) the coordinates come from
EVAL_FIELDS = {
    "Q": ([()], lambda v: spectral_qt(v, QT_SPEC)),
    "Q(r)": ([(), ("r",)], lambda v: spectral_r(v, R)),
    "Q(q,t)": ([(), ("q",), ("t",), ("q", "t")], lambda v: spectral_qt(v, QT)),
    "Q(r,a)": ([(), ("r",), ("a",), ("r", "a")],
               lambda v: spectral_r(v, R).shift(A)),
}


@st.composite
def small_scalars(draw, gens):
    k = len(gens)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * k),
                           st.integers(-3, 3), max_size=3)
    num = {e: c for e, c in draw(poly).items() if c}
    den = {e: c for e, c in draw(poly).items() if c} or {(0,) * k: 1}
    return Scalar(gens, scalars._pack_terms(num, k), scalars._pack_terms(den, k))


@st.composite
def evaluation_cases(draw):
    coeff_gens, point = EVAL_FIELDS[draw(st.sampled_from(sorted(EVAL_FIELDS)))]
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * n), max_size=5,
                         unique=True))
    terms = {e: draw(small_scalars(draw(st.sampled_from(coeff_gens))))
             for e in exps}
    v = draw(st.tuples(*[st.integers(0, 3)] * n))
    coords = point(v).coords
    if draw(st.booleans()):  # mixed generator sets: shift some by a
        coords = tuple(c + A if draw(st.booleans()) else c for c in coords)
    if draw(st.booleans()):  # the bar-inv point
        coords = tuple(c if c.is_zero() else c.invert() for c in coords)
    return LaurentPoly(n, terms), coords


def _outcome(fn, f, coords):
    try:
        return fn(f, coords)
    except DivisionByZero:
        return DivisionByZero


@settings(max_examples=300, deadline=None, derandomize=True)
@given(evaluation_cases())
def test_evaluate_matches_termwise(case):
    f, coords = case
    want = _outcome(_evaluate_termwise, f, coords)
    got = _outcome(LaurentPoly.evaluate, f, coords)
    if want is DivisionByZero or got is DivisionByZero:
        assert got is want
        return
    assert got == want
    assert got.gens == want.gens
    assert dumps_canonical(got.to_json()) == dumps_canonical(want.to_json())


def test_evaluate_zero_and_constant_polynomials():
    pt = reciprocal_point(spectral_r((1, 2), R)).shift(A)
    assert LaurentPoly.zero(2).evaluate(pt).gens == pt.coords[0].gens
    assert LaurentPoly.zero(2).evaluate(pt) == _evaluate_termwise(
        LaurentPoly.zero(2), pt.coords)
    c = R.gen("r") / (R.gen("r") + 3)
    assert LaurentPoly.constant(2, c).evaluate(pt) is c



# -- the evaluation plan kept on a polynomial ------------------------------------

def _plan_poly():
    r = R.gen("r")
    return LaurentPoly(2, {(2, 0): r / (r + 3), (1, 1): R.scalar(5) / 3,
                           (0, 1): (r + 1) / (2 * r - 1),
                           (-1, 2): 1 / ((r + 3) * (r + 1)), (0, 0): r})


def _plan_points():
    """Q(r), Q(r,a), rational and inverted-q,t points, in turn."""
    out = []
    for v in ((1, 2), (2, 1), (3, 1)):
        out += [spectral_r(v, R), spectral_r(v, R).shift(A),
                spectral_qt(v, QT_SPEC), spectral_qt(v, QT.with_inverted())]
    return out


def test_evaluation_plan_per_generator_set():
    f = _plan_poly()
    for pt in _plan_points() + _plan_points()[::-1]:
        got = f.evaluate(pt)
        fresh = LaurentPoly(f.n, dict(f.terms)).evaluate(pt)
        want = _evaluate_termwise(f, pt.coords)
        for other in (fresh, want):
            assert got == other and got.gens == other.gens
            assert dumps_canonical(got.to_json()) == \
                dumps_canonical(other.to_json())
    # the rational points share the plan of the Q(r) ones
    assert set(f._plans) == {("r",), ("r", "a"), ("q", "t", "r")}


def test_evaluation_plan_leaves_json_equality_and_disk_cache(tmp_path):
    f = _plan_poly()
    fresh = LaurentPoly(f.n, dict(f.terms))
    before = dumps_canonical(f.to_json())
    values = [f.evaluate(pt) for pt in _plan_points()]
    assert f._plans and fresh._plans is None
    assert dumps_canonical(f.to_json()) == before
    assert f == fresh and hash(f) == hash(fresh)
    fk = FamilyKey("G", "r", (1, 2), R.cache_token())
    assert FamilyCache(tmp_path).poly(fk, lambda: f) is f
    stored = FamilyCache(tmp_path).poly(fk, lambda: pytest.fail("rebuilt"))
    assert stored == f and stored._plans is None
    assert dumps_canonical(stored.to_json()) == before
    assert [stored.evaluate(pt) for pt in _plan_points()] == values


def test_small_g_evaluations_match_sympy():
    """G_alpha (n <= 2, |alpha| <= 2, symbolic q,t and symbolic r) at the
    spectral points of weight <= 2 and at those points acted on by a,
    against sympy substitution and cancellation."""
    sympy = pytest.importorskip("sympy")
    syms = {g: sympy.Symbol(g) for g in ("q", "t", "r", "a")}

    def poly_expr(gens, terms):
        return sum(c * sympy.Mul(*[syms[g] ** k for g, k in
                                   zip(gens, scalars._unpack(e, len(gens)))])
                   for e, c in terms.items())

    def expr(s):
        return poly_expr(s.gens, s.num) / poly_expr(s.gens, s.den)

    cache = FamilyCache()
    for cfg in (QT, R):
        a = Scalar.generator("a", cfg.gens() + ("a",))
        for n in (1, 2):
            xs = sympy.symbols(f"x1:{n + 1}")
            for alpha in enumerate_compositions(n, 2):
                g = g_recursive(alpha, cfg, cache)
                g_expr = sum(expr(c) * sympy.Mul(*[x ** k for x, k in zip(xs, e)])
                             for e, c in g.terms.items())
                for v in enumerate_compositions(n, 2):
                    bar = cfg.bar(v)
                    for pt in (bar, cfg.act(bar, a)):
                        got = g.evaluate(pt)
                        want = sympy.cancel(g_expr.subs(
                            dict(zip(xs, map(expr, pt.coords))),
                            simultaneous=True))
                        assert sympy.cancel(expr(got) - want) == 0, (alpha, v)
                        if got.gens:
                            num, den = (sympy.Poly(poly_expr(got.gens, t),
                                                   *[syms[x] for x in got.gens])
                                        for t in (got.num, got.den))
                            assert sympy.gcd(num, den) in (1, -1), (alpha, v)


def test_json_round_trip_and_term_order():
    f = x(1) + x(2).scale(QT.gen("q")) + const(QT.gen_power("t", -2))
    data = f.to_json()
    assert LaurentPoly.from_json(data) == f
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == [(0, 0), (1, 0), (0, 1)]


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        x(1, n=2) + LaurentPoly.variable(3, 1, ONE)
    with pytest.raises(DimensionError):
        x(1, n=2).evaluate((ONE,))
