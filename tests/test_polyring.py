import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpmac.errors import (DegreeError, DimensionError, DivisionByZero,
                              InterpmacError, UnsupportedSubstitution,
                              UsageError)
from interpmac import scalars
from interpmac.interpolation import FamilyCache, FamilyKey, g_recursive
from interpmac.polyring import (LaurentPoly, exact_div_check,
                                negate_shift_all, scale_all, shift_all)
from interpmac.scalars import Scalar, clear_denominators, dumps_canonical
from interpmac.shapes import Permutation, enumerate_compositions
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
    assert f.evaluate(QT.base_point(2)).is_zero()
    assert const(ONE).evaluate((QT.scalar(7), QT.scalar(9))) == ONE
    g = x(1) * x(2)
    q, tinv = QT.gen("q"), QT.gen_power("t", -1)
    assert g.evaluate((q, tinv)) == q * tinv


def test_evaluate_zero_at_negative_power():
    f = LaurentPoly.monomial(2, (-1, 0), ONE)
    with pytest.raises(DivisionByZero):
        f.evaluate((QT.zero(), QT.one()))
    # (0, 0)-bar = rho = (0, -r): its zero coordinate only at a negative power
    rho = R.bar((0, 0))
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
    assert f.coefficient((0, 1), QT.zero()) == ONE
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
    "Q": ([()], QT_SPEC.bar),
    "Q(r)": ([(), ("r",)], R.bar),
    "Q(q,t)": ([(), ("q",), ("t",), ("q", "t")], QT.bar),
    "Q(r,a)": ([(), ("r",), ("a",), ("r", "a")],
               lambda v: R.act(R.bar(v), A)),
}


@st.composite
def small_scalars(draw, gens):
    k = len(gens)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * k),
                           st.integers(-3, 3), max_size=3)
    num = {e: c for e, c in draw(poly).items() if c}
    den = {e: c for e, c in draw(poly).items() if c} or {(0,) * k: 1}
    return Scalar(gens, scalars._pack_terms(num, gens),
                  scalars._pack_terms(den, gens))


@st.composite
def evaluation_cases(draw):
    coeff_gens, point = EVAL_FIELDS[draw(st.sampled_from(sorted(EVAL_FIELDS)))]
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * n), max_size=5,
                         unique=True))
    terms = {e: draw(small_scalars(draw(st.sampled_from(coeff_gens))))
             for e in exps}
    v = draw(st.tuples(*[st.integers(0, 3)] * n))
    coords = point(v)
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
    pt = R.act(tuple(x.invert() for x in R.bar((1, 2))), A)
    assert LaurentPoly.zero(2).evaluate(pt).gens == pt[0].gens
    assert LaurentPoly.zero(2).evaluate(pt) == _evaluate_termwise(
        LaurentPoly.zero(2), pt)
    c = R.gen("r") / (R.gen("r") + 3)
    # a constant gives its coefficient without clearing denominators
    with mock.patch.object(scalars, "_clearing_plan",
                           side_effect=AssertionError):
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
        out += [R.bar(v), R.act(R.bar(v), A),
                QT_SPEC.bar(v), QT.with_inverted().bar(v)]
    return out


def test_one_evaluation_plan_for_every_generator_set():
    f = _plan_poly()
    plans = []
    for pt in _plan_points() + _plan_points()[::-1]:
        got = f.evaluate(pt)
        plans.append(f._plan)
        fresh = LaurentPoly(f.n, dict(f.terms)).evaluate(pt)
        want = _evaluate_termwise(f, pt)
        for other in (fresh, want):
            assert got == other and got.gens == other.gens
            assert dumps_canonical(got.to_json()) == \
                dumps_canonical(other.to_json())
    # planned at the first point, on the coefficients' own slots, and kept
    # for the Q(r,a), rational and inverted-q,t points
    assert plans[0] is not None and all(p is plans[0] for p in plans)


def test_evaluation_plan_leaves_json_equality_and_disk_cache(tmp_path):
    f = _plan_poly()
    fresh = LaurentPoly(f.n, dict(f.terms))
    before = dumps_canonical(f.to_json())
    values = [f.evaluate(pt) for pt in _plan_points()]
    assert f._plan and fresh._plan is None
    assert dumps_canonical(f.to_json()) == before
    assert f == fresh and hash(f) == hash(fresh)
    fk = FamilyKey("G", "r", (1, 2), R.cache_token())
    assert FamilyCache(tmp_path).poly(fk, lambda: f) is f
    stored = FamilyCache(tmp_path).poly(fk, lambda: pytest.fail("rebuilt"))
    assert stored == f and stored._plan is None
    assert dumps_canonical(stored.to_json()) == before
    assert [stored.evaluate(pt) for pt in _plan_points()] == values


# -- the monomial branch of evaluate_laurent ---------------------------------------

QT_NEG = qt_config(Fraction(5, 3), -7)
QA = ("q", "t", "a")
RA = ("r", "a")


def _monomial(gens, draw):
    """c * prod g^k over gens with a random rational c and exponents in
    -2..2: one term over one term once canonical."""
    k = len(gens)
    e = draw(st.tuples(*[st.integers(-2, 2)] * k))
    c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
    up = tuple(max(x, 0) for x in e)
    down = tuple(max(-x, 0) for x in e)
    return Scalar(gens, scalars._pack_terms({up: c.numerator}, gens),
                  scalars._pack_terms({down: c.denominator}, gens))


# coefficient generator sets and coordinates: every coordinate one term
# over one term
MONOMIAL_FIELDS = {
    "Q q=2,t=3": ([()], lambda v, draw: QT_SPEC.bar(v)),
    "Q q=5/3,t=-7": ([()], lambda v, draw: QT_NEG.bar(v)),
    "Q(q,t)": ([(), ("q",), ("q", "t")], lambda v, draw: QT.bar(v)),
    "Q(q,t) inverted": ([(), ("t",), ("q", "t")],
                        lambda v, draw: QT.with_inverted().bar(v)),
    "Q(q,t,a)": ([(), ("q", "t"), QA],
                 lambda v, draw: QT.act(QT.bar(v), A)),
    "Q(q,t,a) bar_inv": ([(), ("a",), QA],
                         lambda v, draw: QT.act(QT.bar_inv(v), A)),
    "Q(r) c*r": ([(), ("r",)],
                 lambda v, draw: tuple(_monomial(("r",), draw) for _ in v)),
    "Q(r,a)": ([(), ("r",), RA],
               lambda v, draw: tuple(_monomial(RA, draw) for _ in v)),
}


@st.composite
def monomial_cases(draw):
    coeff_gens, point = MONOMIAL_FIELDS[
        draw(st.sampled_from(sorted(MONOMIAL_FIELDS)))]
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1,
                         max_size=6, unique=True))
    terms = {e: draw(small_scalars(draw(st.sampled_from(coeff_gens))))
             for e in exps}
    terms = {e: c for e, c in terms.items() if not c.is_zero()}
    coords = point(draw(st.tuples(*[st.integers(0, 3)] * n)), draw)
    if draw(st.booleans()):
        coords = tuple(c.invert() for c in coords)
    return LaurentPoly(n, terms), coords


def _generic(f, coords):
    """f at coords through the power-table path alone."""
    with mock.patch.object(scalars, "_monomial_factors", lambda *args: None):
        return LaurentPoly(f.n, dict(f.terms)).evaluate_unreduced(coords)


def _spied(f, coords):
    """(value, whether each call planned monomial factors)."""
    seen = []
    real = scalars._monomial_factors

    def spy(*args):
        out = real(*args)
        seen.append(out is not None)
        return out

    with mock.patch.object(scalars, "_monomial_factors", spy):
        return f.evaluate_unreduced(coords), seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_cases())
def test_monomial_branch_matches_generic(case):
    f, coords = case
    got, seen = _spied(f, coords)
    assert all(seen)
    want = _generic(f, coords)
    assert got.gens == want.gens
    assert got.num == want.num and got.pieces == want.pieces
    assert scalars._UNIT not in got.pieces
    value = got.reduced()
    for other in (want.reduced(), _evaluate_termwise(f, coords)):
        assert value == other and value.gens == other.gens
        assert dumps_canonical(value.to_json()) == \
            dumps_canonical(other.to_json())


def test_monomial_branch_degree_error():
    q = QT.gen("q")
    for f, pt in (
            # a power table of q^2 past the degree limit
            (LaurentPoly(1, {(2048,): ONE, (0,): ONE}), (q * q,)),
            (LaurentPoly(1, {(-2048,): ONE, (0,): ONE}), (q * q,)),
            # the denominator's table, though no term takes a power of it
            (LaurentPoly(1, {(2048,): ONE}), (1 / (q * q),)),
            # a cleared numerator of degree 4000 shifted by q^96
            (LaurentPoly(1, {(96,): q ** 4000, (0,): ONE}), (q,))):
        with pytest.raises(DegreeError):
            _spied(f, pt)
        with pytest.raises(DegreeError):
            _generic(f, pt)
    # one degree lower, both give the exact value
    q4094 = scalars._pack_terms({(4094, 0): 1}, QT.gens())
    for f, pt, want in (
            (LaurentPoly(1, {(2047,): ONE, (0,): ONE}), (q * q,),
             q ** 4094 + 1),
            (LaurentPoly(1, {(-2047,): ONE, (0,): ONE}), (q * q,),
             Scalar(QT.gens(), {**q4094, 0: 1}, q4094)),
            (LaurentPoly(1, {(95,): q ** 4000, (0,): ONE}), (q,),
             q ** 4095 + 1)):
        got, seen = _spied(f, pt)
        assert seen == [True]
        assert got.num == _generic(f, pt).num
        assert got.reduced() == want


def test_zero_coordinate_takes_the_generic_path():
    q = QT.gen("q")
    f = LaurentPoly(2, {(1, 1): ONE, (0, 2): q, (0, -1): ONE})
    got, seen = _spied(f, (QT.zero(), q))
    assert seen == [False]
    assert got == _evaluate_termwise(f, (QT.zero(), q)) == q ** 3 + 1 / q
    g = LaurentPoly(2, {(-1, 1): ONE, (0, 2): q})
    with pytest.raises(DivisionByZero):
        _spied(g, (QT.zero(), q))


def test_small_g_evaluations_match_sympy():
    """G_alpha (n <= 2, |alpha| <= 2, symbolic q,t and symbolic r) at the
    spectral points of weight <= 2 and at those points acted on by a,
    against sympy substitution and cancellation."""
    sympy = pytest.importorskip("sympy")
    syms = {g: sympy.Symbol(g) for g in ("q", "t", "r", "a")}

    def poly_expr(gens, terms):
        return sum(c * sympy.Mul(*[syms[g] ** k for g, k in
                                   zip(gens, scalars._unpack(e, gens))])
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
                            dict(zip(xs, map(expr, pt))),
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
    # an exponent entry that is not an int, or one vector in two terms
    for exp in (["1", 0], [1.5, 0], [True, 0], [0, 1]):
        bad = dict(data, terms=[dict(data["terms"][1], exp=exp),
                                *data["terms"][::2]])
        with pytest.raises(InterpmacError) as err:
            LaurentPoly.from_json(bad)
        assert isinstance(err.value, ValueError)
    # a variable count that is not an int, bools included
    for n in (True, 2.0, "2"):
        with pytest.raises(UsageError):
            LaurentPoly.from_json(dict(data, n=n))


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        x(1, n=2) + LaurentPoly.variable(3, 1, ONE)
    with pytest.raises(DimensionError):
        x(1, n=2).evaluate((ONE,))


# -- substitution and divided differences against the term-by-term bodies -------
#
# Reference bodies that build each term as a LaurentPoly and sum the terms
# with LaurentPoly arithmetic, and get/add/pop loops for `+` and `*`.  A
# coefficient's generator set depends on the order of its sums, so results
# must agree in JSON and in term order, not only under ==.

def _ref_add(f, g):
    out = dict(f.terms)
    for e, c in g.terms.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return LaurentPoly(f.n, out, _clean=True)


def _ref_mul(f, g):
    a, b = f.terms, g.terms
    if len(b) < len(a):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(u + v for u, v in zip(ea, eb))
            p = ca * cb
            s = out.get(e)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return LaurentPoly(f.n, out, _clean=True)


def _ref_affine_substitute(self, maps):
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


def _ref_divided_difference(self, i):
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


# every generator set of EVAL_FIELDS: one polynomial mixes Q, Q(r), Q(q,t)
# and Q(r,a) coefficients
MIXED_GENS = sorted({g for gens, _ in EVAL_FIELDS.values() for g in gens})


def _mixed_scalars(nonzero=False):
    values = st.sampled_from(MIXED_GENS).flatmap(small_scalars)
    return values.filter(lambda c: not c.is_zero()) if nonzero else values


@st.composite
def mixed_polys(draw, low=-2, n=None):
    n = n or draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(low, 3)] * n), max_size=5,
                         unique=True))
    return LaurentPoly(n, {e: draw(_mixed_scalars()) for e in exps})


@st.composite
def substitution_cases(draw):
    """A polynomial and a map {i: (c, j, d)}: the identity, a rotation,
    x_i -> c*x_j + d onto a mapped or a passive variable, d = 0 (which
    negative powers allow), or c = 0.  Half the polynomials have no
    negative powers, which a map with d != 0 would refuse."""
    kind = draw(st.sampled_from(["identity", "rotation", "onto", "d=0", "c=0"]))
    f = draw(mixed_polys(low=draw(st.sampled_from([-2, 0]))))
    n = f.n
    gens = draw(st.sampled_from(MIXED_GENS))
    one, zero = Scalar.one(gens), Scalar.zero(gens)
    if kind == "identity":
        return f, {i: (one, i, zero) for i in range(1, n + 1)}
    if kind == "rotation":
        maps = {i: (one, i - 1, zero) for i in range(2, n + 1)}
        maps[1] = (draw(_mixed_scalars(nonzero=True)), n, draw(_mixed_scalars()))
        return f, maps
    mapped = draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    maps = {}
    for i in mapped:
        c = zero if kind == "c=0" else draw(_mixed_scalars(nonzero=True))
        d = zero if kind == "d=0" else draw(_mixed_scalars())
        maps[i] = (c, draw(st.integers(1, n)), d)
    return f, maps


def _same_outcome(got_fn, want_fn, *args):
    try:
        want = want_fn(*args)
    except (DivisionByZero, UnsupportedSubstitution) as err:
        with pytest.raises(type(err)):
            got_fn(*args)
        return
    got = got_fn(*args)
    assert got == want
    assert dumps_canonical(got.to_json()) == dumps_canonical(want.to_json())
    assert list(got.terms) == list(want.terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(substitution_cases())
def test_affine_substitute_matches_termwise(case):
    f, maps = case
    _same_outcome(LaurentPoly.affine_substitute, _ref_affine_substitute,
                  f, maps)


def test_affine_substitute_sums_each_term_first():
    # q*x1*x2 -> q*(x1 + 1)*(1 - x1): its x1 coefficient cancels inside the
    # term and leaves the rational x1 coefficient of the first term over Q
    q = QT.gen("q")
    f = LaurentPoly(2, {(1, 0): Scalar.one(), (1, 1): q})
    maps = {1: (Scalar.one(), 1, Scalar.one()), 2: (-Scalar.one(), 1, Scalar.one())}
    got = f.affine_substitute(maps)
    assert got.terms[(1, 0)].gens == ()
    _same_outcome(LaurentPoly.affine_substitute, _ref_affine_substitute,
                  f, maps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(mixed_polys(n=n), st.integers(1, n - 1))))
def test_divided_difference_matches_termwise(case):
    _same_outcome(LaurentPoly.divided_difference, _ref_divided_difference,
                  *case)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(mixed_polys(n=n), mixed_polys(n=n))))
def test_add_and_mul_match_termwise(pair):
    f, g = pair
    _same_outcome(LaurentPoly.__add__, _ref_add, f, g)
    _same_outcome(LaurentPoly.__mul__, _ref_mul, f, g)


# -- unreduced coefficients: the compare-only form against the canonical one -------

def _same_unreduced(got, want):
    """got, computed on unreduced coefficients, equals want both ways
    and prints the same."""
    assert got == want and want == got
    assert got.pretty() == want.pretty()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_polys())
def test_unreduced_equals_and_prints_the_same(f):
    u = f.unreduced()
    _same_unreduced(u, f)
    assert list(u.terms) == list(f.terms)
    pieces = {id(c.pieces) for c in u.terms.values()}
    assert len(pieces) <= 1


def test_unreduced_off_by_one_is_unequal():
    f = x(1).scale(QT.gen("q") / (QT.gen("t") + 1)) + const(QT.gen("t").invert())
    g = f + const(ONE)
    assert f.unreduced() != g and g != f.unreduced()
    assert f.unreduced() != g.unreduced()
    # coefficients on one shared piece list compare by numerators alone
    u = f.unreduced()
    assert u.scale(QT.scalar(2)) != u and u.scale(QT.scalar(1)) == u


def test_power_of_unreduced_coefficients():
    g = g_recursive((1, 0), QT, FamilyCache())
    _same_unreduced(g.unreduced() ** 2, g ** 2)
    assert g.unreduced() ** 0 == const(ONE)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(substitution_cases())
def test_affine_substitute_on_unreduced_coefficients(case):
    f, maps = case
    try:
        want = f.affine_substitute(maps)
    except (DivisionByZero, UnsupportedSubstitution):
        return
    _same_unreduced(f.unreduced().affine_substitute(maps), want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(mixed_polys(n=n), mixed_polys(n=n),
                        st.integers(1, n - 1))))
def test_ring_operations_on_unreduced_coefficients(case):
    f, g, i = case
    fu, gu = f.unreduced(), g.unreduced()
    _same_unreduced(fu.divided_difference(i), f.divided_difference(i))
    for a, b in [(fu, gu), (fu, g), (f, gu)]:
        _same_unreduced(a + b, f + g)
        _same_unreduced(a - b, f - g)
        _same_unreduced(a * b, f * g)
    for c in g.terms.values():
        _same_unreduced(fu.scale(c), f.scale(c))
