import hashlib
import json
import pathlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpmac import interpolation, scalars
from interpmac.errors import SpecializationCollision, UsageError
from interpmac.interpolation import (FamilyCache, FamilyKey, binom, binom_sym,
                                     closed_d, closed_e, closed_phi, e_top,
                                     g_oracle, g_recursive, gplus, gprime,
                                     mono_sym, okounkov, okounkov_value,
                                     r_sym, rprime, solve_square, _point)
from interpmac.operators import hecke, sigma_op
from interpmac.polyring import LaurentPoly
from interpmac.scalars import Scalar, dumps_canonical, linear_combination
from interpmac.shapes import enumerate_compositions, partitions_upto, weight
from interpmac.variant import qt_config, r_config

QT = qt_config()
R = r_config()


@pytest.fixture(scope="module")
def cache():
    return FamilyCache()


def x(i, n=2, cfg=QT):
    return LaurentPoly.variable(n, i, cfg.one())


def const(c, n=2):
    return LaurentPoly.constant(n, c)


# -- frozen small polynomials (hand-solved from the vanishing conditions) --

def test_g_zero_index(cache):
    assert g_recursive((0, 0), QT, cache) == const(QT.one())
    assert g_oracle((0, 0, 0), r_config(), cache) == \
        LaurentPoly.constant(3, R.one())


def test_g01_qt(cache):
    expected = x(2) - const(QT.gen_power("t", -1))
    assert g_oracle((0, 1), QT, cache) == expected
    assert g_recursive((0, 1), QT, cache) == expected


def test_g10_qt(cache):
    q, t = QT.gen("q"), QT.gen("t")
    one = QT.one()
    cx2 = (t - one) / (q * t - one)
    c0 = -(q * t * t - one) / (t * (q * t - one))
    expected = x(1) + x(2).scale(cx2) + const(c0)
    assert g_oracle((1, 0), QT, cache) == expected


def test_g01_r(cache):
    expected = x(2, cfg=R) + const(R.gen("r"))
    assert g_oracle((0, 1), R, cache) == expected
    assert g_recursive((0, 1), R, cache) == expected


def test_g10_r(cache):
    r, one = R.gen("r"), R.one()
    expected = x(1, cfg=R) + x(2, cfg=R).scale(r / (one + r)) + \
        const(r * r / (one + r))
    assert g_recursive((1, 0), R, cache) == expected


def test_n1_falling_factorials(cache):
    # G_k(x) = (x-1)(x-q)...(x-q^{k-1}) in one variable
    q = QT.gen("q")
    xx = LaurentPoly.variable(1, 1, QT.one())
    prod = LaurentPoly.constant(1, QT.one())
    for k in range(5):
        assert g_recursive((k,), QT, cache) == prod
        assert g_oracle((k,), QT, cache) == prod
        prod = prod * (xx - LaurentPoly.constant(1, q ** k))


def test_e_top_examples(cache):
    assert e_top((0, 1), QT, cache) == x(2)
    q, t = QT.gen("q"), QT.gen("t")
    expected = x(1) + x(2).scale((t - 1) / (q * t - 1))
    assert e_top((1, 0), QT, cache) == expected
    assert e_top((0, 0), QT, cache) == const(QT.one())


def test_gprime_examples(cache):
    assert gprime((0, 1), QT, cache) == x(2) - const(QT.gen_power("t", -1))
    assert gprime((0, 1), R, cache) == x(2, cfg=R) + const(R.gen("r"))
    # one variable: vanishing at q^{-j} for j < k
    q = QT.gen("q")
    xx = LaurentPoly.variable(1, 1, QT.one())
    prod = LaurentPoly.constant(1, QT.one())
    for k in range(4):
        assert gprime((k,), QT, cache) == prod
        prod = prod * (xx - LaurentPoly.constant(1, q ** (-k)))


def test_gplus_examples(cache):
    assert gplus((0, 0), R, cache) == const(R.one())
    assert gplus((0, 1), R, cache) == x(2, cfg=R)
    # one variable: rising factorial x(x+1)...(x+k-1)
    xx = LaurentPoly.variable(1, 1, R.one())
    prod = LaurentPoly.constant(1, R.one())
    for k in range(4):
        assert gplus((k,), R, cache) == prod
        prod = prod * (xx + LaurentPoly.constant(1, R.scalar(k)))
    with pytest.raises(UsageError):
        gplus((1, 0), QT, cache)


def test_r_sym_examples(cache):
    assert r_sym((0, 0), QT, cache) == const(QT.one())
    expected = x(1) + x(2) - const(QT.one()) - const(QT.gen_power("t", -1))
    assert r_sym((1, 0), QT, cache) == expected
    # one variable the symmetric and nonsymmetric families agree
    for k in range(4):
        assert r_sym((k,), QT, cache) == g_recursive((k,), QT, cache)
    with pytest.raises(UsageError):
        r_sym((0, 1), QT, cache)


def test_rprime_examples(cache):
    assert rprime((1, 0), R, cache) == \
        x(1, cfg=R) + x(2, cfg=R) + const(R.gen("r"))
    for k in range(4):
        assert rprime((k,), R, cache) == gplus((k,), R, cache)


def test_defining_conditions_rechecked(cache):
    # normalization, degree bound, and vanishing for a nontrivial index
    alpha = (2, 1)
    g = g_recursive(alpha, QT, cache)
    assert g.total_degree() == 3
    assert g.coefficient(alpha, QT.zero()) == QT.one()
    for beta in enumerate_compositions(2, 3):
        if beta != alpha:
            assert g.evaluate(QT.bar(beta)).is_zero()


def test_recursion_matches_oracle(cache):
    for alpha in enumerate_compositions(2, 3):
        assert g_recursive(alpha, QT, cache) == g_oracle(alpha, QT, cache)
        assert g_recursive(alpha, R, cache) == g_oracle(alpha, R, cache)


def test_descent_choice_independence(cache):
    # any valid descent step yields the same polynomial
    for alpha, variant in [((2, 0, 1), QT), ((2, 0, 1), R), ((3, 1, 0), QT)]:
        g = g_recursive(alpha, variant, cache)
        n = len(alpha)
        for i in range(1, n):
            if alpha[i - 1] <= alpha[i]:
                continue
            swapped = list(alpha)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            sub = g_recursive(tuple(swapped), variant, cache)
            bar = variant.bar(alpha)
            if variant.variant == "qt":
                d = variant.one() - bar[i - 1] / bar[i]
                step = hecke(i, sub, variant) + \
                    sub.scale((variant.one() - variant.gen("t")) / d)
            else:
                d = bar[i - 1] - bar[i]
                step = sigma_op(i, sub, variant) + \
                    sub.scale(variant.gen("r") / d)
            assert step == g, (alpha, i)


def test_extra_vanishing(cache):
    from interpmac.shapes import contains
    for alpha in enumerate_compositions(2, 2):
        g = g_recursive(alpha, QT, cache)
        for beta in enumerate_compositions(2, 3):
            if beta != alpha and not contains(beta, alpha):
                assert g.evaluate(QT.bar(beta)).is_zero()


# -- closed-form scalars ---------------------------------------------------

def test_closed_scalars_zero_index():
    for cfg in (QT, R):
        assert closed_d((0, 0), cfg) == cfg.one()
        assert closed_e((0, 0), cfg) == cfg.one()
        assert closed_phi((0, 0), cfg, 5) == cfg.one()


def test_closed_scalars_01_qt():
    q, t = QT.gen("q"), QT.gen("t")
    assert closed_d((0, 1), QT) == QT.one() - q * t * t
    assert closed_e((0, 1), QT) == t.invert() - q * t
    a = Scalar.generator("a", ("a",))
    assert closed_phi((0, 1), QT, a) == a - 1


def test_closed_scalars_01_r():
    r = R.gen("r")
    assert closed_d((0, 1), R) == 1 + 2 * r
    assert closed_e((0, 1), R) == 1 + 2 * r
    a = Scalar.generator("a", ("r", "a"))
    assert closed_phi((0, 1), R, a) == a


def test_eval_hand_instance(cache):
    # G_(0,1)(a tau) = (a-1)/t, symbolically in q, t, a
    a = Scalar.generator("a", ("q", "t", "a"))
    g = g_recursive((0, 1), QT, cache)
    value = g.evaluate(QT.act(QT.base_point(2), a))
    assert value == (a - 1) * QT.gen_power("t", -1)


# -- binomial coefficients ---------------------------------------------------

def _gaussian_binomial(k, j):
    # independent oracle: Pascal recurrence [k,j]_q = [k-1,j-1] + q^j [k-1,j]
    q = Scalar.generator("q", ("q", "t"))
    table = {(0, 0): Scalar.one(("q", "t"))}
    for kk in range(1, k + 1):
        for jj in range(kk + 1):
            up_left = table.get((kk - 1, jj - 1), Scalar.zero(("q", "t")))
            up = table.get((kk - 1, jj), Scalar.zero(("q", "t")))
            table[(kk, jj)] = up_left + q ** jj * up
    return table[(k, j)]


def test_binomial_trivial_cases(cache):
    assert binom((2, 1), (2, 1), QT, cache) == QT.one()
    assert binom((2, 1), (0, 0), QT, cache) == QT.one()
    assert binom((2, 1), (2, 1), R, cache) == R.one()


def test_gaussian_binomials_n1(cache):
    assert binom((2,), (1,), QT, cache) == QT.gen("q") + 1
    for k in range(5):
        for j in range(k + 1):
            assert binom((k,), (j,), QT, cache) == _gaussian_binomial(k, j), \
                (k, j)


def test_classical_binomials_n1(cache):
    assert binom((3,), (1,), R, cache) == R.scalar(3)
    for k in range(5):
        for j in range(k + 1):
            assert binom((k,), (j,), R, cache) == R.scalar(comb(k, j))


def test_inverted_binomial_specialized(cache):
    # at q0, t0 the inverted coefficients, plain and symmetric, equal the
    # plain ones at 1/q0, 1/t0
    spec = qt_config(2, 3).with_inverted()
    rec = qt_config(Fraction(1, 2), Fraction(1, 3))
    for alpha in enumerate_compositions(2, 2):
        for beta in enumerate_compositions(2, weight(alpha)):
            lhs = binom(alpha, beta, spec, cache)
            rhs = binom(alpha, beta, rec, cache)
            assert lhs == rhs
    for lam in partitions_upto(2, 3):
        for mu in partitions_upto(2, weight(lam)):
            assert binom_sym(lam, mu, spec, cache) == \
                binom_sym(lam, mu, rec, cache)


def test_binomials_share_the_value_at_the_lower_point(cache):
    """G_beta at its own point is evaluated once for every upper index."""
    beta = (1, 0)
    calls = []
    real = LaurentPoly.evaluate

    def spy(self, point):
        calls.append(tuple(point))
        return real(self, point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "evaluate", spy)
        got = [binom(alpha, beta, QT, cache)
               for alpha in ((2, 0), (1, 1), (0, 2), (2, 1))]
    assert calls.count(QT.bar(beta)) == 1
    fresh = FamilyCache()
    assert got == [binom(alpha, beta, QT, fresh)
                   for alpha in ((2, 0), (1, 1), (0, 2), (2, 1))]


def test_binom_sym_requires_partitions(cache):
    with pytest.raises(UsageError):
        binom_sym((1, 2), (0, 0), R, cache)
    assert binom_sym((2, 1), (1, 1), R, cache) == \
        r_sym((1, 1), R, cache).evaluate(R.bar((2, 1))) / \
        r_sym((1, 1), R, cache).evaluate(R.bar((1, 1)))


# -- reciprocity --------------------------------------------------------------

def test_okounkov_n1_closed_form(cache):
    a = Scalar.generator("a", ("q", "t", "a"))
    o = okounkov((1,), QT, a, cache)
    zero = Scalar.zero(("q", "t", "a"))
    assert o.coefficient((1,), zero) == a / (a - 1)
    assert o.coefficient((0,), zero) == -1 / (a - 1)


def test_okounkov_zero_index(cache):
    a = Scalar.generator("a", ("r", "a"))
    o = okounkov((0, 0), R, a, cache)
    assert o == LaurentPoly.constant(2, Scalar.one(("r", "a")))


def test_okounkov_surplus_small(cache):
    a = Scalar.generator("a", ("r", "a"))
    alpha = (1, 0)
    o = okounkov(alpha, R, a, cache)
    for gamma in enumerate_compositions(2, 3):
        lhs = o.evaluate(_point("bar", gamma, R, cache))
        assert lhs == okounkov_value(alpha, gamma, R, a, cache)


O_FIELDS = {"qt(2,3)": qt_config(2, 3), "qt": QT, "r": R,
            "r(1/2)": r_config(Fraction(1, 2))}


# sha256 over the canonical JSON of O for every index of degree <= 2,
# per grid case, recorded from the Newton construction in a G basis
# that the dense solve replaced; the JSON also pins the generators each
# coefficient carries
OKOUNKOV_GOLDEN = {case: digest for digest, case in (
    line.split("  ") for line in (pathlib.Path(__file__).parent / "golden"
                                  / "okounkov_grid_deg2.sha256"
                                  ).read_text().splitlines())}


@pytest.mark.parametrize("symbolic_a", [True, False], ids=["a", "a=7/2"])
@pytest.mark.parametrize("field", sorted(O_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_okounkov_newton_matches_dense_solve(n, field, symbolic_a):
    cfg = O_FIELDS[field]
    cache = FamilyCache()
    a = (Scalar.generator("a", cfg.gens() + ("a",)) if symbolic_a
         else Scalar.from_fraction(Fraction(7, 2)))
    kind = cfg.o_kind
    digest = hashlib.sha256()
    for alpha in enumerate_compositions(n, 2):
        o = okounkov(alpha, cfg, a, cache)
        digest.update(dumps_canonical(o.to_json()).encode())
        assert o.total_degree() <= weight(alpha), alpha
        for beta in enumerate_compositions(n, weight(alpha)):
            assert o.evaluate(_point(kind, beta, cfg, cache)) == \
                okounkov_value(alpha, beta, cfg, a, cache), (alpha, beta)
    case = f"{n}-{field}-{'a' if symbolic_a else 'a=7/2'}"
    assert digest.hexdigest() == OKOUNKOV_GOLDEN[case]


@pytest.mark.parametrize("cfg, kind", [
    (qt_config(2, Fraction(1, 2)), "bar_inv"), (r_config(-1), "bar"),
], ids=["qt", "r"])
def test_okounkov_names_its_singular_system(cfg, kind):
    # colliding spectral points make the system on the O points singular
    a = Scalar.generator("a", cfg.gens() + ("a",))
    with pytest.raises(SpecializationCollision,
                       match=rf"^singular system in {kind} interpolation, "
                             rf"n=2 degree 2, field "):
        okounkov((1, 1), cfg, a, FamilyCache())


def test_okounkov_base_values_are_shared_across_alpha():
    cache = FamilyCache()
    a = Scalar.generator("a", ("r", "a"))
    okounkov((1, 0), R, a, cache)
    before = {k for k in cache._mem if k[0] in ("oko-den", "inv")}
    okounkov((0, 1), R, a, cache)
    after = {k for k in cache._mem if k[0] in ("oko-den", "inv")}
    assert before == after and len(after) == 3 + 1


# -- nonvanishing needed by the expansion checks ------------------------------

def test_denominators_nonvanishing(cache):
    origin2 = (QT.zero(), QT.zero())
    ones2 = (R.one(), R.one())
    for beta in enumerate_compositions(2, 3):
        assert not g_recursive(beta, QT, cache).evaluate(origin2).is_zero()
        assert not e_top(beta, QT, cache).evaluate(
            QT.base_point(2)).is_zero()
        assert not e_top(beta, R, cache).evaluate(ones2).is_zero()


# -- exact solver ------------------------------------------------------------

def _augmented_solve(rows, rhs_cols, context="linear system"):
    """Reference for `solve_square`: Bareiss elimination of the augmented
    matrix [A | b_1 ... b_k], then back substitution per column."""
    m = len(rows)
    k = len(rhs_cols)
    if m == 0:
        return [[] for _ in range(k)]
    aug = [list(row) + [col[i] for col in rhs_cols]
           for i, row in enumerate(rows)]
    width = m + k
    some = aug[0][0]
    prev = Scalar.one(some.gens)
    for col in range(m):
        pivot_row = next((r for r in range(col, m)
                          if not aug[r][col].is_zero()), None)
        if pivot_row is None:
            raise SpecializationCollision(f"singular system in {context}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, m):
            head = aug[r][col]
            if head.is_zero():
                if prev == Scalar.one():
                    continue
                for c in range(col + 1, width):
                    aug[r][c] = (pivot * aug[r][c]) / prev
            else:
                for c in range(col + 1, width):
                    aug[r][c] = (pivot * aug[r][c]
                                 - head * aug[col][c]) / prev
            aug[r][col] = Scalar.zero(some.gens)
        prev = pivot
    solutions = []
    for j in range(k):
        x = [None] * m
        for i in range(m - 1, -1, -1):
            acc = aug[i][m + j]
            for c in range(i + 1, m):
                acc = acc - aug[i][c] * x[c]
            x[i] = acc / aug[i][i]
        solutions.append(x)
    return solutions


def _inverse_solve(kind, n, deg, cfg, cache, symmetric, rhs):
    """Reference for `interpolation._solve`: the inverse of the system
    from `_augmented_solve`, applied to the values by
    `linear_combination`, each sum reduced."""
    indices, groups = interpolation._basis(n, deg, symmetric)
    rows = interpolation.monomial_matrix(indices, groups, kind, cfg, cache)
    one, zero = Scalar.one(rows[0][0].gens), Scalar.zero(rows[0][0].gens)
    inv_cols = _augmented_solve(
        rows, [[one if i == j else zero for i in range(len(rows))]
               for j in range(len(rows))])
    values = [rhs(beta) for beta in indices]
    used = [j for j, v in enumerate(values) if not v.is_zero()]
    coeffs = linear_combination(
        [values[j] for j in used],
        [dict(enumerate(inv_cols[j])) for j in used]) if used else {}
    return indices, LaurentPoly(n, {e: c.reduced() for i, c in coeffs.items()
                                    for e in groups[i]}, _clean=True)


def test_solve_square_small():
    one = Scalar.one()
    two = Scalar.from_fraction(2)
    five = Scalar.from_fraction(5)
    rows = [[one, two], [two, one]]
    (sol,) = solve_square(rows, [[five, Scalar.from_fraction(4)]])
    assert sol[0] == one and sol[1] == two


def test_solve_square_singular_raises():
    one = Scalar.one()
    rows = [[one, one], [one, one]]
    with pytest.raises(SpecializationCollision, match="in unit test"):
        solve_square(rows, [[one, one]], context="unit test")


SOLVE_GENS = {"Q": (), "Q(q,t)": ("q", "t"), "Q(r)": ("r",)}


def _nonzero_terms(k):
    """A nonzero integer polynomial in k generators: up to two terms of
    degree <= 1 in each generator."""
    def collect(pairs):
        out = {}
        for e, c in pairs:
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c} or dict(pairs[:1])
    return st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * k),
                              st.sampled_from([1, -1, 2, -2, 3, -3])),
                    min_size=1, max_size=2).map(
                        lambda pairs: scalars._pack_terms(collect(pairs), k))


@st.composite
def _field_elements(draw, gens):
    """Zero, or a small reduced fraction over gens."""
    if draw(st.integers(0, 4)) == 0:
        return Scalar.zero(gens)
    k = len(gens)
    return Scalar(gens, draw(_nonzero_terms(k)), draw(_nonzero_terms(k)))


@st.composite
def _square_systems(draw, m):
    """(rows, rhs_cols, singular): an m x m matrix over one field, with
    zero leading entries often enough that rows get swapped, and
    right-hand columns that are zero or over the field or over Q."""
    gens = SOLVE_GENS[draw(st.sampled_from(sorted(SOLVE_GENS)))]
    rows = [[draw(_field_elements(gens)) for _ in range(m)] for _ in range(m)]
    zero = Scalar.zero(gens)
    for i in range(draw(st.integers(0, m - 1))):
        rows[i][0] = zero
    singular = m > 1 and draw(st.booleans())
    if singular:
        # a row that is a multiple of another
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(_field_elements(gens))
        rows[i] = [c * v for v in rows[j]]
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        col_gens = draw(st.sampled_from([gens, ()]))
        if draw(st.booleans()):
            cols.append([Scalar.zero(col_gens)] * m)
        else:
            cols.append([draw(_field_elements(col_gens)) for _ in range(m)])
    return rows, cols, singular


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_square_matches_augmented_elimination(m, data):
    rows, cols, singular = data.draw(_square_systems(m))
    try:
        want = _augmented_solve(rows, cols, "drawn system")
    except SpecializationCollision as exc:
        with pytest.raises(SpecializationCollision) as got:
            solve_square(rows, cols, "drawn system")
        assert str(got.value) == str(exc) == "singular system in drawn system"
        return
    assert not singular
    got = solve_square(rows, cols, "drawn system")
    # to_json carries the generators, so they must agree as well
    assert [[v.to_json() for v in x] for x in got] == \
        [[v.to_json() for v in x] for x in want]
    for x, b in zip(got, cols):
        for row, v in zip(rows, b):
            assert sum((a * xi for a, xi in zip(row, x)), Scalar.zero()) == v


SOLVE_FIELDS = {"qt(2,3)": qt_config(2, 3), "qt": QT, "r": R,
                "r(1/2)": r_config(Fraction(1, 2))}


def _dense_families(n, cfg, cache):
    """Every family built by `interpolation._solve` at n variables and
    degree <= 2, as canonical JSON."""
    out = {}
    for alpha in enumerate_compositions(n, 2):
        out["G", alpha] = g_oracle(alpha, cfg, cache).to_json()
        out["Gprime", alpha] = gprime(alpha, cfg, cache).to_json()
    for lam in (mu for mu in enumerate_compositions(n, 2)
                if list(mu) == sorted(mu, reverse=True)):
        out["R", lam] = r_sym(lam, cfg, cache).to_json()
        if cfg.variant == "r":
            out["Rprime", lam] = rprime(lam, cfg, cache).to_json()
    return out


@pytest.mark.parametrize("field", sorted(SOLVE_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_factored_solve_matches_inverse(monkeypatch, n, field):
    cfg = SOLVE_FIELDS[field]
    got = _dense_families(n, cfg, FamilyCache())
    monkeypatch.setattr(interpolation, "_solve", _inverse_solve)
    assert got == _dense_families(n, cfg, FamilyCache())


def test_one_factorization_per_system(monkeypatch):
    calls = []
    factor = interpolation.factor_square

    def counting(rows, context="linear system"):
        calls.append(context)
        return factor(rows, context)

    monkeypatch.setattr(interpolation, "factor_square", counting)
    store = FamilyCache()
    indices = [alpha for alpha in enumerate_compositions(3, 2)
               if weight(alpha) == 2]
    for alpha in indices:
        g_oracle(alpha, QT, store)
    assert len(indices) == 6 and len(calls) == 1
    assert [k for k in store._mem if k[0] == "inv"] == [
        ("inv", "bar", False, QT.cache_token(), 3, 2)]


def test_specialization_collision_in_families():
    bad = qt_config(2, Fraction(1, 2))
    cache = FamilyCache()
    with pytest.raises(SpecializationCollision):
        g_oracle((1, 0), bad, cache)
    with pytest.raises(SpecializationCollision):
        g_recursive((1, 0), bad, cache)


def test_mono_sym():
    m = mono_sym(3, (2, 1, 0), Scalar.one())
    assert len(m.terms) == 6
    assert m.swap_adjacent(1) == m and m.swap_adjacent(2) == m


# -- re-check of the defining conditions -------------------------------------

def _raise_degree(p, cfg):
    return p + LaurentPoly.variable(p.n, 1, cfg.one()) ** (p.total_degree() + 1)


def _lift_off_zero(p, cfg):
    return p + LaurentPoly.constant(p.n, cfg.one())


def _double(p, cfg):
    return p.scale(cfg.scalar(2))


@pytest.mark.parametrize("family, index, cfg, kind", [
    (g_oracle, (1, 1), qt_config(2, 3), "bar"),
    (r_sym, (2, 1), qt_config(2, 3), "bar"),
    (gprime, (1, 1), qt_config(2, 3), "tilde"),
    (rprime, (2, 1), r_config(Fraction(1, 2)), "tilde"),
], ids=["G", "R", "Gprime", "Rprime"])
@pytest.mark.parametrize("broken, message", [
    (_raise_degree, "degree bound violated"),
    (_lift_off_zero, "{kind} vanishing failed"),
    (_double, "normalization failed"),
], ids=["degree", "vanishing", "normalization"])
def test_recheck_rejects_a_broken_build(monkeypatch, family, index, cfg, kind,
                                        broken, message):
    # break the polynomial a constructor hands to its re-check of the
    # given point kind; an R built on the way to R' is left intact
    recheck = interpolation._recheck

    def breaking(poly, index_, kind_, *rest):
        return recheck(broken(poly, cfg) if kind_ == kind else poly, index_,
                       kind_, *rest)

    monkeypatch.setattr(interpolation, "_recheck", breaking)
    with pytest.raises(SpecializationCollision,
                       match=message.format(kind=kind)):
        family(index, cfg, FamilyCache())


# -- disk cache ----------------------------------------------------------------

def test_disk_cache_round_trip(tmp_path):
    store = FamilyCache(str(tmp_path))
    g = g_recursive((1, 1), QT, store)
    files = list(tmp_path.glob("*.json"))
    assert files
    fresh = FamilyCache(str(tmp_path))
    assert g_recursive((1, 1), QT, fresh) == g


def test_disk_cache_rebuilds_files_of_another_schema(tmp_path):
    store = FamilyCache(str(tmp_path))
    g = g_recursive((1, 1), QT, store)
    fk = FamilyKey("G", "qt", (1, 1), QT.cache_token())
    path = store._path(fk)
    assert path.name.startswith(f"v{interpolation.CACHE_SCHEMA}-")
    wrong = LaurentPoly.constant(2, QT.one()).to_json()
    # an older schema's file under the current name is not read as current
    data = json.loads(path.read_text())
    data.update(schema=interpolation.CACHE_SCHEMA - 1, poly=wrong)
    path.write_text(dumps_canonical(data))
    # nor is a file named as before the schema was versioned
    digest = hashlib.sha256(dumps_canonical(fk.describe()).encode())
    (tmp_path / f"{digest.hexdigest()}.json").write_text(
        dumps_canonical({"key": fk.describe(), "poly": wrong}))
    assert g_recursive((1, 1), QT, FamilyCache(str(tmp_path))) == g
    assert json.loads(path.read_text())["schema"] == interpolation.CACHE_SCHEMA


def test_family_key_describe():
    fk = FamilyKey("G", "qt", (0, 1), "qt[sym]")
    assert fk.describe() == {"family": "G", "variant": "qt",
                             "index": [0, 1], "config": "qt[sym]"}
