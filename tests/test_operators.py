import random
from fractions import Fraction

import pytest

from interpmac.errors import UnsupportedSubstitution
from interpmac.interpolation import FamilyCache, g_recursive, r_sym
from interpmac.operators import (hecke, phi_qt, phi_r, sigma_op, sigma_word,
                                 symmetrize, xi_qt, xi_r)
from interpmac.polyring import (LaurentPoly, negate_shift_all, scale_all,
                                shift_all)
from interpmac.shapes import (Permutation, all_permutations, dominant_sort,
                              enumerate_compositions)
from interpmac.variant import qt_config, r_config

QT = qt_config()
R = r_config()


def x(i, n=2, cfg=QT):
    return LaurentPoly.variable(n, i, cfg.one())


def const(c, n=2):
    return LaurentPoly.constant(n, c)


def test_phi_qt_examples():
    assert phi_qt(const(QT.one()), QT) == x(2) - const(QT.gen_power("t", -1))
    qinv = QT.gen("q").invert()
    expected = (x(2) - const(QT.gen_power("t", -1))) * x(2).scale(qinv)
    assert phi_qt(x(1), QT) == expected
    one1 = LaurentPoly.constant(1, QT.one())
    assert phi_qt(one1, QT) == \
        LaurentPoly.variable(1, 1, QT.one()) - LaurentPoly.constant(1, QT.one())


def test_hecke_examples():
    t = QT.gen("t")
    sym = x(1) * x(2)
    assert hecke(1, sym, QT) == sym.scale(t)
    assert hecke(1, x(1), QT) == x(2).scale(t) - x(1).scale(QT.one() - t)
    assert hecke(1, const(QT.one()), QT) == const(t)
    with pytest.raises(IndexError):
        hecke(2, sym, QT)


def test_xi_qt_examples():
    for n in (1, 2, 3):
        one = LaurentPoly.constant(n, QT.one())
        for i in range(1, n + 1):
            assert xi_qt(i, one, QT) == one.scale(QT.gen_power("t", i - 1))
    g01 = x(2) - const(QT.gen_power("t", -1))
    assert xi_qt(2, g01, QT) == g01.scale(QT.gen_power("q", -1))


def test_sigma_examples():
    one = const(R.one())
    assert sigma_op(1, one, R) == one
    assert sigma_op(1, x(1, cfg=R), R) == \
        x(2, cfg=R) + const(R.gen("r"))
    sym = x(1, cfg=R) + x(2, cfg=R)
    assert sigma_op(1, sym, R) == sym


def test_sigma_word_examples():
    f = x(1, cfg=R)
    assert sigma_word(Permutation((1, 2)), f, R) == f
    expected = x(2, cfg=R) + const(R.gen("r"))
    assert sigma_word(Permutation((2, 1)), f, R) == expected
    assert sigma_word(Permutation.longest(2), f, R) == expected


def test_sigma_word_reduced_word_independence():
    # sigma(w_o) at n=3 along both standard reduced words
    f = LaurentPoly(3, {(2, 0, 1): R.one(), (0, 1, 0): R.gen("r")})
    via1 = f
    for i in [1, 2, 1]:
        via1 = sigma_op(i, via1, R)
    via2 = f
    for i in [2, 1, 2]:
        via2 = sigma_op(i, via2, R)
    assert via1 == via2
    assert sigma_word(Permutation.longest(3), f, R) == via1


def test_phi_r_examples():
    one = const(R.one())
    assert phi_r(one, R) == x(2, cfg=R) + const(R.gen("r"))
    expected = (x(2, cfg=R) + const(R.gen("r"))) * \
        (x(2, cfg=R) - const(R.one()))
    assert phi_r(x(1, cfg=R), R) == expected
    one1 = LaurentPoly.constant(1, R.one())
    assert phi_r(one1, R) == LaurentPoly.variable(1, 1, R.one())
    with pytest.raises(UnsupportedSubstitution):
        phi_r(LaurentPoly.monomial(2, (-1, 0), R.one()), R)


def test_xi_r_examples():
    g01 = x(2, cfg=R) + const(R.gen("r"))
    assert xi_r(2, g01, R) == g01
    one = const(R.one())
    # eigenvalue at the zero composition is rho_i
    assert xi_r(1, one, R) == one.scale(R.zero())
    assert xi_r(2, one, R) == one.scale(-R.gen("r"))
    one1 = LaurentPoly.constant(1, R.one())
    assert xi_r(1, one1, R).is_zero()


def test_hecke_quadratic_relation():
    rng = random.Random(4)
    t = QT.gen("t")
    for _ in range(10):
        f = LaurentPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            QT.scalar(rng.randint(1, 5))})
        u = hecke(1, f, QT) + f
        assert (hecke(1, u, QT) - u.scale(t)).is_zero()


def test_braid_relations_n3():
    cfg3 = qt_config()
    f = LaurentPoly(3, {(1, 2, 0): cfg3.scalar(2), (0, 0, 1): cfg3.gen("q")})
    lhs = hecke(1, hecke(2, hecke(1, f, cfg3), cfg3), cfg3)
    rhs = hecke(2, hecke(1, hecke(2, f, cfg3), cfg3), cfg3)
    assert lhs == rhs


def test_symmetrize_examples():
    one = const(R.one())
    assert symmetrize(one, R) == one
    sym = x(1, cfg=R) * x(2, cfg=R)
    assert symmetrize(sym, R) == sym
    half = R.scalar(1) / R.scalar(2)
    expected = (x(1, cfg=R) + x(2, cfg=R) + const(R.gen("r"))).scale(half)
    assert symmetrize(x(1, cfg=R), R) == expected


def test_symmetrizer_is_projector():
    f = LaurentPoly(3, {(2, 1, 0): R.scalar(3), (0, 0, 1): R.one()})
    sf = symmetrize(f, R)
    for i in (1, 2):
        assert sf.swap_adjacent(i) == sf
        assert symmetrize(sigma_op(i, f, R), R) == sf


# -- the raising step against the full rotation -----------------------------------

def _phi_reference(f, coeff, shift, root, cfg):
    """(x_n + root) * f(c*x_n + d, x_1, ..., x_{n-1}), substituting every
    variable by the rotation map {1: (c, n, d), i: (1, i-1, 0)}."""
    n = f.n
    maps = {1: (coeff, n, shift)}
    for i in range(2, n + 1):
        maps[i] = (cfg.one(), i - 1, cfg.zero())
    factor = (LaurentPoly.variable(n, n, cfg.one())
              + LaurentPoly.constant(n, root))
    return factor * f.affine_substitute(maps)


@pytest.mark.parametrize("n", [3, 4])
def test_phi_against_full_rotation(n):
    rng = random.Random(n)
    q_inv, t_root = QT.gen("q").invert(), -QT.gen_power("t", 1 - n)
    r_root = R.gen("r") * (n - 1)
    for _ in range(6):
        exps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(4)]
        exps.append((-1,) + (0,) * (n - 2) + (1,))
        f = LaurentPoly(n, {e: QT.gen_power("q", rng.randint(-1, 1))
                            * rng.randint(1, 5) for e in exps})
        got = phi_qt(f, QT)
        want = _phi_reference(f, q_inv, QT.zero(), t_root, QT)
        assert got == want and got.to_json() == want.to_json()
        g = LaurentPoly(n, {tuple(map(abs, e)): R.gen("r") + rng.randint(-3, 3)
                            for e in exps})
        got = phi_r(g, R)
        want = _phi_reference(g, R.one(), -R.one(), r_root, R)
        assert got == want and got.to_json() == want.to_json()
    with pytest.raises(UnsupportedSubstitution, match="needs a polynomial"):
        phi_r(LaurentPoly.monomial(n, (0,) * (n - 1) + (-1,), R.one()), R)


# -- word actions on a q,t field: the Hecke operators H_w and U/n! ---------------

def test_hecke_word_reduced_word_independence():
    # H(w_o) at n=3 along both standard reduced words
    f = LaurentPoly(3, {(2, 0, 1): QT.one(), (0, -1, 1): QT.gen("q")})
    via1 = f
    for i in [1, 2, 1]:
        via1 = hecke(i, via1, QT)
    via2 = f
    for i in [2, 1, 2]:
        via2 = hecke(i, via2, QT)
    assert via1 == via2
    assert sigma_word(Permutation.longest(3), f, QT) == via1


@pytest.mark.parametrize("cfg, n, deg", [
    (qt_config(2, 3), 2, 3), (qt_config(2, 3), 3, 2), (QT, 2, 2), (QT, 3, 1),
    (R, 2, 3), (R, 3, 2)],
    ids=["q2t3-n2", "q2t3-n3", "qt-n2", "qt-n3", "r-n2", "r-n3"])
def test_symmetrized_g_is_r_sym(cfg, n, deg):
    """The symmetrization of G_alpha, scaled to coefficient 1 at x^lambda
    with lambda the dominant sort of alpha, is R_lambda: on a q,t field
    through the Hecke symmetrizer, on an r field through sigma."""
    cache = FamilyCache()
    for alpha in enumerate_compositions(n, deg):
        lam, _ = dominant_sort(alpha)
        s = symmetrize(g_recursive(alpha, cfg, cache), cfg)
        lead = s.coefficient(lam, cfg.zero())
        assert not lead.is_zero(), alpha
        assert s.scale(lead.invert()) == r_sym(lam, cfg, cache), alpha


def _word_sum_symmetrize(f, cfg):
    """The symmetrizer as the per-word sum of sigma_word over S_n."""
    perms = list(all_permutations(f.n))
    total = LaurentPoly.zero(f.n)
    for w in perms:
        total = total + sigma_word(w, f, cfg)
    return total.scale(cfg.scalar(1) / cfg.scalar(len(perms)))


@pytest.mark.parametrize("cfg", [R, qt_config(2, 3), QT],
                         ids=["r", "q2t3", "qt"])
@pytest.mark.parametrize("n", [3, 4])
def test_symmetrize_by_cosets_matches_word_sum(cfg, n):
    rng = random.Random(f"cosets|{n}")
    monos = enumerate_compositions(n, 3)
    for _ in range(3):
        f = LaurentPoly(n, {e: cfg.scalar(rng.randint(-3, 3))
                            for e in rng.sample(monos, 5)})
        f = f.scale(cfg.exchange_num())
        want = _word_sum_symmetrize(f, cfg)
        got = symmetrize(f, cfg)
        assert got == want
        assert got.pretty() == want.pretty()


def _operators(cfg):
    """(name, f -> operator image) for every operator that runs on cfg."""
    c = cfg.scalar(Fraction(5, 7)) + cfg.exchange_num()
    ops = [("sigma_word", lambda f: sigma_word(Permutation.longest(f.n), f,
                                               cfg)),
           ("symmetrize", lambda f: symmetrize(f, cfg)),
           ("shift_all", lambda f: shift_all(f, c)),
           ("scale_all", lambda f: scale_all(f, c)),
           ("negate_shift_all", lambda f: negate_shift_all(f, c))]
    if cfg.variant == "qt":
        ops += [("hecke", lambda f: hecke(f.n - 1, f, cfg)),
                ("phi_qt", lambda f: phi_qt(f, cfg)),
                ("xi_qt", lambda f: xi_qt(1, f, cfg))]
    else:
        ops += [("sigma_op", lambda f: sigma_op(f.n - 1, f, cfg)),
                ("phi_r", lambda f: phi_r(f, cfg)),
                ("xi_r", lambda f: xi_r(1, f, cfg))]
    return ops


@pytest.mark.parametrize("cfg, n, deg", [
    (qt_config(2, 3), 2, 2), (qt_config(2, 3), 3, 2), (QT, 2, 2),
    (QT, 3, 1), (R, 2, 2), (R, 3, 2), (r_config(Fraction(1, 2)), 2, 2),
    (r_config(Fraction(1, 2)), 3, 2)],
    ids=["q2t3-n2", "q2t3-n3", "qt-n2", "qt-n3", "r-n2", "r-n3",
         "r1/2-n2", "r1/2-n3"])
def test_operators_on_unreduced_coefficients(cfg, n, deg):
    """Each operator on G_alpha with unreduced coefficients equals, and
    prints as, the operator on G_alpha itself."""
    cache = FamilyCache()
    ops = _operators(cfg)
    for alpha in enumerate_compositions(n, deg):
        g = g_recursive(alpha, cfg, cache)
        gu = g.unreduced()
        for name, op in ops:
            want, got = op(g), op(gu)
            assert got == want and want == got, (name, alpha)
            assert got.pretty() == want.pretty(), (name, alpha)
