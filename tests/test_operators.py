import random

import pytest

from interpmac.errors import UnsupportedSubstitution
from interpmac.operators import (hecke, phi_qt, phi_r, sigma_op, sigma_word,
                                 symmetrize, xi_qt, xi_r)
from interpmac.polyring import LaurentPoly
from interpmac.shapes import Permutation
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
