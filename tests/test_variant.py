"""The field-config contract: disk-cache file names (`cache_token`) and
report JSON (`describe`) spell each field the same way, a config
survives the pickling that sends it to process-pool workers, and the
spectral points it builds (bar, tilde, bar_inv, the base point, the
action of a) are tuples of Scalars with the paper's coordinates."""

import pickle
from fractions import Fraction

import pytest

from interpmac import qt_config, r_config
from interpmac.shapes import coleg_vector, enumerate_compositions

QT = qt_config()
R = r_config()

CONFIGS = [
    (qt_config(), "qt[sym]",
     {"variant": "qt", "mode": "symbolic"}),
    (qt_config(2, 3), "qt[q=2,t=3]",
     {"variant": "qt", "mode": "specialized",
      "assignments": {"q": "2", "t": "3"}}),
    (qt_config().with_inverted(), "qt[sym,inv]",
     {"variant": "qt", "mode": "symbolic", "inverted": True}),
    (qt_config(2, 3).with_inverted(), "qt[q=2,t=3,inv]",
     {"variant": "qt", "mode": "specialized",
      "assignments": {"q": "2", "t": "3"}, "inverted": True}),
    (r_config(), "r[sym]",
     {"variant": "r", "mode": "symbolic"}),
    (r_config(Fraction(1, 2)), "r[r=1/2]",
     {"variant": "r", "mode": "specialized", "assignments": {"r": "1/2"}}),
]


@pytest.mark.parametrize("cfg, token, described", CONFIGS,
                         ids=[token for _, token, _ in CONFIGS])
def test_config_token_and_description(cfg, token, described):
    assert cfg.cache_token() == token
    assert cfg.describe() == described
    assert cfg == cfg
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and hash(back) == hash(cfg)
    assert back.cache_token() == token
    assert back.describe() == described


def test_configs_of_distinct_fields_differ():
    cfgs = [cfg for cfg, _, _ in CONFIGS]
    assert len(set(cfgs)) == len(cfgs)


def test_spectral_qt_examples():
    assert QT.bar((0, 0)) == QT.base_point(2)
    tinv = QT.gen_power("t", -1)
    q = QT.gen("q")
    assert QT.bar((0, 1)) == (tinv, q)
    assert QT.bar((1, 0)) == (q, tinv)


def test_spectral_closed_form():
    for alpha in enumerate_compositions(3, 3):
        pt = QT.bar(alpha)
        ks = coleg_vector(alpha)
        for i in range(3):
            assert pt[i] == QT.gen_power("q", alpha[i]) * \
                QT.gen_power("t", -ks[i])


def test_spectral_r_examples():
    r = R.gen("r")
    assert R.bar((0, 0)) == (R.zero(), -r)
    assert R.bar((0, 1)) == (-r, R.one())
    assert R.bar((1, 0)) == (R.one(), -r)


def test_tilde_examples():
    assert QT.tilde((0, 0)) == QT.base_point(2)
    assert R.tilde((1, 0)) == (R.zero(), -R.one() - R.gen("r"))
    assert QT.tilde((3,)) == (QT.gen_power("q", -3),)


def test_spectral_injectivity_at_default_specialization():
    cfg = qt_config(2, 3)
    for n, d in [(2, 4), (3, 3)]:
        seen = {}
        for beta in enumerate_compositions(n, d):
            key = tuple(c.as_fraction() for c in cfg.bar(beta))
            assert key not in seen, (beta, seen[key])
            seen[key] = beta


@pytest.mark.parametrize("cfg", [cfg for cfg, _, _ in CONFIGS],
                         ids=[token for _, token, _ in CONFIGS])
def test_bar_of_zero_is_the_base_point(cfg):
    # O's ratios take their base value at bar(0, ..., 0); check_eval and
    # the fixed points of the binomial formulas take it at base_point(n)
    for n in range(1, 5):
        assert cfg.bar((0,) * n) == cfg.base_point(n)


def test_base_points():
    t = QT.gen("t")
    assert QT.base_point(3) == (QT.one(), t.invert(), (t * t).invert())
    r = R.gen("r")
    assert R.base_point(3) == (R.zero(), -r, -r - r)


@pytest.mark.parametrize("cfg", [qt_config(), qt_config(2, 3),
                                 qt_config().with_inverted(),
                                 qt_config(2, 3).with_inverted()],
                         ids=lambda cfg: cfg.cache_token())
def test_bar_inv_is_the_reciprocal_of_bar(cfg):
    for v in enumerate_compositions(3, 2):
        pt, inv = cfg.bar(v), cfg.bar_inv(v)
        assert isinstance(inv, tuple) and len(inv) == 3
        assert all(x * y == cfg.one() for x, y in zip(pt, inv))


def test_act_scales_on_qt_and_shifts_on_r():
    a = QT.scalar(Fraction(5, 7))
    assert QT.act(QT.bar((1, 0)), a) == (QT.gen("q") * a,
                                          QT.gen_power("t", -1) * a)
    b = R.scalar(Fraction(5, 7))
    r = R.gen("r")
    assert R.act(R.bar((1, 0)), b) == (R.one() + b, b - r)
    assert R.act(R.base_point(2), b) == (b, b - r)


def test_gen_power_is_shared_between_equal_configs():
    q = QT.gen("q")
    assert QT.gen_power("q", -2) == 1 / (q * q)
    assert qt_config().gen_power("q", -2) is QT.gen_power("q", -2)
    assert qt_config(2, 3).gen_power("t", 2) == 9
    assert qt_config(2, 3).with_inverted().gen_power("t", 2) == \
        Fraction(1, 9)
    assert QT.with_inverted().gen_power("q", 3) == q ** -3
