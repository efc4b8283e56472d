"""The field-config contract: disk-cache file names (`cache_token`) and
report JSON (`describe`) spell each field the same way, and a config
survives the pickling that sends it to process-pool workers."""

import pickle
from fractions import Fraction

import pytest

from interpmac import qt_config, r_config

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
