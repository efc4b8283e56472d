from fractions import Fraction

import pytest

from interpmac import identities
from interpmac.errors import SpecializationCollision, UsageError
from interpmac.identities import CATALOG, CheckContext, CheckReport, run_check
from interpmac.interpolation import FamilyCache
from interpmac.scalars import dumps_canonical
from interpmac.variant import qt_config, r_config


@pytest.fixture(scope="module")
def cache():
    return FamilyCache()


def test_catalog_size_and_ids():
    assert len(CATALOG) >= 28
    assert "binom-qt" in CATALOG and "oko-r" in CATALOG
    binom_entries = [cid for cid in CATALOG if "binom" in cid]
    assert len(binom_entries) == 5


def test_unknown_id_raises():
    with pytest.raises(UsageError):
        run_check("nonsense", 2, 2)


def test_run_check_counts_instances(cache):
    rep = run_check("binom-qt", 2, 2, seed=1, cache=cache)
    assert rep.passed
    # one instance per (alpha, sampled a) pair: 6 alphas, |alpha|+2 samples
    assert rep.instances == sum(w + 2 for w in [0, 1, 1, 2, 2, 2])


def test_reports_are_deterministic(cache):
    rep1 = run_check("eval-qt", 2, 2, seed="77", cache=cache)
    rep2 = run_check("eval-qt", 2, 2, seed="77", cache=FamilyCache())
    assert dumps_canonical(rep1.to_json()) == dumps_canonical(rep2.to_json())
    rep3 = run_check("eval-qt", 2, 2, seed="78", cache=cache)
    assert rep3.passed


def test_report_json_shape(cache):
    rep = run_check("eigen-qt", 2, 1, seed=0, cache=cache)
    data = rep.to_json()
    assert set(data) == {"id", "config", "instances", "failures"}
    assert data["failures"] == []


def test_config_override_propagates(cache):
    rep = run_check("eval-qt", 1, 3, qt=qt_config(), seed=0,
                    cache=FamilyCache())
    assert rep.passed
    assert rep.config["field"]["qt"]["mode"] == "symbolic"
    assert rep.config["a_certification"] == "symbolic"


def test_specialization_collision_surfaces():
    from fractions import Fraction
    bad = qt_config(2, Fraction(1, 2))
    with pytest.raises(SpecializationCollision):
        run_check("eigen-qt", 2, 2, qt=bad, cache=FamilyCache())


def test_a_certification_modes(cache):
    rep = run_check("eval-qt", 1, 2, seed=5, cache=cache)
    assert rep.config["a_certification"].startswith("sampled")
    rep = run_check("eval-r", 1, 2, seed=5, cache=cache)
    assert rep.config["a_certification"] == "symbolic"
    rep = run_check("oko-r", 1, 2, seed=5, cache=cache)
    assert rep.config["a_certification"] == "symbolic"


@pytest.mark.parametrize("check_id", ["binom-r", "binom-sym-r", "cor-plus",
                                      "symm-lemma"])
def test_sampled_a_never_makes_an_instance_vacuous(check_id, monkeypatch):
    # At r = 1 and a = 2, G_beta(a + rho) = R_beta(a + rho) = 0 for
    # beta = 3, 4, 5 in one variable, so every cofactor of the expansion of
    # alpha = (5) vanishes and the instance would read 0 == 0.  Offer a = 2
    # first on every draw: the pre-flight must pass it over where it would.
    draw = identities.seeded_rationals

    def two_first(rng):
        yield Fraction(2)
        yield from (v for v in draw(rng) if v != 2)

    monkeypatch.setattr(identities, "seeded_rationals", two_first)
    seen, vacuous = [], []
    eq = CheckContext.eq

    def recording_eq(self, instance, lhs, rhs):
        seen.append(instance)
        if lhs.is_zero() and rhs.is_zero():
            vacuous.append(instance)
        eq(self, instance, lhs, rhs)

    monkeypatch.setattr(CheckContext, "eq", recording_eq)
    rep = run_check(check_id, 1, 5, seed=0, r=r_config(1), cache=FamilyCache())
    assert rep.passed
    assert rep.config["a_certification"].startswith("sampled")
    # every instance is one expansion compared through ctx.eq, so none
    # can pass without being looked at
    assert rep.instances > 0
    assert len(seen) == rep.instances
    assert vacuous == []


@pytest.mark.parametrize("check_id,name,broken", [
    ("binom-sym-r", "shift_all", lambda real: lambda f, a: real(f, a + 1)),
    ("cor-plus", "shift_all", lambda real: lambda f, a: real(f, a + 1)),
    ("symm-lemma", "symmetrize", lambda real: lambda f, cfg: f),
], ids=["binom-sym-r", "cor-plus", "symm-lemma"])
def test_failure_labels_name_the_sampled_a(check_id, name, broken,
                                           monkeypatch):
    # with one step of the check broken every instance fails, and under a
    # specialized r each failure must say which sampled a it was
    monkeypatch.setattr(identities, name, broken(getattr(identities, name)))
    rep = run_check(check_id, 2, 2, seed=0, r=r_config(Fraction(1, 2)),
                    cache=FamilyCache())
    labels = [f["instance"] for f in rep.failures]
    assert labels
    assert all(", a=" in label for label in labels)
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("check_id", sorted(CATALOG))
def test_each_check_passes_small(check_id, cache):
    rep = run_check(check_id, 2, 2, seed=11, cache=cache)
    assert rep.passed, rep.failures[:2]


def test_failures_reported_with_instance():
    # a deliberately broken comparison records instance, lhs, rhs
    from interpmac.identities import CheckContext
    ctx = CheckContext("unit", 2, 2, qt_config(2, 3), r_config(), 0,
                       FamilyCache())
    ctx.eq("alpha=(9,9)", 1, 2)
    assert ctx.failures == [{"instance": "alpha=(9,9)", "lhs": "1",
                             "rhs": "2"}]
    report = CheckReport("unit", {}, ctx.instances, ctx.failures, 0.0)
    assert not report.passed
