"""Acceptance gate.

Every criterion runs at desk scale (n = 1, 2 with degree bound 4 and
n = 3 with degree bound 3), tolerance exactly zero: each comparison is
structural equality of canonical exact forms.  One PASS/FAIL line is
printed per criterion.
"""

import subprocess
import sys
import time
from math import comb

import pytest

from interpmac.identities import run_check
from interpmac.interpolation import (FamilyCache, binom, g_recursive,
                                     okounkov)
from interpmac.polyring import LaurentPoly
from interpmac.scalars import Scalar
from interpmac.variant import qt_config, r_config

DESK = [(1, 4), (2, 4), (3, 3)]
SEED = "acceptance"

QT = qt_config()
R = r_config()


@pytest.fixture(scope="module")
def caches():
    return {n: FamilyCache() for n, _ in DESK}


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


def _run_everywhere(check_ids, caches, **kwargs):
    bad = []
    for n, d in DESK:
        for cid in check_ids:
            rep = run_check(cid, n, d, seed=SEED, cache=caches[n], **kwargs)
            if not rep.passed:
                bad.append((n, d, cid, rep.failures[:2]))
    return bad


def test_criterion_1_oracle_equivalence(caches):
    start = time.perf_counter()
    bad = _run_everywhere(["recur-oracle-qt", "recur-oracle-r"], caches)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _line(1, "oracle equivalence, both variants", ok, f"{elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_2_n1_closed_forms(caches):
    cache = caches[1]
    ok = True
    q = QT.gen("q")
    xx = LaurentPoly.variable(1, 1, QT.one())
    expected = LaurentPoly.constant(1, QT.one())
    for k in range(5):
        ok = ok and g_recursive((k,), QT, cache) == expected
        expected = expected * (xx - LaurentPoly.constant(1, q ** k))

    # Gaussian binomial oracle via the Pascal recurrence
    gens = ("q", "t")
    table = {(0, 0): Scalar.one(gens)}
    for kk in range(1, 5):
        for jj in range(kk + 1):
            table[(kk, jj)] = \
                table.get((kk - 1, jj - 1), Scalar.zero(gens)) + \
                Scalar.generator("q", gens) ** jj * \
                table.get((kk - 1, jj), Scalar.zero(gens))
    for k in range(5):
        for j in range(k + 1):
            ok = ok and binom((k,), (j,), QT, cache) == table[(k, j)]
            ok = ok and binom((k,), (j,), R, cache) == R.scalar(comb(k, j))
    _line(2, "one-variable closed forms", ok)
    assert ok


def test_criterion_3_evaluation_formulas(caches):
    bad = _run_everywhere(["eval-qt", "eval-r"], caches)
    # certification modes as stated: sampled at |alpha|+2 for qt, symbolic
    # a for the r variant
    modes = {}
    for cid in ("eval-qt", "eval-r"):
        rep = run_check(cid, 2, 4, seed=SEED, cache=caches[2])
        modes[cid] = rep.config["a_certification"]
    mode_ok = modes["eval-qt"].startswith("sampled") and \
        modes["eval-r"] == "symbolic"

    # hand-derived instance: the (0,1) polynomial at the a-scaled base
    # point equals (a-1)/t
    a = Scalar.generator("a", ("q", "t", "a"))
    g = g_recursive((0, 1), QT, caches[2])
    hand = g.evaluate(QT.act(QT.base_point(2), a)) == \
        (a - 1) * QT.gen_power("t", -1)

    ok = not bad and mode_ok and hand
    _line(3, "evaluation formulas", ok)
    assert not bad, bad
    assert mode_ok and hand


def test_criterion_4_eigen_equations(caches):
    bad = _run_everywhere(["eigen-qt", "eigen-r"], caches)
    _line(4, "eigen-equations", not bad)
    assert not bad, bad


def test_criterion_5_binomial_formulas(caches):
    ids = ["binom-qt", "binom-r", "binom-sym-r", "cor-first", "cor-gprime",
           "cor-las", "cor-plus"]
    bad = _run_everywhere(ids, caches)
    _line(5, "binomial formulas and corollaries", not bad)
    assert not bad, bad


def test_criterion_6_reciprocity(caches):
    bad = _run_everywhere(["oko-qt", "oko-r"], caches)

    a = Scalar.generator("a", ("q", "t", "a"))
    o = okounkov((1,), QT, a, caches[1])
    zero = Scalar.zero(("q", "t", "a"))
    n1 = o.coefficient((1,), zero) == a / (a - 1) and \
        o.coefficient((0,), zero) == -1 / (a - 1)

    ok = not bad and n1
    _line(6, "reciprocity with surplus degrees", ok)
    assert not bad, bad
    assert n1


def test_criterion_7_structural_lemmas(caches):
    ids = ["inva", "zerosp", "derecur", "derecur2", "discr-qt", "discr-r",
           "dom", "sym-lemma", "symm-lemma", "relate", "relate2", "cor-rel",
           "jack-eval-one", "vanish-extra", "spectral-closed-form",
           "hecke-quadratic", "hecke-braid", "sigma-braid",
           "binom-sum-support"]
    bad = _run_everywhere(ids, caches)
    _line(7, "structural lemmas", not bad)
    assert not bad, bad


def test_criterion_8_determinism(tmp_path):
    outputs = {}
    for n, d in DESK:
        cmd = [sys.executable, "-m", "interpmac", "check", "all",
               "--n", str(n), "--deg", str(d), "--seed", "42", "--json",
               "--cache-dir", str(tmp_path / f"cache{n}")]
        first = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=900)
        second = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=900)
        outputs[n] = (first, second)
    ok = all(a.returncode == 0 and b.returncode == 0 and
             a.stdout == b.stdout for a, b in outputs.values())
    _line(8, "byte-identical reports", ok)
    for n, (a, b) in outputs.items():
        assert a.returncode == 0, (n, a.stderr[-500:])
        assert b.returncode == 0, (n, b.stderr[-500:])
        assert a.stdout == b.stdout, f"n={n} reports differ"


def test_criterion_9_bad_specialization(capsys=None):
    cmd = [sys.executable, "-m", "interpmac", "check", "all", "--n", "2",
           "--deg", "2", "--q", "1", "--t", "3"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    named = "q=1" in proc.stderr
    ok = proc.returncode == 3 and named

    # a subtler collision passing construction but caught mid-computation
    cmd2 = [sys.executable, "-m", "interpmac", "check", "recur-oracle-qt",
            "--n", "2", "--deg", "2", "--q", "2", "--t", "1/2"]
    proc2 = subprocess.run(cmd2, capture_output=True, text=True, timeout=120)
    ok2 = proc2.returncode == 3 and "(1, 0)" in proc2.stderr

    _line(9, "bad specialization rejected with exit 3", ok and ok2)
    assert ok, (proc.returncode, proc.stderr)
    assert ok2, (proc2.returncode, proc2.stderr)
