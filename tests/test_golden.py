"""`check all --json --seed 42` at n=1 and n=2 (degree 4), n=3
(degrees 2 and 3) and n=4 (degree 2), with symbolic q,t at n=2
(degrees 3 and 4) and n=3 (degree 3), and on the specialized fields
q = 5/3, t = -7 and r = 1/2 at n=2 (degree 3), must reproduce the
recorded sha256 of every report line byte for byte, and so must
`check recur-oracle-qt` with symbolic q,t at n=3 (degree 3).  So must
the `compute --json` output of the five
symbolic q,t constructions of the symbolic-qt benchmark workload (that
polynomial JSON is what the disk cache stores) and of eleven requests
that evaluate at every point kind (bar, tilde, bar_inv), under both
actions of a, on the r, specialized and inverted fields.  Checks run with one
coefficient or one expansion term perturbed must reproduce their
recorded failing reports, labels and lhs/rhs text included: every
binomial-formula entry on the default fields, and the sampled-a r path
at r = 1/2."""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from interpmac import cli, identities
from interpmac.identities import run_check
from interpmac.interpolation import FamilyCache
from interpmac.polyring import LaurentPoly
from interpmac.scalars import dumps_canonical
from interpmac.variant import r_config

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEGREE = {1: 4, 2: 4, 3: 2, 4: 2}


def _digests(args, capsys, check_id="all") -> tuple:
    code = cli.main(["check", check_id, *args, "--seed", "42", "--json"])
    out = capsys.readouterr().out
    return code, [f"{hashlib.sha256(line.encode()).hexdigest()}  "
                  f"{json.loads(line)['id']}" for line in out.splitlines()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_all_reports_match_golden(n, capsys):
    deg = DEGREE[n]
    code, got = _digests(["--n", str(n), "--deg", str(deg)], capsys)
    want = (GOLDEN / f"check_all_n{n}_deg{deg}_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()


def test_check_all_n3_deg3_reports_match_golden(capsys):
    code, got = _digests(["--n", "3", "--deg", "3"], capsys)
    want = (GOLDEN / "check_all_n3_deg3_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()


def test_check_all_symbolic_reports_match_golden(capsys):
    code, got = _digests(["--n", "2", "--deg", "3", "--symbolic"], capsys)
    want = (GOLDEN / "check_all_n2_deg3_symbolic_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()


def test_check_all_specialized_fields_match_golden(capsys):
    # a negative t and a specialized r: sign normalization of canonical
    # forms on non-default fields
    code, got = _digests(["--n", "2", "--deg", "3", "--q", "5/3", "--t",
                          "-7", "--r", "1/2"], capsys)
    want = (GOLDEN / "check_all_n2_deg3_q5_3_t-7_r1_2_seed42.sha256"
            ).read_text()
    assert code == 0
    assert got == want.splitlines()


@pytest.mark.parametrize("n,deg", [(3, 3), (2, 4)])
def test_check_all_symbolic_desk_scale_matches_golden(n, deg, capsys):
    code, got = _digests(["--n", str(n), "--deg", str(deg), "--symbolic"],
                         capsys)
    want = (GOLDEN / f"check_all_n{n}_deg{deg}_symbolic_seed42.sha256"
            ).read_text()
    assert code == 0
    assert got == want.splitlines()


def test_recur_oracle_symbolic_n3_matches_golden(capsys):
    code, got = _digests(["--n", "3", "--deg", "3", "--symbolic"], capsys,
                         "recur-oracle-qt")
    want = (GOLDEN / "check_recur_oracle_qt_n3_deg3_symbolic_seed42.sha256"
            ).read_text()
    assert code == 0
    assert got == want.splitlines()


COMPUTE = [line.split("  ", 1)
           for name in ("compute_symbolic_qt.sha256", "compute_points.sha256")
           for line in (GOLDEN / name).read_text().splitlines()]


@pytest.mark.parametrize("digest,request_args", COMPUTE,
                         ids=[args for _, args in COMPUTE])
def test_compute_symbolic_qt_matches_golden(digest, request_args, capsys,
                                            monkeypatch):
    monkeypatch.delenv("CACHE_DIR", raising=False)
    code = cli.main(["compute", *request_args.split(), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _plus_one_in_o(real):
    """okounkov with the constant coefficient of O_(1,0) off by one."""
    def okounkov(alpha, cfg, a, cache):
        o = real(alpha, cfg, a, cache)
        if tuple(alpha) != (1, 0):
            return o
        return o + LaurentPoly.constant(o.n, cfg.one())
    return okounkov


def _plus_one_in_binom(real):
    """binom with [(1,1), (1,0)] off by one: one term of every expansion
    of alpha = (1,1)."""
    def binom(alpha, beta, cfg, cache):
        v = real(alpha, beta, cfg, cache)
        return v + 1 if (tuple(alpha), tuple(beta)) == ((1, 1), (1, 0)) else v
    return binom


def _plus_one_in_binom_sym(real):
    """binom_sym with ((1,1), (1,0)) off by one: one term of every
    expansion of lambda = (1,1)."""
    def binom_sym(lam, mu, cfg, cache):
        v = real(lam, mu, cfg, cache)
        return v + 1 if (tuple(lam), tuple(mu)) == ((1, 1), (1, 0)) else v
    return binom_sym


def _plus_one_in_symmetrize(real):
    """symmetrize with the constant coefficient off by one."""
    def symmetrize(f, cfg):
        return real(f, cfg) + LaurentPoly.constant(f.n, cfg.one())
    return symmetrize


# (check id, perturbed name, perturbation, r of the r field or None for
# the default symbolic r)
PERTURBED = [("oko-r", "okounkov", _plus_one_in_o, None),
             ("oko-qt", "okounkov", _plus_one_in_o, None),
             ("binom-r", "binom", _plus_one_in_binom, None),
             ("binom-qt", "binom", _plus_one_in_binom, None),
             ("cor-plus", "binom", _plus_one_in_binom, None),
             ("cor-first", "binom", _plus_one_in_binom, None),
             ("cor-gprime", "binom", _plus_one_in_binom, None),
             ("cor-las", "binom", _plus_one_in_binom, None),
             ("binom-sym-r", "binom_sym", _plus_one_in_binom_sym, None),
             ("sym-binomial-OO", "binom_sym", _plus_one_in_binom_sym, None),
             ("symm-lemma", "symmetrize", _plus_one_in_symmetrize, None),
             ("binom-r", "binom", _plus_one_in_binom, "1/2"),
             ("binom-sym-r", "binom_sym", _plus_one_in_binom_sym, "1/2"),
             ("cor-plus", "binom", _plus_one_in_binom, "1/2")]


def _failing(name: str) -> dict:
    return {json.loads(line)["id"]: line
            for line in (GOLDEN / name).read_text().splitlines()}


FAILING = {None: _failing("failing_reports_n2_deg2_seed0.jsonl"),
           "1/2": _failing("failing_reports_n2_deg2_r1_2_seed0.jsonl")}


@pytest.mark.parametrize(
    "check_id,name,perturb,r", PERTURBED,
    ids=[cid if r is None else f"{cid}@r={r}" for cid, _, _, r in PERTURBED])
def test_failing_reports_match_golden(check_id, name, perturb, r,
                                      monkeypatch):
    # n=2, deg 2, seed 0 on the default fields or at the given r
    monkeypatch.setattr(identities, name, perturb(getattr(identities, name)))
    rep = run_check(check_id, 2, 2, seed=0, cache=FamilyCache(),
                    r=None if r is None else r_config(Fraction(r)))
    assert rep.failures
    assert dumps_canonical(rep.to_json()) == FAILING[r][check_id]
