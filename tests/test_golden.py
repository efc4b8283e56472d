"""`check all --json --seed 42` at n=1 and n=2 (degree 4) and n=3
(degree 2), and with symbolic q,t at n=2 (degree 3), must reproduce the
recorded sha256 of every report line byte for byte, and so must
`check recur-oracle-qt` with symbolic q,t at n=3 (degree 3).  So must the
`compute --json` output of the five symbolic q,t constructions of the
symbolic-qt benchmark workload: that polynomial JSON is what the disk
cache stores."""

import hashlib
import json
import pathlib

import pytest

from interpmac import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEGREE = {1: 4, 2: 4, 3: 2}


def _digests(args, capsys, check_id="all") -> tuple:
    code = cli.main(["check", check_id, *args, "--seed", "42", "--json"])
    out = capsys.readouterr().out
    return code, [f"{hashlib.sha256(line.encode()).hexdigest()}  "
                  f"{json.loads(line)['id']}" for line in out.splitlines()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_all_reports_match_golden(n, capsys):
    deg = DEGREE[n]
    code, got = _digests(["--n", str(n), "--deg", str(deg)], capsys)
    want = (GOLDEN / f"check_all_n{n}_deg{deg}_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()


def test_check_all_symbolic_reports_match_golden(capsys):
    code, got = _digests(["--n", "2", "--deg", "3", "--symbolic"], capsys)
    want = (GOLDEN / "check_all_n2_deg3_symbolic_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()


def test_recur_oracle_symbolic_n3_matches_golden(capsys):
    code, got = _digests(["--n", "3", "--deg", "3", "--symbolic"], capsys,
                         "recur-oracle-qt")
    want = (GOLDEN / "check_recur_oracle_qt_n3_deg3_symbolic_seed42.sha256"
            ).read_text()
    assert code == 0
    assert got == want.splitlines()


COMPUTE = [line.split("  ", 1) for line in
           (GOLDEN / "compute_symbolic_qt.sha256").read_text().splitlines()]


@pytest.mark.parametrize("digest,request_args", COMPUTE,
                         ids=[args for _, args in COMPUTE])
def test_compute_symbolic_qt_matches_golden(digest, request_args, capsys,
                                            monkeypatch):
    monkeypatch.delenv("CACHE_DIR", raising=False)
    code = cli.main(["compute", *request_args.split(), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
