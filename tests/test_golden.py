"""`check all --json --seed 42` at n=1 and n=2 (degree 4) and n=3
(degree 2) must reproduce the recorded sha256 of every report line byte
for byte."""

import hashlib
import json
import pathlib

import pytest

from interpmac import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEGREE = {1: 4, 2: 4, 3: 2}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_all_reports_match_golden(n, capsys):
    deg = DEGREE[n]
    code = cli.main(["check", "all", "--n", str(n), "--deg", str(deg),
                     "--seed", "42", "--json"])
    out = capsys.readouterr().out
    got = [f"{hashlib.sha256(line.encode()).hexdigest()}  "
           f"{json.loads(line)['id']}" for line in out.splitlines()]
    want = (GOLDEN / f"check_all_n{n}_deg{deg}_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()
