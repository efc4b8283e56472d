"""`check all --json --seed 42` at n=1 and n=2, degree 4, must reproduce
the recorded sha256 of every report line byte for byte."""

import hashlib
import json
import pathlib

import pytest

from interpmac import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", [1, 2])
def test_check_all_reports_match_golden(n, capsys):
    code = cli.main(["check", "all", "--n", str(n), "--deg", "4",
                     "--seed", "42", "--json"])
    out = capsys.readouterr().out
    got = [f"{hashlib.sha256(line.encode()).hexdigest()}  "
           f"{json.loads(line)['id']}" for line in out.splitlines()]
    want = (GOLDEN / f"check_all_n{n}_deg4_seed42.sha256").read_text()
    assert code == 0
    assert got == want.splitlines()
