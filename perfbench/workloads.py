"""The benchmark's workloads and the checks on their outputs.

desk-n3        `check all --n 3 --deg 3`, serial, no disk cache: the
               ROADMAP's desk scale, dominated by verification (oko-r,
               oko-qt: gcds over Q(r,a), LaurentPoly.evaluate).
symbolic-qt    cold symbolic q,t `compute`/`check` requests in one
               process, each through cli.main with a fresh FamilyCache:
               solve_square over Q(q,t), the operator recursion and the
               dense oracle.
pool-cache-n2  `check all --n 2 --deg 4 --jobs 2` twice on one fresh
               cache directory: the process pool, the JSON disk cache
               and LaurentPoly.to_json/from_json, written by the cold
               pass and read by the warm pass.

The seed reaches the program as `--seed` of every check request; for
symbolic-qt it also fixes the order of the requests.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Optional

NAMES = ("desk-n3", "symbolic-qt", "pool-cache-n2")

CATALOG_ARGS = {
    "desk-n3": ["check", "all", "--n", "3", "--deg", "3", "--json"],
    "pool-cache-n2": ["check", "all", "--n", "2", "--deg", "4", "--json",
                      "--jobs", "2"],
}
POOL_JOBS = 2

SYMBOLIC_QT = (
    ["compute", "G", "--alpha", "3,2,1", "--json"],
    ["compute", "E", "--alpha", "2,3,1", "--json"],
    ["compute", "Gprime", "--alpha", "2,2", "--json"],
    ["compute", "R", "--lambda", "3,1", "--json"],
    ["compute", "O", "--alpha", "1,0,1", "--json"],
    ["check", "recur-oracle-qt", "--n", "2", "--deg", "3", "--symbolic",
     "--json"],
    ["check", "recur-oracle-qt", "--n", "3", "--deg", "2", "--symbolic",
     "--json"],
    ["check", "eigen-qt", "--n", "2", "--deg", "4", "--symbolic", "--json"],
)

SETUP_ARGS = ["list-checks", "--json"]

# The seed at which every output must match its committed digest.
REFERENCE_SEED = 0


def request_name(argv: list) -> str:
    """Seed-free name of a request, the key of its reference entry."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in ("--seed", "--cache-dir"):
            skip = True
        elif a != "--json":
            out.append(a)
    return " ".join(out)


def catalog_argv(workload: str, seed: int) -> list:
    return CATALOG_ARGS[workload] + ["--seed", str(seed)]


def symbolic_requests(seed: int) -> list:
    reqs = [list(r) + (["--seed", str(seed)] if r[0] == "check" else [])
            for r in SYMBOLIC_QT]
    random.Random(seed).shuffle(reqs)
    return reqs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.vacuous: set = set()
        self.problems: list = []

    def op(self, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(why)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed / max(self.attempted, 1),
                "instances": self.instances, "vacuous": sorted(self.vacuous),
                "problems": self.problems[:20]}


def _reports(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        try:
            rep = json.loads(line)
        except ValueError:
            continue
        if isinstance(rep, dict) and "id" in rep:
            out[rep["id"]] = (line, rep)
    return out


def instances(stdout: str) -> int:
    """Instances checked by the reports in one request's output."""
    return sum(rep.get("instances") or 0
               for _, rep in _reports(stdout).values())


def check_catalog(label: str, code: int, stdout: str, ref: dict, seed: int,
                  outcome: Outcome, seen: Optional[dict] = None):
    """One operation per expected check report.  A report fails when it
    is missing or has failures; at the reference seed also when it
    differs from its digest or checks another number of instances, and
    at other seeds when it checks none where the reference checks some
    (the seed picks the random polynomials, whose degrees set how many
    values of a are sampled).  With ``seen``, a report also fails when
    it differs from the same report of an earlier pass at this seed."""
    reports = _reports(stdout)
    seen = {} if seen is None else seen
    before = outcome.failed
    for check_id, want in ref["reports"].items():
        got = reports.get(check_id)
        if got is None:
            outcome.op(False, f"{label} {check_id}: no report (exit {code})")
            continue
        line, rep = got
        why = []
        if rep.get("failures"):
            why.append(f"{len(rep['failures'])} failures")
        if seed == REFERENCE_SEED:
            if rep.get("instances") != want["instances"]:
                why.append(f"{rep.get('instances')} instances, "
                           f"expected {want['instances']}")
            if sha256(line) != want["sha256"]:
                why.append("report differs from the reference")
        elif want["instances"] and not rep.get("instances"):
            why.append("no instances checked")
        digest = seen.setdefault((label, check_id), sha256(line))
        if digest != sha256(line):
            why.append("report differs from an earlier pass")
        outcome.op(not why, f"{label} {check_id}: {', '.join(why)}")
        outcome.instances += rep.get("instances") or 0
        if not rep.get("instances"):
            outcome.vacuous.add(check_id)
    extra = sorted(set(reports) - set(ref["reports"]))
    if extra or (code != 0 and outcome.failed == before):
        outcome.op(False, f"{label}: exit {code}, unexpected reports {extra}")


def check_request(argv: list, code: int, stdout: str, ref: dict, seed: int,
                  outcome: Outcome, seen: Optional[dict] = None):
    """One operation per request.  compute output must match its digest
    at every seed; a check request is judged as a catalog report."""
    name = request_name(argv)
    want = ref["requests"][name]
    if argv[0] == "check":
        check_catalog(name, code, stdout, {"reports": {argv[1]: want}}, seed,
                      outcome, seen)
        return
    why = [f"exit {code}"] if code != 0 else []
    if sha256(stdout) != want["sha256"]:
        why.append("output differs from the reference")
    outcome.op(not why, f"{name}: {', '.join(why)}")
