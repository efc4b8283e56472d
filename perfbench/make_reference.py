"""Rewrite perfbench/reference.json from runs at the reference seed.

    python3 perfbench/make_reference.py

Every report must pass and both pool-cache-n2 passes must print the
same reports.  Run it only when a change alters the outputs on purpose.
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads as wl


def _reports(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        rep = json.loads(line)
        if rep["failures"]:
            raise SystemExit(f"{rep['id']} fails; no reference written")
        out[rep["id"]] = {"sha256": wl.sha256(line),
                          "instances": rep["instances"]}
    return out


def main() -> int:
    seed = wl.REFERENCE_SEED
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
    deadline = time.monotonic() + 3600
    try:
        setup = run.run_child(run.cli_argv(wl.SETUP_ARGS), tmp / "setup.out",
                              deadline)
        ref = {"setup": wl.sha256(setup["stdout"])}
        for name in ("desk-n3", "pool-cache-n2"):
            p = run.run_pass(name, seed, False, tmp, deadline)
            passes = [_reports(stdout) for _, _, stdout in p["outputs"]]
            if any(r != passes[0] for r in passes):
                raise SystemExit(f"{name}: passes disagree")
            ref[name] = {"reports": passes[0]}
        requests = {}
        p = run.run_pass("symbolic-qt", seed, False, tmp, deadline)
        for argv, code, stdout in p["outputs"]:
            if code != 0:
                raise SystemExit(f"{argv}: exit {code}")
            name = wl.request_name(argv)
            requests[name] = (_reports(stdout)[argv[1]] if argv[0] == "check"
                              else {"sha256": wl.sha256(stdout)})
        ref["symbolic-qt"] = {"requests": requests}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
