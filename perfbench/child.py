"""Run a list of interpmac CLI requests in one process, each through
``interpmac.cli.main`` with its standard output captured.

    python perfbench/child.py SPEC.json RESULT.json

SPEC holds ``{"requests": [[arg, ...], ...], "trace_dir": path or null}``.
With a trace directory the per-layer tracer is installed around all
requests and its state is written to ``main-<pid>.json`` there.
RESULT receives, per request, the exit code, the captured standard
output and the wall time.  The interpreter start and the package import
stay outside the per-request times but inside the caller's wall time.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

from tracer import Tracer


def run_requests(requests: list) -> list:
    from interpmac import cli
    results = []
    for argv in requests:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed request, not a crash
            code = 1
            traceback.print_exc()
        results.append({"argv": argv, "code": code, "stdout": buf.getvalue(),
                        "wall_s": time.perf_counter() - start})
    return results


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    trace_dir = spec.get("trace_dir")
    if trace_dir:
        with Tracer(trace_dir) as tracer:
            results = run_requests(spec["requests"])
        tracer.dump(os.path.join(trace_dir, f"main-{os.getpid()}.json"))
    else:
        results = run_requests(spec["requests"])
    with open(result_path, "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
