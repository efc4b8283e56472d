"""Benchmark of the interpmac CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload desk-n3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --repeats 10 --trace 0

Run it from the root of a source tree; the program is imported from
``src/`` and nothing is installed.  One workload run prints a ``detail:``
line (provenance, per-pass figures, failures) and then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json, measured untraced; with ``--trace 1`` they are its
per-layer metrics, from one untraced and one traced pass.
``--workload all`` runs every workload ``--repeats`` times as separate
runs of this script, rotating the workload order per repeat, and prints
each metric's median, quartiles and sample count.

Load is closed loop with one client: one request at a time, each started
after the previous one returned.  A run repeats whole passes of its
workload while the next one is expected to end within ``--seconds``,
and always makes at least one.  Children get a fixed environment:
PYTHONPATH is ``src``, PYTHONHASHSEED is pinned, CACHE_DIR and other
PYTHON* variables are dropped, and every cache directory is a fresh
one under ``.perfbench/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HASH_SEED = "0"
RUN_LIMIT_S = 170.0
SETUP_RUNS = 9

# Counts that must repeat exactly across traced runs of one source tree
# and seed.  In the cold pass of pool-cache-n2 the two workers share the
# cache directory, so whether a polynomial is built or read back (and the
# arithmetic that follows) depends on scheduling; only the counts that do
# not depend on it are required to repeat there.
COUNTS = ("scalars.arith_calls", "scalars.eq_calls", "scalars.calls_gens0",
          "scalars.calls_gens1", "scalars.calls_gens2", "scalars.calls_gens3",
          "polyring.evaluate_calls", "operators.calls",
          "interpolation.solve_square_calls",
          "interpolation.solve_square_max_m",
          "interpolation.poly_calls", "interpolation.poly_builds",
          "interpolation.disk_hits", "identities.instances",
          "cli.cache_files_written")
SCHEDULE_FREE_COUNTS = ("interpolation.solve_square_max_m",
                        "interpolation.poly_calls", "identities.instances",
                        "cli.cache_files_written")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "CACHE_DIR" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


class Deadline(Exception):
    pass


def run_child(argv: list, out_path: Path, deadline: float) -> dict:
    """Run one child process to completion; wall time, and CPU time and
    peak RSS from os.wait4 (they include the pool workers it reaped)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline("time limit reached before " + " ".join(argv[:4]))
    with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
        start = time.perf_counter()
        # A session of its own, so that a kill also ends the pool workers.
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(), start_new_session=True)

        def kill():
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(remaining, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise Deadline(f"child killed: {' '.join(argv[:6])}")
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text()}


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "interpmac"] + args


def in_process(requests: list, tmp: Path, tag: str, trace_dir,
               deadline: float) -> tuple:
    """Run requests through perfbench/child.py; (process figures,
    per-request results)."""
    spec = tmp / f"{tag}.spec.json"
    result = tmp / f"{tag}.result.json"
    spec.write_text(json.dumps({"requests": requests,
                                "trace_dir": str(trace_dir) if trace_dir
                                else None}))
    proc = run_child([sys.executable, str(HERE / "child.py"), str(spec),
                      str(result)], tmp / f"{tag}.out", deadline)
    if proc["code"] != 0 or not result.exists():
        return proc, [{"argv": r, "code": proc["code"], "stdout": ""}
                      for r in requests]
    return proc, json.loads(result.read_text())


def run_pass(workload: str, seed: int, traced: bool, tmp: Path,
             deadline: float) -> dict:
    """One pass of a workload.  outputs: (argv, exit code, stdout) per
    request; trace_dirs: where traced processes left their state."""
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp))
    procs, outputs, trace_dirs, extra = [], [], [], {}

    def run(argv: list, name: str):
        trace_dir = None
        if traced:
            trace_dir = tmp / f"{name}-trace"
            trace_dir.mkdir()
            trace_dirs.append(trace_dir)
        if traced or workload == "symbolic-qt":
            proc, results = in_process(argv, tmp, name, trace_dir, deadline)
            outputs.extend((r["argv"], r["code"], r["stdout"])
                           for r in results)
        else:
            proc = run_child(cli_argv(argv[0]), tmp / f"{name}.out",
                             deadline)
            outputs.append((argv[0], proc["code"], proc["stdout"]))
        procs.append(proc)
        return proc

    if workload == "symbolic-qt":
        run(wl.symbolic_requests(seed), "requests")
    elif workload == "desk-n3":
        run([wl.catalog_argv(workload, seed)], "catalog")
    else:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=tmp))
        argv = wl.catalog_argv(workload, seed) + ["--cache-dir",
                                                 str(cache_dir)]
        extra["cold_s"] = run([argv], "cold")["wall_s"]
        files = list(cache_dir.glob("*.json"))
        extra["cache_files_written"] = len(files)
        extra["cache_bytes_written"] = sum(f.stat().st_size for f in files)
        extra["warm_s"] = run([argv], "warm")["wall_s"]
    return dict(extra, wall_s=sum(p["wall_s"] for p in procs),
                cpu_s=sum(p["cpu_s"] for p in procs),
                peak_rss_mb=max(p["rss_mb"] for p in procs),
                outputs=outputs, trace_dirs=trace_dirs)


def check_outputs(workload: str, outputs: list, ref: dict, seed: int,
                  outcome: wl.Outcome, seen: dict):
    """Check one pass's outputs; ``seen`` holds the report digests of the
    run's earlier passes, which every later pass must reproduce."""
    for argv, code, stdout in outputs:
        if workload == "symbolic-qt":
            wl.check_request(argv, code, stdout, ref[workload], seed, outcome,
                             seen)
        else:
            wl.check_catalog(workload, code, stdout, ref[workload], seed,
                             outcome, seen)


def measure_setup(tmp: Path, ref: dict, outcome: wl.Outcome,
                  deadline: float) -> list:
    """Wall times of fresh `list-checks --json` processes: interpreter
    start, package import and catalog build, after one warm-up run that
    leaves the .pyc files in place."""
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = run_child(cli_argv(wl.SETUP_ARGS), tmp / f"setup{i}.out",
                         deadline)
        ok = proc["code"] == 0 and wl.sha256(proc["stdout"]) == ref["setup"]
        outcome.op(ok, f"list-checks: exit {proc['code']} or output differs")
        if i:
            times.append(proc["wall_s"])
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed, "pythonhashseed": HASH_SEED}


def check_counts(workload: str, seed: int, src: str, metrics: dict,
                 outcome: wl.Outcome):
    """Counts must repeat exactly across traced runs of one source tree
    and seed: compare with the record of an earlier run, or leave one."""
    names = SCHEDULE_FREE_COUNTS if workload == "pool-cache-n2" else COUNTS
    counts = {k: metrics[k] for k in names}
    path = OUT / "counts" / f"{workload}-seed{seed}-{src[:16]}.json"
    if path.exists():
        old = json.loads(path.read_text())
        moved = sorted(k for k in counts if counts[k] != old.get(k))
        if moved:
            outcome.problems.append(f"counts differ from an earlier traced "
                                    f"run of this tree: {moved}")
            return False
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
    return True


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple:
    """(correct, outcome, metrics, detail) of one run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    ref = json.loads((HERE / "reference.json").read_text())
    outcome = wl.Outcome()
    seen: dict = {}
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    correct = True
    detail: dict = {"workload": workload, "trace": int(trace),
                    "provenance": provenance(seed)}
    try:
        if not trace:
            setup = measure_setup(tmp, ref, outcome, deadline)
            passes = []
            start = time.perf_counter()
            while True:
                p = run_pass(workload, seed, False, tmp, deadline)
                check_outputs(workload, p["outputs"], ref, seed, outcome,
                              seen)
                passes.append(p)
                elapsed = time.perf_counter() - start
                if elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
            figures = {k: [p[k] for p in passes] for k in passes[0]
                       if k.endswith("_s") or k.endswith("_mb")}
            metrics = {k: statistics.median(v) for k, v in figures.items()}
            metrics["setup_s"] = statistics.median(setup)
            detail.update(passes=figures, setup_runs_s=setup)
        else:
            plain = run_pass(workload, seed, False, tmp, deadline)
            check_outputs(workload, plain["outputs"], ref, seed, outcome,
                          seen)
            traced = run_pass(workload, seed, True, tmp, deadline)
            check_outputs(workload, traced["outputs"], ref, seed, outcome,
                          seen)
            states = [s for d in traced["trace_dirs"]
                      for s in tracer.load_states(d)]
            metrics = tracer.layer_metrics(
                states, wl.POOL_JOBS if workload == "pool-cache-n2" else 1)
            metrics["identities.instances"] = sum(
                wl.instances(o[2]) for o in traced["outputs"])
            metrics["cli.cache_files_written"] = traced.get(
                "cache_files_written", 0)
            metrics["cli.cache_bytes_written"] = traced.get(
                "cache_bytes_written", 0)
            metrics["trace.overhead_frac"] = (traced["wall_s"]
                                              / plain["wall_s"] - 1.0)
            digests = [[wl.sha256(o[2]) for o in p["outputs"]]
                       for p in (plain, traced)]
            if digests[0] != digests[1]:
                correct = False
                outcome.problems.append("traced outputs differ from "
                                        "untraced ones")
            workers = sum(1 for s in states if s["worker"])
            detail.update(untraced_wall_s=plain["wall_s"],
                          traced_wall_s=traced["wall_s"],
                          traced_processes=len(states),
                          pool_workers_traced=workers)
            if workload == "pool-cache-n2" and not workers:
                detail["note"] = ("pool workers left no trace: per-layer "
                                  "figures cover the parent process only")
            if not outcome.failed:
                correct &= check_counts(workload, seed,
                                        detail["provenance"]["src_sha256"],
                                        metrics, outcome)
    except Deadline as exc:
        outcome.op(False, str(exc))
        metrics = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail["outcome"] = outcome.as_dict()
    names = spec["per_layer" if trace else "end_to_end"]
    correct = correct and outcome.failed == 0 and all(
        m["name"] in metrics for m in names)
    values = {m["name"]: {"value": metrics.get(m["name"], 0.0),
                          "unit": m["unit"]} for m in names}
    detail["extra"] = {k: v for k, v in metrics.items()
                       if k not in values}
    return correct, outcome, values, detail


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args, spec: dict) -> int:
    """Every workload, --repeats times, as separate runs of this script
    with the workload order rotated per repeat.  Untraced repeats use
    seeds seed, seed+1, ...; traced repeats all use --seed, so that
    their counts must agree."""
    names = [w["name"] for w in spec["workloads"]]
    rows: dict = {n: [] for n in names}
    for r in range(args.repeats):
        seed = args.seed + (0 if args.trace else r)
        for name in names[r % len(names):] + names[:r % len(names)]:
            got = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = got.stdout.strip().splitlines()
            if got.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {got.returncode}\n"
                      f"{got.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            detail = next((json.loads(ln[len("detail: "):]) for ln in lines
                           if ln.startswith("detail: ")), {})
            rows[name].append({"seed": seed, "result": result,
                               "detail": detail})
            shown = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{json.dumps(shown)}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"provenance": rows[names[0]][0]["detail"].get("provenance"),
               "trace": args.trace, "repeats": args.repeats,
               "seconds": args.seconds, "workloads": {}}
    for name in names:
        table = {}
        runs = rows[name]
        metric_names = list(runs[0]["result"]["metrics"])
        extra = ["cold_s", "warm_s"] if not args.trace else []
        for metric in metric_names + extra + ["failed_frac"]:
            if metric == "failed_frac":
                vals = [r["detail"]["outcome"]["failed_frac"] for r in runs]
                unit = "1"
            elif metric in extra:
                vals = [r["detail"]["extra"][metric] for r in runs
                        if metric in r["detail"]["extra"]]
                unit = "s"
            else:
                vals = [r["result"]["metrics"][metric]["value"] for r in runs]
                unit = runs[0]["result"]["metrics"][metric]["unit"]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            table[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "n": len(vals),
                             "spread": (q3 - q1) / med if med else 0.0,
                             "bound": bounds.get(metric),
                             "values": vals}
        summary["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": table}
        print(f"\n{name}: correct={summary['workloads'][name]['correct']} "
              f"attempted={summary['workloads'][name]['attempted']} "
              f"failed={summary['workloads'][name]['failed']}")
        for metric, row in table.items():
            bound = f" bound {row['bound']}" if row["bound"] else ""
            print(f"  {metric:36s} {row['median']:>12.5g} {row['unit']:8s} "
                  f"q1 {row['q1']:.5g} q3 {row['q3']:.5g} n={row['n']} "
                  f"spread {row['spread']:.3f}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) \
        else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="with --workload all: runs per workload")
    parser.add_argument("--out", help="with --workload all: summary file")
    args = parser.parse_args()
    if not (SRC / "interpmac" / "__init__.py").is_file():
        print(f"error: no interpmac sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in wl.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    correct, outcome, values, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
