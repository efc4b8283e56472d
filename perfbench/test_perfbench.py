"""Tests of the benchmark itself, at a scale that runs in seconds:

    python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

TINY = [["check", "all", "--n", "1", "--deg", "2", "--json"],
        ["compute", "G", "--alpha", "1,1", "--json"]]


def _snapshot() -> dict:
    out = {}
    for name in tracer.MODULES:
        module = importlib.import_module(f"interpmac.{name}")
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_uninstall_restores_every_patched_attribute():
    before = _snapshot()
    with tracer.Tracer():
        during = _snapshot()
        changed = [k for k in before if during[k] is not before[k]]
        interpolation = importlib.import_module("interpmac.interpolation")
        assert interpolation.hecke.__wrapped__ is before[("operators",
                                                          "hecke")]
    after = _snapshot()
    assert ("interpolation", "hecke") in changed
    assert ("cli", "run_check") in changed
    assert ("scalars", "Scalar", "__radd__") in changed
    assert ("polyring", "LaurentPoly", "from_json") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_outputs_equal_untraced_and_counts_repeat(tmp_path):
    plain = child.run_requests(TINY)
    metrics = []
    for k in range(2):
        trace_dir = tmp_path / f"t{k}"
        trace_dir.mkdir()
        with tracer.Tracer(str(trace_dir)) as t:
            traced = child.run_requests(TINY)
        t.dump(str(trace_dir / "main.json"))
        assert [r["stdout"] for r in traced] == [r["stdout"] for r in plain]
        assert all(r["code"] == 0 for r in traced)
        metrics.append(tracer.layer_metrics(tracer.load_states(str(trace_dir)),
                                            jobs=1))
    counts = [{k: m[k] for k in m if k.endswith("_calls") or k.endswith(
        "_builds") or k.endswith("_max_m") or "calls_gens" in k}
        for m in metrics]
    assert counts[0] == counts[1]
    m = metrics[0]
    assert m["scalars.arith_calls"] > 0
    assert m["interpolation.poly_builds"] > 0
    assert m["identities.verify_s"] > 0
    assert sum(m[f"scalars.calls_gens{k}"] for k in range(4)) == (
        m["scalars.arith_calls"] + m["scalars.eq_calls"])


def test_pool_workers_leave_their_state(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    argv = ["check", "all", "--n", "1", "--deg", "2", "--json", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache")]
    with tracer.Tracer(str(trace_dir)) as t:
        (result,) = child.run_requests([argv])
    t.dump(str(trace_dir / "main.json"))
    assert result["code"] == 0
    states = tracer.load_states(str(trace_dir))
    assert any(s["worker"] for s in states)
    m = tracer.layer_metrics(states, jobs=2)
    assert 0 < m["cli.pool_busy_frac"] <= 1
    assert m["cli.pool_critical_path_s"] > 0
    assert m["interpolation.poly_calls"] > 0


def test_catalog_check_counts_failures_and_vacuous_checks():
    ref = {"reports": {"a": {"sha256": "x", "instances": 2},
                       "b": {"sha256": "x", "instances": 0},
                       "c": {"sha256": "x", "instances": 1}}}
    lines = [json.dumps({"id": "a", "instances": 2, "failures": []}),
             json.dumps({"id": "b", "instances": 0, "failures": []}),
             json.dumps({"id": "c", "instances": 1,
                         "failures": [{"instance": "i"}]})]
    out = wl.Outcome()
    wl.check_catalog("w", 1, "\n".join(lines), ref, seed=5, outcome=out)
    assert (out.attempted, out.failed) == (3, 1)
    assert out.vacuous == {"b"}
    out = wl.Outcome()
    wl.check_catalog("w", 0, lines[0], ref, seed=5, outcome=out)
    assert (out.attempted, out.failed) == (3, 2)
    out = wl.Outcome()
    wl.check_catalog("w", 0, lines[0], {"reports": {"a": ref["reports"]["a"]}},
                     seed=wl.REFERENCE_SEED, outcome=out)
    assert out.failed == 1 and "differs" in out.problems[0]


def test_instance_counts_follow_the_seed_but_never_drop_to_zero():
    ref = {"reports": {"a": {"sha256": "x", "instances": 4}}}
    fewer = json.dumps({"id": "a", "instances": 3, "failures": []})
    none = json.dumps({"id": "a", "instances": 0, "failures": []})
    out = wl.Outcome()
    wl.check_catalog("w", 0, fewer, ref, seed=5, outcome=out)
    assert (out.attempted, out.failed) == (1, 0)
    wl.check_catalog("w", 0, none, ref, seed=6, outcome=out)
    assert out.failed == 1 and "no instances" in out.problems[0]
    out = wl.Outcome()
    wl.check_catalog("w", 0, fewer, ref, seed=wl.REFERENCE_SEED, outcome=out)
    assert out.failed == 1 and "3 instances" in out.problems[0]


def test_later_passes_must_reproduce_the_first():
    ref = {"reports": {"a": {"sha256": "x", "instances": 1}}}
    first = json.dumps({"id": "a", "instances": 1, "failures": []})
    other = json.dumps({"id": "a", "instances": 2, "failures": []})
    out, seen = wl.Outcome(), {}
    for line in (first, first, other):
        wl.check_catalog("w", 0, line, ref, seed=5, outcome=out, seen=seen)
    assert (out.attempted, out.failed) == (3, 1)
    assert "earlier pass" in out.problems[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-n3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
