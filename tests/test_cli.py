import json
import os
import subprocess
import sys

import pytest

from interpmac import cli, interpolation
from interpmac.interpolation import CACHE_SCHEMA
from interpmac.identities import CATALOG, CheckDef
from interpmac.polyring import LaurentPoly
from interpmac.scalars import Scalar


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def inline_pool(monkeypatch):
    """An in-process stand-in for the process pool: one worker that runs
    the initializer once and every task inline, so no process starts and
    a large --jobs is never tried for real.  Returns the max_workers of
    each pool made."""
    import concurrent.futures
    seen = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def map(self, fn, iterable):
            return map(fn, iterable)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    # the initializer sets the worker's cache; drop it after the test
    monkeypatch.setattr(cli, "_worker_cache", None)
    return seen


def test_compute_g_pretty(capsys):
    code, out, _ = run_cli(["compute", "G", "--n", "2", "--alpha", "0,1",
                            "--variant", "qt", "--symbolic"], capsys)
    assert code == 0
    assert out.strip() == "-1/t + x2"


def test_compute_binom_symbolic_default(capsys):
    code, out, _ = run_cli(["compute", "binom", "--alpha", "2", "--beta", "1",
                            "--n", "1", "--variant", "qt"], capsys)
    assert code == 0
    assert out.strip() == "q + 1"


def test_compute_negative_index_is_usage_error(capsys):
    code, _, err = run_cli(["compute", "G", "--alpha", "-1"], capsys)
    assert code == 2
    assert "composition" in err


def test_compute_json_round_trip(capsys):
    code, out, _ = run_cli(["compute", "G", "--n", "2", "--alpha", "1,1",
                            "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    poly = LaurentPoly.from_json(data["poly"])
    assert poly.coefficient((1, 1), poly.terms[(1, 1)]) == Scalar.one()
    assert data["config"]["mode"] == "symbolic"


def test_compute_scalar_families(capsys):
    code, out, _ = run_cli(["compute", "d", "--alpha", "0,1",
                            "--variant", "r"], capsys)
    assert code == 0
    assert out.strip() == "2*r + 1"
    code, out, _ = run_cli(["compute", "phi", "--alpha", "0,1",
                            "--variant", "qt", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["a"] == "a"


def test_compute_okounkov(capsys):
    code, out, _ = run_cli(["compute", "O", "--n", "1", "--alpha", "1",
                            "--variant", "qt"], capsys)
    assert code == 0
    assert "a" in out


def test_compute_r_only_families_guarded(capsys):
    code, _, err = run_cli(["compute", "Gplus", "--alpha", "0,1",
                            "--variant", "qt"], capsys)
    assert code == 2
    assert "r variant" in err


def test_compute_alpha_and_lambda_together_is_usage_error(capsys):
    for family in ("G", "R"):
        code, out, err = run_cli(["compute", family, "--lambda", "2,1",
                                  "--alpha", "1,0", "--variant", "r"], capsys)
        assert code == 2 and out == ""
        assert "--alpha and --lambda are mutually exclusive" in err


def test_compute_partition_families_name_lambda(capsys):
    for args in (["R", "--alpha", "2,1"], ["Rprime", "--alpha", "1"],
                 ["binom-sym", "--alpha", "2", "--mu", "1"], ["R"]):
        code, out, err = run_cli(["compute", *args, "--variant", "r"], capsys)
        assert code == 2 and out == ""
        assert f"family {args[0]} takes its partition as --lambda" in err
    code, out, _ = run_cli(["compute", "E", "--lambda", "2,1", "--variant",
                            "r"], capsys)
    assert code == 0 and out.strip()


def test_check_single_passes(capsys):
    code, out, _ = run_cli(["check", "eval-qt", "--n", "1", "--deg", "4"],
                           capsys)
    assert code == 0
    assert out.startswith("ok")


def test_check_unknown_id(capsys):
    code, _, err = run_cli(["check", "bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_check_bad_specialization_exit_3(capsys):
    code, _, err = run_cli(["check", "eval-qt", "--n", "2", "--deg", "2",
                            "--q", "1", "--t", "3"], capsys)
    assert code == 3
    assert "q=1" in err


def test_check_collision_mid_run_exit_3(capsys):
    code, _, err = run_cli(["check", "recur-oracle-qt", "--n", "2",
                            "--deg", "2", "--q", "2", "--t", "1/2"], capsys)
    assert code == 3
    assert "(1, 0)" in err or "singular" in err


def test_check_json_reports_have_schema(capsys):
    code, out, _ = run_cli(["check", "zerosp", "--n", "2", "--deg", "2",
                            "--json"], capsys)
    assert code == 0
    data = json.loads(out.strip())
    assert set(data) == {"id", "config", "instances", "failures"}
    assert data["id"] == "zerosp"


def test_check_timings_json_adds_only_elapsed(capsys):
    argv = ["check", "all", "--n", "1", "--deg", "2", "--json"]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    code, timed, _ = run_cli(argv + ["--timings"], capsys)
    assert code == 0
    reports = [json.loads(line) for line in timed.splitlines()]
    assert all(isinstance(rep.pop("elapsed_ms"), float) for rep in reports)
    assert reports == [json.loads(line) for line in plain.splitlines()]


def test_check_failure_exit_code(capsys, inline_pool):
    def failing(ctx):
        ctx.eq("forced", 1, 2)

    CATALOG["unit-fail"] = CheckDef("unit-fail", "forced failure", "1 = 2",
                                    ("qt",), failing)
    try:
        # serially, and through the pool to the stand-in's one worker
        for argv in (["unit-fail"], ["all", "--jobs", "2"]):
            code, out, _ = run_cli(["check", *argv, "--n", "1",
                                    "--deg", "1"], capsys)
            assert code == 1
            assert out.splitlines()[-1].startswith("FAIL unit-fail")
    finally:
        del CATALOG["unit-fail"]
    assert inline_pool == [2]


def test_list_checks(capsys):
    code, out, _ = run_cli(["list-checks"], capsys)
    assert code == 0
    assert len([l for l in out.splitlines() if not l.startswith(" ")]) >= 28


def test_list_checks_filter_binom(capsys):
    code, out, _ = run_cli(["list-checks", "--filter", "binom", "--json"],
                           capsys)
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 5


def test_cache_commands(tmp_path, capsys):
    cache_dir = str(tmp_path / "polys")
    code, _, _ = run_cli(["compute", "G", "--n", "2", "--alpha", "2,0",
                          "--cache-dir", cache_dir], capsys)
    assert code == 0
    code, out, _ = run_cli(["cache", "info", "--cache-dir", cache_dir],
                           capsys)
    assert code == 0
    count = int(out.split()[0])
    assert count >= 1
    code, out, _ = run_cli(["cache", "clear", "--cache-dir", cache_dir],
                           capsys)
    assert code == 0
    code, out, _ = run_cli(["cache", "info", "--cache-dir", cache_dir],
                           capsys)
    assert out.startswith("0 ")


def test_cache_commands_separate_stale_files(tmp_path, capsys):
    cache_dir = tmp_path / "polys"
    code, _, _ = run_cli(["compute", "G", "--alpha", "1,0",
                          "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    current = sorted(cache_dir.glob(f"v{CACHE_SCHEMA}-*.json"))
    assert current and current == sorted(cache_dir.glob("*.json"))
    name = current[0].name
    older = cache_dir / f"v{CACHE_SCHEMA - 1}-{name.split('-', 1)[1]}"
    unversioned = cache_dir / name.split("-", 1)[1]
    # above any pid_max, so no process can be writing it
    orphan = cache_dir / f"{name}.99999999.tmp"
    writing = cache_dir / f"{name}.{os.getpid()}.tmp"
    for f in (older, unversioned, orphan, writing):
        f.write_text("{}")
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(cache_dir)],
                           capsys)
    assert code == 0 and int(out.split()[0]) == len(current)
    assert out.rstrip().endswith("; 3 stale files, 6 bytes")
    code, out, _ = run_cli(["cache", "clear", "--cache-dir", str(cache_dir)],
                           capsys)
    assert code == 0
    assert out.startswith(
        f"removed {len(current)} cached polynomials and 3 stale files ")
    assert list(cache_dir.iterdir()) == [writing]
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(cache_dir)],
                           capsys)
    assert out.startswith("0 ") and "; 0 stale files" in out


def test_cache_rebuilds_bad_files(tmp_path, capsys):
    cache_dir = tmp_path / "polys"
    cmd = ["compute", "G", "--alpha", "2,1", "--cache-dir", str(cache_dir)]
    code, want, _ = run_cli(cmd, capsys)
    assert code == 0
    files = sorted(cache_dir.glob("*.json"))
    assert len(files) >= 2
    for f in files:
        f.write_text(f.read_text()[:len(f.read_text()) // 2])
    assert run_cli(cmd, capsys)[:2] == (0, want)
    index = {tuple(json.loads(f.read_text())["key"]["index"]): f
             for f in files}
    assert len(index) == len(files)
    # a file holding another key's polynomial is rebuilt as well
    index[(2, 1)].write_text(index[(1, 0)].read_text())
    assert run_cli(cmd, capsys)[:2] == (0, want)
    assert json.loads(index[(2, 1)].read_text())["key"]["index"] == [2, 1]
    # so are a file with an exponent vector shorter than n and one whose
    # polynomial has another number of variables than its index
    good = {i: json.loads(f.read_text()) for i, f in index.items()}
    first = cmd[:3] + ["1,0"] + cmd[4:]
    want_first = run_cli(first, capsys)[:2]
    short = dict(good[(1, 0)], poly={"n": 2, "terms": [{"exp": [1],
                                                        "coeff": "1"}]})
    index[(1, 0)].write_text(json.dumps(short))
    wide = good[(2, 1)]["poly"]
    wide = {"n": 3, "terms": [dict(t, exp=t["exp"] + [0])
                              for t in wide["terms"]]}
    index[(2, 1)].write_text(json.dumps(dict(good[(2, 1)], poly=wide)))
    assert run_cli(first, capsys)[:2] == want_first
    assert run_cli(cmd, capsys)[:2] == (0, want)
    for i in ((1, 0), (2, 1)):
        assert json.loads(index[i].read_text()) == good[i]
    # and so are files with an exponent entry that is not an int, or with
    # one exponent vector in two terms
    good_text = index[(1, 0)].read_text()
    terms = good[(1, 0)]["poly"]["terms"]
    at = [t["exp"] for t in terms].index([1, 0])
    for exp in (["1", 0], [1.5, 0], [True, 0], terms[at - 1]["exp"]):
        bad = [dict(t, exp=exp) if j == at else t for j, t in enumerate(terms)]
        index[(1, 0)].write_text(json.dumps(
            dict(good[(1, 0)], poly={"n": 2, "terms": bad})))
        assert run_cli(first, capsys)[:2] == want_first, exp
        assert index[(1, 0)].read_text() == good_text, exp
    assert sorted(cache_dir.iterdir()) == files
    # and so is a file whose variable count equals the index length but is
    # not an int
    one = ["compute", "G", "--alpha", "1", "--json", "--cache-dir",
           str(cache_dir)]
    want_one = run_cli(one, capsys)[:2]
    path = next(f for f in cache_dir.glob("*.json")
                if json.loads(f.read_text())["key"]["index"] == [1])
    good_one = path.read_text()
    for n in (True, 1.0):
        data = json.loads(good_one)
        data["poly"]["n"] = n
        path.write_text(json.dumps(data))
        assert run_cli(one, capsys)[:2] == want_one, n
        assert path.read_text() == good_one, n


def test_compute_negative_rational_with_space(capsys):
    code, out, _ = run_cli(["compute", "G", "--alpha", "1,0", "--variant",
                            "r", "--r", "-1/2"], capsys)
    assert (code, out.strip()) == (0, "1/2 + x1 - x2")


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run_cli(["compute", "G", "--n", "1", "--alpha", "2"], capsys)
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_check_json_deterministic_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "interpmac", "check", "derecur2",
           "--n", "2", "--deg", "2", "--seed", "9", "--json"]
    out1 = subprocess.run(cmd, capture_output=True, text=True)
    out2 = subprocess.run(cmd, capture_output=True, text=True)
    assert out1.returncode == 0 and out2.returncode == 0
    assert out1.stdout == out2.stdout


def test_jobs_output_matches_serial(tmp_path):
    base = [sys.executable, "-m", "interpmac", "check", "all", "--n", "1",
            "--deg", "2", "--seed", "3", "--json"]
    pooled = base + ["--jobs", "2"]
    cached = pooled + ["--cache-dir", str(tmp_path / "c")]
    # the cached pooled run twice: the cold pass writes, the warm one reads
    runs = [subprocess.run(cmd, capture_output=True, text=True)
            for cmd in (base, pooled, cached, cached)]
    assert [run.returncode for run in runs] == [0] * 4
    assert all(run.stdout == runs[0].stdout for run in runs)
    assert list((tmp_path / "c").iterdir())


def test_pooled_specialization_error_ends_as_serial():
    base = [sys.executable, "-m", "interpmac", "check", "all", "--n", "2",
            "--deg", "2", "--r", "-1"]
    serial, pooled = (subprocess.run(cmd, capture_output=True, text=True)
                      for cmd in (base, base + ["--jobs", "2"]))
    assert serial.returncode == pooled.returncode == 3
    assert serial.stdout == pooled.stdout
    for run in (serial, pooled):
        assert run.stderr.count("\n") == 1
        assert run.stderr.startswith("specialization error:")


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool is imported by `check --jobs N` only, off every start-up path
    code = ("import sys, interpmac.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_check_negative_degree_is_usage_error(capsys):
    code, out, err = run_cli(["check", "all", "--n", "1", "--deg", "-1",
                              "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "--deg" in err


def test_check_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-2"):
        code, out, err = run_cli(["check", "all", "--n", "1", "--deg", "1",
                                  "--jobs", jobs, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert f"--jobs must be >= 1, got {jobs}" in err


def test_compute_binomial_index_length_mismatch(capsys):
    code, out, err = run_cli(["compute", "binom", "--alpha", "1,0",
                              "--beta", "1"], capsys)
    assert code == 2 and out == ""
    assert "--beta has length 1 but --alpha has length 2" in err
    code, out, err = run_cli(["compute", "binom-sym", "--variant", "r",
                              "--lambda", "2,1", "--mu", "1"], capsys)
    assert code == 2 and out == ""
    assert "--mu has length 1 but --lambda has length 2" in err


def test_check_closed_pipe_exits_quietly():
    cmd = [sys.executable, "-m", "interpmac", "check", "all", "--n", "2",
           "--deg", "3", "--json"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert json.loads(first)["id"] == "hecke-quadratic"
    assert "Traceback" not in err and "BrokenPipe" not in err


def test_compute_symmetric_families_on_both_sides(capsys):
    for variant in ("qt", "r"):
        for args in (["Rprime", "--lambda", "1"],
                     ["binom-sym", "--lambda", "2", "--mu", "1"]):
            code, out, err = run_cli(["compute", *args, "--variant",
                                      variant], capsys)
            assert code == 0 and out.strip() and err == ""
    code, out, _ = run_cli(["compute", "binom-sym", "--lambda", "2,1",
                            "--mu", "1,0", "--json"], capsys)
    data = json.loads(out)
    assert code == 0 and "inverted" not in data
    assert str(Scalar.from_json(data["scalar"])) == "(q*t + t + 1)/t"


def test_unusable_cache_dir_is_usage_error(capsys, tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    for where in (plain, plain / "sub"):
        for args in (["compute", "G", "--alpha", "1"],
                     ["check", "eval-qt", "--n", "1", "--deg", "1"],
                     ["check", "all", "--n", "1", "--deg", "1", "--jobs",
                      "2"]):
            code, out, err = run_cli([*args, "--cache-dir", str(where)],
                                     capsys)
            assert code == 2 and out == "", args
            assert err.startswith(f"error: cannot use cache directory "
                                  f"{where}: "), args
            assert err.count("\n") == 1


def test_cache_command_on_a_file_is_usage_error(capsys, tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("kept")
    for action in ("info", "clear"):
        code, out, err = run_cli(["cache", action, "--cache-dir", str(plain)],
                                 capsys)
        assert code == 2 and out == ""
        assert err == (f"error: cannot use cache directory {plain}: "
                       f"Not a directory\n")
    assert plain.read_text() == "kept"
    # a path that does not exist is an empty cache, as before
    missing = tmp_path / "missing"
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(missing)],
                           capsys)
    assert code == 0
    assert out == (f"0 cached polynomials, 0 bytes, at {missing}; "
                   f"0 stale files, 0 bytes\n")


@pytest.mark.parametrize("jobs,workers", [(2, 2), (500, len(CATALOG))])
def test_check_pool_workers_capped_at_checks(jobs, workers, capsys,
                                              inline_pool):
    code, out, _ = run_cli(["check", "all", "--n", "1", "--deg", "1",
                            "--jobs", str(jobs), "--json"], capsys)
    assert code == 0 and len(out.splitlines()) == len(CATALOG)
    assert inline_pool == [workers]


def test_pool_worker_keeps_one_cache(capsys, monkeypatch, inline_pool):
    # a worker builds and factors each system once, as a serial run does
    factor = interpolation.factor_square
    calls = []

    def counting(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(interpolation, "factor_square", counting)
    argv = ["check", "all", "--n", "2", "--deg", "2", "--json"]
    serial = run_cli(argv, capsys)
    serial_calls = len(calls)
    calls.clear()
    assert run_cli(argv + ["--jobs", "2"], capsys) == serial
    assert inline_pool == [2]
    assert serial_calls > 0 and len(calls) == serial_calls


def test_compute_exponent_past_the_kernel_slots_is_usage_error(capsys):
    # the certificate used to build a power row up to this degree
    code, out, err = run_cli(["compute", "binom", "--alpha",
                              "99999999999999,0", "--beta", "1,0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: product of total degree above 4095")
    assert err.count("\n") == 1


def test_compute_too_deep_index_is_usage_error(capsys):
    for args in (["--alpha", "400", "--variant", "r", "--r", "1"],
                 ["--alpha", "0,0,400"]):
        code, out, err = run_cli(["compute", "G", *args], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: index too deep for the recursive "
                              "construction")
        assert err.count("\n") == 1


def test_field_options_the_field_ignores_are_usage_errors(capsys):
    for args, option, reason in (
            (["compute", "G", "--alpha", "1,0", "--q", "2", "--t", "1/3",
              "--r", "5"], "--r", "to the qt variant"),
            (["compute", "G", "--alpha", "1,0", "--variant", "r", "--r", "1",
              "--q", "2"], "--q", "to the r variant"),
            (["compute", "G", "--alpha", "1,0", "--symbolic", "--q", "5",
              "--t", "7"], "--q", "with --symbolic"),
            (["check", "eval-qt", "--n", "1", "--deg", "1", "--symbolic",
              "--q", "5"], "--q", "with --symbolic"),
            (["compute", "d", "--alpha", "1", "--variant", "r", "--t", "3"],
             "--t", "to the r variant"),
            (["compute", "G", "--alpha", "1,0", "--a", "3"],
             "--a", "to family G"),
            (["compute", "G", "--alpha", "1,0", "--a", "3", "--inverted",
              "--beta", "1,0", "--mu", "1"], "--a", "to family G"),
            (["compute", "binom", "--alpha", "1,0", "--beta", "1,0",
              "--a", "3"], "--a", "to family binom"),
            (["compute", "O", "--alpha", "1", "--a", "3", "--inverted"],
             "--inverted", "to family O"),
            (["compute", "binom-sym", "--lambda", "1", "--variant", "r",
              "--mu", "1", "--beta", "1"], "--beta", "to family binom-sym"),
            (["compute", "binom", "--alpha", "1", "--beta", "1", "--mu",
              "1"], "--mu", "to family binom"),
            (["compute", "phi", "--alpha", "1", "--a", "3", "--mu", "1"],
             "--mu", "to family phi")):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "", args
        assert err == f"error: {option} does not apply {reason}\n", args


def test_compute_inverted_r_binomial_is_usage_error(capsys):
    code, out, err = run_cli(["compute", "binom", "--alpha", "1,0",
                              "--beta", "1,0", "--variant", "r",
                              "--inverted"], capsys)
    assert code == 2 and out == ""
    assert err == "error: inverted parameters only apply to q,t fields\n"


def test_check_symbolic_qt_keeps_a_specialized_r(capsys):
    code, out, _ = run_cli(["check", "eval-r", "--n", "1", "--deg", "1",
                            "--symbolic", "--r", "5", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["field"]["r"]["assignments"] == {"r": "5"}


def test_compute_okounkov_singular_system_exit_3(capsys):
    for args, kind, field in (
            (["--q", "2", "--t", "1/2"], "bar_inv", "qt[q=2,t=1/2]"),
            (["--variant", "r", "--r", "-1"], "bar", "r[r=-1]")):
        code, out, err = run_cli(["compute", "O", "--alpha", "1,1", *args],
                                 capsys)
        assert code == 3 and out == ""
        assert err == (f"specialization error: singular system in {kind} "
                       f"interpolation, n=2 degree 2, field {field}\n")
