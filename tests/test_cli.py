import json
import subprocess
import sys

from interpmac import cli
from interpmac.identities import CATALOG, CheckDef
from interpmac.polyring import LaurentPoly


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


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
    assert poly.coefficient((1, 1), poly.terms[(1, 1)]).is_one()
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


def test_check_failure_exit_code(capsys):
    def failing(ctx):
        ctx.eq("forced", 1, 2)

    CATALOG["unit-fail"] = CheckDef("unit-fail", "forced failure", "1 = 2",
                                    ("qt",), failing)
    try:
        code, out, _ = run_cli(["check", "unit-fail", "--n", "1",
                                "--deg", "1"], capsys)
        assert code == 1
        assert "FAIL" in out
    finally:
        del CATALOG["unit-fail"]


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
    assert sorted(cache_dir.iterdir()) == files


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


def test_jobs_output_matches_serial():
    base = [sys.executable, "-m", "interpmac", "check", "all", "--n", "1",
            "--deg", "2", "--seed", "3", "--json"]
    serial = subprocess.run(base, capture_output=True, text=True)
    parallel = subprocess.run(base + ["--jobs", "2"], capture_output=True,
                              text=True)
    assert serial.returncode == 0 and parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_check_negative_degree_is_usage_error(capsys):
    code, out, err = run_cli(["check", "all", "--n", "1", "--deg", "-1",
                              "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "--deg" in err


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
