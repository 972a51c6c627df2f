"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main(argv) so the lru caches behind
the slow constants are shared across cases; outputs are parsed back from
the rendered CSV/JSON to pin both values and formatting.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import secstop
from secstop import cli
from secstop.core_model import Poisson, Uniform, Variant
from secstop.exact import best_cutoff


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


# ------------------------------------------------------------ model parsing

def test_parse_model_kinds(tmp_path):
    assert cli.parse_model("known:n=7").n == 7
    assert cli.parse_model("uniform:n=31").n == 31
    m = cli.parse_model("poisson:lambda=2.5")
    assert isinstance(m, Poisson) and m.lam == 2.5
    path = tmp_path / "pmf.csv"
    path.write_text("k,p\n2,0.25\n5,0.5\n8,0.25\n")
    expl = cli.parse_model(f"table:{path}")
    assert expl.items == ((2, 0.25), (5, 0.5), (8, 0.25))


@pytest.mark.parametrize(
    "spec",
    [
        "known",             # no colon
        "known:n",           # no equals
        "uniform:m=5",       # wrong key
        "poisson:lambda=x",  # unparseable value
        "gamma:n=5",         # unknown kind
        "table:/no/such/file.csv",
    ],
)
def test_parse_model_rejects(spec):
    with pytest.raises(cli.ModelSpecError):
        cli.parse_model(spec)


def test_pmf_table_needs_exact_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("count,mass\n2,1.0\n")
    with pytest.raises(cli.ModelSpecError, match="header"):
        cli.parse_model(f"table:{path}")


# ----------------------------------------------------------------- cutoff

def test_cutoff_known_even(capsys):
    code, out, _ = run(
        capsys, "cutoff", "--variant", "bw", "--model", "known:n=10",
        "--format", "json",
    )
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["M"] == "5"
    assert rec["P"] == "0.555555555556"  # 10/18 at 12 significant digits


def test_cutoff_classic_past_the_exact_harmonic_range(capsys):
    # F(r) = (r/n)(1/r + ... + 1/(n-1)) is unimodal; its peak lies near n/e
    n = 20000
    code, out, _ = run(
        capsys, "cutoff", "--variant", "classic", "--model", f"known:n={n}",
        "--format", "json",
    )
    assert code == 0
    (rec,) = json.loads(out)
    near = range(int(n / math.e) - 10, int(n / math.e) + 11)
    f = {r: r / n * math.fsum(1.0 / j for j in range(r, n)) for r in near}
    m = max(near, key=f.__getitem__)
    assert int(rec["M"]) == m
    assert float(rec["P"]) == pytest.approx(f[m], rel=1e-11)


def test_cutoff_uniform_estimator_columns(capsys):
    code, out, _ = run(
        capsys, "cutoff", "--variant", "bw", "--model", "uniform:n=100",
        "--format", "json",
    )
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["M"] == "20"
    assert rec["P"] == "0.331855144198"
    for name in ("RoundNTheta", "AffineTheta", "LambertUniform"):
        assert rec[f"est_{name}_rounded"] == "20"
        assert rec[f"est_{name}_agrees"] == "true"


def test_cutoff_uniform_past_any_support_array():
    # M from the sign of the first difference and P from the closed form: no
    # curve over the support, which at n = 10^9 would need 8 GB an array
    done = _run_limited(["cutoff", "--variant", "bw", "--model", "uniform:n=1000000000", "--format", "json"])
    assert done.returncode == 0, done.stderr
    (rec,) = json.loads(done.stdout)
    assert rec["M"] == "203187870"


@pytest.mark.parametrize(
    "n, m, p",
    [
        # the curve argmax's 1e-12 tie band reported 9794 and 204615 here,
        # with every estimator disagreeing; the sign of the first difference
        # (exact rationals and 50-digit mpmath) gives these
        (48205, "9795", "0.323821648664"),
        (1007027, "204616", "0.323805910198"),
    ],
)
def test_cutoff_uniform_knife_edges(capsys, n, m, p):
    code, out, _ = run(capsys, "cutoff", "--variant", "bw", "--model", f"uniform:n={n}", "--format", "json")
    assert code == 0
    (rec,) = json.loads(out)
    assert (rec["M"], rec["P"]) == (m, p)
    for name in ("RoundNTheta", "AffineTheta", "LambertUniform"):
        assert rec[f"est_{name}_rounded"] == m
        assert rec[f"est_{name}_agrees"] == "true"


def test_cutoff_pd_is_half_of_bw(capsys):
    _, out_bw, _ = run(
        capsys, "cutoff", "--variant", "bw", "--model", "poisson:lambda=10",
        "--format", "json",
    )
    _, out_pd, _ = run(
        capsys, "cutoff", "--variant", "pd", "--model", "poisson:lambda=10",
        "--format", "json",
    )
    p_bw = float(json.loads(out_bw)[0]["P"])
    p_pd = float(json.loads(out_pd)[0]["P"])
    assert json.loads(out_bw)[0]["M"] == json.loads(out_pd)[0]["M"]
    assert p_pd == pytest.approx(p_bw / 2.0, abs=1e-12)


# ------------------------------------------------------------------ curve

def test_curve_uniform_csv(capsys):
    code, out, _ = run(
        capsys, "curve", "--variant", "bw", "--model", "uniform:n=50",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 51 and rows[0]["r"] == "0"
    vals = [float(r["F"]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in vals)
    rep = best_cutoff(Variant.BEST_OR_WORST, Uniform(50))
    assert vals.index(max(vals)) == rep.cutoff
    assert max(vals) == pytest.approx(rep.prob, abs=1e-12)


def test_curve_lambda_sweep(capsys):
    code, out, _ = run(
        capsys, "curve", "--variant", "bw", "--sweep", "lambda",
        "--from", "1.9", "--to", "2.1", "--step", "0.05", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["lambda"] for r in rows] == ["1.9", "1.95", "2", "2.05", "2.1"]
    assert all(r["M"] == "0" for r in rows)  # unrestricted argmax on this arc
    ps = [float(r["P"]) for r in rows]
    assert max(ps) == pytest.approx(0.726445022099, abs=1e-9)  # interior peak
    assert ps.index(max(ps)) not in (0, len(ps) - 1)


def test_curve_sweep_requires_bounds(capsys):
    code, _, err = run(capsys, "curve", "--variant", "bw", "--sweep", "lambda")
    assert code == 2 and "needs --from" in err


@pytest.mark.parametrize(
    "bounds,message",
    [
        (("--from", "1", "--to", "2", "--step", "0"), "--step must be positive"),
        (("--from", "1", "--to", "2", "--step", "-0.5"), "--step must be positive"),
        (("--from", "2", "--to", "1", "--step", "0.5"), "below --from"),
    ],
)
def test_curve_sweep_rejects_bad_range(capsys, bounds, message):
    code, out, err = run(capsys, "curve", "--variant", "bw", "--sweep", "lambda", *bounds)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("to,step", [("1e9", "1e-9"), ("10001", "1"), ("inf", "1")])
def test_curve_sweep_size_is_capped(capsys, to, step):
    # 10^18 rates would run until killed; the cap refuses before the first one
    start = time.perf_counter()
    code, out, err = run(
        capsys, "curve", "--variant", "bw", "--sweep", "lambda", "--from", "1", "--to", to, "--step", step
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "capped at 10000 rates" in err


def test_curve_sweep_cap_counts_rates(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_SWEEP_RATES", 3)
    sweep = ("curve", "--variant", "bw", "--sweep", "lambda", "--from", "1", "--format", "csv")
    code, out, _ = run(capsys, *sweep, "--to", "2", "--step", "0.5")
    assert code == 0 and len(parse_csv(out)) == 3
    code, _, err = run(capsys, *sweep, "--to", "2.5", "--step", "0.5")
    assert code == 2 and "capped at 3 rates" in err


# --------------------------------------------------------------- simulate

def test_simulate_deterministic_and_calibrated(capsys):
    argv = (
        "simulate", "--variant", "bw", "--model", "uniform:n=50",
        "--cutoff", "10", "--trials", "20000", "--format", "csv",
    )
    code, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert code == 0 and out1 == out2  # --seed defaults to 0
    (row,) = parse_csv(out1)
    assert abs(float(row["z"])) < 5.0
    assert int(row["successes"]) == round(float(row["p_hat"]) * 20000)
    assert float(row["exact"]) == pytest.approx(0.340094833744, abs=1e-9)


def test_simulate_seed_changes_draws(capsys):
    base = (
        "simulate", "--variant", "classic", "--model", "known:n=20",
        "--cutoff", "7", "--trials", "5000", "--format", "csv",
    )
    _, out0, _ = run(capsys, *base)
    _, out1, _ = run(capsys, *base, "--seed", "1")
    assert parse_csv(out0)[0]["successes"] != parse_csv(out1)[0]["successes"]


def test_simulate_refuses_runs_past_the_trial_step_cap(capsys):
    # 10^6 trials * E[X] = 5e10 trial-steps, about 11 minutes of step loop
    start = time.perf_counter()
    code, out, err = run(
        capsys, "simulate", "--variant", "bw", "--model", "uniform:n=100000",
        "--cutoff", "0", "--trials", "1000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "trial-steps" in err


def test_simulate_cap_counts_steps_past_the_cutoff(capsys, monkeypatch):
    # Known(20) at cutoff 7: 13 steps a trial, 65,000 for 5,000 trials
    argv = ("simulate", "--variant", "classic", "--model", "known:n=20", "--cutoff", "7", "--trials", "5000")
    monkeypatch.setattr(cli, "_MAX_TRIAL_STEPS", 65_000)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_MAX_TRIAL_STEPS", 64_999)
    assert run(capsys, *argv)[0] == 2


def _run_limited(argv):
    """The CLI in a child process under a 2 GB address-space limit, so that
    a command that allocates a huge support fails fast (exit 3, out of
    memory) instead of swapping."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from secstop.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(secstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_simulate_refuses_a_huge_uniform_before_building_its_support():
    # Uniform(10^10) at cutoff 0 is about 5e9 trial-steps, past the cap; its
    # support alone would be 160 GB, so under a 2 GB address-space limit a
    # guard that built it would end in "out of memory" (exit 3) instead
    argv = ["simulate", "--variant", "bw", "--model", "uniform:n=10000000000", "--cutoff", "0", "--trials", "1"]
    done = _run_limited(argv)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "5e+09 trial-steps" in done.stderr


def test_simulate_refuses_a_huge_poisson_before_building_its_support():
    # Poisson(10^12) at cutoff 0 is 10^12 trial-steps, lam Psi(0) from the
    # tail; building its support first ran out of series terms (exit 3)
    argv = ["simulate", "--variant", "bw", "--model", "poisson:lambda=1e12", "--cutoff", "0", "--trials", "1"]
    done = _run_limited(argv)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "1e+12 trial-steps" in done.stderr


# --------------------------------------------------------------------- dp

def test_dp_two_point_counterexample(capsys, tmp_path):
    path = tmp_path / "twopoint.csv"
    path.write_text("k,p\n100,0.99\n1000,0.01\n")
    code, out, _ = run(
        capsys, "dp", "--variant", "classic", "--model", f"table:{path}",
        "--format", "json",
    )
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["is_threshold"] == "false"
    assert rec["witness"] == "100->101"
    assert rec["threshold"] == ""


def test_dp_poisson_truncates_and_matches_curve(capsys):
    code, out, _ = run(
        capsys, "dp", "--variant", "bw", "--model", "poisson:lambda=5",
        "--format", "json",
    )
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["is_threshold"] == "true" and rec["threshold"] == "2"
    rep = best_cutoff(Variant.BEST_OR_WORST, Poisson(5.0))
    assert float(rec["value"]) == pytest.approx(rep.prob, abs=1e-12)


# ------------------------------------------------------------------ table

def test_table_pins_asymptotics(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == 0
    rows = {(r["family"], r["variant"]): r for r in parse_csv(out)}
    assert len(rows) == 9
    kb = rows[("known", "bw")]
    assert kb["cutoff_exact"] == "500" and kb["prob_exact"] == "0.500500500501"
    ub = rows[("uniform", "bw")]
    assert ub["cutoff_exact"] == "203" and ub["cutoff_sym"] == "n*theta"
    assert float(ub["prob_gap"]) == pytest.approx(0.000797684, abs=1e-9)
    pb = rows[("poisson", "bw")]
    assert pb["cutoff_exact"] == "49"
    assert float(pb["prob_gap"]) == pytest.approx(-0.000108794, abs=1e-9)
    uc = rows[("uniform", "classic")]
    assert uc["cutoff_exact"] == "135"  # argmax sits just below n/e^2


# ------------------------------------------------------------- convergents

def test_convergents_einv_all_coincide(capsys):
    code, out, _ = run(
        capsys, "convergents", "--constant", "einv", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    assert rows[0]["p"] == "0" and rows[0]["match"] == ""
    assert all(r["match"] == "true" and r["M"] == r["p"] for r in rows[1:])
    assert (rows[-1]["p"], rows[-1]["q"]) == ("1001", "2721")


def test_convergents_theta_verifies_every_row(capsys):
    # positive_cutoff answers any q, so the rows past q = 9999 are checked
    # too: M(57907) = 11766, M(64369) = 13079, M(315383) = 64082
    code, out, _ = run(
        capsys, "convergents", "--constant", "theta", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    assert rows[0]["match"] == ""
    assert all(r["match"] == "true" and r["M"] == r["p"] for r in rows[1:])
    assert [r["q"] for r in rows[-3:]] == ["57907", "64369", "315383"]


# ----------------------------------------------------------- scan-failures

def test_scan_failures_affine(capsys):
    code, out, _ = run(
        capsys, "scan-failures", "--estimator", "affinetheta",
        "--from", "2", "--to", "3000", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [(r["n"], r["rounded"], r["exact_M"]) for r in rows] == [
        ("2", "0", "1"), ("3", "0", "1"), ("23", "5", "4"), ("2971", "604", "603"),
    ]


def test_scan_failures_human_summary(capsys):
    code, out, _ = run(
        capsys, "scan-failures", "--estimator", "rstarlambda",
        "--from", "2", "--to", "50",
    )
    assert code == 0
    assert "failures in [2, 50], max deviation 1" in out


@pytest.mark.parametrize(
    "bounds",
    [("--from", "2", "--to", "inf"), ("--from", "2", "--to", "1e400"), ("--from=-inf", "--to", "5"),
     ("--from", "nan", "--to", "5"), ("--from", "2", "--to", "10001"), ("--from", "0", "--to", "5"),
     ("--from", "9", "--to", "5")],
)
def test_scan_failures_needs_finite_bounds_within_the_cap(capsys, bounds):
    # a non-finite bound must not reach int(), and the scan is O(n_max^2),
    # so its size is capped like the lambda sweep
    code, out, err = run(capsys, "scan-failures", "--estimator", "roundntheta", *bounds)
    assert code == 2 and out == ""
    assert err == "error: scan-failures needs 1 <= --from <= --to <= 10000\n"


# ----------------------------------------------------------------- verify

@pytest.mark.parametrize(
    "suite", ["constants", "thresholds", "convergents", "counterexample"]
)
def test_verify_green_suites(capsys, suite):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0, out
    assert "FAIL" not in out


def test_verify_conjecture_reports_findings(capsys):
    code, out, _ = run(capsys, "verify", "conjecture")
    assert code == 0  # findings are reported, never fatal
    assert out.count("finding: lambda=") == 7
    assert "lambda=4: predicted 1, exact 0" in out


def test_verify_failures_is_honest(capsys):
    # the measured failure sets disagree with two of the claimed lists
    # (n = 2 under the positive-cutoff convention; Lambert at 23 and 2971),
    # so this suite reports those checks as FAIL and exits 1.
    code, out, _ = run(capsys, "verify", "failures")
    assert code == 1
    assert "extra [2]" in out
    assert "failures [2, 3, 23, 2971]" in out
    assert out.count("PASS") == 2 and out.count("FAIL") == 2


# ------------------------------------------------------------- exit codes

def test_exit_usage_errors(capsys):
    assert run(capsys, "cutoff", "--variant", "bw", "--model", "uniform:m=5")[0] == 2
    assert run(capsys, "cutoff", "--variant", "bw", "--model", "poisson:lambda=0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "cutoff", "--variant", "bw")[0] == 2  # missing --model
    assert run(capsys, "verify", "sorcery")[0] == 2


def test_exit_numeric_failure(capsys):
    code, _, err = run(
        capsys, "cutoff", "--variant", "bw", "--model", "poisson:lambda=10000",
        "--max-terms", "64",
    )
    assert code == 3 and "numeric failure" in err


def test_exit_out_of_memory(capsys, monkeypatch):
    def no_memory(*_):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setattr(cli, "best_cutoff", no_memory)
    code, out, err = run(capsys, "cutoff", "--variant", "bw", "--model", "uniform:n=10000000000")
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: out of memory") and err.count("\n") == 1


def test_cli_loads_no_test_only_package():
    # runtime dependencies are numpy only; scipy and mpmath are test oracles
    probe = (
        "import sys, secstop.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & "
        "{'scipy', 'mpmath', 'hypothesis', 'pytest', '_pytest'}))"
    )
    src = str(Path(secstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ------------------------------------------------------------- round-trip

@pytest.mark.parametrize(
    "argv",
    [
        ("cutoff", "--variant", "bw", "--model", "uniform:n=100"),
        ("curve", "--variant", "pd", "--model", "known:n=15"),
        ("table",),
        ("convergents", "--constant", "einv"),
    ],
)
def test_csv_json_carry_identical_values(capsys, argv):
    _, out_csv, _ = run(capsys, *argv, "--format", "csv")
    _, out_json, _ = run(capsys, *argv, "--format", "json")
    csv_pairs = sorted(
        (k, v) for row in parse_csv(out_csv) for k, v in row.items()
    )
    json_pairs = sorted(
        (k, v) for row in json.loads(out_json) for k, v in row.items()
    )
    assert csv_pairs == json_pairs


def test_human_format_aligns_headers(capsys):
    _, out, _ = run(capsys, "cutoff", "--variant", "classic", "--model", "known:n=5")
    header, row = out.splitlines()[:2]
    assert header.startswith("command") and "M" in header.split()
    assert row.startswith("cutoff")


def test_twelve_significant_digits(capsys):
    _, out, _ = run(
        capsys, "cutoff", "--variant", "classic", "--model", "known:n=3",
        "--format", "json",
    )
    (rec,) = json.loads(out)
    assert rec["P"] == "0.5"
    _, out, _ = run(
        capsys, "cutoff", "--variant", "classic", "--model", "known:n=7",
        "--format", "json",
    )
    (rec,) = json.loads(out)
    # r = 2: (2/7)(H_6 - H_1) = 0.414285714286 to 12 digits
    assert rec["P"] == "0.414285714286"
    assert float(rec["P"]) == pytest.approx(2.9 / 7.0, abs=1e-12)
