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
from conftest import run_limited
from secstop import cli, core_model
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


def test_parse_model_skips_blank_rows(tmp_path):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("k,p\n5,0.9\n30,0.1\n")
    blank.write_text("k,p\n5,0.9\n\n30,0.1\n\n")
    assert cli.parse_model(f"table:{blank}") == cli.parse_model(f"table:{plain}")


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


@pytest.mark.parametrize(
    "rows, message",
    [
        # every comparison with NaN is false, so the mass passed as valid
        ("1,nan\n2,1.0\n", "bad.csv: probabilities must be finite"),
        # the second row of k = 3 overwrote the first: a mass of 1.5 ran
        ("3,0.5\n3,0.5\n5,0.5\n", "bad.csv:3: k = 3 repeats line 2"),
    ],
)
def test_pmf_table_rejects_nan_masses_and_repeated_k(tmp_path, capsys, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("k,p\n" + rows)
    with pytest.raises(cli.ModelSpecError, match=message):
        cli.parse_model(f"table:{path}")
    for argv in (("cutoff", "--variant", "bw"), ("dp", "--variant", "classic")):
        code, out, err = run(capsys, *argv, "--model", f"table:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_pmf_table_errors_name_the_file_once(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,p\n1,0.5,7\n")
    with pytest.raises(cli.ModelSpecError) as info:
        cli.parse_model(f"table:{path}")
    assert str(info.value) == f"{path}:2: expected two fields"


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
    done = run_limited(["cutoff", "--variant", "bw", "--model", "uniform:n=1000000000", "--format", "json"])
    assert done.returncode == 0, done.stderr
    (rec,) = json.loads(done.stdout)
    assert rec["M"] == "203187870"


@pytest.mark.parametrize(
    "argv",
    [["dp", "--variant", "classic", "--model", "uniform:n=1000000000"],
     ["cutoff", "--variant", "classic", "--model", "uniform:n=1000000000"]],
    ids=["dp", "cutoff-classic"],
)
def test_uniform_support_past_the_cap_is_refused_before_any_array(argv):
    # classic's induction and scan read the support, which at n = 10^9
    # asked for 7.45 GiB and exited 3 out of memory under the limit; the
    # cap of 2*10^8 points refuses it first, naming the size
    start = time.perf_counter()
    done = run_limited(argv)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == (
        "numeric failure: the support of Uniform(n=1000000000) holds 1000000000 points, past the cap of 200000000\n"
    )


@pytest.mark.parametrize("variant", ["bw", "pd"])
@pytest.mark.parametrize("model", ["uniform:n=1000000000", "known:n=1000000000000"])
def test_dp_of_the_monotone_case_past_any_support_array(variant, model):
    # M from the sign of the first difference and the value from the closed
    # form: no support, which at n = 10^9 asked for 7.45 GiB
    start = time.perf_counter()
    done = run_limited(["dp", "--variant", variant, "--model", model, "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 0, done.stderr
    (rec,) = json.loads(done.stdout)
    assert rec["is_threshold"] == "true" and rec["horizon"] == model.split("=")[1]


def test_curve_past_the_cap_is_refused_before_its_array():
    # a default r_max past Poisson(10^9)'s window: a curve of 1.0*10^9
    # cutoffs, which asked for 7.45 GiB and exited 3 out of memory
    start = time.perf_counter()
    done = run_limited(["curve", "--variant", "bw", "--model", "poisson:lambda=1e9"])
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "numeric failure: the curve F(0..1000252985) holds 1000252986 points, past the cap of 200000000\n"


@pytest.mark.parametrize("variant", ["bw", "pd"])
def test_cutoff_poisson_at_a_billion_within_the_mass_window(variant):
    # the curve over the window of 1.6 million points and a few cutoffs of
    # the parabola below it; the curve from r = 1 asked for 7.45 GiB and
    # exited 3 (out of memory) under the limit.  Classic still takes it.
    done = run_limited(["cutoff", "--variant", variant, "--model", "poisson:lambda=1e9", "--format", "json"])
    assert done.returncode == 0, done.stderr
    (rec,) = json.loads(done.stdout)
    assert rec["model"] == "poisson:lambda=1e9"


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


@pytest.mark.parametrize("variant", ["bw", "pd"])
def test_curve_uniform_prefix_past_any_support_array(variant):
    # four cutoffs of Uniform(10^9) from closed forms; building its support
    # was killed for lack of memory, so it runs under the 2 GB limit only
    argv = ["curve", "--variant", variant, "--model", "uniform:n=1000000000", "--rmax", "3", "--format", "csv"]
    done = run_limited(argv)
    assert done.returncode == 0, done.stderr
    rows = parse_csv(done.stdout)
    assert [r["r"] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[1]["F"]) == pytest.approx({"bw": 4.0600963e-08, "pd": 2.0300482e-08}[variant], rel=1e-7)


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


@pytest.mark.parametrize(
    "bounds,last",
    [(("0.5", "2.8", "0.5"), "2.5"), (("0.1", "0.7", "0.1"), "0.7"), (("0.1", "0.3", "0.1"), "0.3")],
)
def test_curve_sweep_stops_at_to(capsys, bounds, last):
    # the count is the floor of the span, not its rounding, which stepped
    # to 3 past --to 2.8; a span a few ulps short of a whole number, as
    # (0.7 - 0.1)/0.1 = 5.999999999999999, still reaches --to
    start, to, step = bounds
    code, out, _ = run(
        capsys, "curve", "--variant", "bw", "--sweep", "lambda",
        "--from", start, "--to", to, "--step", step, "--format", "csv",
    )
    assert code == 0
    lams = [r["lambda"] for r in parse_csv(out)]
    assert lams[-1] == last and all(float(lam) <= float(to) for lam in lams)
    assert len(lams) == 1 + round((float(last) - float(start)) / float(step))


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


def test_curve_sweep_cap_takes_a_span_short_of_the_cap(capsys, monkeypatch):
    # a span in (cap - 1, cap) asks for floor(span) + 1 = cap rates: allowed
    monkeypatch.setattr(cli, "_MAX_SWEEP_RATES", 4)
    sweep = ("curve", "--variant", "bw", "--sweep", "lambda", "--from", "1", "--step", "1", "--format", "csv")
    code, out, _ = run(capsys, *sweep, "--to", "4.5")
    assert code == 0 and [row["lambda"] for row in parse_csv(out)] == ["1", "2", "3", "4"]
    code, out, err = run(capsys, *sweep, "--to", "5.5")
    assert code == 2 and out == "" and "capped at 4 rates" in err


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


def test_simulate_refuses_a_huge_uniform_before_building_its_support():
    # Uniform(10^10) at cutoff 0 is about 5e9 trial-steps, past the cap; its
    # support alone would be 160 GB, so under a 2 GB address-space limit a
    # guard that built it would end in "out of memory" (exit 3) instead
    argv = ["simulate", "--variant", "bw", "--model", "uniform:n=10000000000", "--cutoff", "0", "--trials", "1"]
    done = run_limited(argv)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "5e+09 trial-steps" in done.stderr


def test_simulate_refuses_a_huge_poisson_before_building_its_support():
    # Poisson(10^12) at cutoff 0 is 10^12 trial-steps, lam Psi(0) from the
    # tail; building its support first ran out of series terms (exit 3)
    argv = ["simulate", "--variant", "bw", "--model", "poisson:lambda=1e12", "--cutoff", "0", "--trials", "1"]
    done = run_limited(argv)
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


@pytest.mark.parametrize("lam", ["3000", "10000", "100000"])
def test_dp_poisson_at_large_rates_truncates_within_the_mass_tolerance(capsys, lam):
    # the log-space pmf missed mass 1 by -2.7e-12, +8.9e-12 and +1.9e-11 at
    # these rates, past what a table allows (exit 3); Loader's sums to 1
    # within it, and dp finds best_cutoff's threshold
    code, out, err = run(capsys, "dp", "--variant", "bw", "--model", f"poisson:lambda={lam}", "--format", "json")
    assert code == 0 and err == ""
    (rec,) = json.loads(out)
    rep = best_cutoff(Variant.BEST_OR_WORST, Poisson(float(lam)))
    assert rec["is_threshold"] == "true" and int(rec["threshold"]) == rep.cutoff
    assert float(rec["value"]) == pytest.approx(rep.prob, abs=1e-12)


def test_dp_names_a_pmf_that_drifts_as_a_numeric_failure(capsys, monkeypatch):
    # a valid model whose float masses miss 1 by more than a table allows is
    # a numeric limit, not bad input: exit 3, with the drift named
    true_pmf = core_model.poisson_pmf_array
    monkeypatch.setattr(core_model, "poisson_pmf_array", lambda *args: true_pmf(*args) * (1.0 + 3e-12))
    code, out, err = run(capsys, "dp", "--variant", "bw", "--model", "poisson:lambda=5")
    assert code == 3 and out == ""
    assert err == "numeric failure: the pmf of Poisson(lam=5.0) sums to 1 +3.0e-12 in floats; a table allows 1e-12\n"


def test_a_long_flat_table_passes_the_mass_check(capsys, tmp_path):
    # 10^5 masses of 1e-5 sum to 1 - 1.9e-12 one at a time, which the check
    # refused with exit 2; their exact sum is 1, so the table reads as
    # Uniform(10^5)
    path = tmp_path / "flat.csv"
    path.write_text("k,p\n" + "".join(f"{k},1e-05\n" for k in range(1, 10**5 + 1)))
    code, out, err = run(capsys, "cutoff", "--variant", "bw", "--model", f"table:{path}", "--format", "json")
    assert code == 0 and err == ""
    (rec,) = json.loads(out)
    assert (rec["M"], rec["P"]) == ("20319", "0.323813087111")


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


@pytest.mark.parametrize("start,to", [("2.9", "3.5"), ("4.5", "5.99"), ("2", "3.5")])
def test_scan_failures_needs_whole_number_bounds(capsys, start, to):
    # int() truncated these, and scanned n = 2..3 for 2.9..3.5
    code, out, err = run(capsys, "scan-failures", "--estimator", "affinetheta", "--from", start, "--to", to)
    assert code == 2 and out == ""
    assert err == f"error: scan-failures needs whole-number bounds, got --from {float(start)} --to {float(to)}\n"


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


@pytest.mark.parametrize("flag", ["--rel-tol", "--max-terms"])
def test_truncation_flags_are_gone(capsys, flag):
    # the series tail bound and term cap are constants of specfun
    for argv in (
        ("cutoff", "--variant", "bw", "--model", "known:n=5"),
        ("curve", "--variant", "bw", "--model", "known:n=5"),
        ("simulate", "--variant", "bw", "--model", "known:n=5", "--cutoff", "1", "--trials", "10"),
        ("dp", "--variant", "bw", "--model", "known:n=5"),
        ("verify", "constants"),
        ("table",),
        ("convergents", "--constant", "einv"),
        ("scan-failures", "--estimator", "affinetheta", "--from", "2", "--to", "3"),
    ):
        code, out, err = run(capsys, *argv, flag, "64")
        assert code == 2 and out == "", argv
        assert err.startswith("usage: ") and f"unrecognized arguments: {flag} 64" in err, argv


def test_exit_numeric_failure(capsys):
    # the truncation for `dp` builds the mass window, which at 10^12 is past
    # its cap: refused before any table
    code, out, err = run(capsys, "dp", "--variant", "bw", "--model", "poisson:lambda=1e12")
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: the mass window of Poisson(lam=1000000000000.0)")
    assert err.endswith("past the cap of 20000000\n") and err.count("\n") == 1


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


def _fresh(code, *argv):
    """`python -c code argv...` in a fresh interpreter that imports this
    secstop."""
    src = str(Path(secstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)


# runs one command, then writes to stderr the numpy submodules it loaded; a
# lazy top-level `numpy` entry that was never touched loads none of them
_NUMPY_PROBE = (
    "import sys\n"
    "from secstop.cli import main\n"
    "main(sys.argv[1:])\n"
    "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('numpy.'))))\n"
)

# the commands of the benchmark's cli-session whose exact answers are
# closed forms and scalar bisections
_SCALAR_COMMANDS = [
    "cutoff --variant bw --model uniform:n=1000000",
    "cutoff --variant classic --model known:n=237",
    "convergents --constant einv",
    "convergents --constant theta",
    "scan-failures --estimator affinetheta --from 2 --to 3000",
    "verify failures",
    "verify convergents",
]


@pytest.mark.parametrize("command", _SCALAR_COMMANDS)
def test_scalar_commands_load_no_numpy(command):
    done = _fresh(_NUMPY_PROBE, *command.split())
    assert done.stdout and done.stderr == "[]", done.stderr[-500:]


def test_an_array_command_loads_numpy():
    done = _fresh(_NUMPY_PROBE, "curve", "--variant", "bw", "--model", "poisson:lambda=5")
    assert "'numpy._core'" in done.stderr


def test_numpy_imported_first_is_the_package_binding():
    # the binding reuses an imported numpy, and a numpy imported after
    # secstop is the binding, loaded on first use
    first = _fresh("import types, numpy, secstop.specfun as s; print(s.np is numpy, type(numpy) is types.ModuleType)")
    after = _fresh("import secstop.specfun as s, numpy; print(s.np is numpy, int(numpy.arange(4).sum()))")
    assert first.stdout.split() == ["True", "True"], first.stderr
    assert after.stdout.split() == ["True", "6"], after.stderr


def test_scalar_then_array_command_in_one_process_prints_what_two_print():
    scalar = ["cutoff", "--variant", "bw", "--model", "uniform:n=1000000"]
    array = ["curve", "--variant", "bw", "--model", "poisson:lambda=5"]
    one = "from secstop.cli import main\n" + "".join(f"main({a!r})\n" for a in (scalar, array))
    apart = [_fresh("import sys\nfrom secstop.cli import main\nmain(sys.argv[1:])\n", *a).stdout for a in (scalar, array)]
    assert apart[0] and apart[1]
    assert _fresh(one).stdout == apart[0] + apart[1]


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
