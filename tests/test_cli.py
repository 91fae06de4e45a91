"""Command-line surface: exit codes, formats, and library agreement."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mapthresh
from mapthresh import (
    BinomialPrior,
    HyperParams,
    ReflectedPoissonPrior,
    TruncatedPoissonPrior,
    build_prior_table,
    em_fit,
    map_estimate,
    penalty_increments,
    penalty_table,
)
from mapthresh import em as em_module, risk
from mapthresh.cli import main


def write_column(path, values):
    path.write_text("".join(f"{v:.17g}\n" for v in values))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def noisy_input(tmp_path):
    rng = np.random.default_rng(42)
    mu = np.where(rng.random(60) < 0.15, 4.0 * rng.standard_normal(60), 0.0)
    y = mu + rng.standard_normal(60)
    return y, write_column(tmp_path / "y.csv", y)


# ---------------------------------------------------------------------------
# argument plumbing


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mapthresh ")


def test_import_loads_no_scipy():
    # the runtime needs NumPy alone; SciPy is a test-only oracle
    code = "import sys, mapthresh; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(mapthresh.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "prior",
    [
        "gauss",
        "binomial:frac=0.1",
        "binomial:xi",
        "fixed",
        "custom",
        "binomial:xi=0.1,xi=0.2",
    ],
)
def test_bad_prior_specs_exit_2(capsys, noisy_input, prior):
    _, path = noisy_input
    rc, _, err = run(capsys, "estimate", "--input", path, "--prior", prior,
                     "--sigma", "1", "--tau", "3")
    assert rc == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("sigma, tau", [("1", "1e-170"), ("1e200", "1e200"), ("1e-170", "1")])
def test_scales_whose_squares_leave_the_float_range_exit_2(capsys, noisy_input, sigma, tau):
    _, path = noisy_input
    rc, _, err = run(capsys, "estimate", "--input", path, "--prior", "binomial:xi=0.3",
                     "--sigma", sigma, "--tau", tau)
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, sigma, code",
    [
        # sigma = tau = 1e-161: the rate 2 sigma^2 (1 + 1/gamma) is 3.95e-322, a subnormal
        ("penalty", "1e-161", 2),
        ("estimate", "1e-161", 2),
        ("penalty", "1.1e-154", 0),  # the rate 4.8e-308 is just above the smallest normal
    ],
)
def test_a_subnormal_penalty_rate_exits_2_with_one_line(capsys, noisy_input, command, sigma, code):
    _, path = noisy_input
    if command == "penalty":
        argv = ("--n", "5", "--gamma", "1", "--sigma", sigma)
    else:
        argv = ("--input", path, "--sigma", sigma, "--tau", sigma)
    rc, out, err = run(capsys, command, "--prior", "poisson:lambda=2", *argv)
    assert rc == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and "penalty rate" in err and err.count("\n") == 1


@pytest.mark.parametrize("rule", [
    ("--prior", "poisson:lambda=50", "--sigma", "1e153", "--tau", "1e154"),
    ("--prior", "foster-stine", "--sigma", "1e153"),
])
def test_sums_past_the_float_range_exit_2_with_one_line(capsys, tmp_path, rule):
    rng = np.random.default_rng(0)
    y = 1e153 * (np.where(rng.random(1000) < 0.05, 10 * rng.standard_normal(1000), 0) + rng.standard_normal(1000))
    path = write_column(tmp_path / "y.csv", y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "estimate", "--input", path, *rule)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "rescale the data" in err and err.count("\n") == 1


def test_penalties_past_the_float_range_exit_2_with_one_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "penalty", "--n", "1000", "--prior", "rpoisson:lambda=500",
                           "--gamma", "100", "--sigma", "1e153")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "rescale the data" in err and err.count("\n") == 1


def test_missing_scales_exit_2(capsys, noisy_input):
    _, path = noisy_input
    rc, _, err = run(capsys, "estimate", "--input", path, "--prior", "binomial:xi=0.1")
    assert rc == 2
    assert "--sigma" in err or "--em" in err


FLAT_PRIOR_WARNING = (
    "warning: reflected Poisson prior with lam <= sqrt(n log n):"
    " the pmf is nearly flat and the prior loses its locating effect\n"
)


@pytest.mark.parametrize("command", ["penalty", "check-prior", "estimate"])
def test_a_package_warning_prints_as_one_line(tmp_path, command):
    argv = {
        "penalty": ["penalty", "--n", "1000", "--prior", "rpoisson:lambda=5", "--gamma", "9",
                    "--out", str(tmp_path / "p.csv")],
        "check-prior": ["check-prior", "--n", "1000", "--prior", "rpoisson:lambda=5", "--gamma", "9"],
        "estimate": ["estimate", "--input", write_column(tmp_path / "y.csv", [0.1, 2.5, -0.3]),
                     "--prior", "rpoisson:lambda=1", "--sigma", "1", "--tau", "3",
                     "--out", str(tmp_path / "e.csv")],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(mapthresh.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "mapthresh.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stderr == FLAT_PRIOR_WARNING
    # a caller that records warnings still gets the warning itself
    format_warning = warnings.formatwarning
    with pytest.warns(UserWarning, match="nearly flat"):
        assert main(argv) == 0
    assert warnings.formatwarning is format_warning


@pytest.mark.parametrize("command", ["estimate", "penalty", "simulate"])
@pytest.mark.parametrize("where", ["no/such/dir/out.csv", "."])
def test_unwritable_out_exits_2_with_one_line(capsys, tmp_path, noisy_input, command, where):
    _, path = noisy_input
    argv = {
        "estimate": ["--input", path, "--prior", "universal", "--sigma", "1"],
        "penalty": ["--n", "10", "--prior", "binomial:xi=0.1", "--gamma", "1"],
        "simulate": ["--config", write_config(tmp_path, TINY)],
    }[command]
    out = tmp_path / where  # a missing directory, or a directory
    rc, _, err = run(capsys, command, *argv, "--out", str(out))
    assert rc == 2
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# estimate


def test_estimate_roundtrip_matches_library(capsys, tmp_path, noisy_input):
    y, path = noisy_input
    out_path = tmp_path / "est.csv"
    rc, out, _ = run(
        capsys, "estimate", "--input", path, "--prior", "binomial:xi=0.15",
        "--sigma", "1", "--tau", "4", "--out", str(out_path),
    )
    assert rc == 0
    expected = map_estimate(y, HyperParams(1.0, 4.0), BinomialPrior(0.15))
    assert out.strip() == (
        f"k_hat={expected.k_hat} threshold={expected.threshold:.17g}"
    )
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "index,y,mu_hat,kept"
    assert len(lines) == 1 + y.size
    kept = []
    for i, line in enumerate(lines[1:]):
        idx, y_txt, mu_txt, kept_txt = line.split(",")
        assert int(idx) == i
        assert float(y_txt) == y[i]  # 17 digits round-trip bit-exactly
        assert float(mu_txt) == expected.mu_hat[i]
        kept.append(int(kept_txt))
    assert sum(kept) == expected.k_hat
    assert [i for i, k in enumerate(kept) if k] == sorted(expected.kept)


def test_estimate_zeros_selects_nothing(capsys, tmp_path):
    path = write_column(tmp_path / "z.csv", [0.0] * 12)
    rc, out, _ = run(capsys, "estimate", "--input", path,
                     "--prior", "binomial:xi=0.1", "--sigma", "1", "--tau", "3")
    assert rc == 0
    assert out.splitlines()[-1].startswith("k_hat=0 ")


def test_estimate_empty_input(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    rc, _, err = run(capsys, "estimate", "--input", str(path),
                     "--prior", "binomial:xi=0.1", "--sigma", "1", "--tau", "3")
    assert rc == 2
    assert err.strip() == "error: empty input"


def test_estimate_header_and_blank_lines_are_skipped(capsys, tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("y\n\n3.0\n-0.5\n0.2\n")
    rc, out, _ = run(capsys, "estimate", "--input", str(path), "--prior",
                     "fixed:lambda=1.0")
    assert rc == 0
    assert out.splitlines()[-1].startswith("k_hat=1 ")


def test_estimate_unreadable_value_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\ntwo\n")
    rc, _, err = run(capsys, "estimate", "--input", str(path), "--prior", "universal",
                     "--sigma", "1")
    assert rc == 2
    assert "two" in err


def test_estimate_with_em(capsys, tmp_path):
    rng = np.random.default_rng(5)
    mu = np.where(rng.random(400) < 0.1, 5.0 * rng.standard_normal(400), 0.0)
    y = mu + rng.standard_normal(400)
    path = write_column(tmp_path / "em.csv", y)
    rc, out, _ = run(capsys, "estimate", "--input", path,
                     "--prior", "binomial", "--em")
    assert rc == 0
    k_hat = int(out.splitlines()[-1].split()[0].split("=")[1])
    assert k_hat > 0


def test_estimate_with_em_rejects_unconverged_fit(capsys, tmp_path, monkeypatch):
    import mapthresh.cli as cli

    fits = []

    def one_step_fit(y):
        fits.append(em_fit(y, max_iter=1))
        return fits[-1]

    monkeypatch.setattr(cli, "em_fit", one_step_fit)
    rng = np.random.default_rng(5)
    mu = np.where(rng.random(400) < 0.1, 5.0 * rng.standard_normal(400), 0.0)
    path = write_column(tmp_path / "em.csv", mu + rng.standard_normal(400))
    out_path = tmp_path / "est.csv"
    rc, out, err = run(capsys, "estimate", "--input", path, "--prior", "binomial",
                       "--em", "--out", str(out_path))
    assert len(fits) == 1 and not fits[0].converged
    assert rc == 1
    assert "did not converge" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "kind, prior",
    [("binomial", BinomialPrior), ("poisson", TruncatedPoissonPrior), ("rpoisson", ReflectedPoissonPrior)],
)
def test_estimate_with_em_fits_each_map_prior(capsys, tmp_path, kind, prior):
    rng = np.random.default_rng(5)
    mu = np.where(rng.random(400) < 0.3, 5.0 * rng.standard_normal(400), 0.0)
    y = mu + rng.standard_normal(400)
    path = write_column(tmp_path / "em.csv", y)
    rc, out, _ = run(capsys, "estimate", "--input", path, "--prior", kind, "--em")
    assert rc == 0
    fit = em_fit(y)
    # the Poisson priors put the fitted xi on n * xi expected signals
    spec = prior(fit.xi_hat if kind == "binomial" else y.size * fit.xi_hat)
    expected = map_estimate(y, HyperParams(fit.sigma_hat, fit.tau_hat), spec)
    assert out.splitlines()[-1] == f"k_hat={expected.k_hat} threshold={expected.threshold:.17g}"


@pytest.mark.parametrize(
    "argv",
    [
        ("universal", "--sigma", "1"),
        ("universal", "--em"),
        ("fixed:lambda=2.5",),
        ("fdr:q=0.1", "--sigma", "1"),
        ("foster-stine", "--sigma", "1"),
    ],
)
def test_estimate_rules_run(capsys, noisy_input, argv):
    _, path = noisy_input
    rc, out, _ = run(capsys, "estimate", "--input", path, "--prior", *argv)
    assert rc == 0
    assert out.splitlines()[-1].startswith("k_hat=")


def test_estimate_custom_prior_file(capsys, tmp_path, noisy_input):
    y, path = noisy_input
    weights = write_column(tmp_path / "w.csv", [0.0] * (y.size + 1))
    rc, out, _ = run(capsys, "estimate", "--input", path,
                     "--prior", f"custom:file={weights}", "--sigma", "1", "--tau", "3")
    assert rc == 0
    assert out.splitlines()[-1].startswith("k_hat=")


# ---------------------------------------------------------------------------
# penalty


def test_penalty_csv_structure(capsys, tmp_path):
    out_path = tmp_path / "pen.csv"
    rc, _, _ = run(capsys, "penalty", "--n", "40", "--prior", "binomial:xi=0.1",
                   "--gamma", "1", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "k,P,increment"
    assert len(lines) == 42
    ks, ps, incs = zip(*(map(float, line.split(",")) for line in lines[1:]))
    assert list(ks) == list(range(41))
    # binomial prior: one fixed per-coordinate increment for k >= 1
    assert max(incs[1:]) - min(incs[1:]) < 1e-9
    running = np.cumsum(incs)
    assert np.allclose(running, ps, rtol=1e-9, atol=1e-9)
    ref = penalty_table(build_prior_table(BinomialPrior(0.1), 40), HyperParams(1.0, 1.0))
    assert np.allclose(ps, ref.penalty, rtol=1e-15)


@pytest.mark.parametrize(
    "prior, spec",
    [
        ("binomial:xi=0.05", BinomialPrior(0.05)),
        ("poisson:lambda=50", TruncatedPoissonPrior(50.0)),
        ("rpoisson:lambda=500", ReflectedPoissonPrior(500.0)),
    ],
)
def test_penalty_prints_what_the_scan_uses(capsys, prior, spec):
    rc, out, _ = run(capsys, "penalty", "--n", "1000", "--prior", prior,
                     "--gamma", "9", "--sigma", "2")
    assert rc == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in out.split()[1:]])
    increments = penalty_increments(spec, 1000, HyperParams(2.0, 6.0))
    assert np.array_equal(rows[:, 0], np.arange(1001))
    assert np.array_equal(rows[:, 1], np.cumsum(increments))
    assert np.array_equal(rows[:, 2], increments)


def test_penalty_degenerate_size(capsys):
    rc, out, _ = run(capsys, "penalty", "--n", "0", "--prior", "binomial:xi=0.1",
                     "--gamma", "1")
    assert rc == 0
    assert out.strip().split("\n") == ["k,P,increment", "0,0,0"]


def test_penalty_negative_size_exit_2(capsys):
    rc, _, err = run(capsys, "penalty", "--n", "-3", "--prior", "binomial:xi=0.1",
                     "--gamma", "1")
    assert rc == 2
    assert "--n" in err


@pytest.mark.parametrize(
    "command, gamma",
    [
        ("penalty", "-1"),
        ("penalty", "nan"),
        ("penalty", "1e-320"),  # subnormal: the penalty rate 2 (1 + 1/gamma) overflows
        ("check-prior", "-1"),
        ("check-prior", "1e300"),
    ],
)
def test_bad_gamma_exits_2_with_one_line(capsys, command, gamma):
    rc, out, err = run(capsys, command, "--n", "10", "--prior", "binomial:xi=0.1",
                       "--gamma", gamma)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "gamma" in err and err.count("\n") == 1


def test_penalty_rejects_rule_specs(capsys):
    rc, _, err = run(capsys, "penalty", "--n", "10", "--prior", "universal",
                     "--gamma", "1")
    assert rc == 2
    assert "prior" in err


# ---------------------------------------------------------------------------
# check-prior


def test_check_prior_pass(capsys):
    xi = 0.9 * math.exp(-24.5)
    rc, out, _ = run(capsys, "check-prior", "--n", "100",
                     "--prior", f"binomial:xi={xi}", "--gamma", "1")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c_gamma=24.5"
    assert lines[1] == "assumption_a: pass"
    assert lines[2].startswith("L_star=")


def test_check_prior_fail_is_still_exit_0(capsys):
    rc, out, _ = run(capsys, "check-prior", "--n", "10",
                     "--prior", "binomial:xi=0.3", "--gamma", "1")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "assumption_a: fail"
    assert lines[3] == "first_failing_k=1"


def test_check_prior_empty_size_prints_an_unsigned_zero(capsys):
    rc, out, _ = run(capsys, "check-prior", "--n", "0", "--prior", "binomial:xi=0.1",
                     "--gamma", "1")
    assert rc == 0
    assert out.strip().split("\n")[2] == "L_star=0"


@pytest.mark.parametrize(
    "prior, l_star",
    [
        # L[0] = -2000 log(0.95) = 102.5865887751010727...; this is the nearest double
        ("binomial:xi=0.05", "102.58658877510108"),
        ("poisson:lambda=50", "100"),
    ],
)
def test_check_prior_prints_the_exact_l_star(capsys, prior, l_star):
    rc, out, _ = run(capsys, "check-prior", "--n", "1000", "--prior", prior, "--gamma", "9")
    assert rc == 0
    assert out.strip().split("\n")[2] == f"L_star={l_star}"


def test_check_prior_rejects_infinite_custom_weight(capsys, tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text("0.0\n-inf\n0.0\n0.0\n0.0\n0.0\n")
    rc, _, err = run(capsys, "check-prior", "--n", "5",
                     "--prior", f"custom:file={weights}", "--gamma", "1")
    assert rc == 2
    assert "finite" in err


# ---------------------------------------------------------------------------
# simulate


TINY = {
    "n": 50,
    "sigma": 1.0,
    "xi_grid": [0.1],
    "tau_grid": [4.0],
    "replications": 3,
    "methods": ["universal", "oracle"],
    "use_em": False,
    "master_seed": 9,
}


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_runs_and_repeats_exactly(capsys, tmp_path):
    cfg = write_config(tmp_path, TINY)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "simulate", "--config", cfg, "--out", str(out_a))[0] == 0
    assert run(capsys, "simulate", "--config", cfg, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert lines[0] == "method,xi,tau,amse,std_err,replications,seed"
    assert len(lines) == 3


def test_simulate_reports_unconverged_fits_on_stderr(capsys, tmp_path, monkeypatch):
    cfg = write_config(tmp_path, dict(TINY, methods=["bin", "oracle"], use_em=True))
    rc, clean_out, clean_err = run(capsys, "simulate", "--config", cfg)
    assert rc == 0 and clean_err == ""

    def unconverged_fits(y, y_sq, inits):
        return [dataclasses.replace(fit, converged=False) for fit in em_module.em_fit_rows(y, y_sq, inits)]

    monkeypatch.setattr(risk, "em_fit_rows", unconverged_fits)
    rc, out, err = run(capsys, "simulate", "--config", cfg)
    assert rc == 0
    assert out == clean_out
    lines = err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("warning: 3 EM fits did not converge")
    assert "xi=0.1 tau=4: 3" in lines[0]


def test_simulate_reports_flat_reflected_priors_on_stderr(capsys, tmp_path):
    # n = 50: lam = n xi = 5 is below sqrt(n log n) = 14 in every replication
    cfg = write_config(tmp_path, dict(TINY, methods=["pois2", "oracle"]))
    rc, _, err = run(capsys, "simulate", "--config", cfg)
    assert rc == 0
    lines = err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("warning: 3 pois2 estimates used a nearly flat")
    assert lines[0].endswith("(xi=0.1 tau=4: 3)")


def test_simulate_checks_each_fitted_row_once(capsys, tmp_path, monkeypatch):
    calls = []
    check = em_module._check_magnitudes

    def counting_check(y):
        calls.append(1)
        return check(y)

    monkeypatch.setattr(em_module, "_check_magnitudes", counting_check)
    payload = dict(TINY, xi_grid=[0.1, 0.3], methods=["bin", "universal"], use_em=True)
    assert run(capsys, "simulate", "--config", write_config(tmp_path, payload))[0] == 0
    assert len(calls) == len(payload["xi_grid"]) * len(payload["tau_grid"]) * payload["replications"]


# n = 20, xi = 0.5: (tau, use_em) whose errors overflowed np.std's squares
# (an infinite std_err and a RuntimeWarning) although every draw was finite
@pytest.mark.parametrize("tau, use_em", [(1e100, True), (1e78, False), (1e100, False)])
def test_simulate_at_large_slab_scales_is_finite(capsys, tmp_path, tau, use_em):
    payload = dict(TINY, n=20, xi_grid=[0.5], tau_grid=[tau], use_em=use_em,
                   methods=["bin", "pois1", "pois2", "universal", "oracle"])
    rc, out, _ = run(capsys, "simulate", "--config", write_config(tmp_path, payload))
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 5
    assert all(math.isfinite(float(v)) for row in rows for v in row[3:5])


@pytest.mark.parametrize("use_em", [True, False])
def test_simulate_draws_whose_squares_overflow_exit_2(capsys, tmp_path, use_em):
    # tau = 1.3e154: squares of the draws overflow the ranking, the sums and the oracle
    payload = dict(TINY, n=20, xi_grid=[0.5], tau_grid=[1.3e154], use_em=use_em,
                   methods=["bin", "pois1", "pois2", "universal", "oracle"])
    rc, out, err = run(capsys, "simulate", "--config", write_config(tmp_path, payload))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: draws of magnitude up to ")
    assert err.count("\n") == 1


# NumPy's dispatch targets above the x86-64-v2 baseline
SIMD_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def test_simulate_csv_is_the_same_under_sse_only_dispatch(tmp_path):
    # EM parameters may differ in their last bits between SIMD targets;
    # the CSV must not
    if not any(_cpu_features().get(target) for target in SIMD_TARGETS):
        pytest.skip("this CPU has none of the SIMD targets that the SSE-only run disables")
    cfg = write_config(tmp_path, dict(TINY, n=200, tau_grid=[3.0, 5.0], use_em=True,
                                      methods=["bin", "pois1", "pois2", "universal", "oracle"]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(mapthresh.__file__).parents[1]), str(Path(__file__).parent)]))
    sse_env = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(SIMD_TARGETS))
    probe = "from test_cli import SIMD_TARGETS, _cpu_features as f; print(any(f().get(t) for t in SIMD_TARGETS))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=sse_env)
    assert done.stdout.strip() == "False", done.stderr  # the variable took effect
    csvs = []
    for run_env, name in ((env, "default.csv"), (sse_env, "sse.csv")):
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-m", "mapthresh.cli", "simulate", "--config", cfg,
                               "--out", str(out)], capture_output=True, text=True, env=run_env)
        assert done.returncode == 0, done.stderr
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 1 + 2 * 5


def test_simulate_seed_override(capsys, tmp_path):
    cfg = write_config(tmp_path, TINY)
    _, base, _ = run(capsys, "simulate", "--config", cfg)
    _, other, _ = run(capsys, "simulate", "--config", cfg, "--seed", "10")
    assert base != other
    assert ",3,9" in base and ",3,10" in other


def test_simulate_seed_flag_covers_missing_key(capsys, tmp_path):
    payload = {k: v for k, v in TINY.items() if k != "master_seed"}
    cfg = write_config(tmp_path, payload)
    rc, _, err = run(capsys, "simulate", "--config", cfg)
    assert rc == 2
    assert "master_seed" in err
    assert run(capsys, "simulate", "--config", cfg, "--seed", "4")[0] == 0


def test_simulate_missing_key_named(capsys, tmp_path):
    payload = {k: v for k, v in TINY.items() if k != "replications"}
    cfg = write_config(tmp_path, payload)
    rc, _, err = run(capsys, "simulate", "--config", cfg)
    assert rc == 2
    assert "replications" in err


def test_simulate_unknown_key_named(capsys, tmp_path):
    cfg = write_config(tmp_path, {**TINY, "replicatons": 5})
    rc, _, err = run(capsys, "simulate", "--config", cfg)
    assert rc == 2
    assert "replicatons" in err


@pytest.mark.parametrize("key, value", [
    ("use_em", "false"),
    ("replications", 2.0),
    ("n", 1000.0),
    ("sigma", True),
    ("master_seed", True),
    ("xi_grid", ["0.1"]),
])
def test_simulate_wrong_type_named(capsys, tmp_path, key, value):
    cfg = write_config(tmp_path, {**TINY, key: value})
    rc, out, err = run(capsys, "simulate", "--config", cfg)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: config key {key!r} must be ")
    assert err.count("\n") == 1


def test_simulate_invalid_json(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "simulate", "--config", str(path))
    assert rc == 2
    assert "JSON" in err


def test_simulate_missing_file(capsys):
    rc, _, err = run(capsys, "simulate", "--config", "nope.json")
    assert rc == 2
    assert "nope.json" in err


def test_simulate_finds_bundled_config(capsys, tmp_path):
    out_path = tmp_path / "t1.csv"
    rc, _, _ = run(capsys, "simulate", "--config", "table1.json",
                   "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 5 * 9


# ---------------------------------------------------------------------------
# em-fit


def test_em_fit_reports_library_values(capsys, tmp_path):
    rng = np.random.default_rng(2)
    mu = np.where(rng.random(500) < 0.1, 5.0 * rng.standard_normal(500), 0.0)
    y = mu + rng.standard_normal(500)
    path = write_column(tmp_path / "y.csv", y)
    rc, out, _ = run(capsys, "em-fit", "--input", path)
    assert rc == 0
    fields = dict(part.split("=") for part in out.strip().split())
    fit = em_fit(y)
    assert float(fields["sigma_hat"]) == fit.sigma_hat
    assert float(fields["tau_hat"]) == fit.tau_hat
    assert float(fields["xi_hat"]) == fit.xi_hat
    assert float(fields["loglik"]) == fit.loglik
    assert int(fields["iterations"]) == fit.iterations
    assert fields["converged"] == "true"


def test_em_fit_exits_1_on_an_unconverged_fit(capsys, tmp_path, monkeypatch):
    import mapthresh.cli as cli

    monkeypatch.setattr(cli, "em_fit", lambda y: em_fit(y, max_iter=1))
    rng = np.random.default_rng(2)
    mu = np.where(rng.random(500) < 0.1, 5.0 * rng.standard_normal(500), 0.0)
    path = write_column(tmp_path / "y.csv", mu + rng.standard_normal(500))
    rc, out, err = run(capsys, "em-fit", "--input", path)
    assert rc == 1
    assert "iterations=1 converged=false" in out
    assert err.strip() == "error: EM did not converge within the iteration budget"


def test_em_fit_rejects_short_input(capsys, tmp_path):
    path = write_column(tmp_path / "y.csv", [1.0, 2.0, 3.0])
    rc, _, err = run(capsys, "em-fit", "--input", path)
    assert rc == 2
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# one process, several calls


def exit_code_and_output(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_calls_in_one_process_match_calls_alone(capsys, tmp_path, noisy_input):
    _, path = noisy_input
    calls = [
        ["estimate", "--prior", "universal"],  # argparse: --input is missing
        ["estimate", "--input", path, "--prior", "binomial:xi=0.1"],  # no scales
        ["estimate", "--input", path, "--prior", "poisson:lambda=6", "--sigma", "1", "--tau", "4"],
        ["simulate", "--config", write_config(tmp_path, TINY), "--out", "-"],
        ["estimate", "--prior", "universal"],
    ]
    together = [exit_code_and_output(capsys, argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(Path(mapthresh.__file__).parents[1]))
    alone = {}
    for argv in calls:
        if tuple(argv) not in alone:
            done = subprocess.run([sys.executable, "-m", "mapthresh.cli", *argv],
                                  capture_output=True, text=True, env=env)
            alone[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
    for argv, output in zip(calls, together):
        assert output == alone[tuple(argv)], argv
    assert [rc for rc, _, _ in together] == [2, 2, 0, 0, 2]
