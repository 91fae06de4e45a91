"""Command-line surface: exit codes, formats, and library agreement."""

import dataclasses
import json
import math

import numpy as np
import pytest

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
from mapthresh import risk
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


@pytest.mark.parametrize(
    "prior",
    [
        "gauss",
        "binomial:frac=0.1",
        "binomial:xi",
        "fixed",
        "custom",
    ],
)
def test_bad_prior_specs_exit_2(capsys, noisy_input, prior):
    _, path = noisy_input
    rc, _, err = run(capsys, "estimate", "--input", path, "--prior", prior,
                     "--sigma", "1", "--tau", "3")
    assert rc == 2
    assert err.startswith("error: ")


def test_missing_scales_exit_2(capsys, noisy_input):
    _, path = noisy_input
    rc, _, err = run(capsys, "estimate", "--input", path, "--prior", "binomial:xi=0.1")
    assert rc == 2
    assert "--sigma" in err or "--em" in err


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

    def unconverged_fit(y):
        return dataclasses.replace(em_fit(y), converged=False)

    monkeypatch.setattr(risk, "em_fit", unconverged_fit)
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


def test_em_fit_rejects_short_input(capsys, tmp_path):
    path = write_column(tmp_path / "y.csv", [1.0, 2.0, 3.0])
    rc, _, err = run(capsys, "em-fit", "--input", path)
    assert rc == 2
    assert err.startswith("error: ")
