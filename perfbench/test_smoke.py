"""Smoke test for the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload on tiny inputs, untraced and traced, and checks that
each metric named in ``BENCHMARK.json`` is emitted.  It also shows that
the large_n checks can fail: a wrong ``k_hat``, a wrong ``mu_hat`` and a
wrong universal keep set are each flagged.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from catalog import PREDICTIONS  # noqa: E402
from checks import check_keeps_largest, check_map_k, check_universal  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = ("wall_s", "wall_s_tail", "em_nonconverged", "amse_cells_out_of_tol", "failed_ops")


def test_predictions_cite_per_layer_metrics():
    assert set(PREDICTIONS) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    assert '"backend"' in report and '"nproc"' in report and '"seed": 3' in report
    if trace == "0":
        for name in REPORTED:
            assert f" {name} " in report


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "table1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seconds", ["0", "61", "nan"])
def test_refuses_a_run_length_out_of_range(seconds):
    proc = run_bench("--workload", "table1", "--seconds", seconds)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_marks_a_removed_function_absent_and_restores_the_rest(monkeypatch):
    from mapthresh import estimator, risk
    from tracer import Tracer

    original = estimator.map_estimate
    monkeypatch.delattr(estimator, "select_k")
    with Tracer().installed() as absent:
        assert absent == ["estimator.select_k"]
        assert estimator.map_estimate is not original
        assert risk.map_estimate is estimator.map_estimate
    assert estimator.map_estimate is original and risk.map_estimate is original


@pytest.fixture(scope="module")
def map_case():
    from mapthresh import BinomialPrior, HyperParams, em_fit, map_estimate

    rng = np.random.default_rng(11)
    n = 5000
    y = np.where(rng.random(n) < 0.02, 5.0 * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
    fit = em_fit(y)
    result = map_estimate(y, HyperParams(fit.sigma_hat, fit.tau_hat), BinomialPrior(fit.xi_hat))
    return y, fit, result


def test_map_checker_accepts_the_package_and_flags_a_wrong_k_hat(map_case):
    y, fit, result = map_case
    args = (y, fit.sigma_hat, fit.tau_hat, "binomial", fit.xi_hat)
    assert check_map_k(*args, result.k_hat) == []
    assert result.k_hat > 0
    for wrong in (result.k_hat - 1, result.k_hat + 1):
        assert check_map_k(*args, wrong) != []


def test_keep_checkers_flag_wrong_outputs(map_case):
    y, _, result = map_case
    assert check_keeps_largest(y, result) == []
    bad_mu = result.mu_hat.copy()
    bad_mu[result.kept[0]] = 0.0
    assert check_keeps_largest(y, dataclasses.replace(result, mu_hat=bad_mu)) != []

    from mapthresh import fixed_threshold_estimate

    ranked = np.sort(np.abs(y))
    fixed = fixed_threshold_estimate(y, float(ranked[-20]))
    assert check_universal(y, float(ranked[-20]), fixed) == []
    assert check_universal(y, float(ranked[-25]), fixed) != []
