"""The workloads: inputs from a seed, one timed pass, and its checks.

Why each workload exists is recorded in ``BENCHMARK.json``.  A pass is a
closed loop in one process: one caller, each call issued after the
previous one returns.  Its time is the sum of the timed calls; checks run
between calls, outside the timed spans.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

from checks import (
    cells_out_of_tolerance,
    check_keeps_largest,
    check_map_k,
    check_universal,
    load_reference_amse,
    trace_is_monotone,
)
from tracer import swap

DEFAULT_SEED = 20260815  # master_seed of the bundled table1.json

BUNDLED_CONFIG = Path("src", "mapthresh", "configs", "table1.json")
ACCEPTANCE_TESTS = Path("tests", "test_acceptance.py")
INPUT_DIR = Path(".bench_build", "inputs")


def reference_loop():
    """Seconds taken by a fixed loop of small-array work.

    It draws, ranks and sums ten arrays of 1000 normals, the kind of work
    the package does per replication.  The loop is the benchmark's own
    code, so no change to the package can change it; only the speed of the
    host can.  Run right after each timed call, it samples that speed at
    the moments the workload ran.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.standard_normal(1000)
        np.cumsum(y[np.argsort(-np.abs(y))] ** 2)
    return time.perf_counter() - t0


class Ops:
    """Timed calls and the operation tally of one workload process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pass_seconds = 0.0
        self.reference = []  # reference_loop() seconds, one after each timed call

    @contextlib.contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.pass_seconds += time.perf_counter() - t0
            self.reference.append(reference_loop())

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def _write_input(name, payload):
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = INPUT_DIR / name
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    os.replace(tmp, path)
    return str(path)


class Table1:
    """``mapthresh simulate`` on the Table 1 grid, EM on or off.

    A timed pass covers the bundled grid as ``CHUNKS`` single-cell
    ``simulate`` calls per cell, each of ``replications / CHUNKS``
    replications with its own master seed drawn from the workload seed:
    the same n, grid, methods and number of fits as the bundled run, in
    short calls, so that the reference loop run after each call samples the
    host's speed all through the pass.  The bundled config itself runs
    once, untimed, at the workload seed, for the EM and criterion-1 counts.
    """

    name = "table1"
    use_em = True
    CHUNKS = 10

    def __init__(self, seed, tiny):
        from mapthresh import cli

        self.cli = cli
        self.seed = DEFAULT_SEED if seed is None else seed
        config = json.loads(BUNDLED_CONFIG.read_text(encoding="utf-8"))
        config["use_em"] = self.use_em
        chunks = self.CHUNKS
        if tiny:
            config["replications"], chunks = 2, 1
        self.tau_grid = config["tau_grid"]
        self.config_path = _write_input(f"{self.name}.json", config)
        self.warm_path = _write_input(f"{self.name}-warm.json", dict(config, replications=1))
        cells = itertools.product(config["xi_grid"], config["tau_grid"])
        self.chunk_paths = []
        for cell, (xi, tau) in enumerate(cells):
            for chunk in range(chunks):
                state = np.random.SeedSequence([self.seed, cell, chunk]).generate_state(1)
                part = dict(config, xi_grid=[xi], tau_grid=[tau], master_seed=int(state[0]),
                            replications=config["replications"] // chunks)
                self.chunk_paths.append(_write_input(f"{self.name}-{cell}-{chunk}.json", part))
        self.reports = {}

    def _simulate(self, path, seed=None):
        argv = ["simulate", "--config", path, "--out", "-"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"simulate exited {code}")
        return out.getvalue()

    def warm_up(self):
        self._simulate(self.warm_path, self.seed)

    def run_pass(self, ops):
        for path in self.chunk_paths:
            try:
                with ops.timed():
                    report = self._simulate(path)
            except Exception as exc:  # an operation that raised is a failed one
                ops.record([f"simulate {path} raised {exc!r}"])
                continue
            first = self.reports.setdefault(path, report)
            ops.record([] if report == first else [f"{path}: report CSV differs from the first pass"])

    def finish(self, ops):
        """Untimed bundled run: record every EM fit, then check the report."""
        fits = []

        def recorder(original):
            def em_fit(*args, **kwargs):
                fit = original(*args, **kwargs)
                fits.append(fit)
                return fit

            return em_fit

        summary = {
            "em_fits": 0,
            "em_nonconverged": None,
            "amse_cells_out_of_tol": None,
            "amse_cells_compared": None,
        }
        try:
            with swap([("em", "em_fit", recorder)]):
                report = self._simulate(self.config_path, self.seed)
        except Exception as exc:
            ops.record([f"check-pass simulate raised {exc!r}"])
            return summary
        ops.record([])
        for i, fit in enumerate(fits):
            monotone = trace_is_monotone(fit.loglik_trace)
            ops.record([] if monotone else [f"EM fit {i}: log-likelihood trace decreases"])
        summary["em_fits"] = len(fits)
        summary["em_nonconverged"] = sum(not fit.converged for fit in fits)
        reference = load_reference_amse(ACCEPTANCE_TESTS)
        if reference is not None:
            outside, compared = cells_out_of_tolerance(report, self.tau_grid, reference)
            summary["amse_cells_out_of_tol"] = outside
            summary["amse_cells_compared"] = compared
        return summary


class Table1Known(Table1):
    name = "table1_known"
    use_em = False


class LargeN:
    """Few long sequences through EM, three MAP priors and the universal rule."""

    name = "large_n"
    SIGMA, TAU, XIS = 1.0, 5.0, (0.005, 0.05)

    def __init__(self, seed, tiny):
        from mapthresh import baselines, em, estimator, priors

        self.baselines, self.em, self.estimator, self.priors = baselines, em, estimator, priors
        self.seed = DEFAULT_SEED if seed is None else seed
        self.n = 20_000 if tiny else 1_000_000
        count = 2 if tiny else 4
        self.ys = [self._draw(i, self.n) for i in range(count)]
        self.k_hats = None  # (sequence, prior, param, sigma, tau, k_hat) of the first pass
        self.nonconverged = None

    def _draw(self, i, n):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
        xi = self.XIS[i % len(self.XIS)]
        mu = np.where(rng.random(n) < xi, self.TAU * rng.standard_normal(n), 0.0)
        return mu + self.SIGMA * rng.standard_normal(n)

    def _priors(self, fit):
        n, p = self.n, self.priors
        return (
            ("binomial", fit.xi_hat, p.BinomialPrior(fit.xi_hat)),
            ("poisson", n * fit.xi_hat, p.TruncatedPoissonPrior(n * fit.xi_hat)),
            ("rpoisson", n * fit.xi_hat, p.ReflectedPoissonPrior(n * fit.xi_hat)),
        )

    def warm_up(self):
        y = self.ys[0][:2000]
        fit = self.em.em_fit(y)
        hyper = self.priors.HyperParams(sigma=fit.sigma_hat, tau=fit.tau_hat)
        self.estimator.map_estimate(y, hyper, self.priors.BinomialPrior(fit.xi_hat))
        lam = self.baselines.universal_threshold(y.size, self.baselines.mad_sigma(y))
        self.baselines.fixed_threshold_estimate(y, lam)

    def run_pass(self, ops):
        k_hats, nonconverged = [], 0
        for i, y in enumerate(self.ys):
            try:
                with ops.timed():
                    fit = self.em.em_fit(y)
            except Exception as exc:
                ops.record([f"sequence {i}: em_fit raised {exc!r}"])
                continue
            ops.record([])
            nonconverged += not fit.converged
            sigma, tau = fit.sigma_hat, fit.tau_hat
            hyper = self.priors.HyperParams(sigma=sigma, tau=tau)
            for prior, param, spec in self._priors(fit):
                try:
                    with ops.timed():
                        result = self.estimator.map_estimate(y, hyper, spec)
                except Exception as exc:
                    ops.record([f"sequence {i}: {prior} map_estimate raised {exc!r}"])
                    continue
                k_hats.append((i, prior, param, sigma, tau, result.k_hat))
                ops.record([f"sequence {i} {prior}: {p}" for p in check_keeps_largest(y, result)])
            try:
                with ops.timed():
                    lam = self.baselines.universal_threshold(self.n, self.baselines.mad_sigma(y))
                    result = self.baselines.fixed_threshold_estimate(y, lam)
            except Exception as exc:
                ops.record([f"sequence {i}: universal rule raised {exc!r}"])
                continue
            ops.record([f"sequence {i} universal: {p}" for p in check_universal(y, lam, result)])
        if self.k_hats is None:
            self.k_hats, self.nonconverged = k_hats, nonconverged
        else:
            ops.record([] if k_hats == self.k_hats else ["MAP selections differ from the first pass"])

    def finish(self, ops):
        """Untimed: each first-pass k_hat against the independent objective."""
        for i, prior, param, sigma, tau, k_hat in self.k_hats or ():
            problems = check_map_k(self.ys[i], sigma, tau, prior, param, k_hat)
            ops.record([f"sequence {i} {p}" for p in problems])
        return {
            "em_fits": len(self.ys),
            "em_nonconverged": self.nonconverged,
            "amse_cells_out_of_tol": None,
            "amse_cells_compared": None,
        }


WORKLOADS = {"table1": Table1, "table1_known": Table1Known, "large_n": LargeN}
