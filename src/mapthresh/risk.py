"""Risk references, minimax rates, and the Monte Carlo benchmark.

The benchmark draws sparse normal-means data cell by cell over a grid of
sparsity levels and signal scales, fits hyperparameters by EM when asked,
runs each configured method on the same draws, and reports per-coordinate
average squared errors.  Replication streams are keyed by
(master seed, cell index, replication), so results do not depend on
execution order or worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .baselines import fixed_threshold_estimate, mad_sigma, universal_threshold
from .em import em_fit, init_heuristic
from .errors import ConfigurationError, DomainError, UnsupportedBallError
from .estimator import map_estimate, rank_sequence
from .priors import (
    BallSpec,
    BinomialPrior,
    HyperParams,
    L0Ball,
    PriorSpec,
    ReflectedPoissonPrior,
    StrongLpBall,
    TruncatedPoissonPrior,
    WeakLpBall,
    _FLAT_REFLECTED_WARNING,
    _reflected_is_flat,
)

__all__ = [
    "KNOWN_METHODS",
    "UNIVERSAL_SCALES",
    "ExperimentConfig",
    "CellResult",
    "RiskReport",
    "RateCheckRow",
    "oracle_risk",
    "minimax_rate",
    "least_favorable_mu",
    "monte_carlo_amse",
    "rate_check",
]

KNOWN_METHODS = ("bin", "pois1", "pois2", "universal", "oracle")

# Scale plugged into the universal cutoff: the raw median absolute
# deviation, the consistency-normalized version, or the true sigma.
UNIVERSAL_SCALES = ("mad_raw", "mad", "true")


# --------------------------------------------------------------------------
# Risk references
# --------------------------------------------------------------------------

def oracle_risk(mu, sigma: float) -> float:
    """Ideal keep-or-kill risk: sum of min(mu_i^2, sigma^2)."""
    mu = np.asarray(mu, dtype=float)
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be a positive real, got {sigma}")
    return float(np.sum(np.minimum(mu**2, sigma**2)))


def minimax_rate(ball: BallSpec, n: int, sigma: float) -> float:
    """Leading-order minimax risk over the given ball.

    The weak-ball rate switches from the sparse expression to the
    super-sparse one when n^(1/p) * eta >= sqrt(2 log n); the strong-ball
    rate is the same without the 2/(2-p) factor.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be a positive real, got {sigma}")
    n = int(n)
    eta = ball.eta
    if eta >= 1.0:
        raise DomainError(f"rates require eta < 1, got {eta}")
    if isinstance(ball, L0Ball):
        return sigma**2 * n * eta * 2.0 * math.log(1.0 / eta)
    if isinstance(ball, (WeakLpBall, StrongLpBall)):
        p = ball.p
        factor = 2.0 / (2.0 - p) if isinstance(ball, WeakLpBall) else 1.0
        if n ** (1.0 / p) * eta >= math.sqrt(2.0 * math.log(n)):
            body = n * eta**p * (2.0 * math.log(eta**-p)) ** (1.0 - p / 2.0)
        else:
            body = n ** (2.0 / p) * eta**2
        return factor * sigma**2 * body
    raise UnsupportedBallError(f"unknown ball spec {type(ball).__name__}")


def least_favorable_mu(ball: BallSpec, n: int, sigma: float = 1.0) -> np.ndarray:
    """Boundary configuration attaining the rate, up to constants.

    Weak balls: the envelope eta * (n/i)^(1/p).  Sparsity balls: floor(eta n)
    spikes of size sigma * sqrt(2 log(1/eta)).  Strong balls have no such
    canonical sequence here.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    n = int(n)
    if isinstance(ball, WeakLpBall):
        i = np.arange(1, n + 1, dtype=float)
        return ball.eta * (n / i) ** (1.0 / ball.p)
    if isinstance(ball, L0Ball):
        if ball.eta >= 1.0:
            raise DomainError(f"spike configuration requires eta < 1, got {ball.eta}")
        k = int(math.floor(n * ball.eta))
        mu = np.zeros(n)
        mu[:k] = sigma * math.sqrt(2.0 * math.log(1.0 / ball.eta))
        return mu
    raise UnsupportedBallError(f"no least-favorable sequence for {type(ball).__name__}")


# --------------------------------------------------------------------------
# Monte Carlo benchmark
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Grid benchmark description; validated on construction."""

    n: int
    sigma: float
    xi_grid: tuple[float, ...]
    tau_grid: tuple[float, ...]
    replications: int
    methods: tuple[str, ...]
    use_em: bool = True
    master_seed: int = 0
    universal_scale: str = "mad_raw"
    jobs: int = 1

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 10:
            raise ConfigurationError(f"n must be an integer >= 10, got {self.n}")
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise ConfigurationError(f"sigma must be a positive real, got {self.sigma}")
        object.__setattr__(self, "xi_grid", tuple(float(x) for x in self.xi_grid))
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "methods", tuple(str(m) for m in self.methods))
        if not self.xi_grid or any(not (0.0 < x < 1.0) for x in self.xi_grid):
            raise ConfigurationError("xi_grid entries must lie in (0, 1)")
        if not self.tau_grid or any(t <= 0.0 or not math.isfinite(t) for t in self.tau_grid):
            raise ConfigurationError("tau_grid entries must be positive reals")
        if int(self.replications) != self.replications or self.replications < 1:
            raise ConfigurationError(f"replications must be an integer >= 1, got {self.replications}")
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigurationError(
                    f"unknown method {m!r}; known methods: {', '.join(KNOWN_METHODS)}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigurationError("methods must not repeat")
        if int(self.master_seed) != self.master_seed or self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be a nonnegative integer, got {self.master_seed}")
        if self.universal_scale not in UNIVERSAL_SCALES:
            raise ConfigurationError(
                f"unknown universal_scale {self.universal_scale!r}; choose from {', '.join(UNIVERSAL_SCALES)}"
            )
        if int(self.jobs) != self.jobs or self.jobs < 1:
            raise ConfigurationError(f"jobs must be an integer >= 1, got {self.jobs}")


@dataclass(frozen=True)
class CellResult:
    amse: float
    std_err: float


@dataclass(frozen=True)
class RiskReport:
    """AMSE per (method, xi, tau) cell plus the config that produced it.

    ``em_nonconverged`` counts, per (xi, tau) cell, the EM fits that hit
    the iteration budget; their estimates are used as returned.
    ``flat_reflected_priors`` counts, per cell, the ``pois2`` estimates
    whose reflected Poisson prior was nearly flat (lam <= sqrt(n log n)).
    ``map_estimate`` warns once per such call; the benchmark silences that
    warning and counts the calls here instead.  Neither count is part of
    the CSV.
    """

    config: ExperimentConfig
    cells: dict[tuple[str, float, float], CellResult]
    em_nonconverged: dict[tuple[float, float], int] = field(default_factory=dict)
    flat_reflected_priors: dict[tuple[float, float], int] = field(default_factory=dict)

    def write_csv(self, fh) -> None:
        fh.write("method,xi,tau,amse,std_err,replications,seed\n")
        for method in self.config.methods:
            for xi in self.config.xi_grid:
                for tau in self.config.tau_grid:
                    cell = self.cells[(method, xi, tau)]
                    fh.write(
                        f"{method},{xi:.6g},{tau:.6g},{cell.amse:.6g},{cell.std_err:.6g},"
                        f"{self.config.replications},{self.config.master_seed}\n"
                    )


def _map_methods(methods: Sequence[str]) -> bool:
    return any(m in ("bin", "pois1", "pois2") for m in methods)


def _one_replication(
    config: ExperimentConfig, xi: float, tau: float, rng
) -> tuple[dict[str, float], bool, bool]:
    """Squared error per method on one draw, whether an EM fit ran
    without converging, and whether a nearly flat reflected Poisson prior
    was used."""
    n, sigma = config.n, config.sigma
    signal = rng.random(n) < xi
    mu = np.where(signal, tau * rng.standard_normal(n), 0.0)
    y = mu + sigma * rng.standard_normal(n)
    ranked = rank_sequence(y)

    nonconverged = False
    mad = None  # mad_sigma(y) once computed: init_heuristic's sigma0 under EM
    if config.use_em and _map_methods(config.methods):
        init = init_heuristic(y)
        mad = init[0]
        fit = em_fit(y, init=init)
        nonconverged = not fit.converged
        hyper = HyperParams(sigma=fit.sigma_hat, tau=fit.tau_hat)
        xi_hat = fit.xi_hat
    else:
        hyper = HyperParams(sigma=sigma, tau=tau)
        xi_hat = xi

    out: dict[str, float] = {}
    flat = False
    for method in config.methods:
        if method == "bin":
            est = map_estimate(ranked, hyper, BinomialPrior(xi_hat))
        elif method == "pois1":
            est = map_estimate(ranked, hyper, TruncatedPoissonPrior(n * xi_hat))
        elif method == "pois2":
            flat = _reflected_is_flat(n * xi_hat, n)
            est = map_estimate(ranked, hyper, ReflectedPoissonPrior(n * xi_hat))
        elif method == "universal":
            if config.universal_scale == "true":
                scale = sigma
            else:
                mad = mad_sigma(y) if mad is None else mad
                scale = 0.6745 * mad if config.universal_scale == "mad_raw" else mad
            est = fixed_threshold_estimate(ranked, universal_threshold(n, scale))
        elif method == "oracle":
            out[method] = oracle_risk(mu, sigma) / n
            continue
        else:  # pragma: no cover - guarded by config validation
            raise ConfigurationError(f"unknown method {method!r}")
        out[method] = float(np.sum((est.mu_hat - mu) ** 2)) / n
    return out, nonconverged, flat


def _run_cell(args) -> tuple[int, dict[str, np.ndarray], int, int]:
    config, cell_index, xi, tau = args
    reps = config.replications
    errors = {m: np.empty(reps) for m in config.methods}
    nonconverged = 0
    flat = 0
    with warnings.catch_warnings():
        # counted per cell in ``flat`` instead of warned per replication
        warnings.filterwarnings("ignore", message=re.escape(_FLAT_REFLECTED_WARNING))
        for rep in range(reps):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.master_seed, cell_index, rep])
            )
            values, missed, was_flat = _one_replication(config, xi, tau, rng)
            nonconverged += missed
            flat += was_flat
            for m, v in values.items():
                errors[m][rep] = v
    return cell_index, errors, nonconverged, flat


def monte_carlo_amse(config: ExperimentConfig) -> RiskReport:
    """Run the grid benchmark described by ``config``.

    Cells may be dispatched to worker processes (``config.jobs``); the
    per-replication streams and the fixed reduction order make the report
    identical either way.
    """
    grid = [
        (i_xi * len(config.tau_grid) + i_tau, xi, tau)
        for i_xi, xi in enumerate(config.xi_grid)
        for i_tau, tau in enumerate(config.tau_grid)
    ]
    jobs = min(config.jobs, len(grid))
    tasks = [(config, idx, xi, tau) for idx, xi, tau in grid]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            outputs = pool.map(_run_cell, tasks)
    else:
        outputs = list(map(_run_cell, tasks))
    results = {idx: rest for idx, *rest in outputs}

    cells: dict[tuple[str, float, float], CellResult] = {}
    nonconverged: dict[tuple[float, float], int] = {}
    flat: dict[tuple[float, float], int] = {}
    for idx, xi, tau in grid:
        errors, nonconverged[(xi, tau)], flat[(xi, tau)] = results[idx]
        for method in config.methods:
            e = errors[method]
            amse = float(np.mean(e))
            if config.replications > 1:
                std_err = float(np.std(e, ddof=1) / math.sqrt(config.replications))
            else:
                std_err = 0.0
            cells[(method, xi, tau)] = CellResult(amse=amse, std_err=std_err)
    return RiskReport(
        config=config, cells=cells, em_nonconverged=nonconverged, flat_reflected_priors=flat
    )


# --------------------------------------------------------------------------
# Rate check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCheckRow:
    n: int
    eta: float
    mc_risk: float
    rate: float
    ratio: float
    oracle_ratio: float


def rate_check(
    prior_for: Callable[[int], PriorSpec],
    ball_for: Callable[[int], BallSpec],
    n_grid: Sequence[int],
    reps: int,
    hyper_for: Callable[[int], HyperParams],
    sigma: float = 1.0,
    seed: int = 0,
) -> list[RateCheckRow]:
    """Monte Carlo risk at the least-favorable configuration over the rate.

    For each n the data are the boundary configuration plus noise; the MAP
    estimator runs with the given prior and hyperparameters, and the row
    records mean squared error over ``reps`` draws divided by the rate,
    alongside the same ratio for the ideal keep-or-kill risk.
    """
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    rows = []
    for n in n_grid:
        n = int(n)
        ball = ball_for(n)
        mu0 = least_favorable_mu(ball, n, sigma)
        rate = minimax_rate(ball, n, sigma)
        spec = prior_for(n)
        hyper = hyper_for(n)
        total = 0.0
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, n, rep]))
            y = mu0 + sigma * rng.standard_normal(n)
            est = map_estimate(y, hyper, spec)
            total += float(np.sum((est.mu_hat - mu0) ** 2))
        mc_risk = total / reps
        rows.append(
            RateCheckRow(
                n=n,
                eta=ball.eta,
                mc_risk=mc_risk,
                rate=rate,
                ratio=mc_risk / rate,
                oracle_ratio=oracle_risk(mu0, sigma) / rate,
            )
        )
    return rows
