"""Risk references, minimax rates, and the Monte Carlo benchmark.

The benchmark draws sparse normal-means data cell by cell over a grid of
sparsity levels and signal scales, fits hyperparameters by EM when asked,
runs each configured method on the same draws, and reports per-coordinate
average squared errors.  Replication streams are keyed by
(master seed, cell index, replication), so results do not depend on
execution order or worker count.

A cell's replications are stacked into matrices ``mu`` and ``y`` with one
row per replication, and every method scores all rows with row-wise
NumPy calls: the binomial prior and the universal rule are threshold
compares on the whole matrix, and the robust scale takes one partition
per median.  The Poisson priors go through the estimator's selection
core, ``estimator._keep_scanned``: one value sort of every row's squares
and one tail sum, added to each prior's penalties; each prior then keeps
the squares at or above its k_hat-th largest, and only a row whose tie
straddles that cut is ranked.  The threshold compares and the oracle do
the same arithmetic per row as ``map_estimate``,
``fixed_threshold_estimate`` and ``oracle_risk``.  The Poisson paths
differ only in where their tail sums start: a block scans every row over
all sizes from 0, where ``map_estimate`` scans its certified candidates
from the sum of the squares left out.  Both give the same errors to the
bit on the tested inputs.  Rows are taken
in blocks of at most ``BLOCK_VALUES`` values, one row at a time once n
exceeds it, so memory stays bounded for any n.  Each block is fitted,
then scored.  Under EM a block's rows are fitted by one ``em_fit_rows`` call;
without EM every row shares the cell's hyperparameters, so each prior's
penalties are built once per cell.  Scoring receives those fits and
fits nothing itself: the universal rule takes the robust scale of the
block's rows, EM on or off.  Under EM those scales are taken once per
block and also give every row's EM starting point, and the block's
squares that the starts sum are the ones scoring reads.
"""

from __future__ import annotations

import math
import multiprocessing
import re
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .baselines import _mad_scale, universal_threshold
from .em import _start, em_fit_rows
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    UnsupportedBallError,
    check_between,
    check_integer,
)
from .estimator import _binomial_cut, _keep_scanned, map_estimate, penalty_increments
from .priors import (
    BallSpec,
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
    check_between(sigma, "sigma", 0.0, math.inf)
    return float(np.sum(np.minimum(mu**2, sigma**2)))


def minimax_rate(ball: BallSpec, n: int, sigma: float) -> float:
    """Leading-order minimax risk over the given ball.

    The weak-ball rate switches from the sparse expression to the
    super-sparse one when n^(1/p) * eta >= sqrt(2 log n); the strong-ball
    rate is the same without the 2/(2-p) factor.
    """
    n = check_integer(n, "n", 2)
    check_between(sigma, "sigma", 0.0, math.inf)
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
    n = check_integer(n, "n", 1)
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
        for name, minimum in (("n", 10), ("replications", 1), ("master_seed", 0), ("jobs", 1)):
            whole = check_integer(getattr(self, name), name, minimum, ConfigurationError)
            object.__setattr__(self, name, whole)
        check_between(self.sigma, "sigma", 0.0, math.inf, ConfigurationError)
        for name, high in (("xi_grid", 1.0), ("tau_grid", math.inf)):
            grid = tuple(
                float(check_between(v, f"{name} entries", 0.0, high, ConfigurationError))
                for v in _entries(getattr(self, name), name)
            )
            if not grid:
                raise ConfigurationError(f"{name} must be non-empty")
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "methods", tuple(str(m) for m in _entries(self.methods, "methods")))
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigurationError(
                    f"unknown method {m!r}; known methods: {', '.join(KNOWN_METHODS)}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigurationError("methods must not repeat")
        if not isinstance(self.use_em, bool):
            raise ConfigurationError(f"use_em must be True or False, got {self.use_em!r}")
        if self.universal_scale not in UNIVERSAL_SCALES:
            raise ConfigurationError(
                f"unknown universal_scale {self.universal_scale!r}; choose from {', '.join(UNIVERSAL_SCALES)}"
            )


def _entries(value, name: str) -> tuple:
    """``value`` as a tuple; ConfigurationError if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:  # None, numbers
        raise ConfigurationError(f"{name} must be a sequence, got {value!r}") from None


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


# The MAP methods that scan, by the prior they put on n * xi.
_SCANNED_PRIORS = {"pois1": TruncatedPoissonPrior, "pois2": ReflectedPoissonPrior}

# Most values in one block of a cell's replication matrix: its rows are
# BLOCK_VALUES // n replications, or one when n is larger.
BLOCK_VALUES = 2**17


def _draw_block(
    config: ExperimentConfig, cell_index: int, xi: float, tau: float, reps: range
) -> tuple[np.ndarray, np.ndarray]:
    """(mu, y), one row per replication in ``reps``, each drawn from its
    own (master seed, cell, replication) stream."""
    n, sigma = config.n, config.sigma
    mu = np.empty((len(reps), n))
    y = np.empty_like(mu)
    with np.errstate(over="ignore"):  # an infinite draw is refused below
        for row, rep in enumerate(reps):
            rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, cell_index, rep]))
            signal = rng.random(n) < xi
            mu[row] = np.where(signal, tau * rng.standard_normal(n), 0.0)
            y[row] = mu[row] + sigma * rng.standard_normal(n)
    # below it each squared error term, mu^2 or (y - mu)^2, is at most float max / (2 n)
    limit = math.sqrt(sys.float_info.max / (8.0 * n))
    largest = max(float(np.abs(mu).max()), float(np.abs(y).max()))
    if not largest <= limit:
        raise DomainError(
            f"draws of magnitude up to {limit:.3g} are supported for n = {n}, got {largest:.3g}:"
            " larger ones overflow the squared errors; lower sigma or the tau_grid entries"
        )
    return mu, y


@dataclass(frozen=True)
class _Fits:
    """What scoring reads of the MAP methods' hyperparameters: one set per
    row under EM, one set shared by every row without it."""

    cuts: np.ndarray | None  # binomial cuts as a column, one row per set; None without "bin"
    # cumulative penalties, one row per set, stacked per scanned prior in
    # the order of config.methods; None without one
    penalties: np.ndarray | None
    flat: tuple[bool, ...]  # per set, with "pois2": whether its reflected Poisson prior is nearly flat

    @classmethod
    def of(cls, config: ExperimentConfig, hypers: list[tuple[HyperParams, float]]) -> _Fits:
        n = config.n
        cuts = np.array([[_binomial_cut(xi, h)] for h, xi in hypers]) if "bin" in config.methods else None
        increments, flat = [], ()
        for method in config.methods:
            if method in _SCANNED_PRIORS:
                specs = [_SCANNED_PRIORS[method](n * xi) for _, xi in hypers]
                if method == "pois2":
                    flat = tuple(_reflected_is_flat(spec.lam, n) for spec in specs)
                increments.append([penalty_increments(spec, n, h) for spec, (h, _) in zip(specs, hypers)])
        return cls(cuts, np.cumsum(increments, axis=-1) if increments else None, flat)


def _score_block(
    config: ExperimentConfig,
    fits: _Fits,
    mad: np.ndarray | None,
    y_sq: np.ndarray | None,
    mu: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Squared error per method, in the order of ``config.methods``, and
    row of a block, given the MAP methods' hyperparameters for every row
    and, when already taken, the rows' robust scales ``mad`` and the
    squares ``y_sq = y * y``.

    A method's error sums (y - mu)^2 where it keeps and mu^2, which is
    (0 - mu)^2 to the bit, elsewhere; both are formed once per block.
    """
    n = y.shape[1]
    if y_sq is None:
        y_sq = y * y
    scanned = [m for m in config.methods if m in _SCANNED_PRIORS]
    scanned_keep = _keep_scanned(y, y_sq, fits.penalties)[0] if scanned else None
    sq_err, mu_sq = np.square(y - mu), np.square(mu)
    errors = np.empty((len(config.methods), y.shape[0]))
    for i, method in enumerate(config.methods):
        if method == "oracle":
            errors[i] = np.sum(np.minimum(mu_sq, config.sigma**2), axis=-1)
            continue
        if method == "universal":
            if config.universal_scale == "true":
                lam = universal_threshold(n, config.sigma)
            else:
                if mad is None:
                    mad = _mad_scale(y)
                scale = 0.6745 * mad if config.universal_scale == "mad_raw" else mad
                # universal_threshold(n, s) is s times the unit cutoff, to the bit
                lam = scale[:, None] * universal_threshold(n, 1.0)
            keep = np.abs(y) >= lam
        elif method == "bin":
            keep = y_sq > fits.cuts
        else:
            keep = scanned_keep[scanned.index(method)]
        errors[i] = np.sum(np.where(keep, sq_err, mu_sq), axis=-1)
    return errors / n


def _run_cell(args) -> tuple[int, dict[str, np.ndarray], int, int]:
    """Errors per method and replication of one cell, the number of EM fits
    that ran without converging, and the number of replications whose
    reflected Poisson prior was nearly flat."""
    config, cell_index, xi, tau = args
    reps = config.replications
    errors = np.empty((len(config.methods), reps))
    nonconverged = flat = 0
    step = max(1, BLOCK_VALUES // config.n)
    fitting = config.use_em and any(m in ("bin", *_SCANNED_PRIORS) for m in config.methods)
    with warnings.catch_warnings():
        # counted per cell in ``flat`` instead of warned per prior
        warnings.filterwarnings("ignore", message=re.escape(_FLAT_REFLECTED_WARNING))
        if not fitting:
            fits = _Fits.of(config, [(HyperParams(sigma=config.sigma, tau=tau), xi)])
            flat = reps * sum(fits.flat)
        for start in range(0, reps, step):
            block = range(start, min(start + step, reps))
            mu, y = _draw_block(config, cell_index, xi, tau, block)
            scale = y_sq = None
            if fitting:
                try:
                    scale = _mad_scale(y)
                except (DegenerateDataError, DomainError):
                    # without a scale for every row, the first bad row raises as it would alone
                    inits = None
                else:
                    # the block's squares, summed for the starts, are scored below
                    inits, y_sq = _start(y, scale)
                row_fits = em_fit_rows(y, y_sq, inits)
                nonconverged += sum(not fit.converged for fit in row_fits)
                fits = _Fits.of(config, [(HyperParams(f.sigma_hat, f.tau_hat), f.xi_hat) for f in row_fits])
                flat += sum(fits.flat)
            errors[:, block.start : block.stop] = _score_block(config, fits, scale, y_sq, mu, y)
    return cell_index, dict(zip(config.methods, errors)), nonconverged, flat


def _mean_and_std_err(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.mean(e)`` and ``np.std(e, ddof=1) / sqrt(size)`` (0 for one
    value) along the last axis of finite errors >= 0, taken on e / s for
    the power of two s = 2^floor(log2 max e) of each row and scaled back:
    no sum or square overflows, and scaling by a power of two is exact."""
    s = np.ldexp(1.0, np.frexp(e.max(axis=-1))[1] - 1)
    e = e / s[..., None]
    size = e.shape[-1]
    std_err = np.std(e, axis=-1, ddof=1) * s / math.sqrt(size) if size > 1 else np.zeros_like(s)
    return np.mean(e, axis=-1) * s, std_err


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
        amse, std_err = _mean_and_std_err(np.array([errors[m] for m in config.methods]))
        for method, a, s in zip(config.methods, amse.tolist(), std_err.tolist()):
            cells[(method, xi, tau)] = CellResult(a, s)
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
    reps = check_integer(reps, "reps", 1)
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
