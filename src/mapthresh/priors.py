"""Priors on the number of nonzero means, and parameter balls.

Everything is kept in log space.  A prior is described by a small spec
object; ``build_prior_table`` turns it into a normalized log-pmf over
k = 0..n model sizes.  Binomial coefficients go through the log-gamma
function so tables stay finite up to n of a million or so.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError, DomainError, UnsupportedBallError

__all__ = [
    "BinomialPrior",
    "TruncatedPoissonPrior",
    "ReflectedPoissonPrior",
    "CustomLogWeightsPrior",
    "PriorSpec",
    "PriorTable",
    "HyperParams",
    "L0Ball",
    "WeakLpBall",
    "StrongLpBall",
    "BallSpec",
    "AssumptionReport",
    "log_choose",
    "build_prior_table",
    "check_assumption_a",
    "complexity_weights",
    "sample_mu",
    "ball_contains",
    "prior_ball_mass",
]


# --------------------------------------------------------------------------
# Spec types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BinomialPrior:
    """Model size k ~ Binomial(n, xi)."""

    xi: float

    def __post_init__(self):
        if not (0.0 < self.xi < 1.0) or not math.isfinite(self.xi):
            raise ConfigurationError(f"binomial prior needs 0 < xi < 1, got {self.xi}")


@dataclass(frozen=True)
class TruncatedPoissonPrior:
    """pi_n(k) proportional to lam^k / k! on k = 0..n.  Needs 0 < lam <= n."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0.0 or not math.isfinite(self.lam):
            raise ConfigurationError(f"truncated Poisson prior needs lam > 0, got {self.lam}")


@dataclass(frozen=True)
class ReflectedPoissonPrior:
    """pi_n(k) proportional to (n - lam)^(n-k) / (n-k)! on k = 0..n.

    The mass concentrates near k ~ lam only once lam is well above
    sqrt(n log n); below that the normalized pmf flattens out, which is
    worth a warning rather than an error.
    """

    lam: float

    def __post_init__(self):
        if self.lam <= 0.0 or not math.isfinite(self.lam):
            raise ConfigurationError(f"reflected Poisson prior needs lam > 0, got {self.lam}")


@dataclass(frozen=True)
class CustomLogWeightsPrior:
    """Unnormalized log weights over k = 0..n, one per model size."""

    log_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.log_weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ConfigurationError("custom prior needs a 1-D vector of n+1 log weights")
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("custom prior log weights must all be finite")
        object.__setattr__(self, "log_weights", w)


PriorSpec = Union[
    BinomialPrior, TruncatedPoissonPrior, ReflectedPoissonPrior, CustomLogWeightsPrior
]


@dataclass(frozen=True)
class PriorTable:
    """Normalized log-pmf over model sizes k = 0..n."""

    n: int
    log_pmf: np.ndarray

    def __post_init__(self):
        if self.log_pmf.shape != (self.n + 1,):
            raise ConfigurationError(
                f"log_pmf must have length n+1 = {self.n + 1}, got {self.log_pmf.shape}"
            )

    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)


@dataclass(frozen=True)
class HyperParams:
    """Noise scale sigma and slab scale tau; gamma is the variance ratio."""

    sigma: float
    tau: float

    def __post_init__(self):
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be a positive real, got {self.sigma}")
        if self.tau <= 0.0 or not math.isfinite(self.tau):
            raise DomainError(f"tau must be a positive real, got {self.tau}")

    @property
    def gamma(self) -> float:
        return self.tau**2 / self.sigma**2


@dataclass(frozen=True)
class L0Ball:
    """At most eta*n nonzero coordinates."""

    eta: float

    def __post_init__(self):
        _check_eta(self.eta)


@dataclass(frozen=True)
class WeakLpBall:
    """Sorted magnitudes dominated by eta * (n/i)^(1/p)."""

    p: float
    eta: float

    def __post_init__(self):
        _check_p(self.p)
        _check_eta(self.eta)


@dataclass(frozen=True)
class StrongLpBall:
    """Mean p-th power of magnitudes at most eta^p."""

    p: float
    eta: float

    def __post_init__(self):
        _check_p(self.p)
        _check_eta(self.eta)


BallSpec = Union[L0Ball, WeakLpBall, StrongLpBall]


def _check_eta(eta: float) -> None:
    if eta <= 0.0 or not math.isfinite(eta):
        raise ConfigurationError(f"ball radius eta must be a positive real, got {eta}")


def _check_p(p: float) -> None:
    if not (0.0 < p < 2.0):
        raise ConfigurationError(f"ball exponent p must satisfy 0 < p < 2, got {p}")


@dataclass(frozen=True)
class AssumptionReport:
    """Per-size margin of the exponential-decay bound on the prior."""

    c_gamma: float
    per_k_margin: np.ndarray = field(repr=False)
    holds: bool

    def first_failing_k(self) -> int | None:
        bad = np.nonzero(self.per_k_margin < 0.0)[0]
        return int(bad[0]) if bad.size else None


# --------------------------------------------------------------------------
# Log-space combinatorics
# --------------------------------------------------------------------------

def log_choose(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k).

    Small k (or n-k) is summed directly so the result keeps ~1e-12 relative
    accuracy even when the log-gamma terms are of order 1e7.
    """
    if int(n) != n or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    k = int(k)
    if k < 0 or k > n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    m = min(k, n - k)
    if m <= 128:
        j = np.arange(m, dtype=float)
        return float(np.sum(np.log(n - j) - np.log(j + 1.0)))
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def _log_choose_all(n: int) -> np.ndarray:
    """log C(n, k) for every k = 0..n at once."""
    k = np.arange(n + 1, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _log_sum_exp(logs: np.ndarray) -> float:
    m = np.max(logs)
    if not np.isfinite(m):
        raise DomainError("cannot normalize: all log weights are -inf")
    return float(m + np.log(np.sum(np.exp(logs - m))))


# --------------------------------------------------------------------------
# Prior tables
# --------------------------------------------------------------------------

_FLAT_REFLECTED_WARNING = (
    "reflected Poisson prior with lam <= sqrt(n log n):"
    " the pmf is nearly flat and the prior loses its locating effect"
)


def _reflected_is_flat(lam: float, n: int) -> bool:
    """Whether a reflected Poisson prior of rate ``lam`` on k = 0..n is too
    weak to locate the size (lam <= sqrt(n log n)); such priors warn."""
    return lam <= math.sqrt(n * math.log(n))


def _check_prior_size(spec: PriorSpec, n: int) -> int:
    """Validate ``spec`` for sequences of length ``n``; returns n as an int.

    Raises for a spec that does not fit n, and warns when a reflected
    Poisson prior is too weak to locate the size (lam <= sqrt(n log n)).
    """
    if int(n) != n or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    if isinstance(spec, TruncatedPoissonPrior):
        if spec.lam > n:
            raise ConfigurationError(f"truncated Poisson prior needs lam <= n = {n}, got {spec.lam}")
    elif isinstance(spec, ReflectedPoissonPrior):
        if spec.lam >= n:
            raise ConfigurationError(f"reflected Poisson prior needs lam < n = {n}, got {spec.lam}")
        if _reflected_is_flat(spec.lam, n):
            warnings.warn(_FLAT_REFLECTED_WARNING, stacklevel=3)
    elif isinstance(spec, CustomLogWeightsPrior):
        if spec.log_weights.size != n + 1:
            raise ConfigurationError(
                f"custom prior needs n+1 = {n + 1} log weights, got {spec.log_weights.size}"
            )
    elif not isinstance(spec, BinomialPrior):
        raise ConfigurationError(f"unknown prior spec {type(spec).__name__}")
    return n


def build_prior_table(spec: PriorSpec, n: int) -> PriorTable:
    """Normalized log-pmf over k = 0..n for the given prior spec.

    n = 0 is legal and gives the point mass at the empty model.
    """
    n = _check_prior_size(spec, n)
    if isinstance(spec, BinomialPrior):
        k = np.arange(n + 1, dtype=float)
        logs = _log_choose_all(n) + k * math.log(spec.xi) + (n - k) * math.log1p(-spec.xi)
    elif isinstance(spec, TruncatedPoissonPrior):
        k = np.arange(n + 1, dtype=float)
        logs = k * math.log(spec.lam) - gammaln(k + 1.0)
    elif isinstance(spec, ReflectedPoissonPrior):
        j = n - np.arange(n + 1, dtype=float)  # j = n - k
        logs = j * math.log(n - spec.lam) - gammaln(j + 1.0)
    else:
        logs = spec.log_weights.astype(float, copy=True)
    log_pmf = logs - _log_sum_exp(logs)
    return PriorTable(n=n, log_pmf=log_pmf)


def check_assumption_a(table: PriorTable, gamma: float) -> AssumptionReport:
    """Check pi_n(k) <= C(n,k) * exp(-c(gamma) k) size by size.

    c(gamma) = 8 (gamma + 3/4)^2.  The margin at k is the log of the bound
    minus the log prior mass; the bound holds iff every margin is >= 0.
    """
    if gamma <= 0.0 or not math.isfinite(gamma):
        raise DomainError(f"gamma must be a positive real, got {gamma}")
    c_gamma = 8.0 * (gamma + 0.75) ** 2
    k = np.arange(table.n + 1, dtype=float)
    margin = _log_choose_all(table.n) - c_gamma * k - table.log_pmf
    return AssumptionReport(c_gamma=c_gamma, per_k_margin=margin, holds=bool(np.all(margin >= 0.0)))


def complexity_weights(table: PriorTable) -> tuple[np.ndarray, float]:
    """Per-size complexity weights and their maximum.

    L[0] = 2 log(1/pi_n(0)) and L[k] = (log C(n,k) - log pi_n(k)) / k for
    k >= 1; the running maximum L* calibrates risk bounds.
    """
    n = table.n
    weights = np.empty(n + 1)
    weights[0] = -2.0 * table.log_pmf[0]
    k = np.arange(1, n + 1, dtype=float)
    weights[1:] = (_log_choose_all(n)[1:] - table.log_pmf[1:]) / k
    return weights, float(np.max(weights))


# --------------------------------------------------------------------------
# Sampling and parameter balls
# --------------------------------------------------------------------------

def sample_mu(spec: PriorSpec, n: int, hyper: HyperParams, seed=None) -> np.ndarray:
    """Draw a mean vector: size k from the prior, support uniform given k,
    nonzero values N(0, tau^2)."""
    pmf = build_prior_table(spec, n).pmf()
    return _draw_mu(np.random.default_rng(seed), pmf, hyper.tau)


def _draw_mu(rng: np.random.Generator, pmf: np.ndarray, tau: float) -> np.ndarray:
    """One ``sample_mu`` draw from ``rng``, with size pmf over k = 0..n."""
    n = pmf.size - 1
    k = int(rng.choice(n + 1, p=pmf))
    mu = np.zeros(n)
    if k > 0:
        support = rng.choice(n, size=k, replace=False)
        mu[support] = tau * rng.standard_normal(k)
    return mu


def ball_contains(ball: BallSpec, mu: np.ndarray) -> bool:
    """Membership test for a parameter ball (non-strict inequalities)."""
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    if n == 0:
        raise DomainError("mu must be non-empty")
    if isinstance(ball, L0Ball):
        return int(np.count_nonzero(mu)) <= ball.eta * n
    if isinstance(ball, WeakLpBall):
        mags = np.sort(np.abs(mu))[::-1]
        i = np.arange(1, n + 1, dtype=float)
        return bool(np.all(mags <= ball.eta * (n / i) ** (1.0 / ball.p)))
    if isinstance(ball, StrongLpBall):
        return float(np.mean(np.abs(mu) ** ball.p)) <= ball.eta**ball.p
    raise UnsupportedBallError(f"unknown ball spec {type(ball).__name__}")


def prior_ball_mass(
    spec: PriorSpec, n: int, hyper: HyperParams, ball: BallSpec, reps: int = 1000, seed=None
) -> tuple[float, float]:
    """Monte Carlo estimate of the prior mass of a parameter ball.

    Returns (estimate, standard error).
    """
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    pmf = build_prior_table(spec, n).pmf()
    rng = np.random.default_rng(seed)
    hits = sum(ball_contains(ball, _draw_mu(rng, pmf, hyper.tau)) for _ in range(reps))
    p_hat = hits / reps
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / reps)
    return p_hat, std_err
