"""Priors on the number of nonzero means, and parameter balls.

Everything is kept in log space.  A prior is described by a small spec
object; ``build_prior_table`` turns it into a normalized log-pmf over
k = 0..n model sizes, in closed form for each named prior:

    binomial(xi):       log C(n,k) + k log xi + (n-k) log(1-xi)
    truncated Poisson:  j log x - log j! - x - log Q(n+1, x), (x, j) = (lam, k)
    reflected Poisson:  the same with (x, j) = (n - lam, n - k)

with Q(n+1, x) = P(Poisson(x) <= n) from ``_log_poisson_cdf``.  Only a
custom prior needs a log-sum-exp.

Every reader takes the complexity c[k] = log C(n,k) - log pi_n(k) from
``_complexity``.  For the named priors pi_n(i-1)/pi_n(i) cancels C(n,k)
(Birge & Massart 2001), so with m = n - lam, c[0] and the steps
c[i] - c[i-1] of ``_unit_steps`` need no log-gamma table:

    binomial(xi):       c[0] = -n log(1-xi),             steps log((1-xi)/xi)
    truncated Poisson:  c[0] = lam + log Q(n+1, lam),     steps log((n-i+1)/lam)
    reflected Poisson:  c[0] = m + log Q(n+1, m) - n log m + log n!,  steps log(m/i)

Both Poisson steps strictly decrease in i, and their sums c[b] - c[a]
are log-gamma differences (``_complexity_gap``).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedBallError, check_between, check_integer

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
        check_between(self.xi, "binomial prior xi", 0.0, 1.0, ConfigurationError)


@dataclass(frozen=True)
class TruncatedPoissonPrior:
    """pi_n(k) proportional to lam^k / k! on k = 0..n.  Needs 0 < lam <= n."""

    lam: float

    def __post_init__(self):
        check_between(self.lam, "truncated Poisson prior lam", 0.0, math.inf, ConfigurationError)


@dataclass(frozen=True)
class ReflectedPoissonPrior:
    """pi_n(k) proportional to (n - lam)^(n-k) / (n-k)! on k = 0..n.

    The mass concentrates near k ~ lam only once lam is well above
    sqrt(n log n); below that the normalized pmf flattens out, which is
    worth a warning rather than an error.
    """

    lam: float

    def __post_init__(self):
        check_between(self.lam, "reflected Poisson prior lam", 0.0, math.inf, ConfigurationError)


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
    """Normalized log-pmf over model sizes k = 0..n, and the spec it came from."""

    n: int
    log_pmf: np.ndarray
    spec: PriorSpec = field(repr=False, compare=False)

    def __post_init__(self):
        if self.log_pmf.shape != (self.n + 1,):
            raise ConfigurationError(
                f"log_pmf must have length n+1 = {self.n + 1}, got {self.log_pmf.shape}"
            )

    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)


@dataclass(frozen=True)
class HyperParams:
    """Noise scale sigma and slab scale tau; gamma is the variance ratio.

    sigma^2, gamma and the penalty rate 2 sigma^2 (1 + 1/gamma) must be
    positive finite floats: scales that leave them out of range are
    rejected here rather than failing in the penalty arithmetic.
    """

    sigma: float
    tau: float

    def __post_init__(self):
        check_between(self.sigma, "sigma", 0.0, math.inf)
        check_between(self.tau, "tau", 0.0, math.inf)
        try:  # ** raises OverflowError where a square overflows
            usable = (
                self.sigma**2 > 0.0
                and 0.0 < self.gamma < math.inf
                and 2.0 * self.sigma**2 * (1.0 + 1.0 / self.gamma) < math.inf
            )
        except OverflowError:
            usable = False
        if not usable:
            raise DomainError(
                "sigma^2, gamma = tau^2 / sigma^2 and the penalty rate"
                " 2 sigma^2 (1 + 1/gamma) must be positive finite floats,"
                f" got sigma = {self.sigma}, tau = {self.tau}; rescale the data"
            )

    @property
    def gamma(self) -> float:
        return self.tau**2 / self.sigma**2


@dataclass(frozen=True)
class L0Ball:
    """At most eta*n nonzero coordinates."""

    eta: float

    def __post_init__(self):
        check_between(self.eta, "ball radius eta", 0.0, math.inf, ConfigurationError)


@dataclass(frozen=True)
class WeakLpBall:
    """Sorted magnitudes dominated by eta * (n/i)^(1/p)."""

    p: float
    eta: float

    def __post_init__(self):
        _check_p(self.p)
        check_between(self.eta, "ball radius eta", 0.0, math.inf, ConfigurationError)


@dataclass(frozen=True)
class StrongLpBall:
    """Mean p-th power of magnitudes at most eta^p."""

    p: float
    eta: float

    def __post_init__(self):
        _check_p(self.p)
        check_between(self.eta, "ball radius eta", 0.0, math.inf, ConfigurationError)


BallSpec = Union[L0Ball, WeakLpBall, StrongLpBall]


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
    n = check_integer(n, "n", 0)
    k = check_integer(k, "k", 0)
    if k > n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    m = min(k, n - k)
    if m <= 128:
        j = np.arange(m, dtype=float)
        return float(np.sum(np.log(n - j) - np.log(j + 1.0)))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(64)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! for an array of whole-number floats k >= 0: below 64 the log
    of the exact factorial, above it Stirling's series for log Gamma(k + 1)
    to the 1/(1680 x^7) term (truncation error below 1e-19)."""
    x = k + 1.0
    r = 1.0 / x
    r2 = r * r
    series = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))
    out = (x - 0.5) * np.log(x) - x + (_HALF_LOG_2PI + series)
    small = k < _SMALL_LOG_FACTORIALS.size
    out[small] = _SMALL_LOG_FACTORIALS[k[small].astype(np.intp)]
    return out


def _log_choose_all(n: int) -> np.ndarray:
    """log C(n, k) for every k = 0..n at once; exactly 0 at k = 0 and k = n."""
    lf = _log_factorial(np.arange(n + 1, dtype=float))
    return lf[-1] - lf - lf[::-1]


def _log_sum_exp(logs: np.ndarray) -> float:
    m = np.max(logs)
    if not np.isfinite(m):
        raise DomainError("cannot normalize: all log weights are -inf")
    return float(m + np.log(np.sum(np.exp(logs - m))))


def _log_poisson_cdf(n: int, x: float) -> float:
    """log P(Poisson(x) <= n) = log Q(n + 1, x) for 0 < x <= n: log1p(-T) for the
    tail T = sum_{k>n} e^-x x^k/k!, one cumulative product of the ratios x/(k+1)."""
    log_first = (n + 1) * math.log(x) - x - math.lgamma(n + 2.0)
    if log_first < -745.0:  # the tail is below the smallest subnormal
        return 0.0
    # past these ratios the terms are below 1e-17 of the first
    ratios = np.arange(n + 2.0, n + 42.0 + 9.0 * math.sqrt(n + 1.0))
    np.divide(x, ratios, out=ratios)
    np.multiply.accumulate(ratios, out=ratios)  # the terms over the first
    return math.log1p(-math.exp(log_first) * (1.0 + float(np.add.reduce(ratios))))


# --------------------------------------------------------------------------
# Prior tables
# --------------------------------------------------------------------------

def _reflected_is_flat(lam: float, n: int) -> bool:
    """Whether a reflected Poisson prior of rate ``lam`` on k = 0..n is too
    weak to locate the size (lam <= sqrt(n log n)); such priors warn."""
    return lam <= math.sqrt(n * math.log(n))


def _check_prior_size(spec: PriorSpec, n: int) -> int:
    """Validate ``spec`` for sequences of length ``n``; returns n as an int.

    Raises for a spec that does not fit n, and warns when a reflected
    Poisson prior is too weak to locate the size (lam <= sqrt(n log n)).
    """
    n = check_integer(n, "n", 0)
    if isinstance(spec, TruncatedPoissonPrior):
        if spec.lam > n:
            raise ConfigurationError(f"truncated Poisson prior needs lam <= n = {n}, got {spec.lam}")
    elif isinstance(spec, ReflectedPoissonPrior):
        if spec.lam >= n:
            raise ConfigurationError(f"reflected Poisson prior needs lam < n = {n}, got {spec.lam}")
        if _reflected_is_flat(spec.lam, n):
            warnings.warn("reflected Poisson prior with lam <= sqrt(n log n): the pmf is nearly flat"
                          " and the prior loses its locating effect", stacklevel=3)
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
    if isinstance(spec, CustomLogWeightsPrior):
        return PriorTable(n=n, log_pmf=spec.log_weights - _log_sum_exp(spec.log_weights), spec=spec)
    k = np.arange(n + 1, dtype=float)
    if isinstance(spec, BinomialPrior):
        log_pmf = _log_choose_all(n) + k * math.log(spec.xi) + (n - k) * math.log1p(-spec.xi)
    else:  # a Poisson(x) pmf at j, restricted to j <= n
        x, j = (spec.lam, k) if isinstance(spec, TruncatedPoissonPrior) else (n - spec.lam, n - k)
        log_pmf = j * math.log(x) - _log_factorial(j) - (x + _log_poisson_cdf(n, x))
    return PriorTable(n=n, log_pmf=log_pmf, spec=spec)


def _unit_steps(spec: PriorSpec, n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """c[0], then the steps c[i] - c[i-1] of the complexity, at the indices
    start <= i < stop (default n + 1, and start < stop) for a spec checked
    against n.  A slice equals the same entries of the whole vector to the
    bit; a custom prior builds the whole vector and slices it."""
    stop = n + 1 if stop is None else stop
    if isinstance(spec, CustomLogWeightsPrior):
        log_pmf = build_prior_table(spec, n).log_pmf
        steps = np.empty(n + 1)
        steps[0] = -log_pmf[0]
        i = np.arange(1, n + 1, dtype=float)
        steps[1:] = np.log((n - i + 1.0) / i) + log_pmf[:-1] - log_pmf[1:]
        return steps[start:stop]
    if isinstance(spec, BinomialPrior):
        steps = np.full(stop - start, math.log1p(-spec.xi) - math.log(spec.xi))
        if start == 0:
            steps[0] = -n * math.log1p(-spec.xi)
        return steps
    if isinstance(spec, TruncatedPoissonPrior):
        steps = np.arange(n + 1 - start, n + 1 - stop, -1, dtype=float)  # n - i + 1, then in place
        body = steps[1:] if start == 0 else steps
        body /= spec.lam
    else:  # ReflectedPoissonPrior
        steps = np.arange(start, stop, dtype=float)  # i, then in place
        body = steps[1:] if start == 0 else steps
        np.divide(n - spec.lam, body, out=body)
    np.log(body, out=body)
    if start == 0:
        steps[0] = _poisson_c0(spec, n)
    return steps


def _poisson_c0(spec: PriorSpec, n: int) -> float:
    """c[0] of a Poisson prior checked against n (module docstring)."""
    if isinstance(spec, TruncatedPoissonPrior):
        return spec.lam + _log_poisson_cdf(n, spec.lam)
    m = n - spec.lam
    return m + _log_poisson_cdf(n, m) - n * math.log(m) + math.lgamma(n + 1.0)


def _complexity_gap(spec: PriorSpec, n: int, a: int, b: int) -> float:
    """c[b] - c[a] for 0 <= a <= b <= n under a Poisson prior checked
    against n, in closed form, with m = n - lam:

        truncated Poisson:  lgamma(n - a + 1) - lgamma(n - b + 1) - (b - a) log lam
        reflected Poisson:  (b - a) log m - lgamma(b + 1) + lgamma(a + 1)

    Each log-gamma term is at most (n + 1) log(n + 1) + 1 in size and is
    rounded by at most 8 ulp of that (CPython's ``math.lgamma``), and the
    coefficient of b - a is the step at one end (the last truncated step
    is -log lam, the first reflected one log m).  Under both priors the
    steps fall by log n in all, from c[1] - c[0] to c[n] - c[n-1].
    """
    if isinstance(spec, TruncatedPoissonPrior):
        return math.lgamma(n - a + 1.0) - math.lgamma(n - b + 1.0) - (b - a) * math.log(spec.lam)
    return (b - a) * math.log(n - spec.lam) - math.lgamma(b + 1.0) + math.lgamma(a + 1.0)


def _complexity(table: PriorTable) -> np.ndarray:
    """c[k] for k = 0..n: the truncated Poisson steps summed, free of the small-k rounding
    of log n! in ``_log_choose_all``; else the table, as a binomial closed form breaks the
    tight decay bound at xi = exp(-c(gamma)) and a reflected sum carries c[0]'s rounding."""
    if isinstance(table.spec, TruncatedPoissonPrior):
        return np.cumsum(_unit_steps(table.spec, table.n))
    return _log_choose_all(table.n) - table.log_pmf


def check_assumption_a(table: PriorTable, gamma: float) -> AssumptionReport:
    """Check pi_n(k) <= C(n,k) * exp(-c(gamma) k) size by size.

    c(gamma) = 8 (gamma + 3/4)^2.  The margin at k is the log of the bound
    minus the log prior mass; the bound holds iff every margin is >= 0.
    Raises DomainError unless 0 < gamma < sqrt(float max / 8), where
    c(gamma) is finite.
    """
    check_between(gamma, "gamma", 0.0, math.sqrt(sys.float_info.max / 8.0))
    c_gamma = 8.0 * (gamma + 0.75) ** 2
    k = np.arange(table.n + 1, dtype=float)
    with np.errstate(over="ignore"):  # a product c(gamma) k that overflows is the -inf margin
        margin = _complexity(table) - c_gamma * k
    return AssumptionReport(c_gamma=c_gamma, per_k_margin=margin, holds=bool(np.all(margin >= 0.0)))


def complexity_weights(table: PriorTable) -> tuple[np.ndarray, float]:
    """Per-size complexity weights and their maximum.

    L[0] = 2 c[0] = 2 log(1/pi_n(0)) and L[k] = c[k] / k for k >= 1; the
    running maximum L* calibrates risk bounds.
    """
    c = _complexity(table)
    weights = np.empty(table.n + 1)
    weights[0] = 2.0 * c[0]
    weights[1:] = c[1:] / np.arange(1, table.n + 1, dtype=float)
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
    k = int(rng.choice(n + 1, p=pmf / pmf.sum()))  # a table sums to 1 up to rounding
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
    reps = check_integer(reps, "reps", 1)
    pmf = build_prior_table(spec, n).pmf()
    rng = np.random.default_rng(seed)
    hits = sum(ball_contains(ball, _draw_mu(rng, pmf, hyper.tau)) for _ in range(reps))
    p_hat = hits / reps
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / reps)
    return p_hat, std_err
