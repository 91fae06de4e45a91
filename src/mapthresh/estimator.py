"""MAP model-size selection and the induced hard-threshold estimator.

The posterior over support configurations collapses onto n+1 candidates
(keep the k largest magnitudes), so the estimate comes from a single scan
of a penalized residual criterion over the sequence ranked by magnitude.
``rank_sequence`` ranks once; every rule here and in ``baselines`` can
take that ranked view, so one ranking serves all methods run on a
sequence.

Penalty identity used throughout, with r = 2 sigma^2 (1 + 1/gamma) and
h = (1/2) log(1 + gamma):

    P[k]   = r * (log C(n,k) - log pi_n(k) + k h)
    inc[0] = r * log(1/pi_n(0))
    inc[i] = r * (log((n-i+1)/i) + log(pi_n(i-1)/pi_n(i)) + h)

and P[k] telescopes as the cumulative sum of the increments.  For the
named priors the ratio pi_n(i-1)/pi_n(i) cancels the binomial
coefficient, so ``penalty_increments`` needs no log-gamma table
(Birge & Massart 2001); Q(a, x) is the regularized upper incomplete
gamma function, so that sum_{k<=n} x^k/k! = e^x Q(n+1, x):

    binomial(xi):         inc[i] = r (log((1-xi)/xi) + h)
                          inc[0] = -r n log(1-xi)
    truncated Poisson:    inc[i] = r (log((n-i+1)/lam) + h)
                          inc[0] = r (lam + log Q(n+1, lam))
    reflected Poisson,    inc[i] = r (log(m/i) + h)
    with m = n - lam:     inc[0] = r (m + log Q(n+1, m) - n log m + log n!)

A custom prior takes the differences of its normalized log weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaln

from ._kernels import penalized_scan
from .errors import DomainError, SizeError
from .priors import (
    BinomialPrior,
    CustomLogWeightsPrior,
    HyperParams,
    PriorSpec,
    PriorTable,
    TruncatedPoissonPrior,
    _check_prior_size,
    _log_choose_all,
    build_prior_table,
    log_choose,
)

__all__ = [
    "GaussianSequence",
    "RankedSequence",
    "PenaltyTable",
    "Configuration",
    "EstimateResult",
    "bayes_factor",
    "rank_sequence",
    "penalty_increments",
    "penalty_table",
    "select_k",
    "map_estimate",
    "posterior_log_score",
    "brute_force_map",
]


@dataclass(frozen=True)
class GaussianSequence:
    """Observed sequence y; sigma may be None when it is to be estimated."""

    y: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise DomainError("y must be a non-empty 1-D vector")
        if not np.all(np.isfinite(y)):
            raise DomainError("y must be finite")
        if self.sigma is not None and self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive when given, got {self.sigma}")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class PenaltyTable:
    """Per-size penalties P[0..n] and their increments."""

    penalty: np.ndarray = field(repr=False)
    increments: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.penalty.size - 1


@dataclass(frozen=True)
class Configuration:
    """A support configuration as a boolean mask."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=bool)
        if x.ndim != 1 or x.size < 1:
            raise DomainError("x must be a non-empty 1-D boolean vector")
        object.__setattr__(self, "x", x)

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.x))


@dataclass(frozen=True)
class EstimateResult:
    """Selected size, realized threshold, kept indices, estimate, and the
    scanned objective (length n+1)."""

    k_hat: int
    threshold: float
    kept: np.ndarray
    mu_hat: np.ndarray
    objective: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RankedSequence:
    """A validated sequence ranked once by magnitude.

    ``order`` is the stable argsort of -|y| (ties keep input order) and
    ``sorted_sq`` holds the squares in that order.  Construct from raw
    data or a ``GaussianSequence``; the estimators accept the result in
    place of raw data and then skip their own ranking.
    """

    y: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    sorted_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        y = self.y.y if isinstance(self.y, GaussianSequence) else GaussianSequence(self.y).y
        order = np.argsort(-np.abs(y), kind="stable")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "sorted_sq", np.abs(y[order]) ** 2)

    def keep_largest(self, k_hat: int, objective: np.ndarray) -> EstimateResult:
        """Estimate keeping the k_hat largest magnitudes as they are.

        The realized threshold is the smallest kept magnitude, +inf when
        nothing is kept.
        """
        y = self.y
        kept = self.order[:k_hat].copy()
        mu_hat = np.zeros(y.size)
        mu_hat[kept] = y[kept]
        threshold = float(np.abs(y[kept[-1]])) if k_hat > 0 else math.inf
        return EstimateResult(
            k_hat=k_hat, threshold=threshold, kept=kept, mu_hat=mu_hat, objective=objective
        )


def rank_sequence(data: RankedSequence | GaussianSequence | np.ndarray) -> RankedSequence:
    """The ranked view of ``data``; a view passed in is returned as is."""
    return data if isinstance(data, RankedSequence) else RankedSequence(data)


def bayes_factor(y_i: float, hyper: HyperParams) -> float:
    """Single-coordinate null-vs-slab Bayes factor.

    sqrt(1 + gamma) * exp(-y^2 / (2 sigma^2 (1 + 1/gamma))); small values
    favor keeping the coordinate.
    """
    if not math.isfinite(y_i):
        raise DomainError(f"y_i must be finite, got {y_i}")
    gamma = hyper.gamma
    denom = 2.0 * hyper.sigma**2 * (1.0 + 1.0 / gamma)
    return math.sqrt(1.0 + gamma) * math.exp(-(y_i**2) / denom)


def _rate(hyper: HyperParams) -> tuple[float, float]:
    """(r, h): r = 2 sigma^2 (1 + 1/gamma) and h = log(1 + gamma) / 2."""
    gamma = hyper.gamma
    return 2.0 * hyper.sigma**2 * (1.0 + 1.0 / gamma), 0.5 * math.log1p(gamma)


def _table_increments(log_pmf: np.ndarray, rate: float, half_log_1pg: float) -> np.ndarray:
    n = log_pmf.size - 1
    increments = np.empty(n + 1)
    # + 0.0 drops the signed zero when pi(0) = 1
    increments[0] = rate * -log_pmf[0] + 0.0
    i = np.arange(1, n + 1, dtype=float)
    increments[1:] = rate * (
        np.log((n - i + 1.0) / i) + log_pmf[:-1] - log_pmf[1:] + half_log_1pg
    )
    return increments


def penalty_increments(spec: PriorSpec, n: int, hyper: HyperParams) -> np.ndarray:
    """Penalty increments inc[0..n] for ``spec`` at length n.

    The penalty is their cumulative sum.  The binomial and both Poisson
    priors use the closed forms in the module docstring and build no
    prior table; a custom prior is normalized first.  Raises and warns as
    ``build_prior_table`` does.
    """
    n = _check_prior_size(spec, n)
    rate, half_log_1pg = _rate(hyper)
    if isinstance(spec, CustomLogWeightsPrior):
        return _table_increments(build_prior_table(spec, n).log_pmf, rate, half_log_1pg)
    inc = np.empty(n + 1)
    i = np.arange(1, n + 1, dtype=float)
    if isinstance(spec, BinomialPrior):
        inc[0] = -n * math.log1p(-spec.xi)
        inc[1:] = math.log1p(-spec.xi) - math.log(spec.xi) + half_log_1pg
    elif isinstance(spec, TruncatedPoissonPrior):
        lam = spec.lam
        inc[0] = lam + math.log(gammaincc(n + 1, lam))
        inc[1:] = np.log((n - i + 1.0) / lam) + half_log_1pg
    else:  # ReflectedPoissonPrior
        m = n - spec.lam
        inc[0] = m + math.log(gammaincc(n + 1, m)) - n * math.log(m) + gammaln(n + 1.0)
        inc[1:] = np.log(m / i) + half_log_1pg
    # + 0.0 drops the signed zero of the binomial inc[0] at n = 0
    return rate * inc + 0.0


def penalty_table(table: PriorTable, hyper: HyperParams) -> PenaltyTable:
    """Per-size penalty vector and increments for the scan criterion."""
    n = table.n
    rate, half_log_1pg = _rate(hyper)
    k = np.arange(n + 1, dtype=float)
    penalty = rate * (_log_choose_all(n) - table.log_pmf + k * half_log_1pg)
    return PenaltyTable(
        penalty=penalty, increments=_table_increments(table.log_pmf, rate, half_log_1pg)
    )


def select_k(sorted_sq: np.ndarray, penalties: PenaltyTable | np.ndarray) -> tuple[int, np.ndarray]:
    """Scan all n+1 model sizes for the minimum of tail sum plus penalty.

    ``sorted_sq`` must be the squared observations in non-increasing order.
    Ties go to the smaller size.  Returns (k_hat, objective).
    """
    sorted_sq = np.asarray(sorted_sq, dtype=float)
    penalty = penalties.penalty if isinstance(penalties, PenaltyTable) else np.asarray(penalties, dtype=float)
    if sorted_sq.ndim != 1:
        raise DomainError("sorted_sq must be 1-D")
    if penalty.shape != (sorted_sq.size + 1,):
        raise DomainError("penalty must have length n + 1")
    if np.any(sorted_sq < 0.0):
        raise DomainError("sorted_sq must be nonnegative")
    if np.any(np.diff(sorted_sq) > 0.0):
        raise DomainError("sorted_sq must be non-increasing")
    return penalized_scan(sorted_sq, penalty)


def map_estimate(
    data: RankedSequence | GaussianSequence | np.ndarray, hyper: HyperParams, spec: PriorSpec
) -> EstimateResult:
    """MAP support estimate and hard-threshold fit for one sequence.

    Magnitudes are ranked with a stable sort (ties keep input order)
    unless ``data`` is already a ``RankedSequence``; the prior-driven
    penalties are scanned over all sizes, and the k_hat largest
    coordinates are kept as-is.  The realized threshold is the smallest
    kept magnitude, +inf when nothing is kept.
    """
    ranked = rank_sequence(data)
    penalty = np.cumsum(penalty_increments(spec, ranked.y.size, hyper))
    k_hat, objective = penalized_scan(ranked.sorted_sq, penalty)
    return ranked.keep_largest(k_hat, objective)


def posterior_log_score(
    y: np.ndarray, config: Configuration | np.ndarray, hyper: HyperParams, table: PriorTable
) -> float:
    """Log posterior (up to an additive constant) of one support configuration.

    log pi_n(k) - log C(n,k) + sum over kept coordinates of -log B_i.
    """
    y = np.asarray(y, dtype=float)
    x = config.x if isinstance(config, Configuration) else np.asarray(config, dtype=bool)
    if x.shape != y.shape:
        raise DomainError("configuration mask must match y in length")
    if y.size != table.n:
        raise DomainError(f"table was built for n = {table.n}, got {y.size} observations")
    k = int(np.count_nonzero(x))
    gamma = hyper.gamma
    denom = 2.0 * hyper.sigma**2 * (1.0 + 1.0 / gamma)
    neg_log_b = y[x] ** 2 / denom - 0.5 * math.log1p(gamma)
    return float(table.log_pmf[k] - log_choose(table.n, k) + np.sum(neg_log_b))


def brute_force_map(
    data: GaussianSequence | np.ndarray, hyper: HyperParams, spec: PriorSpec
) -> Configuration:
    """Exhaustive posterior maximization over all 2^n configurations.

    Only for n <= 20.  Score ties are broken toward smaller size, then the
    lexicographically smallest mask, so the result is deterministic.
    """
    y = data.y if isinstance(data, GaussianSequence) else GaussianSequence(np.asarray(data)).y
    n = y.size
    if n > 20:
        raise SizeError(f"brute force is limited to n <= 20, got {n}")
    table = build_prior_table(spec, n)
    gamma = hyper.gamma
    denom = 2.0 * hyper.sigma**2 * (1.0 + 1.0 / gamma)
    contrib = y**2 / denom - 0.5 * math.log1p(gamma)

    masks = np.arange(2**n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    prior_term = table.log_pmf - np.array([log_choose(n, k) for k in range(n + 1)])
    scores = prior_term[sizes] + bits @ contrib

    best = np.max(scores)
    tied = np.nonzero(scores == best)[0]
    if tied.size > 1:
        k_min = sizes[tied].min()
        tied = tied[sizes[tied] == k_min]
        if tied.size > 1:
            # first mask bit is the most significant for lexicographic order
            rank = bits[tied] @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
            tied = tied[np.argsort(rank)]
    return Configuration(x=bits[tied[0]])
