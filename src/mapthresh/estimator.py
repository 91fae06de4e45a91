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

Only the observations a minimizer can keep are ranked.  The criterion is
obj[k] = sum of the n - k smallest squares + P[k].  Pick a cut t > 0, let
K = #{y_i^2 > t} and let S be the sum of the squares <= t.  A size k > K
drops k - K more squares, none above t and together at most S, so

    obj[k] - obj[K] >= (P[k] - P[K]) - min((k - K) t, S).

When that lower bound is >= 0 for every k > K, the argmin lies in
[0, K] (ties still go to the smaller size), and only the K candidates
need ranking: stable-sorting the indices with y_i^2 > t, taken in index
order, by -|y| gives exactly the first K entries of the full stable
order.  Sorting by -|y| rather than -y^2 matters, since two magnitudes
one ulp apart can square to the same float.  The scan over [0, K] then
starts its tail sums from S.  The cut is t = min(inc[1 .. ceil(n/2)]).
When t <= 0, or the bound fails (as it does for a custom prior that
favors large sizes), t = -inf: every observation is a candidate, which
is the full ranking and scan.  A ``RankedSequence`` already carries the
full order and is scanned over all sizes.

Under the binomial prior the increments inc[1..n] are one constant c, so
the steps c - y_(k)^2 change sign once and the rule is the fixed
threshold y_i^2 > c, with no scan at all; a square equal to c ties and
is dropped.  It shares one step with the fixed rule |y_i| >= lam of
``baselines``: the kept set is closed upward in |y|, so from raw data
only its members are ranked, and on a ranked view it is a prefix of the
order.  Results carry only the estimate; the criterion at every size is

    select_k(rank_sequence(y).sorted_sq, np.cumsum(penalty_increments(spec, n, hyper))).
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
    """Selected size, realized threshold, kept indices and estimate.

    ``kept`` lists the kept indices by decreasing magnitude and
    ``threshold`` is the smallest kept magnitude, +inf when nothing is
    kept.  The criterion behind a MAP result comes from ``select_k``
    (module docstring).
    """

    k_hat: int
    threshold: float
    kept: np.ndarray
    mu_hat: np.ndarray


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
        y = _values(self.y)
        order, sorted_sq, _ = _rank_above(y, -math.inf)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "sorted_sq", sorted_sq)


def rank_sequence(data: RankedSequence | GaussianSequence | np.ndarray) -> RankedSequence:
    """The ranked view of ``data``; a view passed in is returned as is."""
    return data if isinstance(data, RankedSequence) else RankedSequence(data)


def _values(data: RankedSequence | GaussianSequence | np.ndarray) -> np.ndarray:
    """The validated observations of raw data, a sequence or a ranked view."""
    return data.y if isinstance(data, (GaussianSequence, RankedSequence)) else GaussianSequence(data).y


def _rank(y: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``indices`` (in increasing order) stable-sorted by decreasing |y|."""
    return indices[np.argsort(-np.abs(y[indices]), kind="stable")]


def _rank_above(y: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(order, sorted_sq, rest) for the observations with y^2 > cut.

    ``order`` ranks them by decreasing |y|, ties in index order, and is the
    head of the full stable order; ``sorted_sq`` holds their squares in
    that order and ``rest`` sums the other squares.  A cut of -inf ranks
    every observation.
    """
    if cut == -math.inf:
        order = np.argsort(-np.abs(y), kind="stable")
        return order, np.abs(y[order]) ** 2, 0.0
    sq = y * y
    candidates = np.flatnonzero(sq > cut)
    order = _rank(y, candidates)
    sorted_sq = sq[order]
    sq[candidates] = 0.0
    return order, sorted_sq, float(sq.sum())


def _keep_largest(y: np.ndarray, order: np.ndarray, k_hat: int) -> EstimateResult:
    """Estimate keeping y[order[:k_hat]] as they are."""
    kept = order[:k_hat].copy()
    mu_hat = np.zeros(y.size)
    mu_hat[kept] = y[kept]
    threshold = float(np.abs(y[kept[-1]])) if k_hat > 0 else math.inf
    return EstimateResult(k_hat=k_hat, threshold=threshold, kept=kept, mu_hat=mu_hat)


def _keep_flagged(
    data: RankedSequence | GaussianSequence | np.ndarray, y: np.ndarray, flagged: np.ndarray
) -> EstimateResult:
    """Keep the observations of ``y`` that ``flagged`` marks.

    The flagged set must be closed upward in |y|, so it is the head of the
    stable order: a ranked view ``data`` is sliced, and from raw data only
    the flagged entries are ranked.  ``y`` holds the validated
    observations of ``data``.
    """
    if isinstance(data, RankedSequence):
        return _keep_largest(y, data.order, int(np.count_nonzero(flagged)))
    order = _rank(y, np.flatnonzero(flagged))
    return _keep_largest(y, order, order.size)


def _scan_largest(
    data: RankedSequence | GaussianSequence | np.ndarray, y: np.ndarray, inc: np.ndarray
) -> EstimateResult:
    """Keep the k largest magnitudes, for the k that minimizes the tail sum
    of squares plus the penalty cumsum(inc); ties go to the smaller size.

    A ranked view ``data`` is scanned over all n+1 sizes; raw data are
    ranked only above the certified cut of the module docstring.  ``y``
    holds the validated observations of ``data``.
    """
    if isinstance(data, RankedSequence):
        order, sorted_sq, rest = data.order, data.sorted_sq, 0.0
    else:
        cut = float(inc[1 : (y.size + 1) // 2 + 1].min())
        order, sorted_sq, rest = _rank_above(y, cut if cut > 0.0 else -math.inf)
        if order.size < y.size and not _certifies(inc, order.size, rest, cut):
            order, sorted_sq, rest = _rank_above(y, -math.inf)
    k_hat, _ = penalized_scan(sorted_sq, np.cumsum(inc[: order.size + 1]), rest)
    return _keep_largest(y, order, k_hat)


def _certifies(inc: np.ndarray, k: int, rest: float, cut: float) -> bool:
    """Whether obj[k'] >= obj[k] for every k' > k, by the module docstring's bound.

    ``k`` squares exceed ``cut`` and the others sum to ``rest``.
    """
    m = min(inc.size - 1 - k, int(rest // cut))  # the j cut term is the smaller up to j = m
    bound = inc[k + 1 :].copy()
    bound[:m] -= cut
    # bound[j - 1] = P[k + j] - P[k] - min(j, m) cut
    np.cumsum(bound, out=bound)
    return bool(
        bound[:m].min(initial=0.0) >= 0.0 and bound[m:].min(initial=math.inf) >= rest - m * cut
    )


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
    return _increments(spec, _check_prior_size(spec, n), hyper)


def _binomial_step(xi: float, half_log_1pg: float) -> float:
    """inc[i] / r for i >= 1 under the binomial prior."""
    return math.log1p(-xi) - math.log(xi) + half_log_1pg


def _increments(spec: PriorSpec, n: int, hyper: HyperParams) -> np.ndarray:
    """``penalty_increments`` for a spec already checked against n."""
    rate, half_log_1pg = _rate(hyper)
    if isinstance(spec, CustomLogWeightsPrior):
        return _table_increments(build_prior_table(spec, n).log_pmf, rate, half_log_1pg)
    inc = np.empty(n + 1)
    i = np.arange(1, n + 1, dtype=float)
    if isinstance(spec, BinomialPrior):
        inc[0] = -n * math.log1p(-spec.xi)
        inc[1:] = _binomial_step(spec.xi, half_log_1pg)
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

    The k_hat largest coordinates, in the stable order of magnitude (ties
    keep input order), are kept as-is.  The binomial prior keeps exactly
    y_i^2 > inc[1]; the other priors are scanned, a ``RankedSequence``
    over all sizes and raw data over the candidates only (module
    docstring).  The realized threshold is the smallest kept magnitude,
    +inf when nothing is kept.
    """
    y = _values(data)
    n = _check_prior_size(spec, y.size)
    if isinstance(spec, BinomialPrior):
        rate, half_log_1pg = _rate(hyper)
        # + 0.0 as in the increments, so the cut is inc[1] to the bit
        return _keep_flagged(data, y, y * y > rate * _binomial_step(spec.xi, half_log_1pg) + 0.0)
    return _scan_largest(data, y, _increments(spec, n, hyper))


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
