"""MAP model-size selection and the induced hard-threshold estimator.

The posterior over support configurations collapses onto n+1 candidates
(keep the k largest magnitudes), so the estimate comes from a single scan
of a penalized residual criterion over the sequence ranked by magnitude.

Penalty identity used throughout, with r = 2 sigma^2 (1 + 1/gamma),
h = (1/2) log(1 + gamma) and the complexity c[k] = log C(n,k) - log pi_n(k):

    P[k]   = r * (c[k] + k h)
    inc[0] = r * c[0]
    inc[i] = r * (c[i] - c[i-1] + h)

and P[k] telescopes as the cumulative sum of the increments; ``priors`` owns c.

Only the observations a minimizer can keep are sorted.  The criterion is
obj[k] = sum of the n - k smallest squares + P[k].  Pick a cut t > 0, let
K = #{y_i^2 > t} and let S be the sum of the squares <= t.  A size k > K
drops k - K more squares, none above t and together at most S, so

    obj[k] - obj[K] >= (P[k] - P[K]) - min((k - K) t, S).

When that lower bound is >= 0 for every k > K, the argmin lies in
[0, K] (ties still go to the smaller size), and only the K candidates
need sorting.  With t = min(inc[1 .. ceil(n/2)]), K and S need no sort,
so the bound is checked first.  The selection core ``_keep_scanned``,
which also scores the Monte Carlo blocks of ``risk``, then value-sorts
and scans the candidates' squares from S, or all n from 0 when t <= 0 or
the bound fails (a custom prior that favors large sizes, dense
Foster-Stine).  Only the k_hat kept are ranked: sorting them, in index
order, by -|y| gives the head of the full stable order.  Sums past the
float range raise DomainError.  Each ranking is NumPy's default (SIMD)
sort, whose order is unique, and so stable, when no two keys tie; when
two sorted keys are equal, a second default sort puts each run of ties
in index order.  Ranking by -|y|, not -y^2, matters: two magnitudes one
ulp apart can square to the same float.

Under both Poisson priors inc[1..n] strictly decrease (priors docstring),
so P is concave and t = inc[ceil(n/2)]: the float increments do not rise
either, since each is the log of an argument at least 1/n (relative)
from its neighbours', far above the log's rounding.  With
D(j) = P[K + j] - P[K] and m = min(n - K, floor(S / t)), the bound asks
D(j) - j t >= 0 on [1, m] and D(j) >= S on [m + 1, n - K].  Both left
sides are concave in j, so each is checked at the ends of its interval,
from the closed form of D in log-gamma (``priors._complexity_gap``), and
only inc[0..K] are built.  A check passes only when it clears its
threshold by

    eps (8 r L + Q (J + 9)^2),   L = (n + 1) log(n + 1) + 1,
    Q = r (2 log(n + 1) + h + 1) + 2 t,

with eps = 2^-52 and J the last j of its interval.  The increments span
inc[1] - inc[n] = r log n, so Q bounds every |inc[i]| + t and r (1 + h),
and with np.log within 4 ulp each float increment is within 3 eps Q of
its exact value.  The closed form is within eps (8 r L + 2 J Q) of D
(its log-gamma terms are at most L in size and within 8 ulp of it;
measured, under 2), the float bound of the whole vector, a running sum
of J terms of size at most Q, is within eps Q (J^2 + 8 J) / 2 of the
exact one, and the thresholds round by at most 2 eps (J + 1) Q: less
than the margin together.  So the closed form certifies only calls that
the whole vector certifies, and every other call builds the whole
vector and checks it.

Under the binomial prior the increments inc[1..n] are one constant a, so
the steps a - y_(k)^2 change sign once and the rule is the fixed
threshold y_i^2 > a, with no scan at all; a square equal to a ties and
is dropped.  It shares one step with the fixed rule |y_i| >= lam of
``baselines``: the kept set is closed upward in |y|, so only its members
are ranked.  Results carry only the estimate; the criterion at every
size is

    select_k(np.sort(y * y)[::-1], np.cumsum(penalty_increments(spec, n, hyper))).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import penalized_scan
from .errors import DomainError, SizeError, check_between
from .priors import (
    BinomialPrior,
    HyperParams,
    PriorSpec,
    PriorTable,
    ReflectedPoissonPrior,
    TruncatedPoissonPrior,
    _check_prior_size,
    _complexity,
    _complexity_gap,
    _unit_steps,
    build_prior_table,
)

__all__ = [
    "GaussianSequence",
    "PenaltyTable",
    "Configuration",
    "EstimateResult",
    "bayes_factor",
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
        if self.sigma is not None:
            check_between(self.sigma, "sigma", 0.0, math.inf)
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


def _values(data: GaussianSequence | np.ndarray) -> np.ndarray:
    """The validated observations of raw data or a ``GaussianSequence``."""
    return data.y if isinstance(data, GaussianSequence) else GaussianSequence(data).y


def _argsort_stable(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, sorted keys) with order = np.argsort(keys, axis=-1, kind="stable").

    Works along the last axis, so a matrix is ranked row by row.  NumPy's
    default (SIMD) sort ranks first.  Its order can differ from the stable
    one only within runs of equal keys, whose indices the stable order
    takes in increasing order.  In a row where two sorted keys are equal,
    one more default sort of run * n + index, with the runs numbered in
    sorted order, puts every run's indices in that order.
    """
    order = np.argsort(keys, axis=-1)
    ranked = np.take_along_axis(keys, order, axis=-1)
    same = ranked[..., 1:] == ranked[..., :-1]
    tied = same.any(axis=-1)
    if tied.any():
        rows = np.flatnonzero(tied) if keys.ndim > 1 else ...  # a 1-D array is one row
        run = np.zeros(order[rows].shape, dtype=np.int64)
        np.cumsum(~same[rows], axis=-1, out=run[..., 1:])
        run *= keys.shape[-1]
        fixed = np.sort(order[rows] + run, axis=-1)
        fixed -= run
        order[rows] = fixed
        ranked[rows] = np.take_along_axis(keys[rows], fixed, axis=-1)
    return order, ranked


def _rank(y: np.ndarray, candidates: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(order, their keys -|y|): ``candidates`` (indices in increasing order;
    all of them, row by row for a matrix, when None) stable-sorted by
    decreasing |y|, which is the head of the full stable order when the
    candidates are closed upward in |y|.  A result ranks only its kept,
    and the selection core only the rows whose tie straddles a cut."""
    if candidates is None:
        return _argsort_stable(-np.abs(y))
    order, keys = _argsort_stable(-np.abs(y[candidates]))
    return candidates[order], keys


def _keep_flagged(y: np.ndarray, kept: np.ndarray) -> EstimateResult:
    """Estimate keeping y[kept] as they are: ``kept``, indices in increasing
    order, must be closed upward in |y|, so only they are ranked."""
    mu_hat = np.zeros(y.size)  # first, to take the block a selection just freed whole
    order, _ = _rank(y, kept)
    mu_hat[order] = y[order]
    threshold = float(np.abs(y[order[-1]])) if order.size else math.inf
    return EstimateResult(k_hat=order.size, threshold=threshold, kept=order, mu_hat=mu_hat)


def _keep_scanned(
    y: np.ndarray, y_sq: np.ndarray, penalties: np.ndarray, rest: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(keep, objective): each row of ``y`` keeps its k_hat largest
    magnitudes, ties in the stable order, under a cumulative penalty or
    several stacked on a leading axis of ``penalties``; ``objective`` is the
    criterion of ``penalized_scan``, whose tail sums start from ``rest``.

    One value sort of the squares ``y_sq`` feeds the scan, and a row keeps
    the squares at or above its k_hat-th largest.  Only rows whose next
    smaller square equals that cut, a tie straddling it, are ranked.
    """
    n = y.shape[-1]
    sq = np.sort(y_sq, axis=-1)
    k_hat, objective = penalized_scan(sq[:, ::-1], penalties, rest)
    if n == 0:  # a positive cut that no square exceeds
        return np.zeros(k_hat.shape + (0,), dtype=bool), objective
    rows = np.arange(y.shape[0])
    cut = np.where(k_hat > 0, sq[rows, -k_hat], np.inf)
    keep = y_sq >= cut[..., None]
    straddles = (sq[rows, n - 1 - k_hat] == cut) & (k_hat < n)
    tied = np.flatnonzero(straddles.any(axis=tuple(range(k_hat.ndim - 1))))  # over the stacked penalties
    if tied.size:
        order, _ = _rank(y[tied])
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(n), axis=-1)
        keep[..., tied, :] = ranks < k_hat[..., tied, None]
    return keep, objective


def _scan_largest(
    y: np.ndarray,
    inc: np.ndarray | Callable[[int, int], np.ndarray],
    certify: Callable[[int, float, float], bool] | None = None,
) -> np.ndarray:
    """The indices, in increasing order, of the k largest magnitudes of the
    validated ``y``, for the k that minimizes the tail sum of squares plus
    the penalty cumsum(inc); ties go to the smaller size and otherwise to
    the stable order.  The cut is certified before anything is sorted.

    ``inc`` holds inc[0..n], or returns inc[start:stop] for (start, stop),
    so that only the increments the scan reads are built.  ``certify(k,
    rest, cut)``, given for a penalty whose increments strictly decrease
    past inc[0], checks the bound from the penalty's closed form
    (``_certifies_concave``); the cut is then inc[ceil(n/2)], and where
    ``certify`` is not sure, ``_certifies`` decides on the whole vector.
    Callers run it under ``np.errstate(over="ignore", invalid="ignore")``:
    a square that overflows is the +inf limit, and sums past the float
    range raise DomainError.
    """
    n = y.size
    increments = (lambda start, stop: inc[start:stop]) if isinstance(inc, np.ndarray) else inc
    half = (n + 1) // 2
    cut = float(increments(half, half + 1)[0] if certify else increments(1, half + 1).min())
    sq, candidates, rest = y * y, None, 0.0
    if cut > 0.0:
        candidates = np.flatnonzero(sq > cut)
        sq[candidates] = 0.0
        rest = float(sq.sum())
        if not math.isfinite(rest):
            raise DomainError("the squares below the cut sum past the float range; rescale the data")
        certified = certify is not None and certify(candidates.size, rest, cut)
        if not certified:
            full = increments(0, n + 1)
            increments = lambda start, stop: full[start:stop]  # the scan reads it too
            certified = _certifies(full, candidates.size, rest, cut, scratch=sq)
        if not certified:
            candidates, rest = None, 0.0
    scanned = y if candidates is None else y[candidates]
    # squared again into sq, free now: one array fewer at the scan's peak; sq lives to the
    # return, so that no array of the scan splits the block that mu_hat then reuses
    scanned_sq = np.multiply(scanned, scanned, out=sq[: scanned.size])
    penalty = np.cumsum(increments(0, scanned.size + 1))
    keep, objective = _keep_scanned(scanned[None], scanned_sq[None], penalty, rest)
    kept = np.flatnonzero(keep)
    if not math.isfinite(objective[0, kept.size]):  # the minimum, at k_hat
        raise DomainError("the criterion at every size sums past the float range; rescale the data")
    return kept if candidates is None else candidates[kept]


def _certifies(inc: np.ndarray, k: int, rest: float, cut: float, scratch: np.ndarray) -> bool:
    """Whether obj[k'] >= obj[k] for every k' > k, by the module docstring's bound.

    ``k`` squares exceed ``cut`` and the others sum to ``rest``.  The bound
    is built in ``scratch``, which holds at least n - k floats.
    """
    m = min(inc.size - 1 - k, int(rest // cut))  # the j cut term is the smaller up to j = m
    bound = scratch[: inc.size - 1 - k]
    bound[:] = inc[k + 1 :]
    bound[:m] -= cut
    # bound[j - 1] = P[k + j] - P[k] - min(j, m) cut
    np.cumsum(bound, out=bound)
    return bool(
        bound[:m].min(initial=0.0) >= 0.0 and bound[m:].min(initial=math.inf) >= rest - m * cut
    )


def _certifies_concave(
    spec: PriorSpec, n: int, hyper: HyperParams, k: int, rest: float, cut: float
) -> bool:
    """``_certifies`` for a Poisson prior checked against n, from the closed
    form of D(j) = P[k + j] - P[k] at four sizes, with no increment built
    past the cut.  A check that clears its threshold by less than the
    rounding margin of the module docstring fails, so this certifies only
    where ``_certifies`` does.
    """
    last = n - k
    m = min(last, int(rest // cut))
    rate, half_log_1pg = _rate(hyper)
    size = rate * (2.0 * math.log(n + 1.0) + half_log_1pg + 1.0) + 2.0 * cut
    lgamma_size = rate * ((n + 1.0) * math.log(n + 1.0) + 1.0)

    def clears(j: int, threshold: float, top: int) -> bool:
        gap = rate * (_complexity_gap(spec, n, k, k + j) + j * half_log_1pg)
        return gap - threshold >= sys.float_info.epsilon * (8.0 * lgamma_size + size * (top + 9.0) ** 2)

    below = m == 0 or (clears(1, cut, m) and clears(m, m * cut, m))
    return below and (m == last or (clears(m + 1, rest, last) and clears(last, rest, last)))


def bayes_factor(y_i: float, hyper: HyperParams) -> float:
    """Single-coordinate null-vs-slab Bayes factor.

    sqrt(1 + gamma) * exp(-y^2 / (2 sigma^2 (1 + 1/gamma))); small values
    favor keeping the coordinate.
    """
    check_between(y_i, "y_i", -math.inf, math.inf)
    rate, _ = _rate(hyper)
    # y_i * y_i is +inf rather than OverflowError for huge y_i: the limit 0.0
    return math.sqrt(1.0 + hyper.gamma) * math.exp(-(y_i * y_i) / rate)


def _rate(hyper: HyperParams) -> tuple[float, float]:
    """(r, h): r = 2 sigma^2 (1 + 1/gamma) and h = log(1 + gamma) / 2."""
    gamma = hyper.gamma
    return 2.0 * hyper.sigma**2 * (1.0 + 1.0 / gamma), 0.5 * math.log1p(gamma)


def penalty_increments(spec: PriorSpec, n: int, hyper: HyperParams) -> np.ndarray:
    """Penalty increments inc[0..n] for ``spec`` at length n.

    The penalty is their cumulative sum.  The binomial and both Poisson
    priors use the closed-form steps of ``priors`` and build no prior
    table; a custom prior is normalized first.  Raises and warns as
    ``build_prior_table`` does, and raises DomainError when an increment
    leaves the float range.
    """
    n = _check_prior_size(spec, n)
    with np.errstate(over="ignore"):  # refused by _finite_increments
        return _finite_increments(_increments(spec, n, hyper))


def _finite_increments(inc: np.ndarray) -> np.ndarray:
    """``inc`` (any shape); DomainError if an increment left the float range."""
    if not np.isfinite(inc).all():
        raise DomainError("the penalty increments leave the float range; rescale the data")
    return inc


def _binomial_cut(xi: float, hyper: HyperParams) -> float:
    """inc[1] under the binomial prior, to the bit: the MAP keeps y^2 above it."""
    rate, half_log_1pg = _rate(hyper)
    # + 0.0 as in the increments
    return rate * (float(_unit_steps(BinomialPrior(xi), 1)[1]) + half_log_1pg) + 0.0


def _increments(
    spec: PriorSpec, n: int, hyper: HyperParams, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """``penalty_increments`` for a spec already checked against n, at the
    indices start <= i < stop (default n + 1): to the bit the same entries
    of the whole vector."""
    rate, half_log_1pg = _rate(hyper)
    inc = _unit_steps(spec, n, start, stop)
    inc[1 if start == 0 else 0 :] += half_log_1pg
    inc *= rate
    # + 0.0 drops signed zeros: the binomial inc[0] at n = 0, and products
    # that underflow when the rate is near the smallest floats
    inc += 0.0
    return inc


def penalty_table(table: PriorTable, hyper: HyperParams) -> PenaltyTable:
    """Per-size penalty vector and increments for the scan criterion.

    Raises DomainError when a penalty or an increment leaves the float range.
    """
    rate, half_log_1pg = _rate(hyper)
    k = np.arange(table.n + 1, dtype=float)
    with np.errstate(over="ignore"):  # refused below
        penalty = rate * (_complexity(table) + k * half_log_1pg)
        inc = _increments(table.spec, table.n, hyper)
    if not (np.isfinite(penalty).all() and np.isfinite(inc).all()):
        raise DomainError("the penalties leave the float range; rescale the data")
    return PenaltyTable(penalty=penalty, increments=inc)


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
    if not (np.isfinite(sorted_sq).all() and np.isfinite(penalty).all()):
        raise DomainError("sorted_sq and penalty must be finite")
    if np.any(sorted_sq < 0.0):
        raise DomainError("sorted_sq must be nonnegative")
    if np.any(np.diff(sorted_sq) > 0.0):
        raise DomainError("sorted_sq must be non-increasing")
    return penalized_scan(sorted_sq, penalty)


def map_estimate(
    data: GaussianSequence | np.ndarray, hyper: HyperParams, spec: PriorSpec
) -> EstimateResult:
    """MAP support estimate and hard-threshold fit for one sequence.

    The k_hat largest coordinates, in the stable order of magnitude (ties
    keep input order), are kept as-is.  The binomial prior keeps exactly
    y_i^2 > inc[1]; the other priors scan only the candidates (module
    docstring).  The realized threshold is the smallest kept magnitude,
    +inf when nothing is kept.
    """
    y = _values(data)
    n = _check_prior_size(spec, y.size)
    # an infinite square is kept; _scan_largest refuses sums past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(spec, BinomialPrior):
            kept = np.flatnonzero(y * y > _binomial_cut(spec.xi, hyper))
        elif isinstance(spec, (TruncatedPoissonPrior, ReflectedPoissonPrior)):
            kept = _scan_largest(
                y,
                lambda start, stop: _increments(spec, n, hyper, start, stop),
                lambda k, rest, cut: _certifies_concave(spec, n, hyper, k, rest, cut),
            )
        else:
            kept = _scan_largest(y, _increments(spec, n, hyper))
    return _keep_flagged(y, kept)


def posterior_log_score(
    y: np.ndarray, config: Configuration | np.ndarray, hyper: HyperParams, table: PriorTable
) -> float:
    """Log posterior (up to an additive constant) of one support configuration.

    log pi_n(k) - log C(n,k) + sum over kept coordinates of -log B_i.
    A kept observation whose square overflows gives the limit +inf,
    without a warning.
    """
    y = _values(y)
    x = config.x if isinstance(config, Configuration) else np.asarray(config, dtype=bool)
    if x.shape != y.shape:
        raise DomainError("configuration mask must match y in length")
    if y.size != table.n:
        raise DomainError(f"table was built for n = {table.n}, got {y.size} observations")
    k = int(np.count_nonzero(x))
    rate, half_log_1pg = _rate(hyper)
    with np.errstate(over="ignore"):  # an infinite square is the +inf limit
        neg_log_b = y[x] ** 2 / rate - half_log_1pg
    return float(-_complexity(table)[k] + np.sum(neg_log_b))


def brute_force_map(
    data: GaussianSequence | np.ndarray, hyper: HyperParams, spec: PriorSpec
) -> Configuration:
    """Exhaustive posterior maximization over all 2^n configurations.

    Only for n <= 20.  Score ties are broken toward smaller size, then toward
    the earliest indices, as the stable order of ``map_estimate``.  Every
    observation whose square overflows is kept, as in the +inf limit.
    """
    y = _values(data)
    n = y.size
    if n > 20:
        raise SizeError(f"brute force is limited to n <= 20, got {n}")
    table = build_prior_table(spec, n)
    rate, half_log_1pg = _rate(hyper)
    with np.errstate(over="ignore"):
        contrib = y**2 / rate - half_log_1pg
    finite = np.isfinite(contrib)

    masks = np.arange(2**n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    scores = -_complexity(table)[sizes] + bits @ np.where(finite, contrib, 0.0)
    scores[~bits[:, ~finite].all(axis=1)] = -np.inf

    best = np.max(scores)
    tied = np.nonzero(scores == best)[0]
    if tied.size > 1:
        k_min = sizes[tied].min()
        tied = tied[sizes[tied] == k_min]
        if tied.size > 1:
            # read with the first bit most significant, the largest mask keeps the earliest indices
            rank = bits[tied] @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
            tied = tied[np.argsort(-rank)]
    return Configuration(x=bits[tied[0]])
