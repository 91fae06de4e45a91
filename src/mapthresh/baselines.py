"""Classical fixed and variable hard-threshold rules.

Fixed rules keep every coordinate at least as large as one cutoff;
variable rules assign a cutoff per rank and pick the model size that
minimizes tail-sum-of-squares plus the cumulative squared cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Union

import numpy as np

from .errors import DegenerateDataError, DomainError, check_between, check_integer
from .estimator import (
    EstimateResult,
    GaussianSequence,
    _keep_flagged,
    _scan_largest,
    _values,
)

__all__ = [
    "FixedThreshold",
    "VariableThreshold",
    "ThresholdRule",
    "universal_threshold",
    "aic_threshold",
    "bic_threshold",
    "ric_threshold",
    "fdr_sequence",
    "foster_stine_sequence",
    "tk_sequence",
    "fixed_threshold_estimate",
    "variable_threshold_estimate",
    "mad_sigma",
    "normal_quantile",
]


@dataclass(frozen=True)
class FixedThreshold:
    """One cutoff applied to every coordinate."""

    lam: float

    def __post_init__(self):
        # +inf is legal (keep nothing); nan and negatives are not.
        if math.isnan(self.lam) or self.lam < 0.0:
            raise DomainError(f"threshold must be a nonnegative real, got {self.lam}")


@dataclass(frozen=True)
class VariableThreshold:
    """Rank-dependent cutoffs, one per coordinate."""

    lams: np.ndarray = field(repr=False)

    def __post_init__(self):
        lams = np.asarray(self.lams, dtype=float)
        if lams.ndim != 1 or lams.size < 1:
            raise DomainError("lams must be a non-empty 1-D vector")
        top = float(lams.max())  # NaN when any cutoff is
        if np.any(lams < 0.0) or not top * top < math.inf:
            raise DomainError("lams must be nonnegative with finite squares")
        object.__setattr__(self, "lams", lams)


ThresholdRule = Union[FixedThreshold, VariableThreshold]


def universal_threshold(n: int, sigma: float) -> float:
    """sigma * sqrt(2 log n), the classical keep-nothing-under-noise cutoff."""
    n = check_integer(n, "n", 2)
    return float(check_between(sigma, "sigma", 0.0, math.inf)) * math.sqrt(2.0 * math.log(n))


def aic_threshold(sigma: float) -> float:
    """sqrt(2) * sigma."""
    return float(check_between(sigma, "sigma", 0.0, math.inf)) * math.sqrt(2.0)


def bic_threshold(n: int, sigma: float) -> float:
    """sigma * sqrt(log n)."""
    n = check_integer(n, "n", 2)
    return float(check_between(sigma, "sigma", 0.0, math.inf)) * math.sqrt(math.log(n))


def ric_threshold(n: int, sigma: float) -> float:
    """sigma * sqrt(2 log n); coincides with the universal cutoff."""
    return universal_threshold(n, sigma)


def fdr_sequence(n: int, sigma: float, q: float = 0.05) -> np.ndarray:
    """Rank-dependent cutoffs sigma * z(1 - (i/n) * q/2), i = 1..n."""
    n = check_integer(n, "n", 1)
    sigma = float(check_between(sigma, "sigma", 0.0, math.inf))
    check_between(q, "q", 0.0, 1.0)
    tail = np.arange(1, n + 1, dtype=float) / n * (q / 2.0)
    return sigma * -normal_quantile(tail)


def foster_stine_sequence(n: int, sigma: float) -> np.ndarray:
    """sigma * sqrt(2 log(n/i)), i = 1..n (zero at the last rank)."""
    n = check_integer(n, "n", 1)
    sigma = float(check_between(sigma, "sigma", 0.0, math.inf))
    i = np.arange(1, n + 1, dtype=float)
    return sigma * np.sqrt(2.0 * np.log(n / i))


def tk_sequence(n: int, sigma: float) -> np.ndarray:
    """2 sigma * sqrt(log(n/i)), i = 1..n; sqrt(2) times the Foster-Stine cutoffs."""
    return math.sqrt(2.0) * foster_stine_sequence(n, sigma)


def fixed_threshold_estimate(
    y: GaussianSequence | np.ndarray, rule: FixedThreshold | float
) -> EstimateResult:
    """Keep y_i whenever |y_i| >= lam (boundary kept).

    Only the kept coordinates are ranked.  The kept size minimizes the
    tail sum of squares plus k * lam^2; at boundary ties it is the larger
    of the tied sizes.
    """
    lam = rule.lam if isinstance(rule, FixedThreshold) else FixedThreshold(float(rule)).lam
    values = _values(y)
    return _keep_flagged(values, np.flatnonzero(np.abs(values) >= lam))


def variable_threshold_estimate(
    y: GaussianSequence | np.ndarray, rule: VariableThreshold | np.ndarray
) -> EstimateResult:
    """Penalized scan with per-rank cutoffs lams[1..n].

    Minimizes sum of squares past rank k plus sum of lams[i]^2 for
    i <= k (the size-zero term contributes nothing); ties go to the
    smaller size, and the k_hat largest magnitudes are kept.  Only the
    candidates are ranked (``mapthresh.estimator`` docstring).
    """
    lams = rule.lams if isinstance(rule, VariableThreshold) else VariableThreshold(np.asarray(rule)).lams
    values = _values(y)
    if lams.size != values.size:
        raise DomainError(f"lams must have length n = {values.size}, got {lams.size}")
    inc = np.empty(values.size + 1)
    inc[0] = 0.0
    np.square(lams, out=inc[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # _scan_largest refuses sums past the float range
        kept = _scan_largest(values, inc)
    return _keep_flagged(values, kept)


def mad_sigma(y) -> float:
    """Robust noise scale: median absolute deviation over 0.6745.

    Both medians are exact order statistics from ``_median``: below
    50,000 values a single partition, above it a partition of only the
    values inside a bracket taken from a sample, or of every value when
    the bracket misses.  Raises DegenerateDataError if the deviations have
    zero median, since a zero scale breaks every downstream user, and
    DomainError if the scale overflows.
    """
    y = GaussianSequence(y).y
    if y.size < 2:
        raise DomainError(f"need at least 2 observations, got {y.size}")
    return float(_mad_scale(y))


def _mad_scale(y: np.ndarray) -> np.ndarray:
    """``mad_sigma`` along the last axis of finite data, one scale per row.

    Raises as ``mad_sigma`` does when any row's scale is zero or overflows.
    """
    centre = _median(y)
    # an infinite deviation only moves the median to +inf, and an infinite
    # scale is refused below
    with np.errstate(over="ignore"):
        deviations = y - centre[..., None]
        mad = _median(np.abs(deviations, out=deviations))
        scale = mad / 0.6745
    if (mad == 0.0).any():
        raise DegenerateDataError("median absolute deviation is zero")
    if not np.isfinite(scale).all():
        raise DomainError("the robust scale overflows; rescale the data")
    return scale


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` of an array without NaNs, to the bit
    wherever that is finite; a NumPy scalar or 0-d array for a 1-D array.

    Rows of fewer than 50,000 values are partitioned directly, all rows
    in one call.  Longer rows are taken one at a time and first narrowed
    (Floyd & Rivest 1975): sort the sample a[::n // ceil(n^(2/3))] and
    take the bracket [lo, hi] of the sample values 3 sqrt(sample size)
    ranks either side of the middle rank.  When the middle ranks of ``a``
    fall among the values inside the bracket, counted from the values
    below lo, only those values are partitioned; otherwise all of ``a``
    is.  For even n the result is the mean of the two middle values,
    (lower + upper) / 2 as in ``np.median``, or lower / 2 + upper / 2
    where that sum overflows.
    """
    n = a.shape[-1]
    rank = n // 2  # the upper middle rank; the lower one is rank - 1 when n is even
    if n >= 50_000:
        if a.ndim > 1:
            return np.array([_median(row) for row in a])
        sample = np.sort(a[:: n // math.ceil(n ** (2.0 / 3.0))])
        centre, width = sample.size * rank // n, 3 * math.isqrt(sample.size)
        lo = sample[max(centre - width, 0)]
        hi = sample[min(centre + width, sample.size - 1)]
        below = int(np.count_nonzero(a < lo))
        inside = a[(a >= lo) & (a <= hi)]
        if below <= rank - 1 + n % 2 and rank < below + inside.size:
            a, rank = inside, rank - below
    part = np.partition(a, rank)  # along the last axis
    upper = part[..., rank]
    if n % 2:
        return upper
    lower = part[..., :rank].max(axis=-1)
    with np.errstate(over="ignore"):
        middle = (lower + upper) / 2
    return np.where(np.isinf(middle), lower / 2 + upper / 2, middle)


# --------------------------------------------------------------------------
# Standard normal quantile
# --------------------------------------------------------------------------

# The standard library's NormalDist.inv_cdf, Wichura's AS241 (PPND16;
# Appl. Statist. 37, 1988), applied elementwise.
_INV_CDF = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def normal_quantile(p):
    """Inverse standard normal CDF, good to about 1e-15 relative error.

    Accepts a scalar or array with entries in the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        raise DomainError("p must be non-empty")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    # frompyfunc gives object arrays, and a Python float for 0-d input
    out = np.asarray(_INV_CDF(arr), dtype=float)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out
