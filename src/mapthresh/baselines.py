"""Classical fixed and variable hard-threshold rules.

Fixed rules keep every coordinate at least as large as one cutoff;
variable rules assign a cutoff per rank and pick the model size that
minimizes tail-sum-of-squares plus the cumulative squared cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import erfc

from .errors import DegenerateDataError, DomainError
from .estimator import (
    EstimateResult,
    GaussianSequence,
    RankedSequence,
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
        if not np.all(np.isfinite(lams)) or np.any(lams < 0.0):
            raise DomainError("lams must be finite and nonnegative")
        object.__setattr__(self, "lams", lams)


ThresholdRule = Union[FixedThreshold, VariableThreshold]


def _check_n(n, minimum: int = 1) -> int:
    if int(n) != n or n < minimum:
        raise DomainError(f"n must be an integer >= {minimum}, got {n}")
    return int(n)


def _check_sigma(sigma: float) -> float:
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be a positive real, got {sigma}")
    return float(sigma)


def universal_threshold(n: int, sigma: float) -> float:
    """sigma * sqrt(2 log n), the classical keep-nothing-under-noise cutoff."""
    n = _check_n(n, minimum=2)
    return _check_sigma(sigma) * math.sqrt(2.0 * math.log(n))


def aic_threshold(sigma: float) -> float:
    """sqrt(2) * sigma."""
    return _check_sigma(sigma) * math.sqrt(2.0)


def bic_threshold(n: int, sigma: float) -> float:
    """sigma * sqrt(log n)."""
    n = _check_n(n, minimum=2)
    return _check_sigma(sigma) * math.sqrt(math.log(n))


def ric_threshold(n: int, sigma: float) -> float:
    """sigma * sqrt(2 log n); coincides with the universal cutoff."""
    return universal_threshold(n, sigma)


def fdr_sequence(n: int, sigma: float, q: float = 0.05) -> np.ndarray:
    """Rank-dependent cutoffs sigma * z(1 - (i/n) * q/2), i = 1..n."""
    n = _check_n(n)
    sigma = _check_sigma(sigma)
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    tail = np.arange(1, n + 1, dtype=float) / n * (q / 2.0)
    return sigma * -normal_quantile(tail)


def foster_stine_sequence(n: int, sigma: float) -> np.ndarray:
    """sigma * sqrt(2 log(n/i)), i = 1..n (zero at the last rank)."""
    n = _check_n(n)
    sigma = _check_sigma(sigma)
    i = np.arange(1, n + 1, dtype=float)
    return sigma * np.sqrt(2.0 * np.log(n / i))


def tk_sequence(n: int, sigma: float) -> np.ndarray:
    """2 sigma * sqrt(log(n/i)), i = 1..n; sqrt(2) times the Foster-Stine cutoffs."""
    return math.sqrt(2.0) * foster_stine_sequence(n, sigma)


def fixed_threshold_estimate(
    y: RankedSequence | GaussianSequence | np.ndarray, rule: FixedThreshold | float
) -> EstimateResult:
    """Keep y_i whenever |y_i| >= lam (boundary kept).

    Only the kept coordinates are ranked, unless ``y`` is a
    ``RankedSequence``, whose ranking is then reused.  The kept size
    minimizes the tail sum of squares plus k * lam^2; at boundary ties it
    is the larger of the tied sizes.
    """
    lam = rule.lam if isinstance(rule, FixedThreshold) else FixedThreshold(float(rule)).lam
    values = _values(y)
    return _keep_flagged(y, values, np.abs(values) >= lam)


def variable_threshold_estimate(
    y: RankedSequence | GaussianSequence | np.ndarray, rule: VariableThreshold | np.ndarray
) -> EstimateResult:
    """Penalized scan with per-rank cutoffs lams[1..n].

    Minimizes sum of squares past rank k plus sum of lams[i]^2 for
    i <= k (the size-zero term contributes nothing); ties go to the
    smaller size, and the k_hat largest magnitudes are kept.  From raw
    data only the candidates are ranked (``mapthresh.estimator`` docstring);
    ``y`` may be a ``RankedSequence``, whose ranking is then reused.
    """
    lams = rule.lams if isinstance(rule, VariableThreshold) else VariableThreshold(np.asarray(rule)).lams
    values = _values(y)
    if lams.size != values.size:
        raise DomainError(f"lams must have length n = {values.size}, got {lams.size}")
    inc = np.empty(values.size + 1)
    inc[0] = 0.0
    np.square(lams, out=inc[1:])
    return _scan_largest(y, values, inc)


def mad_sigma(y) -> float:
    """Robust noise scale: median absolute deviation over 0.6745.

    Raises if the deviations have zero median, since a zero scale breaks
    every downstream user.
    """
    y = GaussianSequence(y).y
    if y.size < 2:
        raise DomainError(f"need at least 2 observations, got {y.size}")
    mad = float(np.median(np.abs(y - np.median(y))))
    if mad == 0.0:
        raise DegenerateDataError("median absolute deviation is zero")
    return mad / 0.6745


# --------------------------------------------------------------------------
# Standard normal quantile
# --------------------------------------------------------------------------

# Rational initializer (Acklam), then two Halley corrections against the
# erfc-based CDF.  Upper-half arguments are reflected so the correction
# always works on a well-conditioned tail probability.

_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _quantile_lower_half(p: np.ndarray) -> np.ndarray:
    """Quantile for p in (0, 0.5]; negative or zero results."""
    x = np.empty_like(p)
    tail = p < 0.02425
    if np.any(tail):
        q = np.sqrt(-2.0 * np.log(p[tail]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        x[tail] = num / den
    mid = ~tail
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = num / den
    # skip the correction where exp(x^2/2) would overflow; the initializer
    # alone is already good to ~1e-9 relative out there
    safe = 0.5 * x * x < 700.0
    for _ in range(2):
        cdf = 0.5 * erfc(-x[safe] / _SQRT2)
        err = cdf - p[safe]
        u = err * _SQRT_2PI * np.exp(0.5 * x[safe] * x[safe])
        x[safe] = x[safe] - u / (1.0 + 0.5 * x[safe] * u)
    return x


def normal_quantile(p):
    """Inverse standard normal CDF, good to well below 1e-9 absolute error.

    Accepts a scalar or array with entries in the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        raise DomainError("p must be non-empty")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    flat = np.atleast_1d(arr).copy()
    upper = flat > 0.5
    flat[upper] = 1.0 - flat[upper]  # exact for p in (0.5, 1)
    out = _quantile_lower_half(flat)
    out[upper] = -out[upper]
    if np.isscalar(p) or arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)
