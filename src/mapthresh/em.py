"""Hyperparameter fitting for the marginal two-normal scale mixture.

Marginally y_i ~ (1 - xi) N(0, sigma^2) + xi N(0, sigma^2 + tau^2); EM
alternates responsibilities with closed-form variance and weight updates
in ``_kernels.em_loop``, which keeps the mixture weight inside
[1/n, 1 - 1/n].  ``em_fit_rows`` fits the rows of a matrix in one
``em_loop`` call, and ``em_fit`` is its one-row call.  The data are
squared once, after the starting point's robust scale; beside the data
a fit holds the squares and two scratch rows an E-step block wide.

The fit is constrained so that the slab stays identifiable as signal.
Unconstrained, the likelihood has a ridge along which the slab narrows
toward the noise (gamma = tau^2/sigma^2 small) while its weight grows:
the "slab" then splits the noise into two normals.  On sparse,
weak-signal data points on that ridge can out-score the generating
parameters by several nats, so EM drifts along it and the plug-in
selection rules keep dozens of noise coordinates.  Under the model, the
posterior log-odds of signal at y are

    log O(y) = -log((1 - xi)/xi) - log(1 + gamma)/2
               + y^2 gamma / (2 sigma^2 (1 + gamma)),

and averaging over draws from the slab gives ``slab_log_odds``:

    E_slab[log O] = (gamma - log(1 + gamma))/2 - log((1 - xi)/xi),

the divergence KL(slab || noise) less the prior log-odds against a
signal.  ``em_fit`` keeps E_slab[log O] >= 0: on average over its own
draws, the fitted slab is judged signal by the fitted posterior (the
binomial-prior MAP rule keeps y exactly when log O(y) > 0).  A fit that
breaks the bound calls its own slab noise, and on the ridge where such
fits live the likelihood is nearly flat, so the slab's weight and width
are not separately identified.  The bound has no tuning constant.  It
tightens with sparsity (gamma >= 13.2 at xi = 0.005, gamma >= 8.1 at
xi = 0.05) and vanishes for xi >= 1/2, so dense mixtures are fitted
without it.  Very sparse, weak slabs can break it at their generating
parameters (xi = 0.005, tau = 3 sigma gives E_slab[log O] = -1.9); the
fit then often sits on the bound, and since the MAP threshold is nearly
flat in gamma at large gamma, the plug-in threshold stays close to the
generating one.  ``em_loop`` also keeps the variance ratio at or
above the absolute floor TAU_SQ_FLOOR = 1e-8.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _LOG_2PI, TAU_SQ_FLOOR, em_loop
from .errors import DegenerateDataError, DomainError, check_between
from .baselines import _mad_scale, universal_threshold
from .estimator import GaussianSequence

__all__ = ["EmEstimates", "marginal_loglik", "slab_log_odds", "init_heuristic", "em_fit", "em_fit_rows"]


@dataclass(frozen=True)
class EmEstimates:
    """Fitted noise scale, slab scale, mixture weight, and the fit trace."""

    sigma_hat: float
    tau_hat: float
    xi_hat: float
    loglik: float
    iterations: int
    converged: bool
    loglik_trace: np.ndarray = field(repr=False)


def marginal_loglik(y, sigma: float, tau: float, xi: float) -> float:
    """Log-likelihood of the two-component marginal at the given parameters.

    Raises DomainError unless y is a non-empty, finite 1-D vector and the
    variances sigma^2 and sigma^2 + tau^2 are positive and finite.  An
    observation whose square overflows gives the limit -inf, without a
    warning.
    """
    y = GaussianSequence(y).y
    check_between(sigma, "sigma", 0.0, math.inf)
    check_between(tau, "tau", 0.0, math.inf)
    check_between(xi, "xi", 0.0, 1.0)
    v0 = sigma * sigma
    v1 = v0 + tau * tau
    if not (v0 > 0.0 and math.isfinite(v1)):
        raise DomainError(
            f"sigma^2 and sigma^2 + tau^2 must be positive and finite, got {sigma!r}, {tau!r}"
        )
    with np.errstate(over="ignore"):  # an infinite square is the -inf limit
        y_sq = y**2
    l0 = math.log1p(-xi) - 0.5 * (_LOG_2PI + math.log(v0)) - 0.5 * y_sq / v0
    l1 = math.log(xi) - 0.5 * (_LOG_2PI + math.log(v1)) - 0.5 * y_sq / v1
    return float(np.sum(np.logaddexp(l0, l1)))


def slab_log_odds(sigma: float, tau: float, xi: float) -> float:
    """Posterior log-odds of signal averaged over draws from the slab.

    ``em_fit`` returns fits where this is nonnegative (up to rounding);
    see the module docstring.  A gamma = (tau/sigma)^2 that overflows gives +inf.
    """
    check_between(sigma, "sigma", 0.0, math.inf)
    check_between(tau, "tau", 0.0, math.inf)
    check_between(xi, "xi", 0.0, 1.0)
    try:
        gamma = (tau / sigma) ** 2
    except OverflowError:
        gamma = math.inf
    if gamma == math.inf:  # gamma - log1p(gamma) would be inf - inf
        return math.inf
    return 0.5 * (gamma - math.log1p(gamma)) - (math.log1p(-xi) - math.log(xi))


def _check_magnitudes(y: np.ndarray) -> None:
    """Raise DomainError unless y is a finite 1-D vector whose squares
    neither overflow nor underflow.

    Checked before squaring: EM works on the squared observations and
    their sum.  The bound n max(y^2) <= float max / 2 keeps both finite
    with room for the variance sums built from them; its mirror
    max(y^2) >= 2 n float min keeps the mean square, and so the fitted
    variances, normal floats.
    """
    if y.ndim != 1:
        raise DomainError("y must be a non-empty 1-D vector")
    largest = float(np.abs(y).max())
    if not math.isfinite(largest):
        raise DomainError("y must be finite")
    limit = math.sqrt(sys.float_info.max / (2.0 * y.size))
    if largest > limit:
        raise DomainError(
            f"|y| up to {limit:.3g} is supported for n = {y.size}: larger values"
            " overflow when squared; rescale the data"
        )
    floor = math.sqrt(2.0 * y.size * sys.float_info.min)
    if largest < floor:
        raise DomainError(
            f"max |y| must be at least {floor:.3g} for n = {y.size}: smaller values"
            " underflow when squared; rescale the data"
        )


def _check_init(sigma0: float, tau0: float, xi0: float) -> None:
    """Raise DomainError unless the EM starting point is usable.

    sigma0 and tau0 must be positive with positive, finite squares whose
    sum and ratio are finite; xi0 must lie in (0, 1).
    """
    v0, v_slab = sigma0 * sigma0, tau0 * tau0
    usable = sigma0 > 0.0 and tau0 > 0.0 and v0 > 0.0 and v_slab > 0.0
    if not (usable and math.isfinite(v0 + v_slab) and math.isfinite(v_slab / v0)):
        raise DomainError(
            "init sigma and tau must be positive with finite, nonzero squares,"
            f" got {sigma0!r}, {tau0!r}"
        )
    check_between(xi0, "init xi", 0.0, 1.0)


def init_heuristic(y) -> tuple[float, float, float]:
    """Starting point (sigma0, tau0, xi0) from robust scale and exceedances.

    xi0 is the fraction of magnitudes above the universal cutoff, kept
    within [1/n, 1 - 1/n] as EM keeps xi, and tau0^2 spreads the excess
    second moment over that fraction.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise DomainError(f"need at least 2 observations, got {y.size}")
    _check_magnitudes(y)
    return _start(y, _mad_scale(y))[0][0]


def _start(y: np.ndarray, sigma0) -> tuple[list[tuple[float, float, float]], np.ndarray]:
    """``init_heuristic`` of each row of ``y`` (a vector is one row) from
    the rows' robust scales ``sigma0``, and the squares y * y it sums, for
    ``em_loop``.  Each row has at least 2 observations and passed
    ``_check_magnitudes``.

    Only the exceedance counts and the sums of squares are taken over the
    rows, and a row-wise count or ``np.add.reduce`` equals the row's own
    to the bit, so a row's start does not depend on the rows beside it.
    The squares are formed after the counts' temporaries are freed.
    """
    n = y.shape[-1]
    scales = np.atleast_1d(sigma0).tolist()
    exceed = [
        np.count_nonzero(np.abs(row) > universal_threshold(n, s))
        for row, s in zip(np.atleast_2d(y), scales)
    ]
    y_sq = y * y
    sums = np.atleast_1d(np.add.reduce(y_sq, axis=-1)).tolist()
    starts = []
    for s, count, total in zip(scales, exceed, sums):
        xi0 = min(max(1.0 / n, count / n), 1.0 - 1.0 / n)
        tau0_sq = max(total / n - s**2, s**2) / xi0
        starts.append((s, math.sqrt(tau0_sq), xi0))
    return starts, y_sq


def em_fit(
    y,
    init: tuple[float, float, float] | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> EmEstimates:
    """Fit (sigma, tau, xi) by EM on the marginal mixture.

    Maximizes the likelihood subject to ``slab_log_odds >= 0`` (see the
    module docstring) by a generalized EM: the variance step and the
    weight step each maximize the expected complete-data log-likelihood
    under the constraint, so the trace never decreases from a start that
    meets it.  ``init_heuristic`` always does; from an ``init`` that does
    not, the first step moves into the constrained set and may lower the
    likelihood.

    ``init`` is an optional (sigma0, tau0, xi0) triple; by default it comes
    from ``init_heuristic``.  ``tol`` is a relative log-likelihood change;
    hitting ``max_iter`` first returns converged=False rather than raising.
    Raises DomainError for data that is not 1-D or whose squares overflow
    or underflow, for an unusable ``init``, for a ``tol`` that is not
    positive (NaN included) and for a ``max_iter`` that is not an integer
    >= 1 (a bool is not), and DegenerateDataError when no observation fits
    the noise component.  It is the one-row call of ``em_fit_rows``.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DomainError("y must be a non-empty 1-D vector")
    return em_fit_rows(y[None], inits=[init], tol=tol, max_iter=max_iter)[0]


def em_fit_rows(y, y_sq=None, inits=None, tol=1e-8, max_iter=500) -> list[EmEstimates]:
    """``em_fit`` of each row of the matrix ``y`` from its start in ``inits``
    (None, or a None entry, for ``init_heuristic``) in one ``em_loop``
    call; ``y_sq`` may give the squares y * y.  Each fit equals ``em_fit``
    of its row to the bit.  A ``y`` of no rows, a ``y_sq`` of another shape,
    ``inits`` of another length and an unusable ``tol`` or ``max_iter`` are
    a DomainError; then the rows are checked in order before any is fitted,
    so a row that fails a check raises as in ``em_fit``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or not len(y):
        raise DomainError(f"y must be a matrix of at least one row, got shape {y.shape}")
    if inits is not None and len(inits) != len(y):
        raise DomainError(f"inits must hold one start a row: {len(inits)} for {len(y)} rows")
    if y_sq is not None and np.shape(y_sq) != y.shape:
        raise DomainError(f"y_sq must have the shape of y, {y.shape}, got {np.shape(y_sq)}")
    if not tol > 0.0:  # also false for NaN
        raise DomainError(f"tol must be positive, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    starts = []
    for row, init in zip(y, [None] * len(y) if inits is None else inits):
        if row.size < 10:
            raise DomainError(f"EM fitting needs n >= 10, got {row.size}")
        _check_magnitudes(row)
        if (row == row[0]).all():
            raise DegenerateDataError("constant data cannot identify the mixture")
        if init is None:
            (init,), row_sq = _start(row, _mad_scale(row))
            if len(y) == 1 and y_sq is None:  # em_fit squares its row once
                y_sq = row_sq[None]
        sigma0, tau0, xi0 = (float(v) for v in init)
        _check_init(sigma0, tau0, xi0)
        starts.append((sigma0**2, tau0**2, xi0))
    fits = em_loop(y * y if y_sq is None else y_sq, *zip(*starts), tol, max_iter)
    return [
        EmEstimates(math.sqrt(sigma_sq), math.sqrt(tau_sq), xi, float(trace[-1]), iterations, converged, trace)
        for sigma_sq, tau_sq, xi, trace, iterations, converged in fits
    ]
