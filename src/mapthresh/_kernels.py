"""Hot-loop kernels: the penalized size scan and the EM iteration.

``penalized_scan`` is a reversed cumulative sum and one ``argmin`` per
penalty, along the last axis, so one call scans every row of a matrix
under every stacked penalty.
``em_loop`` fits the rows of a matrix of squares by safeguarded SQUAREM
cycles over the EM map (Varadhan & Roland 2008, scheme S3), in one fused
pass over the data per E-step: the same chain of NumPy calls on each
cache-sized column block, for all the rows still iterating, each at its
own point, with the M-step and the cycle per row in ``math``.  Every
E-step sum is a row-wise ``np.add.reduce`` over a block, and a fit of
several blocks joins its block sums exactly rounded, so no fit depends
on the rows beside it or on the thread count.  It keeps the mixture
weight in [1/n, 1 - 1/n] and the variance ratio at or above
``TAU_SQ_FLOOR``.
"""

import contextlib
import contextvars
import math
import os

import numpy as np

from .errors import DegenerateDataError

__all__ = ["TAU_SQ_FLOOR", "penalized_scan", "slab_floor", "weight_floor", "em_loop"]

# Absolute floor on the variance ratio gamma = tau^2 / sigma^2.
TAU_SQ_FLOOR = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)

# Most squared observations per E-step block: a row's block and its two
# scratch rows take 1.5 MB, so they stay in a 2 MB L2 cache through the whole
# fused chain, which passes over long whole vectors cannot.
E_BLOCK = 2**16


def penalized_scan(sorted_sq, penalty, rest=0.0):
    """Minimize tail-sum-of-squares plus penalty over model sizes.

    ``sorted_sq`` holds the K largest squared observations in
    non-increasing order, ``penalty`` the K+1 per-size penalties and
    ``rest`` the sum of the squares left out (0 when all n are ranked).
    Returns (k_hat, objective) where objective[k] = rest +
    sum(sorted_sq[k:]) + penalty[k], the tail summed from the smallest
    square up.  Every candidate is scanned (penalty increments may be
    negative, so no early exit), and exact ties go to the smaller size.

    The scan runs along the last axis: a matrix ``sorted_sq`` holds one
    sequence per row, ``penalty`` is shared or given per row, ``rest`` is
    a scalar or one value per row, and ``k_hat`` is then an integer array.
    Each row gets the same sums as a 1-D call on it.  ``penalty`` may
    stack several penalties on a leading axis, one per prior: the tail
    sums are taken once and each penalty costs one add and one ``argmin``,
    with ``k_hat`` and ``objective`` stacked the same way.
    """
    n = sorted_sq.shape[-1]
    objective = np.empty(sorted_sq.shape[:-1] + (n + 1,))
    objective[..., :n] = sorted_sq
    objective[..., n] = rest
    tail = objective[..., ::-1]
    np.cumsum(tail, axis=-1, out=tail)
    if penalty.ndim > objective.ndim:  # a stack of penalties
        objective = objective + penalty
    else:
        objective += penalty
    k_hat = np.argmin(objective, axis=-1)
    return (int(k_hat) if objective.ndim == 1 else k_hat), objective


def slab_floor(xi):
    """Smallest gamma with gamma - log(1 + gamma) >= 2 log((1 - xi) / xi).

    Zero when xi >= 1/2.  Newton's method from 2a + 2, where the convex
    left-hand side already exceeds a = 2 log((1 - xi) / xi), so the
    iterates decrease onto the root from above.
    """
    a = 2.0 * (math.log1p(-xi) - math.log(xi))
    if a <= 0.0:
        return 0.0
    g = 2.0 * a + 2.0
    for _ in range(100):
        step = (g - math.log1p(g) - a) * (1.0 + g) / g
        g -= step
        if step <= 1e-12 * g:
            break
    return g


def weight_floor(gamma):
    """Smallest xi with gamma - log(1 + gamma) >= 2 log((1 - xi) / xi)."""
    e = math.exp(-0.5 * (gamma - math.log1p(gamma)))
    return e / (1.0 + e)


def _blocks(values):
    """The E-step blocks of the last axis of ``values``, in order, as views:
    ceil(n / ``E_BLOCK``) of them, whose sizes differ by at most one."""
    n = values.shape[-1]
    k = max(1, -(-n // E_BLOCK))
    return [values[..., i * n // k : (i + 1) * n // k] for i in range(k)]


def _e_step(ys, rows, e, w, scale, shift):
    """``em_loop``'s E-step chain on ``ys``, a block of squares a row a fit,
    in ``rows`` = [e; w] at (R, 1) columns ``scale`` and ``shift``: the odds
    into ``e`` and log1p(e) into ``w``, then [c; r], then [c y^2; r y^2] in
    place, and each row's ``np.add.reduce`` sums of log1p(e), c, r, c y^2
    and r y^2."""
    np.multiply(ys, scale, out=e)
    e += shift
    np.exp(e, out=e)
    np.log1p(e, out=w)
    log1p_sum = np.add.reduce(w, -1).tolist()
    np.add(e, 1.0, out=w)
    np.reciprocal(w, out=w)
    e *= w
    c_sum, r_sum = np.add.reduce(rows, -1).tolist()
    e *= ys
    w *= ys
    return (log1p_sum, c_sum, r_sum, *np.add.reduce(rows, -1).tolist())


def _chains(y_sq, scratch, helper_scratch):
    """The helper's and the caller's ``_e_step`` leading arguments (ys,
    rows, e, w) for the blocks of the rows ``y_sq``: the first half on
    ``helper_scratch`` if given, the rest on ``scratch``.  Slicing the views
    on every pass would cost about 1 us, as much as a NumPy call."""
    blocks = _blocks(y_sq)
    half = 0 if helper_scratch is None else len(blocks) // 2
    chains = []
    for k, ys in enumerate(blocks):
        rows = (scratch if k >= half else helper_scratch)[:, : len(ys), : ys.shape[-1]]
        chains.append((ys, rows, *rows))
    return chains[:half], chains[half:]


def _odds_line(sigma_sq, tau_sq, xi):
    """The scale and shift of the noise log-odds d = scale y^2 + shift."""
    scale = -0.5 * (tau_sq / (sigma_sq + tau_sq)) / sigma_sq
    return scale, math.log1p(-xi) - math.log(xi) + 0.5 * math.log1p(tau_sq / sigma_sq)


def _feasible(sigma_sq, tau_sq, xi, xi_lo, xi_hi):
    """Whether (sigma_sq, tau_sq, xi) is in ``em_loop``'s constrained set."""
    if not (0.0 < sigma_sq < math.inf and 0.0 < tau_sq < math.inf and xi_lo <= xi <= xi_hi):
        return False
    gamma = tau_sq / sigma_sq
    return gamma >= TAU_SQ_FLOOR and gamma - math.log1p(gamma) >= 2.0 * (math.log1p(-xi) - math.log(xi))


def _extrapolate(start, middle, end, xi_lo, xi_hi):
    """The SQUAREM point of a cycle start, F(start) and F(F(start)), or None.

    Each point is u = (log(sigma_sq / sigma0_sq), log(tau_sq / tau0_sq),
    logit xi) relative to the start, so a power-of-two rescaling of the data
    scales the result exactly.  With r = u1 - u0, v = u2 - 2 u1 + u0 and
    alpha = -|r| / |v|, the point is u0 - 2 alpha r + alpha^2 v.  None when
    alpha >= -1 (the point would be F(F(start))) or |v| = 0, when a
    coordinate exceeds 700 in magnitude, and when the start or the point
    is infeasible."""
    sigma0_sq, tau0_sq, _ = start
    if not _feasible(*start, xi_lo, xi_hi):
        return None
    u0, u1, u2 = (
        (math.log(s / sigma0_sq), math.log(t / tau0_sq), math.log(x) - math.log1p(-x))
        for s, t, x in (start, middle, end)
    )
    r = [b - a for a, b in zip(u0, u1)]
    v = [c - 2.0 * b + a for a, b, c in zip(u0, u1, u2)]
    norm_v = math.hypot(*v)
    if norm_v == 0.0:
        return None
    alpha = -math.hypot(*r) / norm_v
    if alpha >= -1.0:
        return None
    u = [a - 2.0 * alpha * dr + alpha * alpha * dv for a, dr, dv in zip(u0, r, v)]
    if not all(abs(c) <= 700.0 for c in u):
        return None
    point = sigma0_sq * math.exp(u[0]), tau0_sq * math.exp(u[1]), 1.0 / (1.0 + math.exp(-u[2]))
    return point if _feasible(*point, xi_lo, xi_hi) else None


@contextlib.contextmanager
def _row_buffers(n):
    """Ufunc buffers of at most one row of n values, which need no copy of a
    broadcast column (8 against 19 us for ``ys * scale + shift`` on 10 rows
    of 1000).  It never raises the buffer, so at NumPy's default of 8,192
    values a longer row leaves it as it is.  No result depends on the
    buffer size."""
    size = np.setbufsize(min(np.getbufsize(), 16 * -(-n // 16)))
    try:
        yield
    finally:
        np.setbufsize(size)


def em_loop(y_sq, sigma_sq, tau_sq, xi, tol, max_iter):
    """EM for the two-component scale mixture of centered normals, run as
    safeguarded SQUAREM cycles over the EM map F.

    ``y_sq`` are the n squared observations, a float64 vector, or an
    (R, n) matrix of them, one fit a row, with R values for each start.
    The weight stays in [1/n, 1 - 1/n]: the starting ``xi`` is clamped to
    it, and so is every update.  Each pass computes responsibilities for
    the wide component and the log-likelihood at a row's current point,
    then F updates the parameters under the constraint gamma - log(1 +
    gamma) >= 2 log((1 - xi) / xi), gamma = tau_sq / sigma_sq, with gamma
    also at least ``TAU_SQ_FLOOR``:

    * the variances take their closed-form update, or, when that breaks
      the bound on gamma at the current ``xi``, the constrained maximizer
      with gamma = max(TAU_SQ_FLOOR, slab_floor(xi));
    * ``xi`` takes its closed-form update, raised to ``weight_floor`` of
      the new gamma and clamped to [1/n, 1 - 1/n].

    The E-step is fused around the noise log-odds of each observation,
    with v0 = sigma_sq, v1 = sigma_sq + tau_sq:

        d = log((1 - xi)/xi) + log(v1/v0)/2 - y^2 (1/v0 - 1/v1)/2,
        e = exp(d).

    The log-likelihood is the wide component's term, whose sum over i is
    closed form, plus sum(log1p(e)); the wide responsibility is
    r = 1/(1 + e) and the noise one c = e r.  ``e`` and the scratch vector
    are the two planes of one buffer, which ends the chain (``_e_step``)
    as [c; r].  Every pass runs the whole chain, then the rest of the pass.

    Every fit runs one way: ``_blocks`` cuts the rows into ceil(n /
    ``E_BLOCK``) equal column views, so a row's chain stays in cache, and
    each pass runs ``_e_step`` once per block on all the rows still
    iterating, at (R, 1) scale and shift columns that each M-step rewrites.
    A pass where a row stops compacts the rows left.  Every sum, the
    variance sums over c y^2 and r y^2 formed in place of [c; r] included,
    is a row-wise ``np.add.reduce`` sum, equal to each row's own to the
    bit, so no fit depends on the rows beside it.  A fit of several blocks
    joins each row's block sums exactly rounded (``math.fsum``) and runs
    the first half of the blocks on a helper thread when more than one CPU
    is usable (the affinity set where the OS reports one, else
    ``os.cpu_count()``), on a buffer of its own, under the caller's
    ``np.errstate``.  No sum uses BLAS or depends on which thread ran a
    block, so a fit is the same on any thread or CPU count.

    Both variance sums are taken directly (c y^2, not sum(y^2) - r y^2),
    so one huge observation cannot cancel the noise sum to zero;
    ``em_fit`` keeps n max(y^2) at or below half the float max, so no sum
    overflows.  ``e`` cannot overflow: xi >= 1/n keeps
    log((1 - xi)/xi) <= log(n - 1), and log(1 + gamma)/2 < 355 for any
    finite gamma, so d < 710.  When every noise responsibility of a row
    underflows to 0 (no observation looks like noise), its noise variance
    is undefined and DegenerateDataError is raised.

    A cycle records two plain points, its start theta0 and theta1 =
    F(theta0); the second M-step gives theta2 = F(theta1), and
    ``_extrapolate`` a point theta' for the next pass, or None (the next
    cycle then starts at theta2).  A start off the constrained set, or a
    point of F that rounding puts just outside the bound, gets no
    extrapolation.  theta' is kept when its noise responsibilities do not
    all underflow and its log-likelihood is at least theta1's, and the
    next cycle starts at F(theta'); a refused theta' leaves no trace and
    raises nothing, and the next cycle starts at theta2.  The safeguard's
    gain and the extrapolation do not depend on the data's scale, so a
    power-of-two rescaling scales every point exactly, barring subnormal
    products.

    F's previous parameters are feasible for both of its steps, so F
    cannot lower the expected complete-data log-likelihood; with the
    safeguard, the trace (theta0, theta1, a kept theta', then the next
    cycle) is non-decreasing from any start that meets the constraint.
    The stopping rule runs at plain points only: a fit stops once its
    relative log-likelihood change from the last recorded point drops
    below ``tol``, so a converged fit returns a point of F.  ``iterations``
    counts the recorded steps, len(trace) - 1, which ``max_iter`` caps.
    Returns (sigma_sq, tau_sq, xi, trace, iterations, converged), or a
    list of them for a matrix.
    """
    if y_sq.ndim == 1:
        return em_loop(y_sq[None], [sigma_sq], [tau_sq], [xi], tol, max_iter)[0]
    count, n = y_sq.shape
    xi_lo, xi_hi = 1.0 / n, 1.0 - 1.0 / n
    params = [(s, t, min(max(x, xi_lo), xi_hi)) for s, t, x in zip(sigma_sq, tau_sq, xi)]
    coefs = np.array([_odds_line(*row) for row in params]).T[..., None]
    scale, shift = coefs
    y_total = np.add.reduce(y_sq, axis=-1).tolist()
    blocks = _blocks(y_sq)
    scratch = np.empty((2, count, max(ys.shape[-1] for ys in blocks)))
    helper_scratch, helper = None, contextlib.nullcontext()
    if len(blocks) > 1:
        # a helper thread takes the first half of the blocks when another
        # CPU is usable
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        if cpus > 1:
            from concurrent.futures import ThreadPoolExecutor

            helper_scratch, helper = np.empty_like(scratch), ThreadPoolExecutor(1)
            # the helper runs in the caller's context, so its blocks obey
            # the caller's np.errstate as the caller's own blocks do
            context = contextvars.copy_context()
    theirs, mine = _chains(y_sq, scratch, helper_scratch)
    traces = [[] for _ in range(count)]
    fits = [None] * count
    active = list(range(count))
    # per row: 0 at a cycle's start, 1 at its second plain point, 2 at an
    # extrapolated point; the cycle's start, and at 2 the fallback and the
    # second plain point's xi, sigma_sq + tau_sq and sum of log1p(e)
    phases = [0] * count
    starts = [None] * count
    fallbacks = [None] * count
    with _row_buffers(n), helper:
        while True:
            pending = [helper.submit(context.run, _e_step, *chain, scale, shift) for chain in theirs]
            sums = [_e_step(*chain, scale, shift) for chain in mine]
            sums += [future.result() for future in pending]
            # each row's sums, joined over the blocks exactly rounded
            sums = sums[0] if len(sums) == 1 else [map(math.fsum, zip(*quantity)) for quantity in zip(*sums)]
            kept = []
            for p, (i, log1p_sum, c_sum, r_sum, c_y, r_y) in enumerate(zip(active, *sums)):
                sigma_sq, tau_sq, xi = params[i]
                v1 = sigma_sq + tau_sq
                log_odds = math.log1p(-xi) - math.log(xi)
                trace = traces[i]
                phase = phases[i]
                if phase == 2:
                    # the extrapolated point, kept if it gains over the
                    # second plain point, in terms that do not depend on
                    # the data's scale
                    point, xi_1, v1_1, log1p_sum_1 = fallbacks[i]
                    gain = (
                        n * (math.log(xi) - math.log(xi_1) - 0.5 * math.log(v1 / v1_1))
                        - 0.5 * y_total[i] * (1.0 / v1 - 1.0 / v1_1)
                        + (log1p_sum - log1p_sum_1)
                    )
                    if not (c_sum > 0.0 and gain >= 0.0):  # the cycle ends at F(F(start))
                        params[i] = point
                        phases[i] = 0
                        scale[p, 0], shift[p, 0] = _odds_line(*point)
                        kept.append(p)
                        continue
                loglik = (
                    n * (math.log(xi) - 0.5 * (_LOG_2PI + math.log(v1)))
                    - 0.5 * y_total[i] / v1
                    + log1p_sum
                )
                # the stopping rule runs at plain points only; no earlier
                # pass: the first comparison is false
                previous = trace[-1] if trace and phase < 2 else math.nan
                trace.append(loglik)
                converged = abs(loglik - previous) <= tol * max(1.0, abs(loglik))
                if converged or len(trace) > max_iter:
                    fits[i] = (sigma_sq, tau_sq, xi, np.asarray(trace), len(trace) - 1, converged)
                    continue
                if c_sum == 0.0:
                    raise DegenerateDataError(
                        "every noise responsibility underflowed: no observation fits the noise component"
                    )
                sigma_sq = c_y / c_sum
                tau_sq = r_y / r_sum - sigma_sq
                gamma = tau_sq / sigma_sq
                if gamma < TAU_SQ_FLOOR or gamma - math.log1p(gamma) < 2.0 * log_odds:
                    gamma = max(TAU_SQ_FLOOR, slab_floor(xi))
                    sigma_sq = (c_y + r_y / (1.0 + gamma)) / n
                    tau_sq = gamma * sigma_sq
                xi = min(max(r_sum / n, xi_lo, weight_floor(gamma)), xi_hi)
                point = sigma_sq, tau_sq, xi
                if phase == 0:  # the cycle's first step
                    starts[i], phases[i] = params[i], 1
                elif phase == 1:  # its second: extrapolate, or start the next cycle here
                    extrapolated = _extrapolate(starts[i], params[i], point, xi_lo, xi_hi)
                    if extrapolated is not None:
                        fallbacks[i] = point, params[i][2], v1, log1p_sum
                        point = extrapolated
                    phases[i] = 0 if extrapolated is None else 2
                else:  # F of a kept extrapolation starts the next cycle
                    phases[i] = 0
                params[i] = point
                scale[p, 0], shift[p, 0] = _odds_line(*point)
                kept.append(p)
            if len(kept) < len(active):  # compact the rows still iterating
                if not kept:
                    return fits
                active = [active[p] for p in kept]
                y_sq, coefs = y_sq.take(kept, 0), coefs.take(kept, 1)
                scale, shift = coefs
                theirs, mine = _chains(y_sq, scratch, helper_scratch)
