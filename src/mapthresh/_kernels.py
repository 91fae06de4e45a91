"""Hot-loop kernels: the penalized size scan and the EM iteration.

``penalized_scan`` is a reversed cumulative sum and one ``argmin`` per
penalty, along the last axis, so one call scans every row of a matrix
under every stacked penalty.
``em_loop`` makes one fused pass over the data per EM iteration, block by
block: every E-step quantity comes from a single vector of
per-observation odds, held with its scratch vector in one two-row buffer
of at most ``E_BLOCK`` columns allocated once per fit, so each block's
chain runs in cache.  A block is 11 NumPy calls with 4 reductions: the
log-likelihood sum, one row-wise sum of the buffer and two dot products.
Every block, the last one included, runs the whole chain (``_e_step``)
before the convergence check, so the pass that converges also computes
responsibilities it does not use: half a chain per block, about 5.5 us
at n = 1000.  A fit of several blocks cuts the vector into equal blocks,
runs the first half of them on one helper thread where more than one CPU
is usable, and adds their sums exactly rounded (``math.fsum``), so its
result does not depend on which thread ran a block; its dot products are
``np.einsum`` sums, not BLAS ``ddot``, so nor on the BLAS thread count.
It keeps the mixture weight in [1/n, 1 - 1/n] and the variance ratio at
or above ``TAU_SQ_FLOOR``.
"""

import contextlib
import contextvars
import functools
import math
import os

import numpy as np

from .errors import DegenerateDataError

__all__ = ["TAU_SQ_FLOOR", "penalized_scan", "slab_floor", "weight_floor", "em_loop"]

# Absolute floor on the variance ratio gamma = tau^2 / sigma^2.
TAU_SQ_FLOOR = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)

# Most squared observations per E-step block: a block and its two scratch
# rows take 1.5 MB, so they stay in a 2 MB L2 cache through the whole
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
    """The E-step blocks of a vector, in order, as views: ceil(n / ``E_BLOCK``)
    of them, whose sizes differ by at most one."""
    n = values.shape[0]
    k = max(1, -(-n // E_BLOCK))
    return [values[i * n // k : (i + 1) * n // k] for i in range(k)]


# The dot product of the E-step blocks of a fit of several blocks: NumPy's
# own sum of products, which releases the GIL and gives the same bits on
# any thread count, where ``np.dot`` calls BLAS ``ddot``, which splits
# vectors of more than 10,000 values across BLAS threads.
_einsum_dot = functools.partial(np.einsum, "i,i->")


def _e_step(ys, rows, e, w, scale, shift, dot):
    """``em_loop``'s E-step chain on one block of squares ``ys``, in its
    columns ``rows`` = [e; w] of a two-row scratch buffer: the odds into
    ``e`` and log1p(e) into ``w``, then [c; r], and the sums of log1p(e),
    c, r, c y^2 and r y^2."""
    np.multiply(ys, scale, out=e)
    e += shift
    np.exp(e, out=e)
    np.log1p(e, out=w)
    log1p_sum = float(np.add.reduce(w))
    np.add(e, 1.0, out=w)
    np.reciprocal(w, out=w)
    e *= w
    c_sum, r_sum = np.add.reduce(rows, axis=1).tolist()
    return log1p_sum, c_sum, r_sum, float(dot(e, ys)), float(dot(w, ys))


def _on_scratch(blocks, scratch):
    """Each block with its first columns of the two-row ``scratch``, as
    ``_e_step``'s leading arguments (ys, rows, e, w), built once per fit:
    slicing and unpacking the views anew on every pass would cost about
    1 us, as much as a NumPy call."""
    chains = []
    for ys in blocks:
        rows = scratch[:, : ys.size]
        chains.append((ys, rows, *rows))
    return chains


def em_loop(y_sq, sigma_sq, tau_sq, xi, tol, max_iter):
    """EM iterations for the two-component scale mixture of centered normals.

    ``y_sq`` are the n squared observations, a float64 array.  The weight
    stays in [1/n, 1 - 1/n]: the starting ``xi`` is clamped to it, and so
    is every update.  Each pass computes responsibilities for the wide
    component and the log-likelihood at the current parameters, then
    updates the parameters under the constraint gamma - log(1 + gamma) >=
    2 log((1 - xi) / xi), gamma = tau_sq / sigma_sq, with gamma also at
    least ``TAU_SQ_FLOOR``:

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
    r = 1/(1 + e) and the noise one c = e r.

    The E-step runs over ``_blocks(y_sq)``: ceil(n / ``E_BLOCK``) in-order
    views whose sizes differ by at most one, so each block's chain stays in
    cache.  ``e`` and the scratch vector are the two rows of one buffer as
    wide as the largest block, allocated once per fit, which ends a block's
    chain as [c; r], so one row-wise ``np.add.reduce`` gives both weight
    sums with the same pairwise sum per row as a sum of each row alone.
    No block is special: each runs the whole chain, ``_e_step``, and only
    then is convergence checked, so the converging pass computes one
    responsibility half-chain per block that it does not use (about
    5.5 us at n = 1000 and 2.5 ms over the 16 blocks at n = 1e6).  A fit
    of several blocks adds the blocks' sums exactly rounded
    (``math.fsum``), to the same total in any order; ``em_fit`` keeps
    n max(y^2) at or below half the float max, so no sum overflows.

    At n <= ``E_BLOCK`` an iteration is 11 NumPy calls on the whole
    vector, and the variance sums are two ``np.dot`` calls (the same BLAS
    ``ddot`` as ``@``, with less dispatch).  A fit of several blocks takes
    every variance sum with ``np.einsum`` instead: it releases the GIL, and
    no BLAS threads split its vectors, so the fit is the same on any
    thread or CPU count, while it can differ from one ``ddot`` over all n
    in the last bits of the variance sums.  When more than one CPU is
    usable, one helper thread, started per fit and ended with it, runs the
    first half of the blocks of each E-step on a scratch buffer of its
    own, under the caller's ``np.errstate``, while the calling thread runs
    the rest; the exactly rounded totals do not depend on which thread ran
    a block, so the helper does not change the result.  The usable CPUs
    are the process's affinity set where the OS reports one, else
    ``os.cpu_count()``.  Both variance sums are taken directly (c y^2, not
    sum(y^2) - r y^2), so one huge observation cannot cancel the noise sum
    to zero.  ``e`` cannot overflow: xi >= 1/n keeps
    log((1 - xi)/xi) <= log(n - 1), and log(1 + gamma)/2 < 355 for any
    finite gamma, so d < 710.  When every noise responsibility underflows
    to 0 (no observation looks like noise), the noise variance is
    undefined and DegenerateDataError is raised.

    The previous parameters are feasible for both steps, so each step
    cannot lower the expected complete-data log-likelihood and the trace
    is non-decreasing from any start that meets the constraint.  Stops
    once the relative log-likelihood change drops below ``tol``.  Returns
    (sigma_sq, tau_sq, xi, trace, iterations, converged).
    """
    n = y_sq.shape[0]
    xi_lo, xi_hi = 1.0 / n, 1.0 - 1.0 / n
    xi = min(max(xi, xi_lo), xi_hi)
    y_total = float(y_sq.sum())
    blocks = _blocks(y_sq)
    scratch = np.empty((2, max(map(len, blocks))))
    several = len(blocks) > 1
    # a helper thread takes the first half of the blocks when another CPU
    # is usable
    theirs = []
    if several:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        if cpus > 1:
            from concurrent.futures import ThreadPoolExecutor

            theirs = _on_scratch(blocks[: len(blocks) // 2], np.empty_like(scratch))
            # the helper runs in the caller's context, so its blocks obey
            # the caller's np.errstate as the caller's own blocks do
            context = contextvars.copy_context()
    mine = _on_scratch(blocks[len(theirs) :], scratch)
    trace = []
    previous = math.nan  # no earlier pass: the first comparison is false
    converged = False
    iterations = 0
    with (ThreadPoolExecutor(1) if theirs else contextlib.nullcontext()) as helper:
        while True:
            v1 = sigma_sq + tau_sq
            log_odds = math.log1p(-xi) - math.log(xi)
            scale = -0.5 * (tau_sq / v1) / sigma_sq
            shift = log_odds + 0.5 * math.log1p(tau_sq / sigma_sq)
            if several:
                pending = [
                    helper.submit(context.run, _e_step, *block, scale, shift, _einsum_dot)
                    for block in theirs
                ]
                sums = [_e_step(*block, scale, shift, _einsum_dot) for block in mine]
                sums += [future.result() for future in pending]
                log1p_sum, c_sum, r_sum, c_y, r_y = map(math.fsum, zip(*sums))
            else:
                log1p_sum, c_sum, r_sum, c_y, r_y = _e_step(*mine[0], scale, shift, np.dot)
            loglik = (
                n * (math.log(xi) - 0.5 * (_LOG_2PI + math.log(v1)))
                - 0.5 * y_total / v1
                + log1p_sum
            )
            trace.append(loglik)
            if abs(loglik - previous) <= tol * max(1.0, abs(loglik)):
                converged = True
                break
            if iterations >= max_iter:
                break
            previous = loglik
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
            iterations += 1
    return sigma_sq, tau_sq, xi, np.asarray(trace), iterations, converged
