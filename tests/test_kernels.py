"""The fused NumPy EM kernel against a plain, unfused reference map and,
bit for bit up to one E-step block, against the kernel it replaced, both
driven by one SQUAREM cycle written here from ``em_loop``'s scheme."""

import collections
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mapthresh.baselines
import mapthresh.em
import mapthresh.estimator
import mapthresh._kernels
from mapthresh import _kernels, init_heuristic, marginal_loglik
from mapthresh._kernels import E_BLOCK, TAU_SQ_FLOOR, slab_floor, weight_floor
from mapthresh.errors import DegenerateDataError

_LOG_2PI = math.log(2.0 * math.pi)
_NO_NOISE = "every noise responsibility underflowed: no observation fits the noise component"


def reference_em_step(y_sq, xi_lo, xi_hi, tau_floor):
    """One EM pass with the E-step written out term by term: both component
    log-densities, ``logaddexp`` for the log-likelihood, and the noise sums
    by subtraction.  The map takes a point to (log-likelihood, sum of
    log1p of the noise odds, noise responsibility sum, the next point, and
    whether the variance step sat on the slab floor)."""
    n = y_sq.shape[0]
    y_total = float(np.sum(y_sq))

    def step(sigma_sq, tau_sq, xi):
        v0 = sigma_sq
        v1 = sigma_sq + tau_sq
        l0 = np.log1p(-xi) - 0.5 * (_LOG_2PI + np.log(v0) + y_sq / v0)
        l1 = np.log(xi) - 0.5 * (_LOG_2PI + np.log(v1) + y_sq / v1)
        loglik = float(np.sum(np.logaddexp(l0, l1)))
        log1p_sum = float(np.sum(np.log1p(np.exp(l0 - l1))))
        r = 1.0 / (1.0 + np.exp(l0 - l1))
        r_sum = float(np.sum(r))
        r_y = float(np.sum(r * y_sq))
        c_y = y_total - r_y
        c_sum = n - r_sum
        if c_sum == 0.0:
            return loglik, log1p_sum, c_sum, None, False
        sigma_sq = c_y / c_sum
        tau_sq = r_y / r_sum - sigma_sq
        gamma = tau_sq / sigma_sq
        log_odds = math.log1p(-xi) - math.log(xi)
        floored = gamma < tau_floor or gamma - math.log1p(gamma) < 2.0 * log_odds
        if floored:
            gamma = max(tau_floor, _kernels.slab_floor(xi))
            sigma_sq = (c_y + r_y / (1.0 + gamma)) / n
            tau_sq = gamma * sigma_sq
        xi = min(max(r_sum / n, xi_lo, _kernels.weight_floor(gamma)), xi_hi)
        return loglik, log1p_sum, c_sum, (sigma_sq, tau_sq, xi), floored

    return step


def previous_em_step(y_sq, total):
    """One pass of ``_kernels.em_loop`` as it was before its E-step shared
    one (2, n) buffer and then ran in blocks, kept verbatim but for its
    variance sums, which it takes as the kernel does, as ``np.add.reduce``
    of the products rather than with ``@`` (BLAS ``ddot``): the bit-for-bit
    reference for one block, n <= E_BLOCK.  Each E-step sum is ``total``;
    with ``blocked_sum`` it is the bit-for-bit reference for several
    blocks.  The map's values are ``reference_em_step``'s."""
    n = y_sq.shape[0]
    xi_lo, xi_hi = 1.0 / n, 1.0 - 1.0 / n
    y_total = float(y_sq.sum())

    def step(sigma_sq, tau_sq, xi):
        e = np.empty(n)
        w = np.empty(n)
        v1 = sigma_sq + tau_sq
        log_odds = math.log1p(-xi) - math.log(xi)
        np.multiply(y_sq, -0.5 * (tau_sq / v1) / sigma_sq, out=e)
        e += log_odds + 0.5 * math.log1p(tau_sq / sigma_sq)
        np.exp(e, out=e)
        np.log1p(e, out=w)
        log1p_sum = total(w)
        loglik = n * (math.log(xi) - 0.5 * (_LOG_2PI + math.log(v1))) - 0.5 * y_total / v1 + log1p_sum
        np.add(e, 1.0, out=w)
        np.reciprocal(w, out=w)
        r_sum = total(w)
        r_y = total(w * y_sq)
        e *= w
        c_sum = total(e)
        if c_sum == 0.0:
            return loglik, log1p_sum, c_sum, None, False
        c_y = total(e * y_sq)
        sigma_sq = c_y / c_sum
        tau_sq = r_y / r_sum - sigma_sq
        gamma = tau_sq / sigma_sq
        floored = gamma < TAU_SQ_FLOOR or gamma - math.log1p(gamma) < 2.0 * log_odds
        if floored:
            gamma = max(TAU_SQ_FLOOR, slab_floor(xi))
            sigma_sq = (c_y + r_y / (1.0 + gamma)) / n
            tau_sq = gamma * sigma_sq
        xi = min(max(r_sum / n, xi_lo, weight_floor(gamma)), xi_hi)
        return loglik, log1p_sum, c_sum, (sigma_sq, tau_sq, xi), floored

    return step


class Decisions:
    """Every yes/no decision of a ``squarem`` run's cycles, in order.

    Recording, it keeps each outcome.  Replaying another run's record
    (``Decisions(record)``), it returns the recorded outcome and checks that
    its own agrees, except at a close call: a point within 1e-12 of the
    identifiability bound, or a gain within 1e-12 of the log-likelihood.
    Two maps that agree to rounding can fall on either side of such a
    call, so the term-by-term map follows the kernel's path through it."""

    def __init__(self, record=None):
        self.outcomes = []
        self.replay = None if record is None else iter(record.outcomes)

    def __call__(self, outcome, close=False):
        if self.replay is not None:
            recorded = next(self.replay)
            assert close or outcome == recorded
            outcome = recorded
        self.outcomes.append(outcome)
        return outcome


def feasible(theta, n, decide):
    sigma_sq, tau_sq, xi = theta
    if not decide(0.0 < sigma_sq < math.inf and 0.0 < tau_sq < math.inf and 1.0 / n <= xi <= 1.0 - 1.0 / n):
        return False
    gamma = tau_sq / sigma_sq
    if not decide(gamma >= TAU_SQ_FLOOR):
        return False
    margin = gamma - math.log1p(gamma) - 2.0 * (math.log1p(-xi) - math.log(xi))
    return decide(margin >= 0.0, abs(margin) <= 1e-12)


def extrapolate(theta0, theta1, theta2, n, decide):
    """The scheme's extrapolated point from a cycle's three map points, or
    None with the reason it is skipped."""
    if not feasible(theta0, n, decide):
        return None, "infeasible start"
    sigma0_sq, tau0_sq, _ = theta0
    u0, u1, u2 = [
        (math.log(sigma_sq / sigma0_sq), math.log(tau_sq / tau0_sq), math.log(xi) - math.log1p(-xi))
        for sigma_sq, tau_sq, xi in (theta0, theta1, theta2)
    ]
    r = [u1[j] - u0[j] for j in range(3)]
    v = [u2[j] - 2.0 * u1[j] + u0[j] for j in range(3)]
    if decide(math.hypot(*v) == 0.0):
        return None, "no curvature"
    alpha = -math.hypot(*r) / math.hypot(*v)
    if decide(alpha >= -1.0):
        return None, "short step"
    u = [u0[j] - 2.0 * alpha * r[j] + alpha * alpha * v[j] for j in range(3)]
    if not decide(all(abs(c) <= 700.0 for c in u)):
        return None, "too far"
    theta = (sigma0_sq * math.exp(u[0]), tau0_sq * math.exp(u[1]), 1.0 / (1.0 + math.exp(-u[2])))
    return (theta, None) if feasible(theta, n, decide) else (None, "infeasible point")


def squarem(step, n, y_total, theta, tol, max_iter, tally=None, decide=None):
    """SQUAREM cycles over the EM map ``step`` from ``theta``, as
    ``em_loop`` runs them: two plain points, each recorded and checked by
    the stopping rule, then an extrapolated point that is recorded and kept
    only when its log-likelihood is at least the second plain point's; the
    next cycle starts at F of the kept point, else at F(F(start)).  Returns
    ``em_loop``'s tuple; ``tally`` counts the E-steps, the extrapolations
    kept and refused and each reason to skip one, and records whether the
    step that made the returned point sat on the slab floor.  ``decide``
    (a ``Decisions``) sees every decision of the cycles."""
    tally = collections.Counter() if tally is None else tally
    decide = Decisions() if decide is None else decide
    trace = []
    floored = False
    while True:
        start = theta
        plain = []
        for _ in range(2):
            loglik, log1p_sum, c_sum, following, floor = step(*theta)
            tally["e_steps"] += 1
            previous = trace[-1] if trace else math.nan
            trace.append(loglik)
            converged = abs(loglik - previous) <= tol * max(1.0, abs(loglik))
            if converged or len(trace) > max_iter:
                tally["floored"] = floored
                return (*theta, np.asarray(trace), len(trace) - 1, converged)
            if following is None:
                raise DegenerateDataError(_NO_NOISE)
            plain.append((theta, log1p_sum))
            theta, floored = following, floor
        (middle, log1p_sum_1), end = plain[1], theta
        point, skipped = extrapolate(start, middle, end, n, decide)
        if point is None:
            tally[skipped] += 1
            continue
        loglik, log1p_sum, c_sum, following, floor = step(*point)
        tally["e_steps"] += 1
        xi, v1 = point[2], point[0] + point[1]
        xi_1, v1_1 = middle[2], middle[0] + middle[1]
        gain = (
            n * (math.log(xi) - math.log(xi_1) - 0.5 * math.log(v1 / v1_1))
            - 0.5 * y_total * (1.0 / v1 - 1.0 / v1_1)
            + (log1p_sum - log1p_sum_1)
        )
        if not decide(c_sum > 0.0 and gain >= 0.0, abs(gain) <= 1e-12 * max(1.0, abs(loglik))):
            tally["refused"] += 1
            continue
        tally["kept"] += 1
        trace.append(loglik)
        if len(trace) > max_iter:
            tally["floored"] = False
            return (*point, np.asarray(trace), len(trace) - 1, False)
        theta, floored = following, floor


def plain_em(step, theta, tol, max_iter, tally=None):
    """Plain EM over the map ``step``: every pass recorded and checked."""
    tally = collections.Counter() if tally is None else tally
    trace = []
    while True:
        loglik, _, _, following, _ = step(*theta)
        tally["e_steps"] += 1
        previous = trace[-1] if trace else math.nan
        trace.append(loglik)
        converged = abs(loglik - previous) <= tol * max(1.0, abs(loglik))
        if converged or len(trace) > max_iter:
            return (*theta, np.asarray(trace), len(trace) - 1, converged)
        if following is None:
            raise DegenerateDataError(_NO_NOISE)
        theta = following


def reference_em_loop(y_sq, sigma_sq, tau_sq, xi, tol, max_iter, xi_lo, xi_hi, tau_floor, decide=None):
    step = reference_em_step(y_sq, xi_lo, xi_hi, tau_floor)
    return squarem(step, y_sq.shape[0], float(np.sum(y_sq)), (sigma_sq, tau_sq, xi), tol, max_iter, decide=decide)


def mixture(n, xi, tau, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    mu = np.where(rng.random(n) < xi, tau * rng.standard_normal(n), 0.0)
    return scale * (mu + rng.standard_normal(n))


CASES = {
    "n10": mixture(10, 0.3, 4.0, 23),
    "n50": mixture(50, 0.2, 4.0, 24),
    "n500": mixture(500, 0.05, 5.0, 25),
    "n2000": mixture(2000, 0.01, 3.0, 26),
    "scale_1e150": mixture(500, 0.05, 5.0, 27, scale=1e150),
    "scale_1e-150": mixture(500, 0.05, 5.0, 27, scale=1e-150),
    "tied": np.tile([0.5, -0.5, 1.5, -1.5, 6.0, -6.0, 0.5, -0.5, 1.5, -0.5], 20),
    "dense": mixture(1000, 0.6, 3.0, 28),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_em_matches_reference(name):
    y = CASES[name]
    n = y.size
    for args in both_starts(y):
        s, t, x, trace, it, conv = _kernels.em_loop(*args)
        kernel_path = Decisions()  # the previous kernel's cycles are the kernel's to the bit
        previous_em_loop(*args, decide=kernel_path)
        s_ref, t_ref, x_ref, trace_ref, it_ref, conv_ref = reference_em_loop(
            *args, 1.0 / n, 1.0 - 1.0 / n, 1e-8, decide=Decisions(kernel_path)
        )
        assert (it, conv) == (it_ref, conv_ref)
        assert s == pytest.approx(s_ref, rel=1e-12)
        assert t == pytest.approx(t_ref, rel=1e-12)
        assert x == pytest.approx(x_ref, rel=1e-12)
        assert len(trace) == len(trace_ref)
        assert np.allclose(trace, trace_ref, rtol=1e-12, atol=0.0)
        assert trace[-1] == pytest.approx(
            marginal_loglik(y, math.sqrt(s), math.sqrt(t), x), rel=1e-12
        )


def one_sum(values):
    return float(np.add.reduce(values))


def blocked_sum(values):
    """A sum as ``em_loop`` takes it over several blocks: one
    ``np.add.reduce`` per ``_kernels._blocks`` block, joined by ``math.fsum``."""
    return math.fsum(np.add.reduce(block) for block in _kernels._blocks(values))


def previous_em_loop(y_sq, sigma_sq, tau_sq, xi, tol, max_iter, total=one_sum, drive=squarem, tally=None, decide=None):
    """``previous_em_step`` driven as ``em_loop`` drives its map, from the
    start with ``xi`` clamped to [1/n, 1 - 1/n] as the kernel clamps it."""
    n = y_sq.shape[0]
    theta = sigma_sq, tau_sq, min(max(xi, 1.0 / n), 1.0 - 1.0 / n)
    step = previous_em_step(y_sq, total)
    if drive is plain_em:
        return plain_em(step, theta, tol, max_iter, tally)
    return squarem(step, n, float(y_sq.sum()), theta, tol, max_iter, tally, decide)


def fit_args(y, max_iter=500):
    """em_loop's arguments as em_fit builds them from the default start."""
    sigma0, tau0, xi0 = init_heuristic(y)
    return y**2, sigma0**2, tau0**2, xi0, 1e-8, max_iter


def both_starts(y):
    """em_loop's arguments from em_fit's default start, which is feasible,
    and from the reference test's, which breaks the identifiability bound."""
    scale_sq = float(np.median(y**2)) / 0.4549  # median of chi^2_1
    return fit_args(y), (y**2, 1.1 * scale_sq, 4.0 * scale_sq, 0.1, 1e-8, 500)


def sparse_weak_replication():
    # test_em.py::test_sparse_weak_replication_keeps_slab_as_signal: its fit
    # ends on the identifiability bound, through the slab_floor branch
    rng = np.random.default_rng(np.random.SeedSequence([20260815, 0, 10]))
    signal = rng.random(1000) < 0.005
    mu = np.where(signal, 3.0 * rng.standard_normal(1000), 0.0)
    return mu + rng.standard_normal(1000)


BIT_CASES = {**CASES, "n50001": mixture(50_001, 0.05, 4.0, 34)}


def assert_same_fit(args, tally=None):
    got = _kernels.em_loop(*args)
    want = previous_em_loop(*args, tally=tally)
    for field in (0, 1, 2, 4, 5):
        assert got[field] == want[field]
    assert np.array_equal(got[3], want[3])
    return got


@pytest.mark.parametrize("name", sorted(BIT_CASES))
def test_em_loop_is_bit_identical_to_the_previous_kernel(name):
    for args in both_starts(BIT_CASES[name]):
        assert_same_fit(args)


def test_em_loop_bit_identity_reaches_the_slab_floor():
    sigma_sq, tau_sq, xi, _, _, converged = assert_same_fit(fit_args(sparse_weak_replication()))
    assert converged
    # gamma is slab_floor of the previous xi, which the last step moved a little
    assert tau_sq / sigma_sq == pytest.approx(slab_floor(xi), rel=1e-4)


def test_em_loop_bit_identity_at_an_iteration_cutoff():
    got = assert_same_fit(fit_args(CASES["n2000"], max_iter=3))
    assert got[4:] == (3, False)


def test_every_path_of_the_cycle_runs_on_the_cases():
    paths, squarem_steps, plain_steps = collections.Counter(), 0, 0
    floored = 0
    for name in sorted(CASES):
        for feasible_start, args in zip((True, False), both_starts(CASES[name])):
            tally, plain = collections.Counter(), collections.Counter()
            sigma_sq, tau_sq, xi, trace, _, converged = assert_same_fit(args, tally)
            previous_em_loop(*args, drive=plain_em, tally=plain)
            squarem_steps += tally.pop("e_steps")
            plain_steps += plain["e_steps"]
            if feasible_start:
                assert np.all(np.diff(trace) >= 0.0), name
            # a converged fit returns a point of the EM map, on the bound
            # when the map's last variance step sat on the slab floor
            if converged and tally.pop("floored"):
                floored += 1
                assert tau_sq / sigma_sq == pytest.approx(slab_floor(xi), rel=1e-4)
            paths.update(tally)
    assert paths["kept"] and paths["refused"] and paths["infeasible start"] and floored
    assert squarem_steps <= plain_steps


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_step_is_plain_em_to_the_bit(name):
    for args in both_starts(CASES[name]):
        args = args[:-1] + (1,)
        got = _kernels.em_loop(*args)
        want = previous_em_loop(*args, drive=plain_em)
        assert got[:3] == want[:3] and got[4:] == want[4:] == (1, False)
        assert got[3].tobytes() == want[3].tobytes()


@pytest.mark.parametrize("factor", [4.0, 2.0**-20])
def test_a_power_of_two_rescaling_scales_every_step_exactly(factor):
    # at tol 1e-300 a fit stops only where its log-likelihood repeats
    # exactly, which the log-likelihood's scale decides; every point up to
    # there scales exactly
    for name in ("n50", "n500", "n2000", "tied"):
        y_sq, sigma_sq, tau_sq, xi, _, _ = fit_args(CASES[name])
        for max_iter in range(1, 21):
            got = _kernels.em_loop(y_sq, sigma_sq, tau_sq, xi, 1e-300, max_iter)
            scaled = _kernels.em_loop(factor * y_sq, factor * sigma_sq, factor * tau_sq, xi, 1e-300, max_iter)
            assert scaled[:3] == (factor * got[0], factor * got[1], got[2])
            assert scaled[4] == got[4]
            if got[5] or scaled[5]:
                break


def assert_same_fits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.sigma_hat, a.tau_hat, a.xi_hat, a.loglik, a.iterations, a.converged) == (
            b.sigma_hat, b.tau_hat, b.xi_hat, b.loglik, b.iterations, b.converged
        )
        assert a.loglik_trace.tobytes() == b.loglik_trace.tobytes()


@pytest.mark.parametrize("n", [10, 1000, 8193, 20_000, E_BLOCK, 2 * E_BLOCK + 3])
def test_each_row_of_a_block_fit_is_its_one_row_fit_to_the_bit(n):
    y = np.stack([mixture(n, xi, 4.0, 40 + i) for i, xi in enumerate((0.3, 0.05, 0.01))])
    if n == 1000:
        y[1] = sparse_weak_replication()
    inits, y_sq = mapthresh.em._start(y, mapthresh.baselines._mad_scale(y))
    fits = mapthresh.em.em_fit_rows(y, y_sq, inits)
    assert_same_fits(fits, [mapthresh.em_fit(row, init=init) for row, init in zip(y, inits)])
    assert_same_fits(mapthresh.em.em_fit_rows(y), fits)
    iterations = sorted(fit.iterations for fit in fits)
    assert iterations[0] < iterations[-1]  # rows drop out at different passes
    if n == 1000:  # the sparse, weak row ends on the identifiability bound
        gamma = (fits[1].tau_hat / fits[1].sigma_hat) ** 2
        assert fits[1].converged and gamma == pytest.approx(slab_floor(fits[1].xi_hat), rel=1e-4)
    # the rows of more steps than max_iter are cut while the others converge
    # (the two slowest rows may take as many steps)
    max_iter = iterations[-1] - 1
    cut = mapthresh.em.em_fit_rows(y, y_sq, inits, max_iter=max_iter)
    assert [fit.converged for fit in cut] == [fit.iterations <= max_iter for fit in fits]
    assert sorted({fit.converged for fit in cut}) == [False, True]
    assert_same_fits(
        cut, [mapthresh.em_fit(row, init=init, max_iter=max_iter) for row, init in zip(y, inits)]
    )


@pytest.mark.parametrize(
    "n", [1, 7, 8, 9, 128, 129, E_BLOCK, E_BLOCK + 1, 2 * E_BLOCK + 3, 1_000_003]
)
def test_blocks_are_equal_in_order_views(n):
    values = np.arange(n, dtype=float)
    blocks = _kernels._blocks(values)
    assert len(blocks) == -(-n // E_BLOCK)
    assert all(np.shares_memory(b, values) for b in blocks)
    assert np.array_equal(np.concatenate(blocks), values)
    sizes = [b.size for b in blocks]
    assert max(sizes) - min(sizes) <= 1


def test_em_loop_over_several_blocks_follows_the_previous_kernel():
    y = mixture(200_003, 0.05, 4.0, 35)
    assert len(_kernels._blocks(y)) == 4
    args = fit_args(y)
    got = _kernels.em_loop(*args)
    want = previous_em_loop(*args)
    assert got[4:] == want[4:] and got[5]
    for field in (0, 1, 2):
        assert got[field] == pytest.approx(want[field], rel=1e-13, abs=0.0)
    assert np.allclose(got[3], want[3], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("max_iter", [500, 3])
def test_em_loop_over_several_blocks_is_bit_identical_to_the_blocked_reference(max_iter):
    y = mixture(200_003, 0.05, 4.0, 35)
    assert len(_kernels._blocks(y)) == 4
    args = fit_args(y, max_iter)
    got = _kernels.em_loop(*args)
    want = previous_em_loop(*args, total=blocked_sum)
    assert got[:3] == want[:3] and got[4:] == want[4:]
    assert got[3].tobytes() == want[3].tobytes()
    assert got[5] == (max_iter == 500)  # the cut at 3 passes stops the fit early


def test_em_loop_raises_as_the_previous_kernel_on_data_with_no_noise():
    args = fit_args(1e6 + np.arange(100.0))
    with pytest.raises(DegenerateDataError) as got:
        _kernels.em_loop(*args)
    with pytest.raises(DegenerateDataError) as want:
        previous_em_loop(*args)
    assert str(got.value) == str(want.value)


# em_fit of saved data in a fresh interpreter, pinned to one CPU before
# NumPy loads when asked: the repr of every fitted value and of the trace
_FIT_IN_A_CHILD = """
import os, sys
if sys.argv[2] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from mapthresh import em_fit
fit = em_fit(np.load(sys.argv[1]))
print(repr((fit.sigma_hat, fit.tau_hat, fit.xi_hat, fit.loglik_trace.tolist())))
"""


def assert_same_fit_on_any_thread_count(y, tmp_path):
    data = tmp_path / "y.npy"
    np.save(data, y)
    env = dict(os.environ, PYTHONPATH=str(Path(mapthresh.__file__).parents[1]))
    settings = [(env, "default"), (dict(env, OPENBLAS_NUM_THREADS="1"), "default")]
    if hasattr(os, "sched_setaffinity"):
        settings.append((env, "one-cpu"))
    fits = []
    for child_env, cpus in settings:
        done = subprocess.run([sys.executable, "-c", _FIT_IN_A_CHILD, str(data), cpus],
                              capture_output=True, text=True, env=child_env)
        assert done.returncode == 0, done.stderr
        fits.append(done.stdout)
    assert fits[1:] == fits[:1] * (len(fits) - 1)
    fit = mapthresh.em_fit(y)
    assert fits[0].strip() == repr(
        (fit.sigma_hat, fit.tau_hat, fit.xi_hat, fit.loglik_trace.tolist())
    )


def test_a_fit_of_several_blocks_is_the_same_on_any_thread_count(tmp_path):
    # the parent kernel's np.dot split these sums across BLAS threads, so
    # its fit here moved in the last bits with OPENBLAS_NUM_THREADS=1
    y = mixture(200_003, 0.05, 4.0, 35)
    assert len(_kernels._blocks(y)) == 4
    assert_same_fit_on_any_thread_count(y, tmp_path)


def test_a_fit_of_one_long_block_is_the_same_on_any_thread_count(tmp_path):
    # above 10,000 values BLAS ddot splits a sum across threads; one-block
    # variance sums are NumPy's own row-wise sums, which no thread splits
    y = BIT_CASES["n50001"]
    assert len(_kernels._blocks(y)) == 1
    assert_same_fit_on_any_thread_count(y, tmp_path)


def test_em_loop_over_several_blocks_raises_as_the_previous_kernel_and_ends_its_thread():
    y = 1e6 + np.arange(200_003.0)
    assert len(_kernels._blocks(y)) == 4
    # em_fit's own start fits these data; from a narrow noise component
    # every noise responsibility underflows in the first pass
    args = (y**2, 1e6, 1e12, 0.5, 1e-8, 500)
    threads = threading.active_count()
    with pytest.raises(DegenerateDataError) as got:
        _kernels.em_loop(*args)
    assert threading.active_count() == threads
    with pytest.raises(DegenerateDataError) as want:
        previous_em_loop(*args)
    assert str(got.value) == str(want.value)
    assert _kernels.em_loop(*fit_args(y))[5]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus, helpers", [(2, 1), (None, 0)])
def test_em_loop_over_several_blocks_runs_where_the_os_reports_no_affinity(
    monkeypatch, cpus, helpers
):
    # as on macOS and Windows: the CPU count falls back to os.cpu_count()
    import concurrent.futures

    args = fit_args(mixture(200_003, 0.05, 4.0, 35))
    want = _kernels.em_loop(*args)
    started = []

    class Executor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *a, **k):
            started.append(self)
            super().__init__(*a, **k)

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Executor)
    got = _kernels.em_loop(*args)
    assert len(started) == helpers
    assert got[:3] == want[:3] and got[4:] == want[4:]
    assert got[3].tobytes() == want[3].tobytes()


def test_the_helper_thread_keeps_the_callers_error_state():
    # an observation whose noise odds underflow, in a block the helper runs
    # on a host with more than one CPU
    y = mixture(200_003, 0.05, 4.0, 35)
    y[:100] = 1e4
    args = fit_args(y)
    for loop in (_kernels.em_loop, previous_em_loop):
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            loop(*args)
    assert _kernels.em_loop(*args)[5]


def test_scan_of_a_matrix_equals_a_scan_of_each_row():
    rng = np.random.default_rng(29)
    n = 203
    sorted_sq = -np.sort(-rng.standard_normal((6, n)) ** 2, axis=-1)
    sorted_sq[3] = 1.0  # exact ties between sizes
    shared = np.cumsum(np.full(n + 1, 1.0))
    per_row = np.cumsum(rng.uniform(-1.0, 5.0, (6, n + 1)), axis=-1)
    rest = rng.uniform(0.0, 3.0, 6)
    for penalty in (shared, per_row):
        k_hat, objective = _kernels.penalized_scan(sorted_sq, penalty, rest)
        assert k_hat.shape == (6,)
        for row in range(6):
            row_penalty = penalty if penalty.ndim == 1 else penalty[row]
            k, obj = _kernels.penalized_scan(sorted_sq[row], row_penalty, rest[row])
            assert type(k) is int and k_hat[row] == k
            assert objective[row].tobytes() == obj.tobytes()


def test_a_stack_of_penalties_equals_one_scan_per_penalty():
    rng = np.random.default_rng(31)
    n = 203
    sorted_sq = -np.sort(-rng.standard_normal((6, n)) ** 2, axis=-1)
    stacks = (
        np.cumsum(rng.uniform(-1.0, 5.0, (3, 1, n + 1)), axis=-1),  # one penalty per prior, shared by the rows
        np.cumsum(rng.uniform(-1.0, 5.0, (3, 6, n + 1)), axis=-1),  # one per prior and row
    )
    for stack in stacks:
        k_hat, objective = _kernels.penalized_scan(sorted_sq, stack)
        assert k_hat.shape == (3, 6) and objective.shape == (3, 6, n + 1)
        for prior, penalty in enumerate(stack):
            k, obj = _kernels.penalized_scan(sorted_sq, penalty)
            assert np.array_equal(k_hat[prior], k)
            assert objective[prior].tobytes() == obj.tobytes()


def test_em_calls_the_kernel_by_its_package_binding():
    # callers and per-layer timers look the kernels up under these names
    assert mapthresh.em.em_loop is mapthresh._kernels.em_loop
    assert mapthresh.estimator.penalized_scan is mapthresh._kernels.penalized_scan


def test_identifiability_floors_are_inverse():
    for xi in (1e-6, 0.005, 0.05, 0.3, 0.49):
        gamma = _kernels.slab_floor(xi)
        log_odds = math.log((1 - xi) / xi)
        assert gamma - math.log1p(gamma) == pytest.approx(2 * log_odds, rel=1e-10)
        assert _kernels.weight_floor(gamma) == pytest.approx(xi, rel=1e-8)
    assert _kernels.slab_floor(0.5) == 0.0
    assert _kernels.slab_floor(0.8) == 0.0
    assert _kernels.weight_floor(0.0) == 0.5


@pytest.mark.parametrize("n", [1000, 200_001])
def test_em_loop_raises_no_floating_point_error_on_any_block(n):
    # every pass, the converging one included, runs the whole chain on
    # every block, so the responsibilities of the last block are computed
    # on the pass that stops too
    args = fit_args(mixture(n, 0.05, 4.0, 36))
    assert len(_kernels._blocks(args[0])) == (1 if n <= E_BLOCK else 4)
    want = _kernels.em_loop(*args)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = _kernels.em_loop(*args)
    assert got[5]
    assert got[:3] == want[:3] and got[4:] == want[4:]
    assert got[3].tobytes() == want[3].tobytes()
