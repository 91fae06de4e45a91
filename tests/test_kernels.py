"""The fused NumPy EM kernel against a plain, unfused reference loop and,
bit for bit up to one E-step block, against the kernel it replaced."""

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


def reference_em_loop(y_sq, sigma_sq, tau_sq, xi, tol, max_iter, xi_lo, xi_hi, tau_floor):
    """The E-step written out term by term: both component log-densities,
    ``logaddexp`` for the log-likelihood, and the noise sums by subtraction."""
    n = y_sq.shape[0]
    y_total = float(np.sum(y_sq))
    trace = []
    converged = False
    iterations = 0
    while True:
        v0 = sigma_sq
        v1 = sigma_sq + tau_sq
        l0 = np.log1p(-xi) - 0.5 * (_LOG_2PI + np.log(v0) + y_sq / v0)
        l1 = np.log(xi) - 0.5 * (_LOG_2PI + np.log(v1) + y_sq / v1)
        trace.append(float(np.sum(np.logaddexp(l0, l1))))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            converged = True
            break
        if iterations >= max_iter:
            break
        r = 1.0 / (1.0 + np.exp(l0 - l1))
        r_sum = float(np.sum(r))
        r_y = float(np.sum(r * y_sq))
        c_y = y_total - r_y
        sigma_sq = c_y / (n - r_sum)
        tau_sq = r_y / r_sum - sigma_sq
        gamma = tau_sq / sigma_sq
        log_odds = math.log1p(-xi) - math.log(xi)
        if gamma < tau_floor or gamma - math.log1p(gamma) < 2.0 * log_odds:
            gamma = max(tau_floor, _kernels.slab_floor(xi))
            sigma_sq = (c_y + r_y / (1.0 + gamma)) / n
            tau_sq = gamma * sigma_sq
        xi = min(max(r_sum / n, xi_lo, _kernels.weight_floor(gamma)), xi_hi)
        iterations += 1
    return sigma_sq, tau_sq, xi, np.asarray(trace), iterations, converged


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
    scale_sq = float(np.median(y**2)) / 0.4549  # median of chi^2_1
    args = (y**2, 1.1 * scale_sq, 4.0 * scale_sq, 0.1, 1e-8, 500)
    s, t, x, trace, it, conv = _kernels.em_loop(*args)
    s_ref, t_ref, x_ref, trace_ref, it_ref, conv_ref = reference_em_loop(
        *args, 1.0 / n, 1.0 - 1.0 / n, 1e-8
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


def previous_em_loop(y_sq, sigma_sq, tau_sq, xi, tol, max_iter, total=one_sum):
    """``_kernels.em_loop`` as it was before its E-step shared one (2, n)
    buffer and then ran in blocks, kept verbatim but for its variance sums,
    which it takes as the kernel does, as ``np.add.reduce`` of the products
    rather than with ``@`` (BLAS ``ddot``): the bit-for-bit reference for
    one block, n <= E_BLOCK.  Each E-step sum is ``total``; with
    ``blocked_sum`` it is the bit-for-bit reference for several blocks."""
    n = y_sq.shape[0]
    xi_lo, xi_hi = 1.0 / n, 1.0 - 1.0 / n
    xi = min(max(xi, xi_lo), xi_hi)
    y_total = float(y_sq.sum())
    e = np.empty(n)
    w = np.empty(n)
    trace = []
    converged = False
    iterations = 0
    while True:
        v1 = sigma_sq + tau_sq
        log_odds = math.log1p(-xi) - math.log(xi)
        np.multiply(y_sq, -0.5 * (tau_sq / v1) / sigma_sq, out=e)
        e += log_odds + 0.5 * math.log1p(tau_sq / sigma_sq)
        np.exp(e, out=e)
        np.log1p(e, out=w)
        loglik = (
            n * (math.log(xi) - 0.5 * (_LOG_2PI + math.log(v1)))
            - 0.5 * y_total / v1
            + total(w)
        )
        trace.append(loglik)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            converged = True
            break
        if iterations >= max_iter:
            break
        np.add(e, 1.0, out=w)
        np.reciprocal(w, out=w)
        r_sum = total(w)
        r_y = total(w * y_sq)
        e *= w
        c_sum = total(e)
        if c_sum == 0.0:
            raise DegenerateDataError(
                "every noise responsibility underflowed: no observation fits the noise component"
            )
        c_y = total(e * y_sq)
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


def fit_args(y, max_iter=500):
    """em_loop's arguments as em_fit builds them from the default start."""
    sigma0, tau0, xi0 = init_heuristic(y)
    return y**2, sigma0**2, tau0**2, xi0, 1e-8, max_iter


def sparse_weak_replication():
    # test_em.py::test_sparse_weak_replication_keeps_slab_as_signal: its fit
    # ends on the identifiability bound, through the slab_floor branch
    rng = np.random.default_rng(np.random.SeedSequence([20260815, 0, 10]))
    signal = rng.random(1000) < 0.005
    mu = np.where(signal, 3.0 * rng.standard_normal(1000), 0.0)
    return mu + rng.standard_normal(1000)


BIT_CASES = {**CASES, "n50001": mixture(50_001, 0.05, 4.0, 34)}


def assert_same_fit(args):
    got = _kernels.em_loop(*args)
    want = previous_em_loop(*args)
    for field in (0, 1, 2, 4, 5):
        assert got[field] == want[field]
    assert np.array_equal(got[3], want[3])
    return got


@pytest.mark.parametrize("name", sorted(BIT_CASES))
def test_em_loop_is_bit_identical_to_the_previous_kernel(name):
    y = BIT_CASES[name]
    assert_same_fit(fit_args(y))
    scale_sq = float(np.median(y**2)) / 0.4549  # the reference test's start
    assert_same_fit((y**2, 1.1 * scale_sq, 4.0 * scale_sq, 0.1, 1e-8, 500))


def test_em_loop_bit_identity_reaches_the_slab_floor():
    sigma_sq, tau_sq, xi, _, _, converged = assert_same_fit(fit_args(sparse_weak_replication()))
    assert converged
    # gamma is slab_floor of the previous xi, which the last step moved a little
    assert tau_sq / sigma_sq == pytest.approx(slab_floor(xi), rel=1e-4)


def test_em_loop_bit_identity_at_an_iteration_cutoff():
    got = assert_same_fit(fit_args(CASES["n2000"], max_iter=3))
    assert got[4:] == (3, False)


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
    # the slowest row is cut at max_iter while the others converge
    max_iter = iterations[-1] - 1
    cut = mapthresh.em.em_fit_rows(y, y_sq, inits, max_iter=max_iter)
    assert sorted(fit.converged for fit in cut) == [False, True, True]
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
