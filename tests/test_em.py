"""Mixture likelihood, EM updates, and the starting-point heuristic."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mapthresh import (
    DegenerateDataError,
    DomainError,
    em_fit,
    init_heuristic,
    marginal_loglik,
    slab_log_odds,
    universal_threshold,
)
from mapthresh import baselines, em

FIXTURE5 = np.array([-1.2, 0.4, 3.5, 0.0, -2.1])
FIXTURE10 = np.array([-1.2, 0.4, 3.5, 0.0, -2.1, 0.9, -0.3, 5.2, 0.7, -1.6])


def mixture_dataset(n, xi, tau, sigma, seed):
    rng = np.random.default_rng(seed)
    mu = np.where(rng.random(n) < xi, tau * rng.standard_normal(n), 0.0)
    return mu + sigma * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# marginal log-likelihood


def normal_pdf(x, var):
    return math.exp(-0.5 * x * x / var) / math.sqrt(2 * math.pi * var)


def test_loglik_matches_per_term_summation():
    sigma, tau, xi = 0.9, 2.5, 0.12
    terms = [
        math.log(
            (1 - xi) * normal_pdf(v, sigma**2)
            + xi * normal_pdf(v, sigma**2 + tau**2)
        )
        for v in FIXTURE5
    ]
    assert marginal_loglik(FIXTURE5, sigma, tau, xi) == pytest.approx(
        math.fsum(terms), rel=1e-12
    )


def test_loglik_tiny_xi_reduces_to_single_gaussian():
    pure = math.fsum(math.log(normal_pdf(v, 1.0)) for v in FIXTURE5)
    assert marginal_loglik(FIXTURE5, 1.0, 2.0, 1e-14) == pytest.approx(pure, rel=1e-9)


def test_loglik_tiny_tau_collapses_components():
    for xi in (0.1, 0.9):
        val = marginal_loglik(FIXTURE5, 1.0, 1e-9, xi)
        pure = math.fsum(math.log(normal_pdf(v, 1.0)) for v in FIXTURE5)
        assert val == pytest.approx(pure, rel=1e-9)


def test_loglik_validation():
    with pytest.raises(DomainError):
        marginal_loglik(FIXTURE5, -1.0, 2.0, 0.1)
    with pytest.raises(DomainError):
        marginal_loglik(FIXTURE5, 1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        marginal_loglik(np.array([np.nan, 1.0]), 1.0, 2.0, 0.1)
    with pytest.raises(DomainError):
        marginal_loglik(np.array([]), 1.0, 2.0, 0.1)
    with pytest.raises(DomainError):  # tau^2 overflows
        marginal_loglik(FIXTURE5, 1.0, 1e200, 0.1)


def test_loglik_of_an_overflowing_square_is_minus_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert marginal_loglik(np.array([1e200, 1.0]), 1.0, 1.0, 0.5) == -math.inf


# ---------------------------------------------------------------------------
# single update step, mirrored by hand


def test_one_step_matches_closed_form():
    sigma0, tau0, xi0 = 1.0, 2.0, 0.2
    n = FIXTURE10.size
    v0, v1 = sigma0**2, sigma0**2 + tau0**2
    r = np.empty(n)
    for i, v in enumerate(FIXTURE10):
        l0 = math.log(1 - xi0) - 0.5 * (math.log(2 * math.pi * v0) + v * v / v0)
        l1 = math.log(xi0) - 0.5 * (math.log(2 * math.pi * v1) + v * v / v1)
        r[i] = 1.0 / (1.0 + math.exp(l0 - l1))
    xi1 = min(max(r.sum() / n, 1.0 / n), 1.0 - 1.0 / n)
    sq = FIXTURE10**2
    var0 = float(((1 - r) * sq).sum() / (n - r.sum()))
    var1 = float((r * sq).sum() / r.sum())
    tau1_sq = max(var1 - var0, 1e-8 * var0)

    fit = em_fit(FIXTURE10, init=(sigma0, tau0, xi0), max_iter=1)
    assert fit.iterations == 1
    assert fit.xi_hat == pytest.approx(xi1, rel=1e-12)
    assert fit.sigma_hat == pytest.approx(math.sqrt(var0), rel=1e-12)
    assert fit.tau_hat == pytest.approx(math.sqrt(tau1_sq), rel=1e-12)
    assert len(fit.loglik_trace) == 2
    assert fit.loglik_trace[0] == pytest.approx(
        marginal_loglik(FIXTURE10, sigma0, tau0, xi0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# full fits


def test_recovery_on_generated_mixture():
    y = mixture_dataset(10_000, 0.05, 5.0, 1.0, seed=0)
    fit = em_fit(y)
    assert fit.converged
    assert 0.03 <= fit.xi_hat <= 0.07
    assert 0.9 <= fit.sigma_hat <= 1.1
    assert 4.0 <= fit.tau_hat <= 6.0


def test_trace_monotone_on_battery():
    cases = [
        mixture_dataset(1000, 0.005, 3.0, 1.0, seed=8),  # weak-signal regime
        mixture_dataset(1000, 0.05, 5.0, 1.0, seed=1),
        mixture_dataset(1000, 0.5, 7.0, 1.0, seed=2),
        np.random.default_rng(3).standard_normal(500),
    ]
    for y in cases:
        fit = em_fit(y)
        assert np.all(np.diff(fit.loglik_trace) >= -1e-10)
        assert fit.loglik == fit.loglik_trace[-1]


def test_determinism():
    y = mixture_dataset(2000, 0.05, 4.0, 1.0, seed=6)
    a = em_fit(y)
    b = em_fit(y)
    assert np.array_equal(a.loglik_trace, b.loglik_trace)
    assert (a.sigma_hat, a.tau_hat, a.xi_hat) == (b.sigma_hat, b.tau_hat, b.xi_hat)


def test_rerun_from_converged_is_nearly_fixed():
    y = mixture_dataset(2000, 0.05, 5.0, 1.0, seed=11)
    first = em_fit(y)
    assert first.converged
    second = em_fit(y, init=(first.sigma_hat, first.tau_hat, first.xi_hat))
    tol = 1e-8
    assert second.loglik - first.loglik <= 2 * tol * max(1.0, abs(first.loglik))
    for a, b in (
        (first.sigma_hat, second.sigma_hat),
        (first.tau_hat, second.tau_hat),
        (first.xi_hat, second.xi_hat),
    ):
        assert abs(b / a - 1.0) < 1e-2


def test_scale_equivariance_iteration_matched():
    y = mixture_dataset(1500, 0.08, 4.0, 1.0, seed=13)
    # at tol 1e-300 the fit repeats its point exactly after about 30 steps
    a = em_fit(y, tol=1e-300, max_iter=20)
    b = em_fit(2.0 * y, tol=1e-300, max_iter=20)
    assert a.iterations == b.iterations == 20
    assert b.sigma_hat == pytest.approx(2 * a.sigma_hat, rel=1e-10)
    assert b.tau_hat == pytest.approx(2 * a.tau_hat, rel=1e-10)
    assert b.xi_hat == pytest.approx(a.xi_hat, rel=1e-10)


def test_scale_equivariance_at_defaults():
    y = mixture_dataset(1500, 0.08, 4.0, 1.0, seed=13)
    a = em_fit(y)
    b = em_fit(2.0 * y)
    assert b.sigma_hat == pytest.approx(2 * a.sigma_hat, rel=5e-3)
    assert b.tau_hat == pytest.approx(2 * a.tau_hat, rel=5e-3)
    assert b.xi_hat == pytest.approx(a.xi_hat, rel=5e-3)


def test_non_convergence_reports_flag():
    y = mixture_dataset(1000, 0.05, 3.0, 1.0, seed=21)
    fit = em_fit(y, max_iter=3)
    assert not fit.converged
    assert fit.iterations == 3


def test_sparse_weak_replication_keeps_slab_as_signal():
    # Replication 10 of the bundled grid's first cell (xi=0.005, tau=3), drawn
    # exactly as the benchmark draws it: 3 true signals among 1000.  The
    # unconstrained fit drifted along the noise-splitting ridge and stopped at
    # max_iter with xi_hat ~0.237 and tau_hat ~1.08.
    rng = np.random.default_rng(np.random.SeedSequence([20260815, 0, 10]))
    signal = rng.random(1000) < 0.005
    mu = np.where(signal, 3.0 * rng.standard_normal(1000), 0.0)
    y = mu + rng.standard_normal(1000)
    assert signal.sum() == 3

    fit = em_fit(y)
    assert fit.converged
    assert slab_log_odds(fit.sigma_hat, fit.tau_hat, fit.xi_hat) >= -1e-9
    assert fit.xi_hat < 0.05
    assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


def test_fits_meet_the_identifiability_bound():
    cases = [
        mixture_dataset(1000, 0.005, 3.0, 1.0, seed=8),
        mixture_dataset(1000, 0.05, 3.0, 1.0, seed=21),
        mixture_dataset(1000, 0.5, 7.0, 1.0, seed=2),
        np.random.default_rng(3).standard_normal(500),
    ]
    for y in cases:
        fit = em_fit(y)
        assert slab_log_odds(fit.sigma_hat, fit.tau_hat, fit.xi_hat) >= -1e-9
        # the bound holds after any number of steps, not just at convergence
        early = em_fit(y, max_iter=2)
        assert slab_log_odds(early.sigma_hat, early.tau_hat, early.xi_hat) >= -1e-9


def test_slab_log_odds_closed_form():
    sigma, tau, xi = 1.3, 2.6, 0.02
    rng = np.random.default_rng(4)
    draws = math.sqrt(sigma**2 + tau**2) * rng.standard_normal(400_000)
    v0, v1 = sigma**2, sigma**2 + tau**2
    log_odds = (
        math.log(xi / (1 - xi))
        - 0.5 * math.log(v1 / v0)
        + 0.5 * draws**2 * (1 / v0 - 1 / v1)
    )
    assert slab_log_odds(sigma, tau, xi) == pytest.approx(float(np.mean(log_odds)), abs=0.02)
    with pytest.raises(DomainError):
        slab_log_odds(1.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        slab_log_odds(1.0, 1.0, 1.0)


@pytest.mark.parametrize("sigma, tau", [(1e-200, 1e200), (1e-100, 1e100)],
                         ids=["ratio-overflows", "square-overflows"])
def test_slab_log_odds_of_an_overflowing_gamma_is_infinite(sigma, tau):
    assert slab_log_odds(sigma, tau, 0.5) == math.inf
    assert slab_log_odds(sigma, tau, 1e-300) == math.inf


def test_fit_validation():
    with pytest.raises(DomainError):
        em_fit(np.arange(5, dtype=float))  # too short
    with pytest.raises(DomainError):
        em_fit(np.array([1.0, math.nan] + [0.5] * 10))
    with pytest.raises(DegenerateDataError):
        em_fit(np.full(20, 2.0))
    y = mixture_dataset(100, 0.1, 3.0, 1.0, seed=0)
    for data in (y.reshape(2, 50), y.reshape(1, 100)):
        with pytest.raises(DomainError, match="1-D"):
            em_fit(data)
        with pytest.raises(DomainError, match="1-D"):
            em_fit(data, init=(1.0, 2.0, 0.1))
    with pytest.raises(DomainError):
        em_fit(y, tol=0.0)
    with pytest.raises(DomainError):
        em_fit(y, max_iter=0)


@pytest.mark.parametrize(
    "rows, inits, y_sq, match",
    [
        (np.empty((0, 100)), None, None, "at least one row"),  # was a TypeError from em_loop
        (np.linspace(-3.0, 3.0, 100), None, None, "matrix"),  # was "needs n >= 10, got 1"
        (np.tile(np.linspace(-3.0, 3.0, 100), (3, 1)), [None, None], None, "one start a row"),  # was an IndexError
        # was two fits of 50 constant squares
        (np.tile(np.linspace(-3.0, 3.0, 100), (2, 1)), [(1.0, 2.0, 0.1)] * 2, np.ones((2, 50)), "shape"),
    ],
    ids=["no-rows", "vector", "short-inits", "y-sq-shape"],
)
def test_unusable_rows_are_a_domain_error(rows, inits, y_sq, match):
    with pytest.raises(DomainError, match=match):
        em.em_fit_rows(rows, y_sq, inits)


def test_given_squares_are_read_as_float64():
    # y on a 1/256 grid below 16 in size: every square is exact in float32, but not their sums
    y = np.vstack([mixture_dataset(1000, xi, 4.0, 1.0, seed=34) for xi in (0.05, 0.3)])
    y = np.round(256.0 * np.clip(y, -15.0, 15.0)) / 256.0
    squares = y * y
    assert np.array_equal(squares.astype(np.float32), squares)
    expected = [em_fit(row) for row in y]
    # a list was an AttributeError in em_loop; float32 squares were summed in float32
    for y_sq in (squares.tolist(), squares.astype(np.float32)):
        for fit, one in zip(em.em_fit_rows(y, y_sq), expected):
            assert fit.loglik_trace.tobytes() == one.loglik_trace.tobytes()
            for name in ("sigma_hat", "tau_hat", "xi_hat", "loglik", "iterations", "converged"):
                assert getattr(fit, name) == getattr(one, name), name


@pytest.mark.parametrize("budget", [{"tol": 0.0}, {"max_iter": 0}], ids=["tol", "max-iter"])
def test_the_iteration_budget_is_checked_before_the_rows(budget):
    # a constant row and a row too short to fit: the budget's error comes first
    for rows in (np.ones((2, 100)), np.linspace(-3.0, 3.0, 5)[None]):
        with pytest.raises(DomainError, match=next(iter(budget))):
            em.em_fit_rows(rows, **budget)


@pytest.mark.parametrize(
    "budget",
    [
        {"tol": math.nan},
        {"tol": -1e-8},
        {"tol": -math.inf},
        {"max_iter": 2.5},
        {"max_iter": 3.0},
        {"max_iter": True},
        {"max_iter": -1},
        {"max_iter": "3"},
    ],
    ids=["tol-nan", "tol-negative", "tol-minus-inf", "max-iter-fraction", "max-iter-float",
         "max-iter-bool", "max-iter-negative", "max-iter-str"],
)
def test_unusable_iteration_budget_is_a_domain_error(budget):
    y = mixture_dataset(100, 0.1, 3.0, 1.0, seed=0)
    with pytest.raises(DomainError, match="tol" if "tol" in budget else "max_iter"):
        em_fit(y, **budget)


def test_integer_iteration_budgets_are_accepted():
    y = mixture_dataset(1000, 0.05, 3.0, 1.0, seed=21)
    fit = em_fit(y, max_iter=np.int64(3))
    assert (fit.iterations, fit.converged) == (3, False)
    assert em_fit(y, max_iter=3).loglik_trace.tobytes() == fit.loglik_trace.tobytes()
    assert em_fit(y, tol=math.inf).iterations == 1  # stops at the first comparison


def test_fit_checks_its_data_once(monkeypatch):
    y = mixture_dataset(1000, 0.05, 3.0, 1.0, seed=21)
    expected = em_fit(y, init=init_heuristic(y))
    calls = []
    check = em._check_magnitudes
    monkeypatch.setattr(em, "_check_magnitudes", lambda data: calls.append(data) or check(data))
    fit = em_fit(y)
    assert len(calls) == 1
    for name in ("sigma_hat", "tau_hat", "xi_hat", "loglik", "iterations", "converged"):
        assert getattr(fit, name) == getattr(expected, name), name
    assert np.array_equal(fit.loglik_trace, expected.loglik_trace)


def test_fit_memory_stays_below_two_copies_of_the_data():
    # the squares plus one E-step block: no n-long buffer beside them
    y = mixture_dataset(300_000, 0.05, 4.0, 1.0, seed=23)
    tracemalloc.start()
    try:
        em_fit(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * y.nbytes


@pytest.mark.parametrize("outlier", [1e10, 1e12])
def test_one_huge_outlier_leaves_the_noise_fit(outlier):
    # the outlier's square dwarfs the rest of sum(y^2); the noise variance
    # must come from the other 999 draws, not from a difference of totals
    y = np.random.default_rng(31).standard_normal(1000)
    y[0] = outlier
    fit = em_fit(y)
    assert fit.converged
    assert fit.sigma_hat == pytest.approx(1.0, abs=0.1)
    assert fit.tau_hat == pytest.approx(outlier, rel=1e-3)
    assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


def test_overflowing_squares_are_a_domain_error():
    y = 1e155 * np.random.default_rng(32).standard_normal(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            em_fit(y)
        with pytest.raises(DomainError, match="overflow"):
            init_heuristic(y)


@pytest.mark.parametrize(
    "init",
    [(1.0, math.inf, 0.1), (1.0, 2.0, math.nan), (1.0, 1e155, 0.1),
     # were a ValueError from unpacking, a TypeError and a ValueError from float()
     (1.0, 2.0), (None, 1.0, 0.1), ("a", 1.0, 0.1),
     # each went through float() and fitted
     ("1.0", b"2.0", "0.1"), (1.0, 2.0, "0.1"), (True, 1.0, 0.1), (np.True_, 2.0, 0.1)],
    ids=["infinite-tau", "nan-xi", "tau-squared-overflows", "two-values", "none-sigma", "string-sigma",
         "numeric-strings", "string-xi", "bool-sigma", "numpy-bool-sigma"],
)
def test_unusable_init_is_a_domain_error(init):
    y = mixture_dataset(100, 0.1, 3.0, 1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="init"):
            em_fit(y, init=init)


def test_data_with_no_noise_is_degenerate():
    # every noise responsibility underflows to 0 on the first E-step
    with pytest.raises(DegenerateDataError, match="noise"):
        em_fit(1e6 + np.arange(100.0))


def test_underflowing_squares_are_a_domain_error():
    y = 1e-160 * np.random.default_rng(33).standard_normal(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="underflow"):
            em_fit(y)
        with pytest.raises(DomainError, match="underflow"):
            init_heuristic(y)
        fit = em_fit(1e10 * y)  # rescaled, the same data fit
    assert fit.converged
    assert 1e-151 < fit.sigma_hat < 1e-149


def test_xi_stays_clamped():
    # all-noise data pushes xi toward zero; the estimate must stay >= 1/n
    y = np.random.default_rng(30).standard_normal(200)
    fit = em_fit(y)
    assert 1.0 / 200 <= fit.xi_hat <= 1.0 - 1.0 / 200


# ---------------------------------------------------------------------------
# starting point


def test_init_on_pure_noise_hits_floor():
    z = np.random.default_rng(0).standard_normal(10_000)
    sigma0, tau0, xi0 = init_heuristic(z)
    assert xi0 == 1.0 / 10_000
    assert 0.9 < sigma0 < 1.1
    assert tau0 > 0


def test_init_on_dense_strong_signal():
    y = mixture_dataset(5000, 0.5, 7.0, 1.0, seed=44)
    _, _, xi0 = init_heuristic(y)
    assert xi0 >= 0.1


def test_init_scales_with_data():
    y = mixture_dataset(500, 0.1, 3.0, 1.0, seed=9)
    s1, t1, x1 = init_heuristic(y)
    s2, t2, x2 = init_heuristic(2.0 * y)
    assert s2 == pytest.approx(2 * s1, rel=1e-14)
    assert t2 == pytest.approx(2 * t1, rel=1e-14)
    assert x2 == x1


def test_init_exceedance_fraction_definition():
    y = mixture_dataset(2000, 0.2, 6.0, 1.0, seed=77)
    sigma0, _, xi0 = init_heuristic(y)
    frac = np.mean(np.abs(y) > sigma0 * universal_threshold(2000, 1.0))
    assert xi0 == pytest.approx(max(frac, 1.0 / 2000), rel=1e-12)


@pytest.mark.parametrize("n", [10, 203, 1000, 50_001])
def test_starts_of_a_block_equal_each_rows_own(n):
    # the Monte Carlo grid takes a block's robust scales once and starts
    # every row's fit from them; each start must be the row's own
    rows = np.vstack([mixture_dataset(n, 0.1, 4.0, sigma, seed=30) for sigma in (1.0, 1e-100, 1e100)])
    rows[0, : n // 3] = np.round(rows[0, : n // 3], 1)  # ties
    squares = rows * rows
    sums = np.add.reduce(squares, axis=-1)
    assert [s.hex() for s in sums.tolist()] == [float(np.add.reduce(row)).hex() for row in squares]
    starts, block_squares = em._start(rows, baselines._mad_scale(rows))
    assert starts == [init_heuristic(row) for row in rows]
    assert np.array_equal(block_squares, squares)
    # each row's weight is its own exceedances of its own universal cutoff
    for row, (sigma0, _, xi0) in zip(rows, starts):
        assert sigma0 == baselines._mad_scale(row)
        count = int(np.count_nonzero(np.abs(row) > universal_threshold(n, sigma0)))
        assert xi0 == min(max(1.0 / n, count / n), 1.0 - 1.0 / n)
