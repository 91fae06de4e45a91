"""Penalty construction, the penalized scan, and the selection estimate."""

import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from mapthresh import (
    BinomialPrior,
    Configuration,
    ConfigurationError,
    CustomLogWeightsPrior,
    DomainError,
    EstimateResult,
    GaussianSequence,
    HyperParams,
    ReflectedPoissonPrior,
    SizeError,
    TruncatedPoissonPrior,
    bayes_factor,
    brute_force_map,
    build_prior_table,
    fdr_sequence,
    fixed_threshold_estimate,
    foster_stine_sequence,
    log_choose,
    map_estimate,
    penalty_increments,
    penalty_table,
    posterior_log_score,
    select_k,
    variable_threshold_estimate,
)
from mapthresh import estimator

UNIT_HYPER = HyperParams(1.0, 1.0)  # gamma = 1


def make_hyper(sigma: float, gamma: float) -> HyperParams:
    return HyperParams(sigma, sigma * math.sqrt(gamma))


# ---------------------------------------------------------------------------
# bayes factor


def test_bayes_factor_at_zero():
    assert bayes_factor(0.0, UNIT_HYPER) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_bayes_factor_pinned_value():
    assert bayes_factor(2.0, UNIT_HYPER) == pytest.approx(
        math.sqrt(2) * math.exp(-1), rel=1e-12
    )
    assert bayes_factor(2.0, UNIT_HYPER) == pytest.approx(0.5202601, abs=1e-7)


def test_bayes_factor_decreasing_in_magnitude():
    values = [bayes_factor(y, make_hyper(1.3, 2.0)) for y in np.linspace(0, 6, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert bayes_factor(-2.0, UNIT_HYPER) == bayes_factor(2.0, UNIT_HYPER)
    assert bayes_factor(1e200, UNIT_HYPER) == 0.0  # y^2 overflows to its limit


# ---------------------------------------------------------------------------
# penalty table


def test_penalty_zero_entry_from_mass_at_zero():
    table = build_prior_table(
        CustomLogWeightsPrior((math.log(0.5), math.log(0.5))), 1
    )
    pen = penalty_table(table, UNIT_HYPER)
    assert pen.penalty[0] == pytest.approx(4 * math.log(2), rel=1e-12)


def test_penalty_binomial_constant_increments():
    table = build_prior_table(BinomialPrior(0.1), 20)
    pen = penalty_table(table, UNIT_HYPER)
    expected = 4 * math.log(9 * math.sqrt(2))
    assert expected == pytest.approx(10.1751927, abs=1e-6)
    assert np.allclose(pen.increments[1:], expected, rtol=1e-10)


@pytest.mark.parametrize(
    "spec",
    [
        BinomialPrior(0.07),
        TruncatedPoissonPrior(35.0),
        ReflectedPoissonPrior(120.0),
        CustomLogWeightsPrior(tuple(float(np.sin(k / 3)) for k in range(201))),
    ],
)
def test_penalty_telescoping(spec):
    table = build_prior_table(spec, 200)
    pen = penalty_table(table, make_hyper(0.7, 2.5))
    running = np.cumsum(pen.increments)
    dev = np.max(np.abs(pen.penalty - running) / (1.0 + np.abs(pen.penalty)))
    assert dev < 1e-9


def test_penalty_matches_direct_formula():
    n, sigma, gamma = 30, 1.4, 3.0
    table = build_prior_table(TruncatedPoissonPrior(4.0), n)
    pen = penalty_table(table, make_hyper(sigma, gamma))
    scale = 2 * sigma**2 * (1 + 1 / gamma)
    direct = np.array(
        [
            scale
            * (log_choose(n, k) - table.log_pmf[k] + 0.5 * k * math.log1p(gamma))
            for k in range(n + 1)
        ]
    )
    assert np.allclose(pen.penalty, direct, rtol=1e-12)


# ---------------------------------------------------------------------------
# the scan


def test_select_k_worked_example():
    sorted_sq = np.array([25.0, 0.01, 0.01])
    penalties = np.array([0.0, 4.0, 8.0, 12.0])
    k_hat, objective = select_k(sorted_sq, penalties)
    assert np.allclose(objective, [25.02, 4.02, 8.01, 12.0], atol=1e-12)
    assert k_hat == 1


def test_select_k_zero_data_increasing_penalty():
    k_hat, _ = select_k(np.zeros(6), np.arange(7, dtype=float))
    assert k_hat == 0


def test_select_k_tie_goes_to_smaller_size():
    # objective(0) = objective(1) = 4 exactly in floats
    k_hat, objective = select_k(np.array([4.0, 0.0]), np.array([0.0, 4.0, 8.0]))
    assert objective[0] == objective[1] == 4.0
    assert k_hat == 0


def test_select_k_decreasing_penalty_needs_full_scan():
    # any early-stop at the first rise would return 0 here
    n = 8
    penalties = -2.0 * np.arange(n + 1, dtype=float)
    penalties[1] = 5.0  # local bump right after the start
    k_hat, _ = select_k(np.zeros(n), penalties)
    assert k_hat == n


def test_select_k_rejects_unsorted():
    with pytest.raises(DomainError):
        select_k(np.array([1.0, 2.0]), np.zeros(3))
    with pytest.raises(DomainError):
        select_k(np.array([-1.0, -2.0]), np.zeros(3))
    with pytest.raises(DomainError):  # NaN passes both the sign and the order check
        select_k(np.array([np.nan, 1.0]), np.zeros(3))


def test_select_k_matches_quadratic_rescan():
    rng = np.random.default_rng(88)
    table = build_prior_table(BinomialPrior(0.2), 8)
    pen = penalty_table(table, make_hyper(1.0, 4.0))
    for _ in range(25):
        sorted_sq = np.sort(rng.standard_normal(8) ** 2)[::-1]
        k_hat, objective = select_k(sorted_sq, pen)
        slow = np.array(
            [sum(sorted_sq[k:]) + pen.penalty[k] for k in range(9)]
        )
        assert np.allclose(objective, slow, rtol=1e-12)
        assert k_hat == int(np.argmin(slow))


def _named_priors_at_edges(n):
    """Each named prior with its parameter at or near the ends of its range."""
    rp_top = n - 1e-3 if n > 1 else 0.999
    return [
        BinomialPrior(1e-12),
        BinomialPrior(0.005),
        BinomialPrior(0.5),
        BinomialPrior(1.0 - 1e-9),
        TruncatedPoissonPrior(1e-6),
        TruncatedPoissonPrior(0.005 * n),
        TruncatedPoissonPrior(float(n)),
        ReflectedPoissonPrior(1e-6),
        ReflectedPoissonPrior(0.005 * n),
        ReflectedPoissonPrior(rp_top),
    ]


@pytest.mark.parametrize("n", [1, 10, 1000, 100_000])
@pytest.mark.parametrize("gamma", [0.01, 9.0, 1e4])
def test_closed_form_increments_match_prior_table(n, gamma):
    hyper = make_hyper(1.3, gamma)
    rate = 2.0 * 1.3**2 * (1.0 + 1.0 / gamma)
    # The table subtracts log-gamma terms as large as n log n, so its own
    # increments carry absolute rounding of that size times epsilon.
    table_rounding = 8.0 * np.finfo(float).eps * rate * max(1.0, (n + 1) * math.log(n + 1))
    for spec in _named_priors_at_edges(n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small-lambda reflected priors warn
            closed = penalty_increments(spec, n, hyper)
            table = penalty_table(build_prior_table(spec, n), hyper).increments
        np.testing.assert_allclose(closed, table, rtol=1e-10, atol=table_rounding, err_msg=repr(spec))
        assert np.array_equal(table, closed), spec


def previous_increments(spec, n, hyper):
    """``estimator._increments`` for the named priors as it was before the
    truncated Poisson body started from n - i + 1: the bit-for-bit reference."""
    rate, half_log_1pg = estimator._rate(hyper)
    inc = np.arange(n + 1, dtype=float)
    body = inc[1:]
    if isinstance(spec, BinomialPrior):
        inc[0] = -n * math.log1p(-spec.xi)
        body.fill(math.log1p(-spec.xi) - math.log(spec.xi) + half_log_1pg)
    elif isinstance(spec, TruncatedPoissonPrior):
        lam = spec.lam
        inc[0] = lam + estimator._log_poisson_cdf(n, lam)
        np.subtract(n, body, out=body)
        body += 1.0
        body /= lam
        np.log(body, out=body)
        body += half_log_1pg
    else:
        m = n - spec.lam
        inc[0] = m + estimator._log_poisson_cdf(n, m) - n * math.log(m) + math.lgamma(n + 1.0)
        np.divide(m, body, out=body)
        np.log(body, out=body)
        body += half_log_1pg
    inc *= rate
    inc += 0.0
    return inc


@pytest.mark.parametrize("n", [1, 2, 1000, 10**6])
def test_named_prior_increments_are_bit_identical_to_the_previous_build(n):
    # sigma = 1e-161 puts the rate near the smallest floats, where products
    # underflow to zero and must not keep the sign of a negative factor
    hypers = (UNIT_HYPER, make_hyper(1.3, 9.0), HyperParams(1e-161, 1e-161))
    for spec in _named_priors_at_edges(n) + [TruncatedPoissonPrior(n / 2), ReflectedPoissonPrior(n / 2)]:
        for hyper in hypers:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # small-lambda reflected priors warn
                got = penalty_increments(spec, n, hyper)
            want = previous_increments(spec, n, hyper)
            assert np.array_equal(got, want), (spec, hyper)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (spec, hyper)


def assert_slices_match_the_whole(n):
    """Every prefix and single entry ``_increments`` builds equals the same
    entries of the whole vector, bit for bit and sign for sign."""
    half = (n + 1) // 2
    spike = np.zeros(n + 1)
    spike[n] = 30.0
    specs = _named_priors_at_edges(n) + [TruncatedPoissonPrior(n / 2), CustomLogWeightsPrior(spike)]
    if n > 1:
        specs.append(ReflectedPoissonPrior(n / 2))
    for spec in specs:
        for hyper in (UNIT_HYPER, make_hyper(1.3, 9.0), HyperParams(1e-161, 1e-161)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # small-lambda reflected priors warn
                whole = penalty_increments(spec, n, hyper)
                spans = [(0, stop) for stop in sorted({1, 2, half, n // 3 + 1, n + 1})]
                spans += [(i, i + 1) for i in sorted({1, half, n})] + [(1, half + 1)]
                for start, stop in spans:
                    got = estimator._increments(spec, n, hyper, start, stop)
                    want = whole[start:stop]
                    assert np.array_equal(got, want), (spec, hyper, start, stop)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (spec, hyper, start, stop)


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5])
def test_increment_slices_are_bit_identical_to_the_whole_vector(n):
    assert_slices_match_the_whole(n)


def test_increment_slices_match_the_whole_vector_under_sse_only_dispatch():
    from test_cli import SIMD_TARGETS, _cpu_features

    if not any(_cpu_features().get(target) for target in SIMD_TARGETS):
        pytest.skip("this CPU has none of the SIMD targets that the SSE-only run disables")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(SIMD_TARGETS), PYTHONPATH=os.pathsep.join(
        [str(Path(estimator.__file__).parents[1]), str(Path(__file__).parent)]))
    check = (
        "from test_cli import SIMD_TARGETS, _cpu_features as f\n"
        "assert not any(f().get(t) for t in SIMD_TARGETS)\n"  # the variable took effect
        "from test_estimator import assert_slices_match_the_whole as check\n"
        "for n in (1, 2, 7, 1000, 10**5):\n"
        "    check(n)\n"
    )
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n", [1, 2, 20, 1000, 100_000])
def test_complexity_gap_matches_the_summed_increments(n):
    # P[b] - P[a] = r (c[b] - c[a] + (b - a) h).  Against np.cumsum
    # differences the closed form agrees to 1e-9 of the terms' size (the
    # running sum's own rounding is far below that); against the exact sum
    # of the float increments it keeps the estimator docstring's bound,
    # eps (8 r L + 2 j Q), plus the increments' own 3 eps Q each.
    hyper = make_hyper(1.3, 9.0)
    rate, half_log_1pg = estimator._rate(hyper)
    eps = np.finfo(float).eps
    lgamma_size = rate * ((n + 1) * math.log(n + 1) + 1)
    starts = sorted({0, 1, n // 3, n - 1} & set(range(n)))
    for spec in _named_priors_at_edges(n):
        if isinstance(spec, BinomialPrior):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small-lambda reflected priors warn
            inc = penalty_increments(spec, n, hyper)
        penalty = np.cumsum(inc)
        size = rate * (2 * math.log(n + 1) + half_log_1pg + 1) + 2 * np.abs(inc[1:]).max()
        for a in starts:
            for b in sorted({a, a + 1, a + 2, (a + n) // 2, n - 1, n} & set(range(a, n + 1))):
                j = b - a
                closed = rate * (estimator._complexity_gap(spec, n, a, b) + j * half_log_1pg)
                scale = lgamma_size + abs(penalty[a]) + abs(penalty[b])
                assert abs(closed - (penalty[b] - penalty[a])) <= 1e-9 * scale, (spec, a, b)
                exact = math.fsum(inc[a + 1 : b + 1])
                assert abs(closed - exact) <= eps * (8 * lgamma_size + 5 * j * size), (spec, a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 37, 100, 999, 1000, 10**4, 10**5, 10**6])
def test_log_poisson_cdf_against_scipy(n):
    # scipy's gammaincc is the independent oracle; it is not used by the package
    for ratio in (1e-6, 1e-3, 0.005, 0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0):
        x = ratio * n
        ref = math.log(scipy.special.gammaincc(n + 1, x))
        assert abs(estimator._log_poisson_cdf(n, x) - ref) <= 1e-14 * (n + 1), (n, x)


def test_penalty_increments_custom_prior_uses_its_table():
    weights = np.array([0.0, -1.0, 2.5, -0.3])
    spec = CustomLogWeightsPrior(weights)
    hyper = make_hyper(0.8, 3.0)
    expected = penalty_table(build_prior_table(spec, 3), hyper).increments
    assert np.array_equal(penalty_increments(spec, 3, hyper), expected)


def test_penalty_increments_validate_like_the_table():
    with pytest.raises(ConfigurationError):
        penalty_increments(TruncatedPoissonPrior(11.0), 10, UNIT_HYPER)
    with pytest.raises(ConfigurationError):
        penalty_increments(ReflectedPoissonPrior(10.0), 10, UNIT_HYPER)
    with pytest.raises(ConfigurationError):
        penalty_increments(CustomLogWeightsPrior(np.zeros(3)), 10, UNIT_HYPER)
    with pytest.raises(DomainError):
        penalty_increments(BinomialPrior(0.1), -1, UNIT_HYPER)
    with pytest.warns(UserWarning):
        penalty_increments(ReflectedPoissonPrior(2.0), 100, UNIT_HYPER)
    assert np.array_equal(penalty_increments(BinomialPrior(0.3), 0, UNIT_HYPER), [0.0])


def test_map_estimate_builds_no_table_for_named_priors(monkeypatch):
    def refuse(spec, n):
        raise AssertionError("map_estimate built a prior table")

    monkeypatch.setattr(estimator, "build_prior_table", refuse)
    y = np.random.default_rng(4).standard_normal(50) * 2.0
    for spec in (BinomialPrior(0.1), TruncatedPoissonPrior(5.0), ReflectedPoissonPrior(30.0)):
        map_estimate(y, make_hyper(1.0, 4.0), spec)


# ---------------------------------------------------------------------------
# candidate selection from raw data against the full ranking


def assert_same_result(a, b):
    assert a.k_hat == b.k_hat
    assert a.threshold == b.threshold
    assert np.array_equal(a.kept, b.kept)
    assert np.array_equal(a.mu_hat, b.mu_hat)


def full_ranking_estimate(y, k_hat):
    """The k_hat largest magnitudes of y, by the full stable ranking, kept as they are."""
    kept = np.argsort(-np.abs(y), kind="stable")[:k_hat]
    mu_hat = np.zeros(y.size)
    mu_hat[kept] = y[kept]
    threshold = float(np.abs(y[kept[-1]])) if k_hat > 0 else math.inf
    return EstimateResult(k_hat=k_hat, threshold=threshold, kept=kept, mu_hat=mu_hat)


def full_scan_k(y, inc):
    """The size ``select_k`` picks over every size of the full stable ranking."""
    order = np.argsort(-np.abs(y), kind="stable")
    return select_k(y[order] ** 2, np.cumsum(inc))[0]


def assert_candidates_match_full(y, hyper, specs, lams=None):
    """Every rule on raw data equals the full-ranking oracle, field for field.

    The rules are the MAP per spec, the fixed rule per ``lams`` (default
    1.5 sigma), FDR and Foster-Stine.  The binomial MAP and the fixed rule
    keep their flagged count; the scanned rules keep ``full_scan_k``.
    """
    n = y.size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-lambda reflected priors warn
        for spec in specs:
            inc = penalty_increments(spec, n, hyper)
            if isinstance(spec, BinomialPrior):
                k_hat = int(np.count_nonzero(y * y > inc[1]))
            else:
                k_hat = full_scan_k(y, inc)
            assert_same_result(map_estimate(y, hyper, spec), full_ranking_estimate(y, k_hat))
    for lam in (1.5 * hyper.sigma,) if lams is None else lams:
        k_hat = int(np.count_nonzero(np.abs(y) >= lam))
        assert_same_result(fixed_threshold_estimate(y, lam), full_ranking_estimate(y, k_hat))
    for cutoffs in (fdr_sequence(n, hyper.sigma, 0.1), foster_stine_sequence(n, hyper.sigma)):
        k_hat = full_scan_k(y, np.r_[0.0, cutoffs**2])
        assert_same_result(variable_threshold_estimate(y, cutoffs), full_ranking_estimate(y, k_hat))


def named_specs(n):
    specs = [BinomialPrior(0.05), BinomialPrior(0.3), TruncatedPoissonPrior(max(0.05 * n, 0.5))]
    if n > 1:
        specs.append(ReflectedPoissonPrior(0.5 * n))
    return specs


@pytest.mark.parametrize("n", [1, 2, 9, 200, 5000])
def test_candidates_match_the_full_ranking_on_random_data(n):
    rng = np.random.default_rng(n)
    for xi, tau in ((0.01, 5.0), (0.1, 3.0), (0.5, 2.0)):
        y = np.where(rng.random(n) < xi, tau * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
        assert_candidates_match_full(y, HyperParams(1.0, tau), named_specs(n))


def test_candidates_match_the_full_ranking_on_rounded_data():
    rng = np.random.default_rng(71)
    hyper = make_hyper(1.0, 9.0)
    for n in (1, 7, 300):
        y = np.where(rng.random(n) < 0.2, 3.0 * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
        y[: n // 3] = np.round(y[: n // 3])  # tied magnitudes exercise the stable order
        specs = [BinomialPrior(0.1), TruncatedPoissonPrior(0.1 * n)]
        if n > 1:
            specs.append(ReflectedPoissonPrior(0.5 * n))
        assert_candidates_match_full(y, hyper, specs, lams=(0.0, 1.5, math.inf))


def test_candidates_match_the_full_ranking_at_n_1e5(monkeypatch):
    # sparse data certify in closed form; dense data refuse it, and the
    # whole vector then decides (here: the bound fails, all n are ranked)
    n = 100_000
    rng = np.random.default_rng(n)
    verdicts = []
    closed_form = estimator._certifies_concave

    def recorded(*args):
        verdicts.append(closed_form(*args))
        return verdicts[-1]

    monkeypatch.setattr(estimator, "_certifies_concave", recorded)
    for xi, tau, share, expected in ((0.01, 5.0, 0.05, [True, True]), (0.9, 3.0, 0.5, [False, False])):
        y = np.where(rng.random(n) < xi, tau * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
        specs = [TruncatedPoissonPrior(share * n), ReflectedPoissonPrior(share * n)]
        verdicts.clear()
        assert_candidates_match_full(y, HyperParams(1.0, tau), specs)
        assert verdicts == expected


def test_results_own_their_kept():
    # a result never pins the ranking it was sliced from, which can be all n long
    y = np.array([5.0, -4.0, 0.1])
    results = [
        fixed_threshold_estimate(y, 1.0),
        map_estimate(y, UNIT_HYPER, BinomialPrior(0.4)),
        map_estimate(y, UNIT_HYPER, TruncatedPoissonPrior(1.0)),
        variable_threshold_estimate(y, fdr_sequence(3, 1.0, 0.1)),
    ]
    spike = np.zeros(401)
    spike[400] = 1000.0  # the custom prior of the fallback test
    long_y = np.random.default_rng(13).standard_normal(400) * 2.0
    fallback = map_estimate(long_y, make_hyper(1.0, 9.0), CustomLogWeightsPrior(spike))
    assert fallback.k_hat == 400
    for result in results + [fallback]:
        assert result.kept.base is None


def test_candidates_match_the_full_ranking_on_tied_magnitudes():
    rng = np.random.default_rng(12)
    y = np.round(3.0 * rng.standard_normal(400)) * rng.choice([-1.0, 1.0], 400)
    assert_candidates_match_full(y, HyperParams(1.0, 3.0), named_specs(400))


def test_candidates_order_by_magnitude_when_squares_tie():
    # squares this small are subnormal: a magnitude and the next float up
    # square to the same value, so only |y| orders them
    base = np.array([3e-161, 2e-161, 5e-161, 1e-161, 4e-161])
    y = np.concatenate([base, np.nextafter(base, 1.0), -base, np.zeros(3)])
    assert np.array_equal(y[:5] ** 2, y[5:10] ** 2)
    hyper = HyperParams(1e-161, 3e-161)
    result = map_estimate(y, hyper, TruncatedPoissonPrior(3.0))
    assert result.k_hat == 9
    assert np.array_equal(result.kept[:2], [7, 2])  # next float up first
    assert_candidates_match_full(y, hyper, [BinomialPrior(0.2), TruncatedPoissonPrior(3.0)])


def test_candidates_match_the_full_ranking_on_degenerate_data(monkeypatch):
    assert_candidates_match_full(np.array([2.5]), UNIT_HYPER, named_specs(1))
    assert_candidates_match_full(np.array([-0.2]), UNIT_HYPER, named_specs(1))
    assert_candidates_match_full(np.zeros(50), UNIT_HYPER, named_specs(50))
    # a positive cut that no square exceeds: the certified call scans no
    # candidate and keeps nothing
    scans = ScanSizes(monkeypatch)
    result = map_estimate(np.zeros(50), UNIT_HYPER, TruncatedPoissonPrior(2.5))
    assert scans == [0]
    assert (result.k_hat, result.threshold, result.kept.size) == (0, math.inf, 0)
    assert not result.mu_hat.any()


def test_binomial_with_nonpositive_increment_matches_the_full_ranking():
    hyper = HyperParams(1.0, 2.0)
    inc = penalty_increments(BinomialPrior(0.9), 300, hyper)
    assert inc[1] < 0.0
    y = np.random.default_rng(8).standard_normal(300)
    y[::7] = 0.0
    result = map_estimate(y, hyper, BinomialPrior(0.9))
    assert result.k_hat == 300  # every y_i^2 >= 0 > inc[1], zeros included
    assert_candidates_match_full(y, hyper, [BinomialPrior(0.9), BinomialPrior(0.6)])


def test_binomial_drops_a_square_equal_to_the_increment():
    # y^2 == inc[1] exactly: keeping it ties, and ties go to the smaller size
    c = penalty_increments(BinomialPrior(0.1), 1, UNIT_HYPER)[1]
    y = math.sqrt(c)
    assert y * y == c
    assert_candidates_match_full(np.array([y]), UNIT_HYPER, [BinomialPrior(0.1)])
    assert map_estimate(np.array([y]), UNIT_HYPER, BinomialPrior(0.1)).k_hat == 0
    # at n = 3 a full scan's rounded tail sums break the tie the other way;
    # the threshold rule is exact, as is the oracle's flagged count
    y3 = np.array([-y, 0.5 * y, 2.0 * y])
    assert np.array_equal(map_estimate(y3, UNIT_HYPER, BinomialPrior(0.1)).kept, [2])
    assert_candidates_match_full(y3, UNIT_HYPER, [BinomialPrior(0.1)])


class ArgsortSizes(list):
    """Records the length of every array np.argsort is called on."""

    def __init__(self, monkeypatch):
        super().__init__()
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            self.append(np.asarray(a).size)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)


class ScanSizes(list):
    """Records the number of squares of every ``penalized_scan`` call."""

    def __init__(self, monkeypatch):
        super().__init__()
        scan = estimator.penalized_scan

        def recording(sorted_sq, *args):
            self.append(sorted_sq.size)
            return scan(sorted_sq, *args)

        monkeypatch.setattr(estimator, "penalized_scan", recording)


def test_custom_priors_fall_back_to_the_full_ranking(monkeypatch):
    n = 400
    y = np.random.default_rng(13).standard_normal(n) * 2.0
    k = np.arange(n + 1, dtype=float)
    hyper = make_hyper(1.0, 9.0)
    # increasing weights make every increment negative, so there is no cut
    # and all n are sorted and scanned at once; a spike at k = n keeps the
    # cut positive, and the bound, checked before anything is sorted, fails
    # at k = n
    spike = np.zeros(n + 1)
    spike[n] = 1000.0
    for weights in (5.0 * k, spike):
        spec = CustomLogWeightsPrior(weights)
        sizes, sorts, scans = ArgsortSizes(monkeypatch), SortCalls(monkeypatch), ScanSizes(monkeypatch)
        result = map_estimate(y, hyper, spec)
        assert sorts == scans == [n]
        assert sizes == [n]  # all n are kept, and only the kept are ranked
        assert result.k_hat == n
        inc = penalty_increments(spec, n, hyper)
        assert_same_result(result, full_ranking_estimate(y, full_scan_k(y, inc)))
    # dense Foster-Stine: the bound fails with 477 candidates, so all n
    # are sorted and scanned once, and only the k_hat kept are ranked
    n = 1000
    rng = np.random.default_rng(20)
    y = np.where(rng.random(n) < 0.5, 3.0 * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
    cutoffs = foster_stine_sequence(n, 1.0)
    assert np.count_nonzero(y * y > cutoffs[n // 2 - 1] ** 2) == 477
    sizes, sorts, scans = ArgsortSizes(monkeypatch), SortCalls(monkeypatch), ScanSizes(monkeypatch)
    result = variable_threshold_estimate(y, cutoffs)
    assert sorts == scans == [n]
    assert sizes == [result.k_hat] == [462]
    assert_same_result(result, full_ranking_estimate(y, full_scan_k(y, np.r_[0.0, cutoffs**2])))


def test_raw_selection_sorts_only_candidates(monkeypatch):
    n = 100_000
    rng = np.random.default_rng(14)
    y = np.where(rng.random(n) < 0.01, 5.0 * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
    hyper = HyperParams(1.0, 5.0)
    sizes = ArgsortSizes(monkeypatch)
    specs = [BinomialPrior(0.01), ReflectedPoissonPrior(0.05 * n)]
    lam = math.sqrt(2.0 * math.log(n))
    results = [map_estimate(y, hyper, spec) for spec in specs]
    results.append(fixed_threshold_estimate(y, lam))
    assert len(sizes) == 3
    assert max(sizes) < n // 10
    assert sizes == [result.k_hat for result in results]  # each call ranks only its kept
    penalties = [np.cumsum(penalty_increments(spec, n, hyper)) for spec in specs]
    penalties.append(lam**2 * np.arange(n + 1.0))
    sorted_sq = -np.sort(-(y * y))
    for result, penalty in zip(results, penalties):
        _, objective = select_k(sorted_sq, penalty)
        assert objective[result.k_hat] == objective.min()


def test_poisson_selection_builds_only_the_increments_it_reads(monkeypatch):
    n = 100_000
    rng = np.random.default_rng(14)
    y = np.where(rng.random(n) < 0.01, 5.0 * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
    hyper = HyperParams(1.0, 5.0)
    unit_steps = estimator._unit_steps
    for spec in (TruncatedPoissonPrior(0.01 * n), ReflectedPoissonPrior(0.05 * n)):
        sizes = []

        def recording(*args):
            steps = unit_steps(*args)
            sizes.append(steps.size)
            return steps

        monkeypatch.setattr(estimator, "_unit_steps", recording)
        result = map_estimate(y, hyper, spec)
        built = sizes.copy()
        inc = penalty_increments(spec, n, hyper)
        candidates = np.count_nonzero(y * y > inc[(n + 1) // 2])
        # the cut, then the increments of sizes 0..K for the K candidates
        assert built == [1, candidates + 1]
        assert candidates < n // 10
        assert_same_result(result, full_ranking_estimate(y, full_scan_k(y, inc)))


def test_results_pickle():
    y = np.random.default_rng(15).standard_normal(300) * 2.0
    hyper, spec = make_hyper(1.0, 9.0), TruncatedPoissonPrior(10.0)
    copy = pickle.loads(pickle.dumps(map_estimate(y, hyper, spec)))
    k_hat = full_scan_k(y, penalty_increments(spec, 300, hyper))
    assert_same_result(copy, full_ranking_estimate(y, k_hat))


class ArgsortKinds(list):
    """Records the ``kind`` of every np.argsort call (None for the default)."""

    def __init__(self, monkeypatch):
        super().__init__()
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            self.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)


def one_tie(n):
    keys = -np.abs(np.random.default_rng(21).standard_normal(n))
    keys[7] = keys[n // 2]
    return keys


RANKING_KEYS = {
    "distinct": -np.abs(np.random.default_rng(16).standard_normal(1000)),
    "distinct, long": -np.abs(np.random.default_rng(18).standard_normal(100_000)),
    "tied magnitudes": -np.abs(np.round(np.random.default_rng(17).standard_normal(1000) * 4.0)),
    "tied magnitudes, long": -np.abs(np.round(np.random.default_rng(19).standard_normal(100_000), 2)),
    "one tie": one_tie(1000),
    "all equal": np.full(1000, -2.5),
    "signed zeros": np.array([0.0, -0.0, -1.0, 0.0, -0.0, -2.0, -0.0]),
    "two, tied": np.array([-0.0, 0.0]),
    "one": np.array([-3.0]),
    "none": np.array([]),
}


@pytest.mark.parametrize("name", RANKING_KEYS)
def test_ranking_helper_is_the_stable_argsort(monkeypatch, name):
    keys = RANKING_KEYS[name]
    expected = np.argsort(keys, kind="stable")
    kinds = ArgsortKinds(monkeypatch)
    order, ranked = estimator._argsort_stable(keys)
    assert np.array_equal(order, expected)
    assert ranked.tobytes() == keys[expected].tobytes()
    assert kinds == [None]


class SortCalls(list):
    """Records the size of every np.sort call."""

    def __init__(self, monkeypatch):
        super().__init__()
        sort = np.sort

        def recording(a, *args, **kwargs):
            self.append(np.size(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", recording)


def test_ranking_helper_ranks_rows_at_once(monkeypatch):
    names = ["distinct", "tied magnitudes", "one tie", "all equal"]
    keys = np.stack([RANKING_KEYS[name] for name in names])
    kinds, sorts = ArgsortKinds(monkeypatch), SortCalls(monkeypatch)
    order, ranked = estimator._argsort_stable(keys)
    assert kinds == [None]
    for row, name in enumerate(names):
        expected = np.argsort(keys[row], kind="stable")
        assert np.array_equal(order[row], expected), name
        assert ranked[row].tobytes() == keys[row][expected].tobytes(), name
    # only the rows with equal keys were sorted again
    assert sum(sorts) < keys.size


# ---------------------------------------------------------------------------
# map_estimate


def test_single_coordinate_killed_below_increment():
    # y^2 = 9 < 10.175..., the constant increment of this prior
    result = map_estimate(np.array([3.0]), UNIT_HYPER, BinomialPrior(0.1))
    assert result.k_hat == 0
    assert result.mu_hat[0] == 0.0
    assert result.threshold == math.inf


def test_single_coordinate_kept_above_increment():
    result = map_estimate(np.array([3.3]), UNIT_HYPER, BinomialPrior(0.1))
    assert result.k_hat == 1  # 10.89 > 10.175...
    assert result.mu_hat[0] == 3.3


def test_binomial_map_keeps_the_two_large_values():
    y = np.array([9.0, -0.5, 0.2, 4.0, 0.1])
    result = map_estimate(y, HyperParams(1.0, 3.0), BinomialPrior(0.2))
    assert result.k_hat == 2


def test_zero_vector_selects_nothing():
    result = map_estimate(np.zeros(12), UNIT_HYPER, BinomialPrior(0.1))
    assert result.k_hat == 0
    assert np.all(result.mu_hat == 0.0)


def test_estimate_structure():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(40) * 3
    hyper, spec = make_hyper(1.0, 4.0), TruncatedPoissonPrior(3.0)
    result = map_estimate(GaussianSequence(y, 1.0), hyper, spec)
    absy = np.abs(y)
    expected_kept = np.argsort(-absy, kind="stable")[: result.k_hat]
    assert np.array_equal(np.sort(result.kept), np.sort(expected_kept))
    assert np.array_equal(result.mu_hat[result.kept], y[result.kept])
    mask = np.ones(40, dtype=bool)
    mask[result.kept] = False
    assert np.all(result.mu_hat[mask] == 0.0)
    assert result.threshold == absy[result.kept].min()
    assert np.all(absy[mask] <= result.threshold)
    penalty = np.cumsum(penalty_increments(spec, 40, hyper))
    _, objective = select_k(-np.sort(-(y * y)), penalty)
    assert objective[result.k_hat] == objective.min()


def test_array_and_wrapper_inputs_agree():
    y = np.array([2.0, -4.0, 0.3])
    a = map_estimate(y, UNIT_HYPER, BinomialPrior(0.2))
    b = map_estimate(GaussianSequence(y, 1.0), UNIT_HYPER, BinomialPrior(0.2))
    assert a.k_hat == b.k_hat
    assert np.array_equal(a.mu_hat, b.mu_hat)


def test_rejects_non_finite_data():
    with pytest.raises(DomainError):
        map_estimate(np.array([1.0, math.nan]), UNIT_HYPER, BinomialPrior(0.2))
    with pytest.raises(DomainError):
        map_estimate(np.array([1.0, math.inf]), UNIT_HYPER, BinomialPrior(0.2))


def test_scale_equivariance():
    rng = np.random.default_rng(17)
    y = rng.standard_normal(30) * 2
    for c in (2.0, 0.25):
        base = map_estimate(y, make_hyper(1.0, 2.0), BinomialPrior(0.1))
        scaled = map_estimate(c * y, make_hyper(c, 2.0), BinomialPrior(0.1))
        assert scaled.k_hat == base.k_hat
        assert np.array_equal(np.sort(scaled.kept), np.sort(base.kept))
        assert np.array_equal(scaled.mu_hat, c * base.mu_hat)


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    y = rng.standard_normal(25) * 2.5
    perm = rng.permutation(25)
    base = map_estimate(y, make_hyper(1.0, 3.0), TruncatedPoissonPrior(2.0))
    moved = map_estimate(y[perm], make_hyper(1.0, 3.0), TruncatedPoissonPrior(2.0))
    assert moved.k_hat == base.k_hat
    assert np.array_equal(moved.mu_hat, base.mu_hat[perm])


def test_growing_a_kept_coordinate_keeps_it():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(50):
        y = rng.standard_normal(12) * 2
        result = map_estimate(y, make_hyper(1.0, 2.0), BinomialPrior(0.15))
        if result.k_hat == 0:
            continue
        j = int(result.kept[-1])  # the weakest kept coordinate
        y2 = y.copy()
        y2[j] *= 1.5
        grown = map_estimate(y2, make_hyper(1.0, 2.0), BinomialPrior(0.15))
        assert j in grown.kept
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# posterior score and exhaustive search


def test_score_of_empty_configuration():
    table = build_prior_table(BinomialPrior(0.3), 4)
    y = np.array([1.0, -0.5, 2.0, 0.1])
    empty = np.zeros(4, dtype=bool)
    assert posterior_log_score(y, empty, UNIT_HYPER, table) == pytest.approx(
        table.log_pmf[0], rel=1e-12
    )


def test_score_of_an_overflowing_square_is_infinite_without_warning():
    table = build_prior_table(BinomialPrior(0.3), 2)
    y = np.array([1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert posterior_log_score(y, np.array([True, False]), UNIT_HYPER, table) == math.inf
        assert math.isfinite(posterior_log_score(y, np.array([False, True]), UNIT_HYPER, table))


def test_score_rejects_non_finite_y():
    table = build_prior_table(BinomialPrior(0.3), 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            posterior_log_score(np.array([bad, 1.0]), np.array([True, False]), UNIT_HYPER, table)


def test_score_flip_adds_negative_log_bayes_factor():
    table = build_prior_table(BinomialPrior(0.3), 4)
    y = np.array([1.0, -0.5, 2.0, 0.1])
    x = np.array([True, False, True, False])
    for i in range(4):
        x2 = x.copy()
        x2[i] = not x2[i]
        delta = posterior_log_score(y, x2, UNIT_HYPER, table) - posterior_log_score(
            y, x, UNIT_HYPER, table
        )
        sign = -1.0 if x2[i] else 1.0
        # the combinatorial part also moves: account for the C(n,k) change
        k_old, k_new = int(x.sum()), int(x2.sum())
        comb = log_choose(4, k_old) - log_choose(4, k_new)
        prior = table.log_pmf[k_new] - table.log_pmf[k_old]
        expected = prior + comb + sign * math.log(bayes_factor(y[i], UNIT_HYPER))
        assert delta == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_score_ranking_matches_probability_space_enumeration():
    rng = np.random.default_rng(41)
    n = 6
    y = rng.standard_normal(n) * 2
    hyper = make_hyper(1.0, 2.0)
    table = build_prior_table(TruncatedPoissonPrior(1.5), n)
    scores, direct = [], []
    for bits in range(64):
        x = np.array([(bits >> i) & 1 == 1 for i in range(n)])
        scores.append(posterior_log_score(y, x, hyper, table))
        k = int(x.sum())
        # independent route: plain products of Bayes factors in probability space
        prob = math.exp(table.log_pmf[k]) / math.comb(n, k)
        for i in np.flatnonzero(x):
            prob /= bayes_factor(float(y[i]), hyper)
        direct.append(prob)
    assert np.array_equal(np.argsort(scores), np.argsort(np.log(direct)))


def test_brute_force_single_large_observation():
    config = brute_force_map(np.array([50.0]), UNIT_HYPER, BinomialPrior(0.2))
    assert config.x.tolist() == [True]
    assert config.k == 1


def test_brute_force_symmetric_tie_lexicographic():
    y = np.array([2.5, -2.5])
    hyper = make_hyper(1.0, 2.0)
    table = build_prior_table(BinomialPrior(0.4), 2)
    s10 = posterior_log_score(y, np.array([True, False]), hyper, table)
    s01 = posterior_log_score(y, np.array([False, True]), hyper, table)
    assert abs(s10 - s01) < 1e-12
    config = brute_force_map(y, hyper, BinomialPrior(0.4))
    if config.k == 1:  # only meaningful when a single-support config wins
        assert config.x.tolist() == [True, False]


def test_brute_force_ties_go_to_the_earliest_indices_as_in_the_scan():
    # pi(1) dominates, so exactly one of the tied magnitudes is kept
    spec = CustomLogWeightsPrior(np.array([0.0, 5.0, -100.0]))
    y = np.array([1.0, -1.0])
    config = brute_force_map(y, make_hyper(1.0, 9.0), spec)
    assert config.x.tolist() == [True, False]
    assert map_estimate(y, make_hyper(1.0, 9.0), spec).kept.tolist() == [0]
    spec = CustomLogWeightsPrior(np.array([0.0, 0.0, 8.0, -100.0]))
    config = brute_force_map(np.array([1.0, -1.0, 1.0]), make_hyper(1.0, 9.0), spec)
    assert config.x.tolist() == [True, True, False]


def test_brute_force_keeps_an_observation_whose_square_overflows():
    y = np.array([0.3, 1e200, 4.0, -0.2, 2.5, 0.1])
    for spec in (BinomialPrior(0.3), TruncatedPoissonPrior(2.0)):
        config = brute_force_map(y, make_hyper(1.0, 25.0), spec)
        assert np.flatnonzero(config.x).tolist() == [1, 2, 4]
        assert np.sort(map_estimate(y, make_hyper(1.0, 25.0), spec).kept).tolist() == [1, 2, 4]


@pytest.mark.parametrize("rule", ["binomial", "poisson", "rpoisson", "fdr"])
def test_an_observation_whose_square_overflows_is_kept(rule):
    # runs under the suite's warning filter: an overflow warning fails it
    rng = np.random.default_rng(7)
    mu = np.where(rng.random(200) < 0.03, 5.0 * rng.standard_normal(200), 0.0)
    plain = mu + rng.standard_normal(200)
    y = np.concatenate([[1e200], plain])
    hyper = make_hyper(1.0, 25.0)
    if rule == "fdr":
        with_huge = variable_threshold_estimate(y, fdr_sequence(y.size, 1.0))
        without = variable_threshold_estimate(plain, fdr_sequence(plain.size, 1.0))
    else:
        spec = {"binomial": BinomialPrior(0.03), "poisson": TruncatedPoissonPrior(6.0),
                "rpoisson": ReflectedPoissonPrior(100.0)}[rule]
        with_huge, without = map_estimate(y, hyper, spec), map_estimate(plain, hyper, spec)
    assert with_huge.kept[0] == 0
    assert with_huge.kept[1:].tolist() == (without.kept + 1).tolist()
    assert with_huge.k_hat == without.k_hat + 1 and with_huge.threshold == without.threshold


def float_range_data(scale):
    """1000 draws at scale 1e153, so sums of their squares leave the float range."""
    rng = np.random.default_rng(0)
    y = 1e153 * (np.where(rng.random(1000) < 0.05, 10 * rng.standard_normal(1000), 0) + rng.standard_normal(1000))
    return scale * y


FLOAT_RANGE_RULES = {
    "poisson": lambda y: map_estimate(y, HyperParams(1e153, 1e154), TruncatedPoissonPrior(50.0)),
    "rpoisson": lambda y: map_estimate(y, HyperParams(1e153, 1e154), ReflectedPoissonPrior(500.0)),
    "custom": lambda y: map_estimate(y, HyperParams(1e153, 1e154), CustomLogWeightsPrior(5 * np.arange(1001.0))),
    "fdr": lambda y: variable_threshold_estimate(y, fdr_sequence(1000, 1e153)),
    "foster-stine": lambda y: variable_threshold_estimate(y, foster_stine_sequence(1000, 1e153)),
}


@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize("rule", FLOAT_RANGE_RULES)
def test_sums_past_the_float_range_are_a_domain_error(rule, scale):
    # at 1.0 the squares below the cut sum past the float range (the custom
    # prior has no cut, and every size's criterion does); at 0.3 every
    # size's criterion does.  Either is refused, without an overflow warning
    y = float_range_data(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range; rescale the data"):
            FLOAT_RANGE_RULES[rule](y)
        # the binomial MAP sums nothing, and keeps its threshold rule
        assert map_estimate(y, HyperParams(1e153, 1e154), BinomialPrior(0.05)).k_hat > 0


FLOAT_RANGE_SPECS = [
    BinomialPrior(0.05),
    TruncatedPoissonPrior(50.0),
    ReflectedPoissonPrior(500.0),
    CustomLogWeightsPrior(-5 * np.arange(1001.0)),
]


@pytest.mark.parametrize("spec", FLOAT_RANGE_SPECS)
def test_penalties_past_the_float_range_are_a_domain_error(spec):
    # at sigma = tau = 5e153 the penalty rate is 1e308, and every prior's
    # increments overflow; they are refused without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range; rescale the data"):
            penalty_increments(spec, 1000, HyperParams(5e153, 5e153))
    # increments near the top of the float range are returned as they are
    assert np.abs(penalty_increments(TruncatedPoissonPrior(50.0), 1000, HyperParams(1e153, 1e154))).max() > 1e308


@pytest.mark.parametrize("spec", FLOAT_RANGE_SPECS)
def test_penalty_tables_past_the_float_range_are_a_domain_error(spec):
    # penalty_table refuses what penalty_increments refuses, also without
    # an overflow warning
    table = build_prior_table(spec, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range; rescale the data"):
            penalty_table(table, HyperParams(5e153, 5e153))
    # penalties near the top of the float range are returned as they are
    pen = penalty_table(build_prior_table(TruncatedPoissonPrior(50.0), 1000), HyperParams(1e152, 1e153))
    assert np.abs(pen.penalty).max() > 8e307


def test_brute_force_size_guard():
    with pytest.raises(SizeError):
        brute_force_map(np.zeros(21), UNIT_HYPER, BinomialPrior(0.1))


def test_brute_force_agrees_with_scan_smoke():
    rng = np.random.default_rng(59)
    priors = [BinomialPrior(0.25), TruncatedPoissonPrior(2.0), ReflectedPoissonPrior(3.0)]
    agreements = 0
    for trial in range(60):
        n = int(rng.integers(4, 11))
        y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        hyper = make_hyper(1.0, float(rng.choice([0.5, 2.0, 8.0])))
        spec = priors[trial % 3]
        if isinstance(spec, ReflectedPoissonPrior) and spec.lam >= n:
            spec = ReflectedPoissonPrior(n - 1.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = map_estimate(y, hyper, spec)
            config = brute_force_map(y, hyper, spec)
        # a reflected prior with lam <= sqrt(n log n) warns in both calls
        flat = isinstance(spec, ReflectedPoissonPrior) and spec.lam <= math.sqrt(n * math.log(n))
        assert ["nearly flat" in str(w.message) for w in caught] == ([True, True] if flat else [])
        assert np.array_equal(np.sort(est.kept), np.flatnonzero(config.x))
        agreements += 1
    assert agreements == 60


def test_configuration_type():
    x = np.array([True, False, True])
    config = Configuration(x)
    assert config.k == 2
