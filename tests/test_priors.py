"""Prior tables, diagnostics, and the hierarchical sampler."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from test_estimator import _named_priors_at_edges
from mapthresh import (
    BinomialPrior,
    ConfigurationError,
    CustomLogWeightsPrior,
    DomainError,
    HyperParams,
    L0Ball,
    ReflectedPoissonPrior,
    StrongLpBall,
    TruncatedPoissonPrior,
    WeakLpBall,
    ball_contains,
    build_prior_table,
    check_assumption_a,
    complexity_weights,
    log_choose,
    prior_ball_mass,
    sample_mu,
)
from mapthresh import priors

HYPER = HyperParams(1.0, 2.0)


def bigint_log(value: int) -> float:
    """ln of an arbitrarily large integer, exact to ~1e-15 relative."""
    shift = max(0, value.bit_length() - 512)
    return math.log(value >> shift) + shift * math.log(2.0)


# ---------------------------------------------------------------------------
# log_choose


def test_log_choose_trivial_endpoints():
    assert log_choose(10, 0) == 0.0
    assert log_choose(10, 10) == 0.0
    assert log_choose(0, 0) == 0.0


def test_log_choose_small_values_exact():
    assert log_choose(10, 2) == pytest.approx(math.log(45), rel=1e-13)
    for n in (1, 2, 7, 23, 60):
        for k in range(n + 1):
            assert log_choose(n, k) == pytest.approx(
                math.log(math.comb(n, k)), rel=1e-12, abs=1e-12
            )


def test_log_choose_large_n_accuracy():
    # exact big-integer logarithms probe both the direct-sum and the
    # log-gamma branches at the accuracy the contract promises for n <= 1e6
    n = 10**6
    for k in (1, 2, 127, 128, 129, 1000, 10_000):
        expected = bigint_log(math.comb(n, k))
        assert log_choose(n, k) == pytest.approx(expected, rel=1e-10)
    # central binomial at a size where the exact integer stays cheap
    assert log_choose(20_000, 10_000) == pytest.approx(
        bigint_log(math.comb(20_000, 10_000)), rel=1e-10
    )


def test_log_choose_dominates_k_log_n_over_k():
    assert log_choose(1000, 10) >= 10 * math.log(100)
    assert log_choose(1000, 10) >= 46.0517


def test_log_factorial_against_scipy_gammaln():
    # scipy's gammaln is the independent oracle; it is not used by the package
    k = np.arange(1_000_001, dtype=float)
    ours = priors._log_factorial(k)
    ref = scipy.special.gammaln(k + 1.0)
    assert ours[0] == 0.0 and ours[1] == 0.0
    assert np.all(np.abs(ours - ref) <= 1e-15 * ref)
    # any order, as the reflected Poisson table reads it
    assert np.array_equal(priors._log_factorial(k[::-1]), ours[::-1])


def test_log_choose_all_is_exactly_zero_at_both_ends():
    for n in (0, 1, 63, 64, 1000, 100_001):
        lc = priors._log_choose_all(n)
        assert lc[0] == 0.0 and lc[-1] == 0.0


def test_log_choose_rejects_out_of_range():
    with pytest.raises(DomainError):
        log_choose(10, -1)
    with pytest.raises(DomainError):
        log_choose(10, 11)


# ---------------------------------------------------------------------------
# prior construction and tables


def test_binomial_table_pinned_value():
    table = build_prior_table(BinomialPrior(0.1), 10)
    expected = math.log(45 * 0.01 * 0.9**8)
    assert table.log_pmf[2] == pytest.approx(expected, abs=1e-10)
    assert table.log_pmf[2] == pytest.approx(-1.6414, abs=1e-4)


@pytest.mark.parametrize(
    "spec",
    [
        BinomialPrior(0.1),
        BinomialPrior(0.97),
        TruncatedPoissonPrior(3.7),
        TruncatedPoissonPrior(100.0),
        ReflectedPoissonPrior(60.0),
        CustomLogWeightsPrior(tuple(float(np.sin(k)) for k in range(101))),
    ],
)
def test_tables_are_normalized(spec):
    table = build_prior_table(spec, 100)
    total = np.logaddexp.reduce(table.log_pmf)
    assert abs(total) < 1e-9
    assert table.pmf().sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 20, 1000, 10**5])
def test_named_prior_tables_against_scipy(n):
    # SciPy's log-pmfs are the independent oracle: the tables and the penalty
    # increments share priors._log_poisson_cdf, so neither checks the other.
    # The closed forms round like log n!, and like the value itself.
    ulps = 4.0 * math.ulp(max(1.0, math.lgamma(n + 1.0)))
    k = np.arange(n + 1)
    for spec in _named_priors_at_edges(n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small-lambda reflected priors warn
            log_pmf = build_prior_table(spec, n).log_pmf
        if isinstance(spec, BinomialPrior):
            ref = scipy.stats.binom.logpmf(k, n, spec.xi)
        else:  # a Poisson(x) pmf at j, restricted to j <= n
            x, j = (spec.lam, k) if isinstance(spec, TruncatedPoissonPrior) else (n - spec.lam, n - k)
            ref = scipy.stats.poisson.logpmf(j, x) - scipy.stats.poisson.logcdf(n, x)
        np.testing.assert_allclose(log_pmf, ref, rtol=4.0 * np.finfo(float).eps, atol=ulps, err_msg=repr(spec))
        assert abs(np.exp(log_pmf).sum() - 1.0) <= ulps, spec


def test_binomial_table_is_the_closed_form_at_k_zero():
    # no normalizer: log pi(0) is n log(1 - xi) to the bit
    for n, xi in ((1000, 0.05), (10**5, 0.005), (7, 0.5)):
        assert build_prior_table(BinomialPrior(xi), n).log_pmf[0] == n * math.log1p(-xi)


def test_truncated_poisson_matches_renormalized_poisson():
    lam, n = 3.7, 8
    table = build_prior_table(TruncatedPoissonPrior(lam), n)
    raw = np.array([lam**k / math.factorial(k) for k in range(n + 1)])
    assert np.allclose(table.pmf(), raw / raw.sum(), rtol=1e-12)


def test_truncated_poisson_lambda_equals_n_is_legal():
    table = build_prior_table(TruncatedPoissonPrior(5.0), 5)
    ref = scipy.stats.poisson.pmf(np.arange(6), 5.0)
    assert np.allclose(table.pmf(), ref / ref.sum(), rtol=1e-10)


def test_reflected_poisson_weight_structure():
    # the unnormalized log-weight at k = n is 0, so normalized values are
    # recovered by subtracting the total from each raw weight
    lam, n = 40.0, 100
    table = build_prior_table(ReflectedPoissonPrior(lam), n)
    raw = np.array(
        [(n - k) * math.log(n - lam) - math.lgamma(n - k + 1) for k in range(n + 1)]
    )
    assert raw[n] == 0.0
    shifted = table.log_pmf - table.log_pmf[n]
    assert np.allclose(shifted, raw, rtol=1e-9, atol=1e-9)


def test_reflected_poisson_small_lambda_warns():
    n = 100
    cut = math.sqrt(n * math.log(n))
    with pytest.warns(UserWarning):
        build_prior_table(ReflectedPoissonPrior(cut * 0.9), n)


def test_reflected_poisson_large_lambda_silent(recwarn):
    n = 100
    cut = math.sqrt(n * math.log(n))
    build_prior_table(ReflectedPoissonPrior(cut * 1.5), n)
    assert len(recwarn) == 0


def test_custom_weights_shift_invariant():
    w = tuple(float(np.cos(k)) for k in range(13))
    t1 = build_prior_table(CustomLogWeightsPrior(w), 12)
    t2 = build_prior_table(CustomLogWeightsPrior(tuple(x + 37.5 for x in w)), 12)
    assert np.allclose(t1.log_pmf, t2.log_pmf, atol=1e-12)


def test_prior_validation_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ConfigurationError):
            BinomialPrior(bad)
    with pytest.raises(ConfigurationError):
        TruncatedPoissonPrior(0.0)
    with pytest.raises(ConfigurationError):
        build_prior_table(TruncatedPoissonPrior(6.0), 5)  # lambda > n
    with pytest.raises(ConfigurationError):
        build_prior_table(ReflectedPoissonPrior(5.0), 5)  # lambda = n
    with pytest.raises(ConfigurationError):
        CustomLogWeightsPrior((0.0, math.inf))
    with pytest.raises(ConfigurationError):
        CustomLogWeightsPrior((0.0, math.nan))
    with pytest.raises(ConfigurationError):
        build_prior_table(CustomLogWeightsPrior((0.0, 0.0)), 5)  # wrong length


@pytest.mark.parametrize(
    "sigma, tau",
    [
        (0.0, 1.0),
        (1.0, -2.0),
        (math.inf, 1.0),
        (1.0, math.nan),
        (1e200, 1e200),  # sigma^2 overflows
        (1e-170, 1.0),  # sigma^2 underflows to 0
        (1.0, 1e-170),  # gamma underflows to 0
        (1.0, 1e200),  # tau^2 overflows
        (1e-150, 1e150),  # gamma overflows
        (1.0, 1e-160),  # gamma is subnormal: 1/gamma and the penalty rate overflow
        (1e150, 1e140),  # sigma^2 / gamma, and so the penalty rate, overflows
        (True, 2.0),  # a bool is not a scale
        (1.0, True),
    ],
)
def test_hyperparams_validation(sigma, tau):
    with pytest.raises(DomainError):
        HyperParams(sigma, tau)


def test_hyperparams_accept_tiny_and_huge_scales_with_usable_squares():
    assert HyperParams(1e-161, 3e-161).gamma == pytest.approx(9.0, rel=0.05)  # subnormal squares
    assert HyperParams(1e150, 2e150).gamma == pytest.approx(4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# decay bound and complexity weights


def test_c_gamma_values_exact():
    table = build_prior_table(BinomialPrior(0.5), 10)
    assert check_assumption_a(table, 1.0).c_gamma == 24.5
    assert check_assumption_a(table, 0.5).c_gamma == 12.5
    assert check_assumption_a(table, 2.0).c_gamma == 8 * 2.75**2


def test_decay_bound_holds_for_tiny_xi():
    table = build_prior_table(BinomialPrior(math.exp(-24.5)), 100)
    assert check_assumption_a(table, 1.0).holds


def test_decay_bound_fails_at_k_one_for_xi_03():
    table = build_prior_table(BinomialPrior(0.3), 10)
    report = check_assumption_a(table, 1.0)
    assert not report.holds
    assert report.first_failing_k() == 1
    assert report.per_k_margin[1] < 0
    # direct check: pi(1) = 10 * 0.3 * 0.7^9 far exceeds C(10,1) e^{-24.5}
    assert 10 * 0.3 * 0.7**9 > 10 * math.exp(-24.5)


def test_margin_formula_matches_definition():
    spec = CustomLogWeightsPrior(tuple(float(np.sin(3 * k)) for k in range(16)))
    table = build_prior_table(spec, 15)
    report = check_assumption_a(table, 2.0)
    direct = np.array(
        [log_choose(15, k) - report.c_gamma * k - table.log_pmf[k] for k in range(16)]
    )
    assert np.allclose(report.per_k_margin, direct, atol=1e-12)
    assert report.holds == bool(np.all(direct >= 0))


def test_weights_half_mass_at_zero():
    table = build_prior_table(CustomLogWeightsPrior((math.log(0.5), math.log(0.5))), 1)
    weights, _ = complexity_weights(table)
    assert weights[0] == pytest.approx(2 * math.log(2), rel=1e-12)


def test_weights_uniform_configurations_closed_form():
    # weights proportional to C(n,k) flatten to the uniform distribution on
    # configurations, giving (n ln 2) / k exactly
    n = 12
    spec = CustomLogWeightsPrior(tuple(log_choose(n, k) for k in range(n + 1)))
    table = build_prior_table(spec, n)
    weights, l_star = complexity_weights(table)
    for k in range(1, n + 1):
        assert weights[k] == pytest.approx(n * math.log(2) / k, rel=1e-9)
    assert weights[n] == pytest.approx(math.log(2), rel=1e-9)
    # the maximum is the k = 0 term, 2 ln(2^n)
    assert l_star == pytest.approx(2 * n * math.log(2), rel=1e-9)


def test_weights_log_over_n_prior_stays_moderate():
    n = 1000
    table = build_prior_table(BinomialPrior(math.log(n) / n), n)
    _, l_star = complexity_weights(table)
    assert 0 < l_star <= 3 * math.log(n)


# (n, prior, parameter, exact L*, first size failing the decay bound at
# gamma = 9), the `check-prior --gamma 9` cases; tools/lstar_references.py
# recomputes them with mpmath at 40 digits
LSTAR_REFERENCES = [
    (1, "binomial", 0.05, "2.9957322735539909379", 1),
    (1, "binomial", 0.5, "1.3862943611198906188", 1),
    (1, "binomial", 0.005, "5.2983173665480366566", 1),
    (1, "binomial", 1e-12, "27.631021115928548228", 1),
    (1, "binomial", 0.999999999, "41.446531730456686039", 1),
    (1, "poisson", 1e-06, "13.81551155796377415", 1),
    (1, "poisson", 0.5, "1.0986122886681096914", 1),
    (1, "poisson", 1.0, "1.3862943611198906188", 1),
    (1, "rpoisson", 1e-06, "1.3862953611206406194", 1),
    (2, "binomial", 0.05, "3.0470255679415414743", 1),
    (2, "binomial", 0.5, "2.7725887222397812377", 1),
    (2, "binomial", 0.005, "5.3033299083715809388", 1),
    (2, "binomial", 1e-12, "27.631021115929548228", 1),
    (2, "binomial", 0.999999999, "82.893063460913372078", 1),
    (2, "poisson", 1e-06, "14.508658738524219459", 1),
    (2, "poisson", 0.5, "1.8718021769015914266", 1),
    (2, "poisson", 2.0, "3.2188758248682007492", 1),
    (2, "rpoisson", 1e-06, "1.8325822637486501305", 1),
    (20, "binomial", 0.05, "3.9703048669174511285", 1),
    (20, "binomial", 0.5, "27.725887222397812377", 1),
    (20, "binomial", 0.005, "5.3935556611953780174", 1),
    (20, "binomial", 1e-12, "27.631021115947548228", 1),
    (20, "binomial", 0.999999999, "828.93063460913372078", 1),
    (20, "poisson", 1e-06, "16.811243831518265143", 1),
    (20, "poisson", 0.5, "4.1888794541139363029", 1),
    (20, "poisson", 20.0, "38.83711961040335505", 1),
    (20, "rpoisson", 1e-06, "4.835263177321306348", 1),
    (1000, "binomial", 0.05, "102.5865887751010727", 1),
    (1000, "binomial", 0.5, "1386.2943611198906188", 1),
    (1000, "binomial", 0.005, "10.305846648268774522", 1),
    (1000, "binomial", 1e-12, "27.631021116927548228", 1),
    (1000, "binomial", 0.999999999, "41446.531730456686039", 27),
    (1000, "poisson", 1e-06, "20.723266836946411201", 1),
    (1000, "poisson", 0.5, "8.1009024595420823615", 1),
    (1000, "poisson", 1000.0, "1998.6470633699275864", 2),
    (1000, "rpoisson", 1e-06, "10.604186493784144934", 1),
    (100000, "binomial", 0.05, "10258.65887751010727", 7),
    (100000, "binomial", 0.5, "138629.43611198906188", 92),
    (100000, "binomial", 0.005, "1002.5083647088564295", 1),
    (100000, "binomial", 1e-12, "27.631021215927548228", 1),
    (100000, "binomial", 0.999999999, "4144653.1730456686039", 2653),
    (100000, "poisson", 1e-06, "25.328437022934502569", 1),
    (100000, "poisson", 0.5, "12.70607264553017373", 1),
    (100000, "poisson", 100000.0, "199998.61706698503237", 132),
    (100000, "rpoisson", 1e-06, "17.496861059018427866", 1),
    (1000, "poisson", 50.0, "100.0", 1),
    (1000, "rpoisson", 5.0, "10.728203122157339411", 1),
    (1000, "poisson", 5.0, "10.298317366548036677", 1),
    (1000, "rpoisson", 500.0, "395.04016013194321248", 1),
]


@pytest.mark.parametrize(
    "n, kind, value, exact, first_failing_k",
    LSTAR_REFERENCES,
    ids=[f"{kind}:{value!r}-n{n}" for n, kind, value, _, _ in LSTAR_REFERENCES],
)
def test_l_star_and_decay_verdict_against_mpmath(n, kind, value, exact, first_failing_k):
    spec = {"binomial": BinomialPrior, "poisson": TruncatedPoissonPrior, "rpoisson": ReflectedPoissonPrior}[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-lambda reflected priors warn
        table = build_prior_table(spec(value), n)
    _, l_star = complexity_weights(table)
    # c[0] of a truncated Poisson prior with lam = n, and of a reflected one,
    # carries the rounding of log n!; every other L* is a sum of small steps
    bound = 2.0 * math.ulp(l_star)
    if kind == "rpoisson" or value == n:
        bound += 4.0 * math.ulp(math.lgamma(n + 1.0))
    assert abs(Fraction(l_star) - Fraction(exact)) <= Fraction(bound), (l_star, exact)
    report = check_assumption_a(table, 9.0)
    assert report.holds == (first_failing_k is None)
    assert report.first_failing_k() == first_failing_k


# ---------------------------------------------------------------------------
# sampler


def test_sample_mu_deterministic():
    a = sample_mu(BinomialPrior(0.3), 50, HYPER, seed=123)
    b = sample_mu(BinomialPrior(0.3), 50, HYPER, seed=123)
    assert np.array_equal(a, b)
    c = sample_mu(BinomialPrior(0.3), 50, HYPER, seed=124)
    assert not np.array_equal(a, c)


def test_sample_mu_degenerate_prior_all_zero():
    n = 8
    spec = CustomLogWeightsPrior(tuple(0.0 if k == 0 else -1e4 for k in range(n + 1)))
    for seed in range(20):
        assert np.count_nonzero(sample_mu(spec, n, HYPER, seed=seed)) == 0


def test_sample_mu_support_size_distribution():
    # support-size histogram vs the binomial pmf at level 0.001
    n, xi, draws = 1000, 0.05, 10_000
    rng = np.random.default_rng(2024)
    counts = np.zeros(n + 1, dtype=int)
    spec = BinomialPrior(xi)
    for _ in range(draws):
        k = int(np.count_nonzero(sample_mu(spec, n, HYPER, seed=rng)))
        counts[k] += 1
    pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, xi)
    # merge bins until every expected count is at least 5
    lo = int(np.argmax(pmf.cumsum() * draws >= 5.0))
    hi = int(n - np.argmax(pmf[::-1].cumsum() * draws >= 5.0))
    obs = np.concatenate(
        ([counts[: lo + 1].sum()], counts[lo + 1 : hi], [counts[hi:].sum()])
    )
    exp = np.concatenate(
        ([pmf[: lo + 1].sum()], pmf[lo + 1 : hi], [pmf[hi:].sum()])
    ) * draws
    stat = float(np.sum((obs - exp) ** 2 / exp))
    crit = scipy.stats.chi2.ppf(0.999, len(obs) - 1)
    assert stat < crit, f"chi2 {stat:.1f} >= {crit:.1f}"


def test_sample_mu_subsets_uniform_given_size():
    # all C(6,3) = 20 supports equally likely under a prior pinned to k = 3
    n, k, draws = 6, 3, 100_000
    spec = CustomLogWeightsPrior(tuple(0.0 if j == k else -1e4 for j in range(n + 1)))
    rng = np.random.default_rng(7)
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        mu = sample_mu(spec, n, HYPER, seed=rng)
        key = tuple(np.flatnonzero(mu != 0.0))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 20
    expected = draws / 20
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < scipy.stats.chi2.ppf(0.999, 19)  # 43.82


def test_draw_mu_accepts_a_nearly_normalized_pmf():
    # a closed-form table sums to 1 only up to rounding; NumPy's choice
    # refuses a pmf whose sum misses 1 by more than sqrt(eps)
    pmf = build_prior_table(BinomialPrior(0.3), 50).pmf() * (1.0 + 1e-7)
    mu = priors._draw_mu(np.random.default_rng(3), pmf, 2.0)
    assert mu.shape == (50,)


def test_sample_mu_values_scale_with_tau():
    mu = sample_mu(BinomialPrior(0.5), 2000, HyperParams(1.0, 4.0), seed=5)
    live = mu[mu != 0.0]
    assert 3.0 < live.std() < 5.0


# ---------------------------------------------------------------------------
# balls


def test_l0_ball_counts():
    ball = L0Ball(0.01)
    mu = np.zeros(1000)
    mu[:10] = 5.0
    assert ball_contains(ball, mu)
    mu[10] = 5.0
    assert not ball_contains(ball, mu)


def test_weak_ball_boundary_membership():
    ball = WeakLpBall(1.0, 0.05)
    n = 40
    boundary = 0.05 * (n / np.arange(1, n + 1))
    assert ball_contains(ball, boundary)
    assert not ball_contains(ball, boundary * 1.0001)
    # order statistics are compared, not raw positions
    rng = np.random.default_rng(0)
    assert ball_contains(ball, rng.permutation(boundary))


def test_strong_ball_mean_power():
    ball = StrongLpBall(1.0, 0.1)
    assert ball_contains(ball, np.full(10, 0.1))
    assert not ball_contains(ball, np.full(10, 0.1000001))


def test_ball_validation():
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(ConfigurationError):
            WeakLpBall(bad, 0.1)
    with pytest.raises(ConfigurationError):
        L0Ball(0.0)


def test_prior_ball_mass_degenerate_prior():
    n = 10
    spec = CustomLogWeightsPrior(tuple(0.0 if k == 0 else -1e4 for k in range(n + 1)))
    mass, err = prior_ball_mass(spec, n, HYPER, L0Ball(0.09), reps=200, seed=1)
    assert mass == 1.0
    assert err == 0.0


def test_prior_ball_mass_matches_binomial_cdf():
    # under a size prior the count alone decides L0 membership, so the mass
    # is a binomial tail probability
    n, xi, eta = 100, 0.1, 0.12
    mass, err = prior_ball_mass(
        BinomialPrior(xi), n, HYPER, L0Ball(eta), reps=4000, seed=9
    )
    exact = scipy.stats.binom.cdf(math.floor(eta * n), n, xi)
    assert abs(mass - exact) <= 4 * max(err, 1e-3)
