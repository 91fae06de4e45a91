"""Penalty construction, the penalized scan, and the selection estimate."""

import math
import pickle
import warnings

import numpy as np
import pytest

from mapthresh import (
    BinomialPrior,
    Configuration,
    ConfigurationError,
    CustomLogWeightsPrior,
    DomainError,
    GaussianSequence,
    HyperParams,
    RankedSequence,
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
    rank_sequence,
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
# ranked view


def assert_same_result(a, b):
    assert a.k_hat == b.k_hat
    assert a.threshold == b.threshold
    assert np.array_equal(a.kept, b.kept)
    assert np.array_equal(a.mu_hat, b.mu_hat)


def test_ranked_view_gives_the_same_estimates():
    rng = np.random.default_rng(71)
    hyper = make_hyper(1.0, 9.0)
    for n in (1, 7, 300):
        y = np.where(rng.random(n) < 0.2, 3.0 * rng.standard_normal(n), 0.0) + rng.standard_normal(n)
        y[: n // 3] = np.round(y[: n // 3])  # tied magnitudes exercise the stable order
        ranked = rank_sequence(y)
        specs = [BinomialPrior(0.1), TruncatedPoissonPrior(0.1 * n)]
        if n > 1:
            specs.append(ReflectedPoissonPrior(0.5 * n))
        for spec in specs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert_same_result(map_estimate(y, hyper, spec), map_estimate(ranked, hyper, spec))
        for lam in (0.0, 1.5, math.inf):
            assert_same_result(fixed_threshold_estimate(y, lam), fixed_threshold_estimate(ranked, lam))
        lams = fdr_sequence(n, 1.0, 0.1)
        assert_same_result(variable_threshold_estimate(y, lams), variable_threshold_estimate(ranked, lams))


def test_ranked_view_fields():
    y = np.array([1.0, -3.0, 3.0, 0.5])
    ranked = RankedSequence(GaussianSequence(y, 1.0))
    assert np.array_equal(ranked.order, [1, 2, 0, 3])
    assert np.array_equal(ranked.sorted_sq, [9.0, 9.0, 1.0, 0.25])
    assert rank_sequence(ranked) is ranked
    with pytest.raises(DomainError):
        rank_sequence(np.array([1.0, math.nan]))


def test_results_from_one_view_do_not_share_kept():
    ranked = rank_sequence(np.array([5.0, -4.0, 0.1]))
    a = fixed_threshold_estimate(ranked, 1.0)
    b = map_estimate(ranked, UNIT_HYPER, BinomialPrior(0.4))
    a.kept[0] = 2
    assert ranked.order[0] == 0
    assert b.kept[0] == 0


# ---------------------------------------------------------------------------
# candidate selection from raw data against the full ranking


def rules_on(y, hyper, specs):
    """Each rule as a function of the data: MAP per spec, fixed, FDR and Foster-Stine."""
    n = y.size
    rules = [lambda d, spec=spec: map_estimate(d, hyper, spec) for spec in specs]
    rules.append(lambda d: fixed_threshold_estimate(d, 1.5 * hyper.sigma))
    rules.append(lambda d: variable_threshold_estimate(d, fdr_sequence(n, hyper.sigma, 0.1)))
    rules.append(lambda d: variable_threshold_estimate(d, foster_stine_sequence(n, hyper.sigma)))
    return rules


def assert_candidates_match_full(y, hyper, specs):
    # a ranked view is scanned over every size: today's full path
    ranked = rank_sequence(y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-lambda reflected priors warn
        for rule in rules_on(y, hyper, specs):
            assert_same_result(rule(y), rule(ranked))


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


def test_candidates_match_the_full_ranking_on_degenerate_data():
    assert_candidates_match_full(np.array([2.5]), UNIT_HYPER, named_specs(1))
    assert_candidates_match_full(np.array([-0.2]), UNIT_HYPER, named_specs(1))
    assert_candidates_match_full(np.zeros(50), UNIT_HYPER, named_specs(50))


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
    # the threshold rule is exact, from raw data and from a ranked view
    y3 = np.array([-y, 0.5 * y, 2.0 * y])
    for data in (y3, rank_sequence(y3)):
        assert np.array_equal(map_estimate(data, UNIT_HYPER, BinomialPrior(0.1)).kept, [2])


class ArgsortSizes(list):
    """Records the length of every array np.argsort is called on."""

    def __init__(self, monkeypatch):
        super().__init__()
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            self.append(np.asarray(a).size)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)


def test_custom_priors_fall_back_to_the_full_ranking(monkeypatch):
    n = 400
    y = np.random.default_rng(13).standard_normal(n) * 2.0
    k = np.arange(n + 1, dtype=float)
    hyper = make_hyper(1.0, 9.0)
    # increasing weights make every increment negative, so there is no cut
    # and all n are ranked at once; a spike at k = n keeps the cut positive,
    # and the candidates are ranked before the bound fails at k = n
    spike = np.zeros(n + 1)
    spike[n] = 1000.0
    for weights, ranked_sizes in ((5.0 * k, [n]), (spike, [175, n])):
        spec = CustomLogWeightsPrior(weights)
        sizes = ArgsortSizes(monkeypatch)
        result = map_estimate(y, hyper, spec)
        assert sizes == ranked_sizes
        assert result.k_hat == n
        assert_same_result(result, map_estimate(rank_sequence(y), hyper, spec))


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
    penalties = [np.cumsum(penalty_increments(spec, n, hyper)) for spec in specs]
    penalties.append(lam**2 * np.arange(n + 1.0))
    sorted_sq = rank_sequence(y).sorted_sq
    for result, penalty in zip(results, penalties):
        _, objective = select_k(sorted_sq, penalty)
        assert objective[result.k_hat] == objective.min()


def test_results_pickle():
    y = np.random.default_rng(15).standard_normal(300) * 2.0
    hyper, spec = make_hyper(1.0, 9.0), TruncatedPoissonPrior(10.0)
    copy = pickle.loads(pickle.dumps(map_estimate(y, hyper, spec)))
    assert_same_result(copy, map_estimate(rank_sequence(y), hyper, spec))


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
    _, objective = select_k(rank_sequence(y).sorted_sq, penalty)
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
