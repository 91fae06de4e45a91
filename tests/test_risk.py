"""Risk references, rate formulas, and the grid benchmark."""

import dataclasses
import io
import math
import re
import types
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from conftest import bundled_config
from mapthresh import (
    BinomialPrior,
    ConfigurationError,
    CustomLogWeightsPrior,
    DegenerateDataError,
    DomainError,
    ExperimentConfig,
    HyperParams,
    L0Ball,
    ReflectedPoissonPrior,
    StrongLpBall,
    TruncatedPoissonPrior,
    UnsupportedBallError,
    WeakLpBall,
    ball_contains,
    em_fit,
    fixed_threshold_estimate,
    least_favorable_mu,
    mad_sigma,
    map_estimate,
    minimax_rate,
    monte_carlo_amse,
    oracle_risk,
    rate_check,
    universal_threshold,
)
from mapthresh import em as em_module
from mapthresh import estimator, risk

ROOT_2LOG5 = math.sqrt(2.0 * math.log(5.0))


# ---------------------------------------------------------------------------
# ideal risk


def test_oracle_risk_clips_each_coordinate():
    assert oracle_risk([3.0, -0.5, 0.0, 1.0], 1.0) == pytest.approx(2.25, rel=1e-14)


def test_oracle_risk_large_sigma_keeps_everything():
    mu = np.array([0.3, -1.2, 0.7])
    assert oracle_risk(mu, 100.0) == pytest.approx(float(np.sum(mu**2)), rel=1e-14)


def test_oracle_risk_validation():
    with pytest.raises(DomainError):
        oracle_risk([1.0], 0.0)


# ---------------------------------------------------------------------------
# minimax rates


def test_rate_sparsity_ball_value():
    assert minimax_rate(L0Ball(0.01), 1000, 1.0) == pytest.approx(
        2000.0 * 0.01 * math.log(100.0), rel=1e-12
    )
    assert minimax_rate(L0Ball(0.01), 1000, 1.0) == pytest.approx(92.1034, abs=5e-5)


def test_rate_weak_ball_branches():
    # n^(1/p) * eta = 1 < sqrt(2 log 100): the dense-normed branch, exactly 2
    assert minimax_rate(WeakLpBall(1.0, 0.01), 100, 1.0) == pytest.approx(2.0, rel=1e-12)
    # n^(1/p) * eta = 20 clears the cutover: the sparse branch
    assert minimax_rate(WeakLpBall(1.0, 0.2), 100, 1.0) == pytest.approx(
        2.0 * 100 * 0.2 * ROOT_2LOG5, rel=1e-12
    )


def test_rate_strong_ball_drops_weak_factor():
    for eta in (0.01, 0.2):
        weak = minimax_rate(WeakLpBall(1.0, eta), 100, 1.0)
        strong = minimax_rate(StrongLpBall(1.0, eta), 100, 1.0)
        assert weak == pytest.approx(2.0 * strong, rel=1e-12)
    weak = minimax_rate(WeakLpBall(0.5, 0.1), 1000, 1.0)
    strong = minimax_rate(StrongLpBall(0.5, 0.1), 1000, 1.0)
    assert weak == pytest.approx(strong * 2.0 / 1.5, rel=1e-12)


def test_rate_scales_with_noise_variance():
    base = minimax_rate(L0Ball(0.05), 500, 1.0)
    assert minimax_rate(L0Ball(0.05), 500, 2.0) == pytest.approx(4.0 * base, rel=1e-12)


def test_rate_validation():
    with pytest.raises(DomainError):
        minimax_rate(L0Ball(0.1), 1, 1.0)
    with pytest.raises(DomainError):
        minimax_rate(L0Ball(0.1), 100, -1.0)
    with pytest.raises(DomainError):
        minimax_rate(L0Ball(1.5), 100, 1.0)
    with pytest.raises(UnsupportedBallError):
        minimax_rate(types.SimpleNamespace(eta=0.5), 100, 1.0)


# ---------------------------------------------------------------------------
# boundary configurations


def test_least_favorable_weak_envelope():
    ball = WeakLpBall(0.5, 0.1)
    mu = least_favorable_mu(ball, 50)
    i = np.arange(1, 51, dtype=float)
    assert np.allclose(mu, 0.1 * (50.0 / i) ** 2.0, rtol=1e-14)
    assert mu[-1] == pytest.approx(ball.eta, rel=1e-14)
    assert ball_contains(ball, mu)
    # membership is about sorted magnitudes, so shuffling keeps it inside
    rng = np.random.default_rng(4)
    assert ball_contains(ball, rng.permutation(mu))
    assert not ball_contains(ball, 1.0000001 * mu)


def test_least_favorable_sparsity_spikes():
    ball = L0Ball(0.095)
    mu = least_favorable_mu(ball, 100, sigma=2.0)
    spike = 2.0 * math.sqrt(2.0 * math.log(1.0 / 0.095))
    assert np.count_nonzero(mu) == 9
    assert np.allclose(mu[:9], spike, rtol=1e-14)
    assert np.all(mu[9:] == 0.0)
    assert ball_contains(ball, mu)


def test_least_favorable_validation():
    with pytest.raises(UnsupportedBallError):
        least_favorable_mu(StrongLpBall(1.0, 0.1), 100)
    with pytest.raises(DomainError):
        least_favorable_mu(L0Ball(1.0), 100)
    with pytest.raises(DomainError):
        least_favorable_mu(L0Ball(0.1), 0)


# ---------------------------------------------------------------------------
# benchmark configuration


GOOD = dict(
    n=100,
    sigma=1.0,
    xi_grid=(0.1,),
    tau_grid=(3.0,),
    replications=2,
    methods=("bin", "universal"),
    use_em=False,
)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n=5),
        dict(sigma=0.0),
        dict(xi_grid=(0.0,)),
        dict(xi_grid=(1.0,)),
        dict(xi_grid=()),
        dict(tau_grid=(-1.0,)),
        dict(tau_grid=()),
        dict(replications=0),
        dict(methods=()),
        dict(methods=("bin", "bogus")),
        dict(methods=("bin", "bin")),
        dict(master_seed=-1),
        dict(universal_scale="med"),
        dict(jobs=0),
        dict(n=math.nan),
        dict(n=math.inf),
        dict(n=None),
        dict(n="100"),
        dict(n=100.5),
        dict(sigma=math.nan),
        dict(sigma=math.inf),
        dict(sigma=None),
        dict(sigma="1"),
        dict(xi_grid=(math.nan,)),
        dict(xi_grid=(None,)),
        dict(xi_grid=("0.1",)),
        dict(tau_grid=(math.inf,)),
        dict(tau_grid=(math.nan,)),
        dict(replications=math.inf),
        dict(replications=None),
        dict(replications="3"),
        dict(replications=2.5),
        dict(master_seed=math.nan),
        dict(master_seed=True),
        dict(master_seed=1.5),
        dict(jobs=None),
        dict(jobs="3"),
        dict(jobs=1.5),
        dict(xi_grid=0.1),
        dict(tau_grid=None),
        dict(methods=None),
        dict(methods=5),
        dict(use_em="no"),
        dict(use_em=None),
        dict(sigma=True),
        dict(tau_grid=(True,)),
    ],
)
def test_config_rejects_bad_fields(bad):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**GOOD, **bad})


def test_config_error_names_unknown_method():
    with pytest.raises(ConfigurationError, match="bogus"):
        ExperimentConfig(**{**GOOD, "methods": ("bogus",)})


def test_config_takes_integral_floats_as_ints():
    cfg = ExperimentConfig(**{**GOOD, "n": 100.0, "replications": 2.0, "master_seed": 3.0, "jobs": 1.0})
    assert [type(v) for v in (cfg.n, cfg.replications, cfg.master_seed, cfg.jobs)] == [int] * 4
    same = ExperimentConfig(**{**GOOD, "master_seed": 3})
    assert report_bytes(monte_carlo_amse(cfg)) == report_bytes(monte_carlo_amse(same))


# ---------------------------------------------------------------------------
# benchmark runs


def small_report(**overrides):
    cfg = ExperimentConfig(
        **{
            **GOOD,
            "xi_grid": (0.05, 0.3),
            "tau_grid": (3.0, 5.0),
            "replications": 4,
            "methods": ("bin", "pois1", "universal", "oracle"),
            "use_em": True,
            "master_seed": 12,
            **overrides,
        }
    )
    return monte_carlo_amse(cfg)


def report_bytes(report) -> str:
    buf = io.StringIO()
    report.write_csv(buf)
    return buf.getvalue()


def test_report_covers_grid_and_csv_shape():
    report = small_report()
    assert set(report.cells) == {
        (m, xi, tau)
        for m in report.config.methods
        for xi in (0.05, 0.3)
        for tau in (3.0, 5.0)
    }
    lines = report_bytes(report).strip().split("\n")
    assert lines[0] == "method,xi,tau,amse,std_err,replications,seed"
    assert len(lines) == 1 + 4 * 4
    for line in lines[1:]:
        method, xi, tau, amse, std_err, reps, seed = line.split(",")
        assert method in report.config.methods
        assert float(amse) >= 0.0 and float(std_err) >= 0.0
        assert (int(reps), int(seed)) == (4, 12)


def test_single_replication_has_zero_std_err():
    report = small_report(replications=1, xi_grid=(0.1,), tau_grid=(3.0,))
    for cell in report.cells.values():
        assert cell.std_err == 0.0


def test_worker_count_does_not_change_output():
    serial = report_bytes(small_report(jobs=1))
    parallel = report_bytes(small_report(jobs=2))
    assert serial == parallel


def test_same_seed_reproduces_report_exactly():
    # full-precision cell equality, stronger than the 6-digit CSV check
    assert small_report().cells == small_report().cells


def test_universal_scale_variants_differ():
    reports = {
        scale: monte_carlo_amse(
            ExperimentConfig(
                n=200,
                sigma=1.0,
                xi_grid=(0.1,),
                tau_grid=(5.0,),
                replications=4,
                methods=("universal",),
                use_em=False,
                master_seed=3,
                universal_scale=scale,
            )
        )
        for scale in ("mad_raw", "mad", "true")
    }
    values = {s: r.cells[("universal", 0.1, 5.0)].amse for s, r in reports.items()}
    assert values["mad_raw"] != values["mad"]
    assert values["mad"] != values["true"]


GOLDEN_CONFIG = dict(
    n=400,
    sigma=1.0,
    xi_grid=(0.01, 0.1),
    tau_grid=(3.0, 5.0),
    replications=5,
    methods=("bin", "pois1", "pois2", "universal", "oracle"),
    master_seed=31,
)

# Reports of GOLDEN_CONFIG from the implementation that built a normalized
# prior table per MAP call and ranked y once per method; the shared ranking
# and the closed-form penalties must reproduce them byte for byte.
GOLDEN_CSV = {
    True: """\
method,xi,tau,amse,std_err,replications,seed
bin,0.01,3,0.0479186,0.0102507,5,31
bin,0.01,5,0.0271095,0.00793155,5,31
bin,0.1,3,0.34109,0.0514941,5,31
bin,0.1,5,0.27287,0.0304009,5,31
pois1,0.01,3,0.0479186,0.0102507,5,31
pois1,0.01,5,0.0271095,0.00793155,5,31
pois1,0.1,3,0.336551,0.0474944,5,31
pois1,0.1,5,0.273355,0.0293328,5,31
pois2,0.01,3,0.057971,0.0178469,5,31
pois2,0.01,5,0.024557,0.010134,5,31
pois2,0.1,3,0.314226,0.0407219,5,31
pois2,0.1,5,0.29934,0.0318181,5,31
universal,0.01,3,0.165543,0.0423283,5,31
universal,0.01,5,0.11069,0.0146286,5,31
universal,0.1,3,0.320389,0.0247494,5,31
universal,0.1,5,0.285086,0.0247001,5,31
oracle,0.01,3,0.00906899,0.00183259,5,31
oracle,0.01,5,0.0105003,0.00301895,5,31
oracle,0.1,3,0.0881313,0.00837219,5,31
oracle,0.1,5,0.107715,0.0078373,5,31
""",
    False: """\
method,xi,tau,amse,std_err,replications,seed
bin,0.01,3,0.0479186,0.0102507,5,31
bin,0.01,5,0.024557,0.010134,5,31
bin,0.1,3,0.269637,0.0280023,5,31
bin,0.1,5,0.259693,0.0281246,5,31
pois1,0.01,3,0.0479186,0.0102507,5,31
pois1,0.01,5,0.024557,0.010134,5,31
pois1,0.1,3,0.26588,0.0275851,5,31
pois1,0.1,5,0.262148,0.0270925,5,31
pois2,0.01,3,0.0479186,0.0102507,5,31
pois2,0.01,5,0.024557,0.010134,5,31
pois2,0.1,3,0.29088,0.036069,5,31
pois2,0.1,5,0.279284,0.0239968,5,31
universal,0.01,3,0.165543,0.0423283,5,31
universal,0.01,5,0.11069,0.0146286,5,31
universal,0.1,3,0.320389,0.0247494,5,31
universal,0.1,5,0.285086,0.0247001,5,31
oracle,0.01,3,0.00906899,0.00183259,5,31
oracle,0.01,5,0.0105003,0.00301895,5,31
oracle,0.1,3,0.0881313,0.00837219,5,31
oracle,0.1,5,0.107715,0.0078373,5,31
""",
}


@pytest.mark.parametrize("use_em", [True, False])
def test_report_matches_golden_csv(use_em):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-lambda reflected priors warn
        report = monte_carlo_amse(ExperimentConfig(**GOLDEN_CONFIG, use_em=use_em))
    assert report_bytes(report) == GOLDEN_CSV[use_em]


def test_one_ranking_per_cell(monkeypatch):
    # one value sort per block; no row of untied draws needs an index ranking
    calls = {"sort": 0, "argsort": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    blocks = []
    score = risk._score_block

    def counted_score(*args):
        blocks.append(args[-1].shape[0])
        return score(*args)

    monkeypatch.setattr(risk, "_score_block", counted_score)
    report = small_report(use_em=False, methods=("bin", "pois1", "pois2", "universal"))
    cells = len(report.config.xi_grid) * len(report.config.tau_grid)
    assert len(blocks) == cells
    assert calls == {"sort": len(blocks), "argsort": 0}


@pytest.mark.parametrize("use_em", [True, False])
def test_penalties_once_per_cell_without_em(monkeypatch, use_em):
    calls = []
    increments = risk.penalty_increments

    def counting_increments(*args):
        calls.append(1)
        return increments(*args)

    monkeypatch.setattr(risk, "penalty_increments", counting_increments)
    monkeypatch.setattr(risk, "BLOCK_VALUES", 1)  # one row per block
    report = small_report(use_em=use_em, methods=("pois1", "pois2", "oracle"))
    cfg = report.config
    cells = len(cfg.xi_grid) * len(cfg.tau_grid)
    assert len(calls) == 2 * cells * (cfg.replications if use_em else 1)


def test_one_robust_scale_per_block_under_em(monkeypatch):
    # the block's scales start every row's EM fit and set the universal rule
    baseline = small_report()
    calls = []
    mad_scale = risk._mad_scale

    def counting(y):
        calls.append(y.shape)
        return mad_scale(y)

    for module in (risk, em_module):
        monkeypatch.setattr(module, "_mad_scale", counting)
    report = small_report()
    cfg = report.config
    assert calls == [(cfg.replications, cfg.n)] * (len(cfg.xi_grid) * len(cfg.tau_grid))
    assert report_bytes(report) == report_bytes(baseline)
    assert report.em_nonconverged == baseline.em_nonconverged


@pytest.mark.parametrize(
    "bad_rows, error, message",
    [
        ({2: "half zeros"}, DegenerateDataError, "median absolute deviation is zero"),
        ({1: "tiny", 2: "half zeros"}, DomainError, "max |y| must be at least"),
        ({1: "constant"}, DegenerateDataError, "constant data cannot identify the mixture"),
    ],
)
def test_a_row_em_refuses_raises_as_its_own_fit_does(monkeypatch, bad_rows, error, message):
    draw = risk._draw_block

    def spoiled_draw(*args):
        mu, y = draw(*args)
        for row, kind in bad_rows.items():
            if kind == "half zeros":  # a zero median absolute deviation
                y[row, : y.shape[1] // 2 + 1] = 0.0
            elif kind == "tiny":  # squares that underflow
                y[row] *= 1e-160
            else:
                y[row] = 2.5
        return mu, y

    config = ExperimentConfig(**{**GOOD, "replications": 4, "use_em": True})
    mu, y = spoiled_draw(config, 0, 0.1, 3.0, range(4))
    first_bad = min(bad_rows)
    with pytest.raises(error, match=re.escape(message)) as alone:
        em_fit(y[first_bad])
    monkeypatch.setattr(risk, "_draw_block", spoiled_draw)
    with pytest.raises(error) as in_cell:
        risk._run_cell((config, 0, 0.1, 3.0))
    assert str(in_cell.value) == str(alone.value)


def single_sequence_errors(config, xi, tau, mu, y):
    """Each method's squared error on one row, from the single-sequence estimators."""
    n, sigma = config.n, config.sigma
    if config.use_em:
        fit = em_fit(y)
        hyper, xi_hat = HyperParams(fit.sigma_hat, fit.tau_hat), fit.xi_hat
    else:
        hyper, xi_hat = HyperParams(sigma, tau), xi
    scale = {"true": sigma, "mad": mad_sigma(y), "mad_raw": 0.6745 * mad_sigma(y)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # nearly flat reflected priors
        estimates = {
            "bin": map_estimate(y, hyper, BinomialPrior(xi_hat)),
            "pois1": map_estimate(y, hyper, TruncatedPoissonPrior(n * xi_hat)),
            "pois2": map_estimate(y, hyper, ReflectedPoissonPrior(n * xi_hat)),
            "universal": fixed_threshold_estimate(
                y, universal_threshold(n, scale[config.universal_scale])
            ),
        }
    errors = {m: np.sum((est.mu_hat - mu) ** 2) / n for m, est in estimates.items()}
    errors["oracle"] = oracle_risk(mu, sigma) / n
    return errors


CELL_CASES = {
    # (n, replications, universal_scale, block rows or None, round y to 1 decimal)
    "n not a multiple of 8": (203, 5, "mad_raw", None, False),
    "tied magnitudes": (203, 5, "mad", None, True),
    "blocks of 2 rows": (203, 5, "true", 2, False),
    "long rows": (50_001, 2, "mad_raw", None, False),
}


@pytest.mark.parametrize("use_em", [True, False])
@pytest.mark.parametrize("case", CELL_CASES)
def test_cell_errors_equal_the_single_sequence_estimators(monkeypatch, case, use_em):
    n, reps, scale, block_rows, rounded = CELL_CASES[case]
    xi, tau = 0.05, 4.0
    config = ExperimentConfig(
        n=n, sigma=1.0, xi_grid=(xi,), tau_grid=(tau,), replications=reps,
        methods=risk.KNOWN_METHODS, use_em=use_em, master_seed=31, universal_scale=scale,
    )
    draw, score = risk._draw_block, risk._score_block
    blocks = []

    def rounded_draw(*args):
        mu, y = draw(*args)
        return mu, np.round(y, 1)

    def counted_score(*args):
        blocks.append(args[-1].shape[0])
        return score(*args)

    if rounded:
        monkeypatch.setattr(risk, "_draw_block", rounded_draw)
    if block_rows is not None:
        monkeypatch.setattr(risk, "BLOCK_VALUES", block_rows * n)
    monkeypatch.setattr(risk, "_score_block", counted_score)
    _, errors, _, _ = risk._run_cell((config, 0, xi, tau))
    assert blocks == ([2, 2, 1] if block_rows else [reps])

    mu, y = risk._draw_block(config, 0, xi, tau, range(reps))
    if rounded:
        assert np.unique(np.abs(y)).size < n // 2
    for row in range(reps):
        expected = single_sequence_errors(config, xi, tau, mu[row], y[row])
        for method in risk.KNOWN_METHODS:
            assert errors[method][row] == expected[method], (method, row)


def test_only_rows_tied_at_their_cut_are_ranked(monkeypatch):
    # The Poisson priors' increments never increase, so a run of equal
    # squares never straddles their cut.  A prior whose increments rise
    # through 9 puts the cut inside the run of twenty magnitudes 3.0 of
    # rows 1 and 4, and only those rows are ranked.
    n, reps, xi, tau = 60, 6, 0.1, 4.0
    config = ExperimentConfig(
        n=n, sigma=1.0, xi_grid=(xi,), tau_grid=(tau,), replications=reps,
        methods=risk.KNOWN_METHODS, use_em=False, master_seed=31,
    )
    k = np.arange(n + 1)
    log_choose_n = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k])
    rising = CustomLogWeightsPrior(log_choose_n - (1.9 * k + 0.05 * k * k))
    draw, rank = risk._draw_block, estimator._rank
    ranked = []

    def tied_draw(*args):
        mu, y = draw(*args)
        y[[1, 4], :20] = np.copysign(3.0, y[[1, 4], :20])
        return mu, y

    def recorded_rank(y, *args):
        ranked.append(y.copy())
        return rank(y, *args)

    monkeypatch.setitem(risk._SCANNED_PRIORS, "pois1", lambda lam: rising)
    monkeypatch.setattr(risk, "_draw_block", tied_draw)
    monkeypatch.setattr(estimator, "_rank", recorded_rank)
    _, errors, _, _ = risk._run_cell((config, 0, xi, tau))
    cell_ranked = ranked.copy()  # the single-sequence calls below rank too

    mu, y = risk._draw_block(config, 0, xi, tau, range(reps))
    hyper = HyperParams(config.sigma, tau)
    for row in range(reps):
        expected = single_sequence_errors(config, xi, tau, mu[row], y[row])
        fit = map_estimate(y[row], hyper, rising)
        mags = np.sort(np.abs(y[row]))[::-1]
        straddles = 0 < fit.k_hat < n and mags[fit.k_hat - 1] == mags[fit.k_hat]
        assert straddles == (row in (1, 4)), row
        expected["pois1"] = np.sum((fit.mu_hat - mu[row]) ** 2) / n
        for method in risk.KNOWN_METHODS:
            assert errors[method][row] == expected[method], (method, row)
    assert len(cell_ranked) == 1 and np.array_equal(cell_ranked[0], y[[1, 4]])


def test_mean_and_std_err_of_a_matrix_is_row_by_row():
    rng = np.random.default_rng(6)
    for size in (1, 2, 3, 10, 100):
        e = rng.random((5, size)) ** 3
        # rows whose squares underflow and whose sums overflow unscaled, and a row of zeros
        e[1], e[2], e[4] = np.ldexp(e[1], -900), np.ldexp(e[2], 1020), 0.0
        mean, std_err = risk._mean_and_std_err(e)
        assert mean.shape == std_err.shape == (5,)
        for row in range(5):
            expected = risk._mean_and_std_err(e[row])
            assert (float(mean[row]).hex(), float(std_err[row]).hex()) == tuple(float(v).hex() for v in expected)


def test_mean_and_std_err_match_numpy_and_scale_exactly():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 10, 100):
        e = rng.random(size) ** 3
        std_err = float(np.std(e, ddof=1) / math.sqrt(size)) if size > 1 else 0.0
        expected = (float(np.mean(e)), std_err)
        assert risk._mean_and_std_err(e) == expected
        # at 2^-900 NumPy's squares underflow, at 2^1020 its sums overflow
        for k in (-900, 1020):
            assert risk._mean_and_std_err(np.ldexp(e, k)) == tuple(math.ldexp(v, k) for v in expected)
    assert risk._mean_and_std_err(np.zeros(3)) == (0.0, 0.0)


def test_unconverged_fits_are_counted_not_written(monkeypatch):
    baseline = small_report()
    assert baseline.em_nonconverged == {(xi, tau): 0 for xi in (0.05, 0.3) for tau in (3.0, 5.0)}

    def unconverged_fits(y, y_sq, inits):
        return [dataclasses.replace(fit, converged=False) for fit in em_module.em_fit_rows(y, y_sq, inits)]

    monkeypatch.setattr(risk, "em_fit_rows", unconverged_fits)
    report = small_report()
    assert report.em_nonconverged == {cell: 4 for cell in baseline.em_nonconverged}
    assert report_bytes(report) == report_bytes(baseline)


def test_every_em_fit_of_the_table1_grid_has_a_non_decreasing_trace(monkeypatch):
    # the benchmark's check pass records fits through em.em_fit, which the
    # grid no longer calls; the rule is its TRACE_SLACK one
    fits = []
    original = risk.em_fit_rows

    def recording(*args):
        made = original(*args)
        fits.extend(made)
        return made

    monkeypatch.setattr(risk, "em_fit_rows", recording)
    config = bundled_config(use_em=True)
    monte_carlo_amse(config)
    assert len(fits) == len(config.xi_grid) * len(config.tau_grid) * config.replications
    for fit in fits:
        assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


def test_flat_reflected_priors_are_counted_not_warned(monkeypatch):
    # n = 100, sqrt(n log n) = 21.5: lam = n xi is flat at xi = 0.05, not at 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = small_report(use_em=False, methods=("pois2", "oracle"))
    assert report.flat_reflected_priors == {
        (0.05, 3.0): 4, (0.05, 5.0): 4, (0.3, 3.0): 0, (0.3, 5.0): 0
    }

    monkeypatch.setattr(risk, "_reflected_is_flat", lambda lam, n: True)
    everywhere = small_report(use_em=False, methods=("pois2", "oracle"))
    assert everywhere.flat_reflected_priors == {cell: 4 for cell in report.flat_reflected_priors}
    assert report_bytes(everywhere) == report_bytes(report)

    # outside the benchmark a flat prior still warns on each call
    y = np.random.default_rng(0).standard_normal(100)
    with pytest.warns(UserWarning, match="nearly flat"):
        map_estimate(y, HyperParams(1.0, 3.0), ReflectedPoissonPrior(5.0))


# ---------------------------------------------------------------------------
# exact risk of the fixed-cut columns


def spike_slab_risk(cut: float, xi: float, tau: float, sigma: float) -> float:
    """Expected per-coordinate squared error of keeping y where |y| > cut,
    for mu = 0 with probability 1 - xi, else N(0, tau^2), and y = mu + N(0, sigma^2).

    With T(a) = E[Z^2 1{|Z| > a}] = 2 (a phi(a) + 1 - Phi(a)): noise adds
    sigma^2 T(cut / sigma).  Given a signal, y ~ N(0, s^2) with
    s^2 = tau^2 + sigma^2 and mu | y ~ N(rho y, v), rho = tau^2 / s^2,
    v = rho sigma^2, so keeping costs (1 - rho)^2 y^2 + v and dropping
    rho^2 y^2 + v.
    """
    unit = NormalDist()

    def tail_second_moment(a):
        return 2.0 * (a * unit.pdf(a) + 1.0 - unit.cdf(a))

    s_sq = tau * tau + sigma * sigma
    rho = tau * tau / s_sq
    t_slab = tail_second_moment(cut / math.sqrt(s_sq))
    slab = rho * sigma * sigma + s_sq * ((1.0 - rho) ** 2 * t_slab + rho**2 * (1.0 - t_slab))
    return (1.0 - xi) * sigma * sigma * tail_second_moment(cut / sigma) + xi * slab


def oracle_slab_risk(xi: float, tau: float, sigma: float) -> float:
    """E[min(mu^2, sigma^2)] per coordinate under the same draw."""
    unit = NormalDist()
    a = sigma / tau
    kept_share = 2.0 * (1.0 - unit.cdf(a))
    below = 1.0 - 2.0 * (a * unit.pdf(a) + 1.0 - unit.cdf(a))  # E[Z^2 1{|Z| <= a}]
    return xi * (tau * tau * below + sigma * sigma * kept_share)


def test_fixed_cut_columns_match_their_exact_risk():
    # Fixed before looking at any z-score: seed 4242, 200 replications,
    # n = 1000, sigma = 2 (so that a fault in how sigma is applied shows),
    # the table1 grid with tau scaled by sigma, and |z| <= 4.5 in each of
    # the 27 cells (a normal tail of 1.8e-4 over all of them).
    sigma = 2.0
    config = ExperimentConfig(
        n=1000, sigma=sigma, xi_grid=(0.005, 0.05, 0.5), tau_grid=(6.0, 10.0, 14.0),
        replications=200, methods=("bin", "universal", "oracle"), use_em=False,
        master_seed=4242, universal_scale="true",
    )
    report = monte_carlo_amse(config)
    z = {}
    for xi in config.xi_grid:
        for tau in config.tau_grid:
            gamma = (tau / sigma) ** 2
            rate = 2.0 * sigma**2 * (1.0 + 1.0 / gamma)
            # the binomial MAP keeps y^2 / rate > log((1 - xi) / xi) + log(1 + gamma) / 2
            bin_cut = math.sqrt(rate * (math.log((1.0 - xi) / xi) + 0.5 * math.log1p(gamma)))
            exact = {
                "bin": spike_slab_risk(bin_cut, xi, tau, sigma),
                "universal": spike_slab_risk(sigma * math.sqrt(2.0 * math.log(config.n)), xi, tau, sigma),
                "oracle": oracle_slab_risk(xi, tau, sigma),
            }
            for method, risk_value in exact.items():
                cell = report.cells[(method, xi, tau)]
                z[(method, xi, tau)] = (cell.amse - risk_value) / cell.std_err
    worst = max(z, key=lambda cell: abs(z[cell]))
    assert abs(z[worst]) <= 4.5, (worst, z[worst])


# ---------------------------------------------------------------------------
# bundled grid trends


def test_selection_methods_beat_universal_cellwise(table1_report):
    cells = table1_report.cells
    cfg = table1_report.config
    for method in ("bin", "pois1", "pois2"):
        for xi in cfg.xi_grid:
            for tau in cfg.tau_grid:
                ours = cells[(method, xi, tau)]
                ref = cells[("universal", xi, tau)]
                slack = 3.0 * (ours.std_err + ref.std_err)
                assert ours.amse <= ref.amse + slack, (method, xi, tau)


def test_selection_risk_decreases_in_tau(table1_report):
    # stronger signals are easier to separate for the selection methods
    cells = table1_report.cells
    cfg = table1_report.config
    for method in ("bin", "pois1", "pois2"):
        for xi in cfg.xi_grid:
            for lo, hi in zip(cfg.tau_grid, cfg.tau_grid[1:]):
                a, b = cells[(method, xi, lo)], cells[(method, xi, hi)]
                slack = 3.0 * (a.std_err + b.std_err)
                assert b.amse <= a.amse + slack, (method, xi, lo, hi)


def test_amse_nonnegative(table1_report):
    assert all(cell.amse >= 0.0 for cell in table1_report.cells.values())


def test_risk_grows_with_signal_fraction(table1_report):
    cells = table1_report.cells
    cfg = table1_report.config
    for method in cfg.methods:
        for tau in cfg.tau_grid:
            for lo, hi in zip(cfg.xi_grid, cfg.xi_grid[1:]):
                a, b = cells[(method, lo, tau)], cells[(method, hi, tau)]
                slack = 3.0 * (a.std_err + b.std_err)
                assert a.amse <= b.amse + slack, (method, lo, hi, tau)


def test_bundled_config_loads():
    cfg = bundled_config()
    assert cfg.n == 1000
    assert cfg.methods == ("bin", "pois1", "pois2", "universal", "oracle")
    assert cfg.xi_grid == (0.005, 0.05, 0.5)
    assert cfg.tau_grid == (3.0, 5.0, 7.0)


# ---------------------------------------------------------------------------
# rate check


def quick_rows(seed=5):
    return rate_check(
        prior_for=lambda n: BinomialPrior(math.log(n) / n),
        ball_for=lambda n: L0Ball(50.0 / n),
        n_grid=(100, 150, 200),
        reps=3,
        hyper_for=lambda n: HyperParams(1.0, math.sqrt(2.0 * math.log(n / 50.0))),
        seed=seed,
    )


def test_rate_check_row_fields():
    rows = quick_rows()
    assert [r.n for r in rows] == [100, 150, 200]
    for row in rows:
        assert row.eta == pytest.approx(50.0 / row.n, rel=1e-14)
        assert row.rate == pytest.approx(minimax_rate(L0Ball(row.eta), row.n, 1.0), rel=1e-14)
        assert row.ratio == row.mc_risk / row.rate
        mu0 = least_favorable_mu(L0Ball(row.eta), row.n, 1.0)
        assert row.oracle_ratio == pytest.approx(oracle_risk(mu0, 1.0) / row.rate, rel=1e-14)
        assert row.mc_risk > 0.0


def test_rate_check_deterministic():
    a, b = quick_rows(), quick_rows()
    assert [r.mc_risk for r in a] == [r.mc_risk for r in b]
    c = quick_rows(seed=6)
    assert [r.mc_risk for r in a] != [r.mc_risk for r in c]


def test_rate_check_validation():
    with pytest.raises(DomainError):
        rate_check(
            prior_for=lambda n: BinomialPrior(0.1),
            ball_for=lambda n: L0Ball(0.1),
            n_grid=(100,),
            reps=0,
            hyper_for=lambda n: HyperParams(1.0, 3.0),
        )
