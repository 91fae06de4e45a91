"""The checks of scalar arguments: one rule per kind, one error type per site."""

import math

import numpy as np
import pytest

from mapthresh import (
    BinomialPrior,
    ConfigurationError,
    DomainError,
    ExperimentConfig,
    HyperParams,
    L0Ball,
    build_prior_table,
    fdr_sequence,
    least_favorable_mu,
    log_choose,
    minimax_rate,
    oracle_risk,
    penalty_increments,
    prior_ball_mass,
    rate_check,
    slab_log_odds,
    universal_threshold,
)
from mapthresh.errors import check_between, check_integer

CONFIG = dict(n=100, sigma=1.0, xi_grid=(0.1,), tau_grid=(3.0,), replications=2,
              methods=("bin",), use_em=False)
BALL = L0Ball(0.1)
HYPER = HyperParams(1.0, 3.0)


def test_check_integer_takes_integral_numbers_and_refuses_bools():
    assert check_integer(10.0, "n", 1) == 10 and type(check_integer(10.0, "n", 1)) is int
    assert check_integer(np.int64(3), "n", 3) == 3
    for bad in (True, 2.5, 0, math.nan, math.inf, None, "3"):
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            check_integer(bad, "n", 1)


def test_check_between_returns_the_value_and_names_the_argument():
    assert check_between(0.25, "xi", 0.0, 1.0) == 0.25
    for bad in (0.0, 1.0, math.nan, None, "0.5"):
        with pytest.raises(ConfigurationError, match=r"xi must lie in \(0, 1\)"):
            check_between(bad, "xi", 0.0, 1.0, ConfigurationError)
    with pytest.raises(DomainError, match=r"sigma must lie in \(0, inf\)"):
        check_between(math.inf, "sigma", 0.0, math.inf)


@pytest.mark.parametrize(
    "error, call",
    [
        (DomainError, lambda: universal_threshold(math.nan, 1.0)),
        (DomainError, lambda: fdr_sequence(math.inf, 1.0)),
        (DomainError, lambda: log_choose(math.nan, 1)),
        (DomainError, lambda: log_choose(10, 2.5)),
        (DomainError, lambda: build_prior_table(BinomialPrior(0.1), math.inf)),
        (DomainError, lambda: penalty_increments(BinomialPrior(0.1), math.nan, HYPER)),
        (DomainError, lambda: minimax_rate(BALL, math.nan, 1.0)),
        (DomainError, lambda: least_favorable_mu(BALL, math.inf)),
        (ConfigurationError, lambda: ExperimentConfig(**{**CONFIG, "n": math.nan})),
        (ConfigurationError, lambda: ExperimentConfig(**{**CONFIG, "replications": math.inf})),
        (ConfigurationError, lambda: ExperimentConfig(**{**CONFIG, "jobs": None})),
        (DomainError, lambda: rate_check(lambda n: BinomialPrior(0.1), lambda n: BALL, [20], 2.5,
                                         lambda n: HYPER)),
        (DomainError, lambda: prior_ball_mass(BinomialPrior(0.1), 20, HYPER, BALL, reps=2.5)),
        (DomainError, lambda: HyperParams(None, 1.0)),
        (DomainError, lambda: oracle_risk(np.zeros(3), None)),
        (ConfigurationError, lambda: BinomialPrior("0.1")),
        (DomainError, lambda: slab_log_odds(math.nan, 1.0, 0.5)),
        (DomainError, lambda: slab_log_odds(1.0, math.inf, 0.5)),
    ],
    ids=[
        "universal_threshold-nan-n", "fdr_sequence-inf-n", "log_choose-nan-n", "log_choose-fractional-k",
        "build_prior_table-inf-n", "penalty_increments-nan-n", "minimax_rate-nan-n",
        "least_favorable_mu-inf-n", "config-nan-n", "config-inf-replications", "config-none-jobs",
        "rate_check-fractional-reps", "prior_ball_mass-fractional-reps", "hyper-none-sigma",
        "oracle_risk-none-sigma", "binomial-string-xi", "slab_log_odds-nan-sigma", "slab_log_odds-inf-tau",
    ],
)
def test_nonfinite_non_numeric_or_non_integral_scalars_raise_typed_errors(error, call):
    with pytest.raises(error):
        call()
