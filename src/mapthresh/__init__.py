"""Hard thresholding for sparse normal means via MAP model-size selection.

A prior on the number of nonzero means induces a per-size complexity
penalty; minimizing tail-sum-of-squares plus that penalty picks how many
of the largest observations to keep.  The package also ships the
classical fixed and rank-dependent threshold rules, an EM fitter for the
hyperparameters, and a Monte Carlo risk benchmark.
"""

from .baselines import (
    FixedThreshold,
    VariableThreshold,
    aic_threshold,
    bic_threshold,
    fdr_sequence,
    fixed_threshold_estimate,
    foster_stine_sequence,
    mad_sigma,
    normal_quantile,
    ric_threshold,
    tk_sequence,
    universal_threshold,
    variable_threshold_estimate,
)
from .em import EmEstimates, em_fit, init_heuristic, marginal_loglik, slab_log_odds
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    MapThreshError,
    NumericError,
    SizeError,
    UnsupportedBallError,
)
from .estimator import (
    Configuration,
    EstimateResult,
    GaussianSequence,
    PenaltyTable,
    bayes_factor,
    brute_force_map,
    map_estimate,
    penalty_increments,
    penalty_table,
    posterior_log_score,
    select_k,
)
from .priors import (
    AssumptionReport,
    BinomialPrior,
    CustomLogWeightsPrior,
    HyperParams,
    L0Ball,
    PriorTable,
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
from .risk import (
    CellResult,
    ExperimentConfig,
    RateCheckRow,
    RiskReport,
    least_favorable_mu,
    minimax_rate,
    monte_carlo_amse,
    oracle_risk,
    rate_check,
)

__version__ = "0.1.0"
