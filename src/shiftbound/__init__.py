"""Stochastic-classifier training under the data-dependent-prior protocol and
certified PAC-Bayes upper bounds on unsupervised-domain-adaptation target
risk, with exact importance weights and kernel-MMD shift estimates.
"""

__version__ = "0.1.0"

from .bounds import (
    BOUND_NAMES,
    BoundInputs,
    BoundResult,
    ParamGrid,
    convexity_constant,
    default_grid,
    grid_search,
)
from .divergences import (
    MixtureTaskSpec,
    MmdConfig,
    OverlapError,
    beta_infinity,
    gaussian_kernel,
    median_heuristic_bandwidths,
    mixture_weights,
    mmd_estimate,
    mmd_linear_shuffled,
    mmd_linear_statistic,
    mmd_quadratic_biased,
    one_sided_weight,
)
from .experiment import (
    ExperimentConfig,
    RunReport,
    emit,
    format_summary,
    parse_report_csv,
    report_records,
    report_summary,
    run_experiment,
)
from .nn import (
    CheckpointSchedule,
    DivergedError,
    MlpArchitecture,
    TrainConfig,
    bce_gradient,
    bce_loss,
    forward,
    init_weights,
    predict,
    train,
)
from .risks import (
    OracleAccessError,
    RiskEstimates,
    estimate_risks,
    gibbs_risk,
    lambda_rho_oracle,
)
from .samples import LabeledSample, UnlabeledSample
from .stochastic import (
    IsotropicGaussian,
    PosteriorSampleSet,
    PriorPosteriorPair,
    kl_isotropic,
    learn_prior_posterior,
    sample_posterior,
)
from .tasks import (
    SyntheticSpec,
    TaskInstance,
    apply_label_rule,
    build_mixture_task,
    build_one_sided_task,
    build_synthetic_task,
    default_synthetic_spec,
    density_ratio,
    load_dataset,
    load_task,
    save_dataset,
    save_task,
)
