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
from .divergences import MmdConfig, median_heuristic_bandwidths, mmd_estimate
from .experiment import (
    ExperimentConfig,
    emit,
    format_summary,
    parse_report_csv,
    report_records,
    report_summary,
    run_experiment,
)
from .nn import (
    DivergedError,
    MlpArchitecture,
    TrainConfig,
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
    MixtureTaskSpec,
    OneSidedSpec,
    OverlapError,
    SyntheticSpec,
    TaskInstance,
    apply_label_rule,
    beta_infinity,
    build_mixture_task,
    build_one_sided_task,
    build_synthetic_task,
    default_synthetic_spec,
    density_ratio,
    load_dataset,
    load_task,
    mixture_weights,
    one_sided_weight,
    save_dataset,
    save_task,
)
