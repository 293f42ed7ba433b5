"""The public surface of ``shiftbound``: the names its package exports, and
the module that owns each task-construction name."""

import types

import shiftbound
from shiftbound import divergences, tasks

PUBLIC_NAMES = [
    "BOUND_NAMES", "BoundInputs", "BoundResult", "DivergedError", "ExperimentConfig",
    "IsotropicGaussian", "LabeledSample", "MixtureTaskSpec", "MlpArchitecture", "MmdConfig",
    "OneSidedSpec", "OracleAccessError", "OverlapError", "ParamGrid", "PosteriorSampleSet", "PriorPosteriorPair",
    "RiskEstimates", "SyntheticSpec", "TaskInstance", "TrainConfig", "UnlabeledSample",
    "apply_label_rule", "beta_infinity", "build_mixture_task", "build_one_sided_task",
    "build_synthetic_task", "convexity_constant", "default_grid", "default_synthetic_spec",
    "density_ratio", "emit", "estimate_risks", "format_summary", "forward", "gibbs_risk",
    "grid_search", "init_weights", "kl_isotropic", "lambda_rho_oracle", "learn_prior_posterior",
    "load_dataset", "load_task", "median_heuristic_bandwidths", "mixture_weights", "mmd_estimate",
    "one_sided_weight", "parse_report_csv", "predict", "report_records", "report_summary",
    "run_experiment", "sample_posterior", "save_dataset", "save_task", "train",
]

# the names of task construction, which only ``tasks`` defines
TASK_NAMES = [
    "OverlapError", "MixtureTaskSpec", "OneSidedSpec", "mixture_counts", "mixture_weights", "beta_infinity",
    "one_sided_weight",
]


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(shiftbound).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_task_names_live_in_tasks_only():
    for name in TASK_NAMES:
        assert not hasattr(divergences, name), name
        if name in PUBLIC_NAMES:
            assert getattr(shiftbound, name) is getattr(tasks, name), name
