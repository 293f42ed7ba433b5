"""End-to-end experiment orchestration: task -> prior/posterior learning ->
per-checkpoint risk estimation and bound evaluation -> report emission.

Every bound is evaluated with m equal to the held-out evaluation split size
(never the full source sample) and n equal to the unlabeled target sample
size. The input-space MMD does not depend on the hypothesis, so it is
computed once per (seed, alpha) and repeated across checkpoints.
"""

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter

from .bounds import BOUND_NAMES, BoundInputs, ParamGrid, grid_search
from .divergences import MmdConfig, median_heuristic_bandwidths, mmd_estimate
from .nn import CheckpointSchedule, MlpArchitecture, TrainConfig
from .risks import RiskEstimates, estimate_risks
from .seeding import derive_seed
from .stochastic import kl_isotropic, learn_prior_posterior, sample_posterior
from .tasks import TaskInstance, build_synthetic_task, load_task, spec_from_json


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


# Every report column once, in CSV order: its name, the object its value is
# read from ("row": the ReportRow, "estimates": its RiskEstimates, "bound":
# one BoundResult), how it is read, and how its CSV text is parsed back. The
# "row" columns are also the top-level fields of each JSON row.
_REPORT_COLUMNS = (
    ("seed", "row", attrgetter("seed"), int),
    ("alpha", "row", attrgetter("alpha"), float),
    ("checkpoint_index", "row", attrgetter("checkpoint_index"), int),
    ("seen_fraction", "row", attrgetter("seen_fraction"), float),
    ("bound_name", "bound", attrgetter("name"), str),
    ("bound_value", "bound", attrgetter("value"), float),
    ("param_json", "bound", lambda res: json.dumps(res.params, sort_keys=True), str),
    ("delta_effective", "bound", attrgetter("delta_effective"), float),
    ("gibbs_source_risk", "estimates", attrgetter("gibbs_risk"), float),
    ("gibbs_weighted_risk", "estimates", attrgetter("gibbs_weighted_risk"), _optional_float),
    ("disagreement_source", "estimates", attrgetter("disagreement_source"), float),
    ("disagreement_target", "estimates", attrgetter("disagreement_target"), float),
    ("joint_error_source", "estimates", attrgetter("joint_error_source"), float),
    ("kl", "row", attrgetter("kl"), float),
    ("mmd", "row", attrgetter("mmd"), float),
    ("oracle_target_gibbs_risk", "row", attrgetter("estimates.oracle_target_gibbs_risk"), _optional_float),
    ("oracle_used", "bound", attrgetter("oracle_used"), lambda text: text == "true"),
)
CSV_COLUMNS = [name for name, *_ in _REPORT_COLUMNS]


# JSON location of each config field that is not a top-level key of its own
# name; ``alpha`` may be a scalar or a list
_JSON_PATHS = {
    "alphas": ("alpha",),
    "hidden": ("arch", "hidden"),
    "activation": ("arch", "activation"),
    "mmd_bandwidths": ("mmd", "bandwidths"),
    "mmd_bandwidth_scales": ("mmd", "bandwidth_scales"),
    "mmd_shuffles": ("mmd", "shuffles"),
    **{
        name: ("train", name)
        for name in ("learning_rate", "momentum", "batch_size", "prior_epochs", "posterior_epochs")
    },
}


@dataclass
class ExperimentConfig:
    task: dict
    hidden: tuple = (16, 16)
    activation: str = "relu"
    alphas: tuple = (0.3,)
    sigma: float = 0.03
    delta: float = 0.05
    posterior_pairs: int = 5
    bounds: tuple = ("mcallester", "iw", "mmd")
    oracle_mode: bool = False
    grids: dict = field(default_factory=dict)
    mmd_bandwidths: tuple | None = None
    mmd_bandwidth_scales: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    mmd_shuffles: int = 10
    learning_rate: float = 3e-3
    momentum: float = 0.95
    batch_size: int = 128
    prior_epochs: int = 1
    posterior_epochs: int = 5
    seeds: tuple = (0, 1, 2, 3, 4)
    base_dir: str = "."

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in (self.alphas if hasattr(self.alphas, "__iter__") else [self.alphas]))
        if any(not 0 <= a < 1 for a in self.alphas):
            raise ValueError("alpha values must lie in [0, 1)")
        self.bounds = tuple(self.bounds)
        unknown = set(self.bounds) - set(BOUND_NAMES)
        if unknown:
            raise ValueError(f"unknown bounds requested: {sorted(unknown)}")
        if "add" in self.bounds and not self.oracle_mode:
            raise ValueError("the add bound needs oracle_mode=true (it uses target labels)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.posterior_pairs < 1:
            raise ValueError("posterior_pairs must be >= 1")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.grids = {
            name: (g if isinstance(g, ParamGrid) else ParamGrid(g))
            for name, g in self.grids.items()
        }

    @classmethod
    def from_json_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Config from its JSON layout (see ``_JSON_PATHS``); absent keys keep
        the dataclass defaults and JSON lists become tuples."""
        kwargs = {"base_dir": base_dir}
        for f in fields(cls):
            *sections, key = _JSON_PATHS.get(f.name, (f.name,))
            node = doc
            for section in sections:
                node = node.get(section, {})
            if key in node and f.name != "base_dir":
                value = node[key]
                kwargs[f.name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)

    def resolve_task(self) -> TaskInstance:
        kind = self.task.get("type")
        if kind == "synthetic":
            return build_synthetic_task(spec_from_json("synthetic", self.task["spec"]))
        if kind == "manifest":
            return load_task(os.path.join(self.base_dir, self.task["path"]))
        raise ValueError("task.type must be 'synthetic' or 'manifest'")


@dataclass
class ReportRow:
    seed: int
    alpha: float
    checkpoint_index: int
    seen_fraction: float
    bounds: dict  # name -> BoundResult
    estimates: RiskEstimates
    kl: float
    mmd: float


@dataclass
class RunReport:
    rows: list


def run_experiment(cfg: ExperimentConfig, task: TaskInstance | None = None) -> RunReport:
    if task is None:
        task = cfg.resolve_task()
    if ("iw" in cfg.bounds or "mult" in cfg.bounds) and task.source.weights is None:
        raise ValueError("iw/mult bounds need a task with exact importance weights")
    arch = MlpArchitecture((task.source.dim, *cfg.hidden, 1), cfg.activation)
    rows = []
    for seed in cfg.seeds:
        for a_idx, alpha in enumerate(cfg.alphas):
            rows.extend(_run_one(cfg, task, arch, seed, a_idx, alpha))
    rows.sort(key=lambda r: (r.seed, r.alpha, r.checkpoint_index))
    return RunReport(rows=rows)


def _run_one(cfg: ExperimentConfig, task: TaskInstance, arch, seed: int, a_idx: int, alpha: float):
    cfg_prior = TrainConfig(
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        batch_size=cfg.batch_size,
        epochs=cfg.prior_epochs,
        seed=derive_seed(seed, 1, a_idx),
    )
    cfg_post = replace(cfg_prior, epochs=cfg.posterior_epochs, seed=derive_seed(seed, 2, a_idx))
    pair = learn_prior_posterior(
        task.source, alpha, arch, cfg_prior, cfg_post, cfg.sigma,
        derive_seed(seed, 0, a_idx), CheckpointSchedule(),
    )
    eval_set = pair.eval_set
    target_x = task.target_x

    bandwidths = cfg.mmd_bandwidths or median_heuristic_bandwidths(
        eval_set.features, target_x.features, scales=cfg.mmd_bandwidth_scales
    )
    mmd_val = mmd_estimate(
        eval_set.features,
        target_x.features,
        MmdConfig(bandwidths, shuffles=cfg.mmd_shuffles, seed=derive_seed(seed, 3, a_idx)),
    )

    rows = []
    for ck_idx, (frac, posterior) in enumerate(pair.posterior_checkpoints):
        draws = sample_posterior(posterior, cfg.posterior_pairs, derive_seed(seed, 4, a_idx, ck_idx))
        est = estimate_risks(
            arch, draws, eval_set, target_x,
            target_oracle=task.target_labeled_oracle, oracle=cfg.oracle_mode,
        )
        kl = kl_isotropic(posterior, pair.prior)
        lam = None
        if cfg.oracle_mode:
            lam = abs(est.joint_error_target - est.joint_error_source)
        inputs = BoundInputs(
            m_source=len(eval_set),
            n_target=len(target_x),
            kl=kl,
            delta=cfg.delta,
            estimates=est,
            beta_inf=task.beta_inf,
            mmd_value=mmd_val,
            kernel_bound=1.0,
            lambda_rho=lam,
        )
        results = {name: grid_search(name, inputs, cfg.grids.get(name)) for name in cfg.bounds}
        rows.append(
            ReportRow(
                seed=seed,
                alpha=alpha,
                checkpoint_index=ck_idx,
                seen_fraction=frac,
                bounds=results,
                estimates=est,
                kl=kl,
                mmd=mmd_val,
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_records(report: RunReport):
    """One dict per (checkpoint row, bound), keyed by ``CSV_COLUMNS`` in
    order, with typed values; rows in report order, bounds by name."""
    for row in report.rows:
        for name in sorted(row.bounds):
            source = {"row": row, "estimates": row.estimates, "bound": row.bounds[name]}
            yield {col: read(source[scope]) for col, scope, read, _ in _REPORT_COLUMNS}


def _json_doc(report: RunReport) -> dict:
    rows = []
    for row in report.rows:
        estimates = asdict(row.estimates)
        del estimates["oracle_target_gibbs_risk"]  # evaluation-only, a row field
        rows.append(
            {
                **{col: read(row) for col, scope, read, _ in _REPORT_COLUMNS if scope == "row"},
                "estimates": estimates,
                "bounds": [row.bounds[name].to_json_dict() for name in sorted(row.bounds)],
            }
        )
    return {"columns": CSV_COLUMNS, "rows": rows}


def emit(report: RunReport, format: str, path) -> None:
    """Write the report. Formats: csv (one line per bound per checkpoint,
    fixed column set) or json. Identical reports produce byte-identical
    files."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in report_records(report):
            writer.writerow([_fmt(value) for value in record.values()])
        data = buf.getvalue()
    elif format == "json":
        data = json.dumps(_json_doc(report), sort_keys=True, indent=1) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    with open(path, "w", newline="") as fh:
        fh.write(data)


def _data_rows(path, reader, width: int):
    """(line number, row) for each row after the header, refusing a row
    that does not have ``width`` fields."""
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        yield lineno, row


def parse_report_csv(path) -> list:
    """The records of an emitted CSV, equal to the ``report_records`` it was
    written from."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected report columns")
        return [
            {col: parse(text) for (col, _, _, parse), text in zip(_REPORT_COLUMNS, row)}
            for _, row in _data_rows(path, reader, len(CSV_COLUMNS))
        ]


@dataclass
class SummaryRow:
    seed: int
    alpha: float
    bound: str
    min_value: float
    argmin_checkpoint: int
    oracle_risk_at_argmin: float | None
    best_oracle_risk: float | None


def report_summary(records) -> list:
    """Per (seed, alpha, bound) of the report records: the smallest bound
    over the training trajectory, where it occurred, the oracle target risk
    there, and the best oracle target risk any checkpoint achieved."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec["seed"], rec["alpha"], rec["bound_name"]), []).append(rec)
    if not groups:
        raise ValueError("report is empty")
    out = []
    for (seed, alpha, name), recs in sorted(groups.items()):
        best = min(recs, key=lambda r: r["bound_value"])
        oracle = [r["oracle_target_gibbs_risk"] for r in recs if r["oracle_target_gibbs_risk"] is not None]
        out.append(
            SummaryRow(
                seed=seed,
                alpha=alpha,
                bound=name,
                min_value=best["bound_value"],
                argmin_checkpoint=best["checkpoint_index"],
                oracle_risk_at_argmin=best["oracle_target_gibbs_risk"],
                best_oracle_risk=min(oracle) if oracle else None,
            )
        )
    return out


def format_summary(rows: list) -> str:
    header = f"{'seed':>4} {'alpha':>6} {'bound':>10} {'min_bound':>12} {'at_ckpt':>8} {'oracle@min':>11} {'best_oracle':>12}"
    lines = [header]
    for r in rows:
        o1 = f"{r.oracle_risk_at_argmin:.4f}" if r.oracle_risk_at_argmin is not None else "-"
        o2 = f"{r.best_oracle_risk:.4f}" if r.best_oracle_risk is not None else "-"
        lines.append(
            f"{r.seed:>4} {r.alpha:>6.2f} {r.bound:>10} {r.min_value:>12.6f} "
            f"{r.argmin_checkpoint:>8} {o1:>11} {o2:>12}"
        )
    return "\n".join(lines)
