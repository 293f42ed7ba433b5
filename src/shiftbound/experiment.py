"""End-to-end experiment orchestration: task -> prior/posterior learning ->
per-checkpoint risk estimation and bound evaluation -> report emission.

Every bound is evaluated with m equal to the held-out evaluation split size
(never the full source sample) and n equal to the unlabeled target sample
size. The input-space MMD does not depend on the hypothesis, so it is
computed once per (seed, alpha), before the checkpoints, and repeated
across them. Each checkpoint then samples its draws, estimates its risks
and searches each bound's grid in one pass. Each step draws from its own
seed stream, so the order changes no reported digit.
"""

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from operator import attrgetter

from .bounds import BOUND_NAMES, ORACLE_BOUNDS, BoundInputs, grid_search
from .divergences import MmdConfig, median_heuristic_bandwidths, mmd_estimate
from .nn import MlpArchitecture, TrainConfig
from .risks import RiskEstimates, estimate_risks, lambda_rho_oracle
from .seeding import derive_seed
from .stochastic import kl_isotropic, learn_prior_posterior, sample_posterior
from .tasks import (TaskInstance, _entries, _field, _file_name, _flag, _from_json, _integer, _list, _number, _object,
                    _read_fields, _string, build_synthetic_task, data_rows, load_task, spec_from_json)


def _csv_number(text: str) -> float:
    """A report field's float, refused if NaN; ±inf stays legal."""
    value = float(text)
    if math.isnan(value):
        raise ValueError(text)
    return value


def _optional_csv_number(text: str) -> float | None:
    return _csv_number(text) if text else None


def _bound_name(text: str) -> str:
    if text not in BOUND_NAMES:
        raise ValueError(text)
    return text


def _json_object(text: str) -> str:
    """``text`` itself, once ``json.loads`` reads it as a JSON object."""
    if not isinstance(json.loads(text), dict):
        raise ValueError(text)
    return text


# Every report column once, in CSV order: its name, the object its value is
# read from ("row": the ReportRow, "estimates": its RiskEstimates, "bound":
# one BoundResult), how it is read, and how its CSV text is parsed back. The
# "row" columns are also the top-level fields of each JSON row.
_REPORT_COLUMNS = (
    ("seed", "row", attrgetter("seed"), int),
    ("alpha", "row", attrgetter("alpha"), _csv_number),
    ("checkpoint_index", "row", attrgetter("checkpoint_index"), int),
    ("seen_fraction", "row", attrgetter("seen_fraction"), _csv_number),
    ("bound_name", "bound", attrgetter("name"), _bound_name),
    ("bound_value", "bound", attrgetter("value"), _csv_number),
    ("param_json", "bound", lambda res: json.dumps(res.params, sort_keys=True), _json_object),
    ("delta_effective", "bound", attrgetter("delta_effective"), _csv_number),
    ("gibbs_source_risk", "estimates", attrgetter("gibbs_risk"), _csv_number),
    ("gibbs_weighted_risk", "estimates", attrgetter("gibbs_weighted_risk"), _optional_csv_number),
    ("disagreement_source", "estimates", attrgetter("disagreement_source"), _csv_number),
    ("disagreement_target", "estimates", attrgetter("disagreement_target"), _csv_number),
    ("joint_error_source", "estimates", attrgetter("joint_error_source"), _csv_number),
    ("kl", "row", attrgetter("kl"), _csv_number),
    ("mmd", "row", attrgetter("mmd"), _csv_number),
    ("oracle_target_gibbs_risk", "row", attrgetter("estimates.oracle_target_gibbs_risk"), _optional_csv_number),
    ("oracle_used", "bound", attrgetter("oracle_used"), lambda text: bool(["false", "true"].index(text))),
)
CSV_COLUMNS = [name for name, *_ in _REPORT_COLUMNS]


def _alphas(value, path: str) -> tuple:
    return _list(_number)(value, path) if isinstance(value, (list, tuple)) else (_number(value, path),)


def _task(value, path: str) -> dict:
    """A ``manifest`` task with a ``path`` string, or a ``synthetic`` one with a valid ``spec``."""
    kind = _object(value, path).get("type")
    if kind not in ("manifest", "synthetic"):
        raise ValueError(f"{path}.type must be 'synthetic' or 'manifest', got {kind!r}")
    layout = {"type": True, ("path" if kind == "manifest" else "spec"): True}
    entries = _entries(value, layout, "config", path)
    if kind == "manifest":
        _string(entries["path"], f"{path}.path")
    else:
        spec = _object(entries["spec"], f"{path}.spec")
        try:
            spec_from_json("synthetic", spec)
        except ValueError as exc:
            raise ValueError(f"{path}.spec: {exc}") from exc
    return value


@dataclass
class ExperimentConfig:
    """A run's settings, each read from its JSON key by its ``_field`` reader."""

    task: dict = _field(_task)
    hidden: tuple = _field(_list(_integer), (16, 16), "arch.hidden")
    alphas: tuple = _field(_alphas, (0.3,), "alpha")
    sigma: float = _field(_number, 0.03)
    delta: float = _field(_number, 0.05)
    posterior_pairs: int = _field(_integer, 5)
    bounds: tuple = _field(_list(_string), ("mcallester", "iw", "mmd"))
    oracle_mode: bool = _field(_flag, False)
    mmd_shuffles: int = _field(_integer, 10, "mmd.shuffles")
    learning_rate: float = _field(_number, 3e-3, "train.learning_rate")
    momentum: float = _field(_number, 0.95, "train.momentum")
    batch_size: int = _field(_integer, 128, "train.batch_size")
    prior_epochs: int = _field(_integer, 1, "train.prior_epochs")
    posterior_epochs: int = _field(_integer, 5, "train.posterior_epochs")
    seeds: tuple = _field(_list(_integer), (0, 1, 2, 3, 4))
    base_dir: str = "."
    report_dir: str = _field(_string, ".", "report.dir")
    report_stem: str = _field(_file_name, "report", "report.stem")
    report_formats: tuple = _field(_list(_string), ("csv",), "report.formats")

    def __post_init__(self):
        _read_fields(self)
        for name, what, repeated in (("alphas", "alpha", "alpha values"), ("bounds", "bound", "bounds"),
                                     ("seeds", "seed", "seeds"),
                                     ("report_formats", "report format", "report formats")):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"need at least one {what}")
            if len(set(values)) < len(values):
                raise ValueError(f"{repeated} must be distinct")
        if any(not 0 <= a < 1 for a in self.alphas):
            raise ValueError("alpha values must lie in [0, 1)")
        unknown = set(self.bounds) - set(BOUND_NAMES)
        if unknown:
            raise ValueError(f"unknown bounds requested: {sorted(unknown)}")
        oracle = [name for name in self.bounds if name in ORACLE_BOUNDS]
        if oracle and not self.oracle_mode:
            raise ValueError(f"the {oracle[0]} bound needs oracle_mode=true (it uses target labels)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.posterior_pairs < 1:
            raise ValueError("posterior_pairs must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and > 0")
        if self.mmd_shuffles < 1:
            raise ValueError("shuffles must be >= 1")
        if any(fmt not in ("csv", "json") for fmt in self.report_formats):
            raise ValueError("format must be 'csv' or 'json'")
        # built here too, so that their own refusals come before any task
        MlpArchitecture((1, *self.hidden, 1))
        self._train_configs(self.seeds[0], 0)

    def _train_configs(self, seed: int, a_idx: int) -> tuple:
        """The prior's and the posterior's ``TrainConfig`` for ``seed`` and
        the alpha at index ``a_idx``."""
        prior = TrainConfig(
            self.learning_rate, self.momentum, self.batch_size, self.prior_epochs, derive_seed(seed, 1, a_idx)
        )
        return prior, replace(prior, epochs=self.posterior_epochs, seed=derive_seed(seed, 2, a_idx))

    @classmethod
    def from_json_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Config from its JSON layout by ``_from_json``; absent keys keep their defaults, ``task`` has none."""
        return _from_json(cls, doc, "config", base_dir=base_dir)

    def resolve_task(self) -> TaskInstance:
        if self.task["type"] == "synthetic":
            return build_synthetic_task(spec_from_json("synthetic", self.task["spec"]))
        return load_task(os.path.join(self.base_dir, self.task["path"]))


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


def run_experiment(cfg: ExperimentConfig, task: TaskInstance | None = None) -> list:
    """One ``ReportRow`` per (seed, alpha, checkpoint), sorted by them."""
    if task is None:
        task = cfg.resolve_task()
    n_target = len(task.target_x)
    if n_target < 2:
        raise ValueError(
            f"the target sample has {n_target} row{'s' * (n_target != 1)}; the MMD needs at least 2"
        )
    arch = MlpArchitecture((task.source.dim, *cfg.hidden, 1))
    rows = []
    for seed in cfg.seeds:
        for a_idx, alpha in enumerate(cfg.alphas):
            rows.extend(_run_one(cfg, task, arch, seed, a_idx, alpha))
    rows.sort(key=lambda r: (r.seed, r.alpha, r.checkpoint_index))
    return rows


def _run_one(cfg: ExperimentConfig, task: TaskInstance, arch, seed: int, a_idx: int, alpha: float):
    cfg_prior, cfg_post = cfg._train_configs(seed, a_idx)
    pair = learn_prior_posterior(
        task.source, alpha, arch, cfg_prior, cfg_post, cfg.sigma, derive_seed(seed, 0, a_idx)
    )
    eval_set = pair.eval_set
    target_x = task.target_x
    bandwidths = median_heuristic_bandwidths(eval_set.features, target_x.features)
    mmd_cfg = MmdConfig(bandwidths, shuffles=cfg.mmd_shuffles, seed=derive_seed(seed, 3, a_idx))
    mmd_val = mmd_estimate(eval_set.features, target_x.features, mmd_cfg)

    rows = []
    for ck_idx, (frac, posterior) in enumerate(pair.posterior_checkpoints):
        draws = sample_posterior(posterior, cfg.posterior_pairs, derive_seed(seed, 4, a_idx, ck_idx))
        est = estimate_risks(arch, draws, eval_set, task.target_labeled_oracle, oracle=cfg.oracle_mode)
        kl = kl_isotropic(posterior, pair.prior)
        lam = lambda_rho_oracle(est) if cfg.oracle_mode else None
        inputs = BoundInputs(
            m_source=len(eval_set),
            n_target=len(target_x),
            kl=kl,
            delta=cfg.delta,
            estimates=est,
            beta_inf=task.beta_inf,
            mmd_value=mmd_val,
            lambda_rho=lam,
        )
        results = {name: grid_search(name, inputs) for name in cfg.bounds}
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


def report_records(report: list):
    """One dict per (checkpoint row, bound), keyed by ``CSV_COLUMNS`` in
    order, with typed values; rows in report order, bounds by name."""
    for row in report:
        for name in sorted(row.bounds):
            source = {"row": row, "estimates": row.estimates, "bound": row.bounds[name]}
            yield {col: read(source[scope]) for col, scope, read, _ in _REPORT_COLUMNS}


def _json_doc(report: list) -> dict:
    rows = []
    for row in report:
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


def emit(report: list, format: str, path) -> None:
    """Write the ``ReportRow`` list ``report``. Formats: csv (one line per
    bound per checkpoint, fixed column set) or json. Identical reports
    produce byte-identical files."""
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


def parse_report_csv(path) -> list:
    """The records of an emitted CSV, equal to the ``report_records`` it was
    written from. A field its column cannot parse is refused by ``path:line``
    and column."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected report columns")
        for lineno, row in data_rows(path, reader, len(CSV_COLUMNS)):
            record = {}
            for (col, _, _, parse), text in zip(_REPORT_COLUMNS, row):
                try:
                    record[col] = parse(text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad {col} value {text!r}") from None
            records.append(record)
    return records


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
