"""Construction of domain-adaptation tasks that satisfy covariate shift and
overlap by design, with exact importance weights attached to every source row.

Three constructions are provided: the two-origin per-class mixture with
complement target, a one-sided mixture where only part of one pool appears in
the target, and a fully synthetic two-component Gaussian generator whose
density ratio is available in closed form.

A task persists as a directory (``save_task`` / ``load_task``): source.csv
and target.csv (header f0..f{d-1},label[,origin]), weights.csv (header
weight, one row per source row) and manifest.json. The CSVs hold floats as
``repr`` with CRLF line endings, and are written and parsed a column at a
time in chunks of ``CHUNK`` rows; a malformed row is refused with its
``path:line``.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, asdict
from fractions import Fraction
from itertools import islice

import numpy as np
from scipy.special import logsumexp

from .divergences import MixtureTaskSpec, OverlapError, beta_infinity, mixture_counts, mixture_weights
from .samples import LabeledSample, UnlabeledSample
from .seeding import stream_rng

LABEL_RULES = ("halfspace", "disk")


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-component Gaussian mixtures sharing their components across
    domains; only the mixing proportions differ, so the density ratio is a
    closed-form two-term expression and its supremum is max_k target/source.

    Labels come from a deterministic rule applied identically in both
    domains: "halfspace" labels 1 where x . rule_vector + rule_offset > 0,
    "disk" labels 1 inside the ball of radius rule_offset around rule_vector.
    """

    dim: int
    component_means: tuple
    component_std: float
    source_mix: tuple
    target_mix: tuple
    n_source: int
    n_target: int
    seed: int
    label_rule: str = "halfspace"
    rule_vector: tuple = ()
    rule_offset: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        means = tuple(tuple(float(v) for v in m) for m in self.component_means)
        object.__setattr__(self, "component_means", means)
        if len(means) != 2:
            raise ValueError("exactly two mixture components are supported")
        if any(len(m) != self.dim for m in means):
            raise ValueError("component means must have length dim")
        if means[0] == means[1]:
            raise ValueError("component means must be distinct")
        if not self.component_std > 0:
            raise ValueError("component_std must be positive")
        src = tuple(float(p) for p in self.source_mix)
        tgt = tuple(float(q) for q in self.target_mix)
        object.__setattr__(self, "source_mix", src)
        object.__setattr__(self, "target_mix", tgt)
        for mix in (src, tgt):
            if len(mix) != 2 or any(p < 0 for p in mix) or abs(sum(mix) - 1.0) > 1e-9:
                raise ValueError("mixes must be two nonnegative weights summing to 1")
        if any(p == 0 for p in src):
            raise OverlapError(
                "source mix has a zero component: the density ratio would be "
                "unbounded and the worst-case weight infinite"
            )
        if self.n_source < 1 or self.n_target < 1:
            raise ValueError("sample sizes must be positive")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label_rule must be one of {LABEL_RULES}")
        vec = tuple(float(v) for v in self.rule_vector)
        if not vec:
            vec = (1.0,) + (0.0,) * (self.dim - 1)
        object.__setattr__(self, "rule_vector", vec)
        if len(vec) != self.dim:
            raise ValueError("rule_vector must have length dim")


@dataclass
class TaskInstance:
    """A materialised task: weighted labeled source, unlabeled target, and the
    target labels held separately for oracle-only use."""

    source: LabeledSample
    target_x: UnlabeledSample
    target_labeled_oracle: LabeledSample
    spec: object
    beta_inf: float
    kind: str

    def __post_init__(self):
        if self.source.weights is None:
            raise ValueError("task source must carry importance weights")
        max_w = float(self.source.weights.max())
        if max_w > self.beta_inf * (1.0 + 1e-12):
            raise ValueError("attached weights exceed the declared beta_inf")


def apply_label_rule(spec: SyntheticSpec, X) -> np.ndarray:
    """The shared class-conditional rule; identical in both domains, which is
    what makes the construction a covariate shift."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    v = np.asarray(spec.rule_vector)
    if spec.label_rule == "halfspace":
        return (X @ v + spec.rule_offset > 0).astype(np.int64)
    return (np.sum((X - v) ** 2, axis=1) <= spec.rule_offset**2).astype(np.int64)


def density_ratio(spec: SyntheticSpec, X) -> np.ndarray:
    """Exact per-row target/source density ratio, evaluated in log space."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    means = np.asarray(spec.component_means)
    logphi = np.stack(
        [
            -np.sum((X - means[k]) ** 2, axis=1) / (2.0 * spec.component_std**2)
            for k in range(2)
        ],
        axis=1,
    )
    with np.errstate(divide="ignore"):
        log_t = logsumexp(logphi + np.log(spec.target_mix), axis=1)
        log_s = logsumexp(logphi + np.log(spec.source_mix), axis=1)
    return np.exp(log_t - log_s)


def synthetic_beta_infinity(spec: SyntheticSpec) -> float:
    """sup_x target(x)/source(x) = max_k target_mix[k]/source_mix[k] for the
    shared two-component family (the ratio is monotone in the component
    likelihood ratio, which sweeps the whole positive axis)."""
    return max(q / p for q, p in zip(spec.target_mix, spec.source_mix))


def _draw_mixture(rng, spec: SyntheticSpec, mix, n: int) -> np.ndarray:
    comps = rng.choice(2, size=n, p=mix)
    means = np.asarray(spec.component_means)
    return means[comps] + spec.component_std * rng.standard_normal((n, spec.dim))


def build_synthetic_task(spec: SyntheticSpec) -> TaskInstance:
    rng = stream_rng(spec.seed, "task")
    xs = _draw_mixture(rng, spec, spec.source_mix, spec.n_source)
    xt = _draw_mixture(rng, spec, spec.target_mix, spec.n_target)
    source = LabeledSample(
        features=xs, labels=apply_label_rule(spec, xs), weights=density_ratio(spec, xs)
    )
    oracle = LabeledSample(features=xt, labels=apply_label_rule(spec, xt))
    return TaskInstance(
        source=source,
        target_x=UnlabeledSample(features=xt),
        target_labeled_oracle=oracle,
        spec=spec,
        beta_inf=synthetic_beta_infinity(spec),
        kind="synthetic",
    )


def _class_indices(sample: LabeledSample, cls: int) -> np.ndarray:
    return np.nonzero(sample.labels == cls)[0]


def build_mixture_task(
    pool0: LabeledSample, pool1: LabeledSample, spec: MixtureTaskSpec, seed: int
) -> TaskInstance:
    """Per class, route the spec's share of origin-1 rows (and the
    complementary share of origin-0 rows) to the source, the rest to the
    target; binarise labels and attach exact weights by (class, origin)."""
    pools = (pool0, pool1)
    src_counts, tgt_counts = mixture_counts(spec)
    for c in range(spec.num_classes):
        for o in range(2):
            have = _class_indices(pools[o], c).size
            want = spec.per_class_counts[c][o]
            if have != want:
                raise ValueError(
                    f"pool{o} has {have} rows of class {c}, spec declares {want}"
                )

    table = mixture_weights(spec)
    src_parts, tgt_parts = [], []
    for c in range(spec.num_classes):
        for o in range(2):
            idx = _class_indices(pools[o], c)
            idx = idx[stream_rng(seed, "task", c, o).permutation(idx.size)]
            k = src_counts[c][o]
            pool = pools[o]
            y = spec.binary_label(c)
            w = float(table[c][o])
            for rows, part in ((idx[:k], src_parts), (idx[k:], tgt_parts)):
                part.append(
                    (
                        pool.features[rows],
                        np.full(rows.size, y, dtype=np.int64),
                        np.full(rows.size, o, dtype=np.int64),
                        np.full(rows.size, w),
                    )
                )

    def _assemble(parts, with_weights):
        feats = np.vstack([p[0] for p in parts])
        labels = np.concatenate([p[1] for p in parts])
        origin = np.concatenate([p[2] for p in parts])
        weights = np.concatenate([p[3] for p in parts]) if with_weights else None
        return LabeledSample(features=feats, labels=labels, origin=origin, weights=weights)

    source = _assemble(src_parts, with_weights=True)
    oracle = _assemble(tgt_parts, with_weights=False)
    return TaskInstance(
        source=source,
        target_x=UnlabeledSample(features=oracle.features, origin=oracle.origin),
        target_labeled_oracle=oracle,
        spec=spec,
        beta_inf=beta_infinity(spec),
        kind="mixture",
    )


def build_one_sided_task(
    pool_source_only: LabeledSample,
    pool_shared: LabeledSample,
    move_fraction: float,
    seed: int = 0,
) -> TaskInstance:
    """Move a fraction of the shared pool into the source; the remainder is
    the whole target. Shared-pool source rows get the uniform weight
    ((1 - f)/f) * (#S/#T); rows from the source-only pool have no target
    mass and get weight 0 so the weighted risk still targets the target
    domain exactly.
    """
    if not 0 < move_fraction < 1:
        raise ValueError("move_fraction must lie in (0, 1)")
    m1 = len(pool_shared)
    k = round(move_fraction * m1)
    if k < 1 or k >= m1:
        raise OverlapError(
            f"move_fraction={move_fraction} with {m1} shared rows leaves an empty side"
        )
    for pool in (pool_source_only, pool_shared):
        if not np.all((pool.labels == 0) | (pool.labels == 1)):
            raise ValueError("one-sided pools must carry binary labels")

    order = stream_rng(seed, "task").permutation(m1)
    moved, kept = order[:k], order[k:]
    n_source = len(pool_source_only) + k
    n_target = m1 - k
    weight = float(Fraction(m1 - k, k) * Fraction(n_source, n_target))

    feats = np.vstack([pool_source_only.features, pool_shared.features[moved]])
    labels = np.concatenate([pool_source_only.labels, pool_shared.labels[moved]])
    origin = np.concatenate(
        [np.zeros(len(pool_source_only), dtype=np.int64), np.ones(k, dtype=np.int64)]
    )
    weights = np.concatenate([np.zeros(len(pool_source_only)), np.full(k, weight)])
    source = LabeledSample(features=feats, labels=labels, origin=origin, weights=weights)

    oracle = LabeledSample(
        features=pool_shared.features[kept],
        labels=pool_shared.labels[kept],
        origin=np.ones(n_target, dtype=np.int64),
    )
    return TaskInstance(
        source=source,
        target_x=UnlabeledSample(features=oracle.features, origin=oracle.origin),
        target_labeled_oracle=oracle,
        spec={"move_fraction": move_fraction, "seed": seed},
        beta_inf=weight,
        kind="one_sided",
    )


# Rows formatted or parsed per step. Whole-file lists of per-row strings raise
# peak memory by a few percent on a 100k-row task; chunks this size do not.
CHUNK = 8192


def _write_csv(path, header, columns) -> None:
    """Write ``header`` and one row per index of the equal-length 1-D arrays
    ``columns``, each field the ``repr`` of its Python value (the shortest
    round-tripping text for a float, the decimal digits for an integer),
    with CRLF line endings: the bytes ``csv.writer`` gives for these rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CHUNK):
            fields = [map(repr, col[start : start + CHUNK].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _read_csv(path, reader, width: int, parse, check_row) -> list:
    """``parse`` of each chunk of at most ``CHUNK`` data rows after the header.

    ``parse`` takes a chunk's columns (tuples of field text) and returns its
    arrays, or None when a field is malformed or out of range. Such a chunk is
    walked row by row with the field count and ``check_row(lineno, row)``,
    which raise the ``path:line`` diagnostic of the first faulty row, so a
    refusal names the same line whatever the chunking."""
    chunks = []
    first = 2
    while rows := list(islice(reader, CHUNK)):
        parsed = parse(list(zip(*rows))) if set(map(len, rows)) == {width} else None
        if parsed is None:
            for lineno, row in enumerate(rows, start=first):
                if len(row) != width:
                    raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                check_row(lineno, row)
            raise AssertionError(f"{path}:{first}: chunk refused but every row passed")
        chunks.append(parsed)
        first += len(rows)
    return chunks


def _finite_block(columns, n: int):
    """The float columns as an (n, len(columns)) array, or None if a field
    is not a finite float."""
    block = np.empty((n, len(columns)))
    try:
        for j, col in enumerate(columns):
            block[:, j] = np.fromiter(map(float, col), np.float64, n)
    except ValueError:
        return None
    return block if np.isfinite(block).all() else None


def _int_column(column, stop: int):
    """The integer column as an array, or None if a field is not an integer
    in [0, stop)."""
    try:
        values = np.fromiter(map(int, column), np.int64, len(column))
    except (ValueError, OverflowError):  # OverflowError: beyond int64
        return None
    return values if ((values >= 0) & (values < stop)).all() else None


def _check_floats(path, lineno: int, fields, what: str) -> None:
    try:
        values = list(map(float, fields))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad {what} value ({exc})") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}:{lineno}: non-finite {what} value")


def save_dataset(sample: LabeledSample, path) -> None:
    """CSV with header f0..f{d-1},label[,origin], floats written as ``repr``
    for a lossless round trip, CRLF line endings."""
    header = [f"f{i}" for i in range(sample.dim)] + ["label"]
    columns = [*sample.features.T, sample.labels]
    if sample.origin is not None:
        header.append("origin")
        columns.append(sample.origin)
    _write_csv(path, header, columns)


def load_dataset(path, num_classes: int = 2) -> LabeledSample:
    """Parse a dataset CSV, rejecting malformed rows with their line number:
    a wrong field count, a feature that is not a finite float, a label that
    is not an integer in [0, num_classes), an origin other than 0 or 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        # slices, not indexing: a blank first line gives an empty header
        has_origin = header[-1:] == ["origin"]
        feat_names = header[:-2] if has_origin else header[:-1]
        label_pos = len(feat_names)
        expected = [f"f{i}" for i in range(len(feat_names))]
        if feat_names != expected or header[label_pos : label_pos + 1] != ["label"]:
            raise ValueError(f"{path}: header must be f0..f{{d-1}},label[,origin]")

        def parse(columns):
            n = len(columns[label_pos])
            arrays = [
                _finite_block(columns[:label_pos], n),
                _int_column(columns[label_pos], num_classes),
            ]
            if has_origin:
                arrays.append(_int_column(columns[label_pos + 1], 2))
            return None if any(a is None for a in arrays) else arrays

        def check_row(lineno, row):
            _check_floats(path, lineno, row[:label_pos], "feature")
            try:
                y = int(row[label_pos])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label {row[label_pos]!r}") from None
            if not 0 <= y < num_classes:
                raise ValueError(f"{path}:{lineno}: label {y} outside declared {num_classes} classes")
            if has_origin:
                try:
                    o = int(row[label_pos + 1])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad origin {row[label_pos+1]!r}") from None
                if o not in (0, 1):
                    raise ValueError(f"{path}:{lineno}: origin must be 0 or 1")

        chunks = _read_csv(path, reader, len(header), parse, check_row)
    if not chunks:
        raise ValueError(f"{path}: no data rows")
    features, labels, *origin = (np.concatenate(parts) for parts in zip(*chunks))
    return LabeledSample(features=features, labels=labels, origin=origin[0] if origin else None)


def _spec_to_json(task: TaskInstance) -> dict:
    if task.kind == "synthetic":
        d = asdict(task.spec)
        return d
    if task.kind == "mixture":
        s = task.spec
        return {
            "num_classes": s.num_classes,
            "source_share": [str(v) for v in s.source_share],
            "per_class_counts": [list(c) for c in s.per_class_counts],
            "binary_relabel_threshold": s.binary_relabel_threshold,
        }
    return dict(task.spec)


def spec_from_json(kind: str, d: dict):
    if kind == "synthetic":
        d = dict(d)
        d["component_means"] = tuple(tuple(m) for m in d["component_means"])
        for key in ("source_mix", "target_mix", "rule_vector"):
            d[key] = tuple(d.get(key, ()))
        return SyntheticSpec(**d)
    if kind == "mixture":
        return MixtureTaskSpec(
            num_classes=d["num_classes"],
            source_share=tuple(Fraction(v) for v in d["source_share"]),
            per_class_counts=tuple(tuple(c) for c in d["per_class_counts"]),
            binary_relabel_threshold=d.get("binary_relabel_threshold", 0),
        )
    return dict(d)


def save_task(task: TaskInstance, dirpath) -> None:
    """Materialise a task as a directory: source.csv, target.csv, weights.csv
    (one weight per source row), and manifest.json with spec and beta_inf."""
    os.makedirs(dirpath, exist_ok=True)
    save_dataset(task.source, os.path.join(dirpath, "source.csv"))
    save_dataset(task.target_labeled_oracle, os.path.join(dirpath, "target.csv"))
    _write_csv(os.path.join(dirpath, "weights.csv"), ["weight"], [task.source.weights])
    manifest = {
        "kind": task.kind,
        "spec": _spec_to_json(task),
        "beta_inf": task.beta_inf,
        "files": {"source": "source.csv", "target": "target.csv", "weights": "weights.csv"},
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_task(dirpath) -> TaskInstance:
    """Read back a directory written by ``save_task``, refusing a manifest
    without one of its keys (``files.source`` and the other file names
    included), a malformed CSV row or a negative weight (with its
    ``path:line``), and a ``weights.csv`` whose row count differs from
    ``source.csv``'s."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for key in ("kind", "spec", "beta_inf", "files"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: missing key {key!r}")
    files = manifest["files"]
    for key in ("source", "target", "weights"):
        if key not in files:
            raise ValueError(f"{manifest_path}: missing key 'files.{key}'")
    source = load_dataset(os.path.join(dirpath, files["source"]), num_classes=2)
    target = load_dataset(os.path.join(dirpath, files["target"]), num_classes=2)
    weights_path = os.path.join(dirpath, files["weights"])

    def parse(columns):
        block = _finite_block(columns, len(columns[0]))
        return block if block is not None and (block >= 0).all() else None

    def check_row(lineno, row):
        _check_floats(weights_path, lineno, row, "weight")
        if float(row[0]) < 0:
            raise ValueError(f"{weights_path}:{lineno}: negative weight value")

    with open(weights_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["weight"]:
            raise ValueError(f"{weights_path}: header must be the single column 'weight'")
        chunks = _read_csv(weights_path, reader, 1, parse, check_row)
    num_weights = sum(map(len, chunks))
    if num_weights != len(source):
        raise ValueError(f"{weights_path}: {num_weights} weights for {len(source)} source rows")
    source = LabeledSample(
        features=source.features,
        labels=source.labels,
        origin=source.origin,
        weights=np.concatenate(chunks)[:, 0],
    )
    return TaskInstance(
        source=source,
        target_x=UnlabeledSample(features=target.features, origin=target.origin),
        target_labeled_oracle=target,
        spec=spec_from_json(manifest["kind"], manifest["spec"]),
        beta_inf=float(manifest["beta_inf"]),
        kind=manifest["kind"],
    )


def default_synthetic_spec(seed: int = 0, n_source: int = 10000, n_target: int = 10000) -> SyntheticSpec:
    """Desk-scale default: two overlapping 2-D components with mixing
    proportions 0.9/0.1 flipped between domains (worst-case weight 9) and a
    halfspace label rule orthogonal to the shift direction, so the decision
    boundary transfers across domains."""
    return SyntheticSpec(
        dim=2,
        component_means=((-0.5, 0.0), (0.5, 0.0)),
        component_std=1.0,
        source_mix=(0.9, 0.1),
        target_mix=(0.1, 0.9),
        n_source=n_source,
        n_target=n_target,
        seed=seed,
        label_rule="halfspace",
        rule_vector=(0.0, 1.0),
        rule_offset=0.0,
    )
