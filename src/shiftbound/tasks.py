"""Construction of domain-adaptation tasks that satisfy covariate shift and
overlap by design, with exact importance weights attached to every source row.

Three constructions are provided: the two-origin per-class mixture with
complement target, a one-sided mixture where only part of one pool appears in
the target, and a fully synthetic two-component Gaussian generator whose
density ratio is available in closed form.

A task persists as a directory (``save_task`` / ``load_task``): source.csv
and target.csv (header f0..f{d-1},label[,origin]), weights.csv (header
weight, one row per source row) and manifest.json. The CSVs hold floats as
``repr`` with CRLF line endings, written one join per ``CHUNK`` of rows.
Reading parses a file's rows with one ``np.loadtxt`` call and falls back to
a ``csv.reader`` row walk, which refuses a malformed row with its
``path:line`` and otherwise accepts what Python's ``float`` and ``int`` do.
"""

import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, asdict, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .divergences import MixtureTaskSpec, OverlapError, beta_infinity, mixture_counts, mixture_weights
from .samples import LabeledSample, UnlabeledSample
from .seeding import stream_rng

LABEL_RULES = ("halfspace", "disk")
TASK_KINDS = ("synthetic", "mixture", "one_sided")


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
    target labels held separately for oracle-only use. ``target_x`` is the
    unlabeled view of the oracle sample, so both hold the same rows."""

    source: LabeledSample
    target_x: UnlabeledSample = field(init=False)
    target_labeled_oracle: LabeledSample
    spec: object
    beta_inf: float
    kind: str

    def __post_init__(self):
        self.target_x = self.target_labeled_oracle.unlabeled()
        if self.source.weights is None:
            raise ValueError("task source must carry importance weights")
        if _exceeds_beta_inf(self.source.weights, self.beta_inf):
            raise ValueError("attached weights exceed the declared beta_inf")


def _exceeds_beta_inf(weights: np.ndarray, beta_inf: float) -> bool:
    """Whether a weight exceeds ``beta_inf`` beyond float rounding."""
    return float(weights.max()) > beta_inf * (1.0 + 1e-12)


def apply_label_rule(spec: SyntheticSpec, X) -> np.ndarray:
    """The shared class-conditional rule; identical in both domains, which is
    what makes the construction a covariate shift."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    v = np.asarray(spec.rule_vector)
    if spec.label_rule == "halfspace":
        return (X @ v + spec.rule_offset > 0).astype(np.int64)
    return (np.sum((X - v) ** 2, axis=1) <= spec.rule_offset**2).astype(np.int64)


def _logaddexp_columns(a: np.ndarray) -> np.ndarray:
    """log(exp(a[:, 0]) + exp(a[:, 1])) with the arithmetic of scipy 1.17's
    ``logsumexp(a, axis=1)``: hi + log1p(exp(lo - hi)), and the direct
    log(exp + exp) where that is not finite (both entries -inf, an overflow,
    a NaN). Where the entries tie, scipy takes log(2) + hi, and
    log1p(exp(0)) is log(2) in float64 too."""
    hi = np.maximum(a[:, 0], a[:, 1])
    lo = np.minimum(a[:, 0], a[:, 1])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        out = hi + np.log1p(np.exp(lo - hi))
        bad = ~np.isfinite(out)
        out[bad] = np.log(np.exp(a[bad, 0]) + np.exp(a[bad, 1]))
    return out


def density_ratio(spec: SyntheticSpec, X) -> np.ndarray:
    """Exact per-row target/source density ratio, evaluated in log space: each
    domain's log density (up to a shared constant) is the log-sum-exp of the
    two components' log likelihoods plus the log mix weights. A zero
    ``target_mix`` weight enters as log 0 = -inf and drops its component.
    ``_logaddexp_columns`` gives the log-sum-exp bit for bit as
    ``scipy.special.logsumexp``, in numpy alone."""
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
        log_t = _logaddexp_columns(logphi + np.log(spec.target_mix))
        log_s = _logaddexp_columns(logphi + np.log(spec.source_mix))
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
        target_labeled_oracle=oracle,
        spec={"move_fraction": move_fraction, "seed": seed},
        beta_inf=weight,
        kind="one_sided",
    )


# Rows formatted per write. Whole-file lists of per-row strings raise peak
# memory by a few percent on a 100k-row task; chunks this size do not.
CHUNK = 8192

# Characters of text lines handed to ``np.loadtxt`` per block.
_BLOCK_CHARS = 1 << 16

# The ASCII information separators: numpy's number parser strips them as
# whitespace, Python's ``float`` and ``int`` refuse them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _write_csv(path, header, columns) -> None:
    """Write ``header`` and one row per index of the equal-length 1-D arrays
    ``columns``, each field the ``repr`` of its Python value (the shortest
    round-tripping text for a float, the decimal digits for an integer),
    with CRLF line endings: the bytes ``csv.writer`` gives for these rows.
    Each ``CHUNK`` of rows is one list of cells interleaved with their
    separators, joined once."""
    row = [None, ","] * len(columns)
    row[-1] = "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CHUNK):
            parts = [col[start : start + CHUNK].tolist() for col in columns]
            cells = row * len(parts[0])
            for j, part in enumerate(parts):
                cells[2 * j :: len(row)] = map(repr, part)
            fh.write("".join(cells))


def _read_table(path, fh, floats: int, stops: tuple, check_row, least: float = -math.inf):
    """The data rows of ``path``, open as ``fh`` with universal newlines just
    past its header line: ``floats`` float columns, then one integer column
    per entry of ``stops``. Returns the floats as an (n, floats) array and
    the integer columns, each C-contiguous. Every float must be finite and
    >= ``least``, and integer column j in [0, stops[j]).

    One ``np.loadtxt`` call parses the rows while the lines it reads are
    counted. Where it raises or warns, skips blank lines (its row count then
    differs from the line count), meets a character only numpy strips as
    whitespace, or gives a value out of range, ``_walk_rows`` reads the file
    again the way the ``csv`` module and ``float``/``int`` do: it raises the
    ``path:line`` diagnostic of the first faulty row, or returns the rows'
    values when none is faulty (quoted fields, ``1_000``, non-ASCII digits)."""
    dtype = np.dtype([("x", np.float64, (floats,))] + [(f"i{j}", np.int64) for j in range(len(stops))])
    lines = 0

    def blocks():
        nonlocal lines
        while block := fh.readlines(_BLOCK_CHARS):
            lines += len(block)
            text = "".join(block)
            if any(sep in text for sep in _SEPARATORS):
                raise ValueError("information separator in a field")
            yield block

    try:
        with warnings.catch_warnings():
            # a file without data rows only warns, as does an integer field
            # written as a float on numpy releases that still parse it
            warnings.simplefilter("error")
            table = np.loadtxt(
                chain.from_iterable(blocks()),
                dtype,
                delimiter=",",
                comments=None,
                quotechar=None,
                ndmin=1,
            )
    except (ValueError, Warning):
        table = None
    if (
        table is None
        or len(table) != lines
        or not (np.isfinite(table["x"]) & (table["x"] >= least)).all()
        or not all(((table[name] >= 0) & (table[name] < stop)).all() for name, stop in zip(dtype.names[1:], stops))
    ):
        table = _walk_rows(path, floats, dtype, check_row)
    return [np.ascontiguousarray(table[name]) for name in dtype.names]


def _walk_rows(path, floats: int, dtype, check_row):
    """Every row after the header, read by ``csv.reader`` and checked with
    the field count and ``check_row(lineno, row)``, which raise the
    ``path:line`` diagnostic of the first faulty row; the rows' ``float``
    and ``int`` values as a ``dtype`` table when none is faulty."""
    width = floats + len(dtype.names) - 1
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            check_row(lineno, row)
            rows.append((tuple(map(float, row[:floats])), *map(int, row[floats:])))
    return np.array(rows, dtype)


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
    with open(path) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        # slices, not indexing: a blank first line gives an empty header
        has_origin = header[-1:] == ["origin"]
        feat_names = header[:-2] if has_origin else header[:-1]
        label_pos = len(feat_names)
        expected = [f"f{i}" for i in range(len(feat_names))]
        if feat_names != expected or header[label_pos : label_pos + 1] != ["label"]:
            raise ValueError(f"{path}: header must be f0..f{{d-1}},label[,origin]")

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

        stops = (num_classes, 2) if has_origin else (num_classes,)
        features, labels, *origin = _read_table(path, fh, label_pos, stops, check_row)
    if not len(labels):
        raise ValueError(f"{path}: no data rows")
    return LabeledSample(features=features, labels=labels, origin=origin[0] if origin else None)


def _fraction_to_json(value):
    """``json.dump`` default for task specs: a Fraction (a mixture share) as
    its exact string, e.g. "1/12"; nothing else is converted."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot write {type(value).__name__} to a task manifest")


def spec_from_json(kind: str, d: dict):
    """The spec of a task of ``kind`` from its JSON object (a manifest's
    ``spec``, a ``make-task --spec`` file, an inline config spec); a key
    that names no spec field is refused. The spec classes convert lists,
    share strings and numbers themselves."""
    return {"synthetic": SyntheticSpec, "mixture": MixtureTaskSpec}.get(kind, dict)(**d)


def save_task(task: TaskInstance, dirpath) -> None:
    """Materialise a task as a directory: source.csv, target.csv, weights.csv
    (one weight per source row), and manifest.json with spec and beta_inf."""
    os.makedirs(dirpath, exist_ok=True)
    save_dataset(task.source, os.path.join(dirpath, "source.csv"))
    save_dataset(task.target_labeled_oracle, os.path.join(dirpath, "target.csv"))
    _write_csv(os.path.join(dirpath, "weights.csv"), ["weight"], [task.source.weights])
    manifest = {
        "kind": task.kind,
        "spec": task.spec if task.kind == "one_sided" else asdict(task.spec),
        "beta_inf": task.beta_inf,
        "files": {"source": "source.csv", "target": "target.csv", "weights": "weights.csv"},
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_fraction_to_json)
        fh.write("\n")


def load_task(dirpath) -> TaskInstance:
    """Read back a directory written by ``save_task``, refusing a manifest
    without one of its keys (``files.source`` and the other file names
    included), with a ``kind`` outside ``TASK_KINDS`` or a ``beta_inf`` that
    is not a finite number > 0, a malformed CSV row or a negative weight
    (with its ``path:line``), a ``target.csv`` whose feature count differs
    from ``source.csv``'s, a ``weights.csv`` whose row count differs from
    ``source.csv``'s, and a ``beta_inf`` below the largest weight."""
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
    kind, beta_inf = manifest["kind"], manifest["beta_inf"]
    if kind not in TASK_KINDS:
        raise ValueError(f"{manifest_path}: kind must be one of {', '.join(TASK_KINDS)}, got {kind!r}")
    # comparisons, not math.isfinite: an integer beyond the float range is refused too
    if type(beta_inf) not in (int, float) or not 0 < beta_inf <= sys.float_info.max:
        raise ValueError(f"{manifest_path}: beta_inf must be a finite number > 0, got {beta_inf!r}")
    source_path = os.path.join(dirpath, files["source"])
    target_path = os.path.join(dirpath, files["target"])
    source = load_dataset(source_path, num_classes=2)
    target = load_dataset(target_path, num_classes=2)
    if target.dim != source.dim:
        raise ValueError(f"{target_path}: {target.dim} features, but {source_path} has {source.dim}")
    weights_path = os.path.join(dirpath, files["weights"])

    def check_row(lineno, row):
        _check_floats(weights_path, lineno, row, "weight")
        if float(row[0]) < 0:
            raise ValueError(f"{weights_path}:{lineno}: negative weight value")

    with open(weights_path) as fh:
        if next(csv.reader(fh), None) != ["weight"]:
            raise ValueError(f"{weights_path}: header must be the single column 'weight'")
        (weights,) = _read_table(weights_path, fh, 1, (), check_row, least=0.0)
    weights = weights[:, 0]
    if len(weights) != len(source):
        raise ValueError(f"{weights_path}: {len(weights)} weights for {len(source)} source rows")
    if _exceeds_beta_inf(weights, beta_inf):
        raise ValueError(
            f"{manifest_path}: beta_inf {beta_inf!r} is below the largest weight "
            f"{float(weights.max())!r} in {weights_path}"
        )
    source = LabeledSample(
        features=source.features,
        labels=source.labels,
        origin=source.origin,
        weights=weights,
    )
    return TaskInstance(
        source=source,
        target_labeled_oracle=target,
        spec=spec_from_json(kind, manifest["spec"]),
        beta_inf=float(beta_inf),
        kind=kind,
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
