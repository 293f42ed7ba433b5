"""Construction of domain-adaptation tasks that satisfy covariate shift and
overlap by design, with exact importance weights attached to every source row.

Three constructions are provided: the two-origin per-class mixture with
complement target, a one-sided mixture where only part of one pool appears in
the target, and a fully synthetic two-component Gaussian generator whose
density ratio is available in closed form. A construction that would leave
target mass without source mass is refused with ``OverlapError``. The two
pooled constructions' weights, and the mixture's worst-case weight
beta_inf, are computed in exact ``Fraction`` arithmetic and rounded once.
Both pooled constructions route their rows through ``_pooled_task`` by
cell, where a weight is constant: a (class, origin) group of a mixture, or
one pool of a one-sided task. Each cell sends a seeded share of its rows to
the source with its weight and the rest to the target.

A task persists as a directory (``save_task`` / ``load_task``): source.csv
and target.csv (header f0..f{d-1},label[,origin]), weights.csv (header
weight, one row per source row) and manifest.json. The CSVs hold floats as
``repr`` with CRLF line endings, written one join per ``CHUNK`` of rows.
Each CSV is read by one column declaration (its float and integer columns
and their ranges): one ``np.loadtxt`` call parses the rows, and where numpy
fails or disagrees a ``csv.reader`` row walk checks them by the same
declaration, refusing a malformed row with its ``path:line`` and otherwise
accepting what Python's ``float`` and ``int`` do. Every JSON object (the
run config and its task, specs, manifests) is walked by ``_entries`` below,
against the fields that ``_field`` declares with their readers and keys.
"""

import csv
import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from fractions import Fraction
from itertools import chain
from typing import ClassVar

import numpy as np

from .samples import LabeledSample, UnlabeledSample
from .seeding import stream_rng

LABEL_RULES = ("halfspace",)


class OverlapError(ValueError):
    """A construction would put zero source mass where the target has mass
    (or leave a domain empty), breaking the overlap requirement."""


# Readers of JSON values: each converts ``value`` or refuses it by ``path``.
def _integer(value, path: str) -> int:
    """``value`` as an int: an integral number, not a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{path} must be an integer, got {value!r}")


def _number(value, path: str) -> float:
    """``value`` as a float: a real number within the float range (NaN and
    infinities included), not a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{path} must be a number, got {value!r}")


def _finite(value, path: str) -> float:
    """``value`` as a float, as ``_number`` reads it, but not NaN or infinite."""
    number = _number(value, path)
    if not math.isfinite(number):
        raise ValueError(f"{path} must be finite, got {value!r}")
    return number


def _share(value, path: str) -> Fraction:
    """``value`` held exactly as a Fraction: a Fraction, a string such as
    "1/12", or a finite real number other than a bool, taken exactly."""
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return Fraction(float(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{path} must be a fraction such as '1/12' or a finite number, got {value!r}")


def _instance(cls, what: str):
    """Reader of a ``cls`` value, refusing any other as not ``what``."""
    def read(value, path: str):
        if isinstance(value, cls):
            return value
        raise ValueError(f"{path} must be {what}, got {value!r}")
    return read


_flag, _string, _object = _instance(bool, "true or false"), _instance(str, "a string"), _instance(dict, "an object")


def _list(read):
    """Reader of a list or a tuple as a tuple, entry i read by ``read`` at ``path[i]``."""
    def read_list(value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return tuple(read(entry, f"{path}[{i}]") for i, entry in enumerate(value))
    return read_list


def _file_name(value, path: str) -> str:
    """A string that names a file in a directory: not "", "." or "..", and no path separator in it."""
    name = _string(value, path)
    if name not in ("", ".", "..") and not any(sep and sep in name for sep in (os.sep, os.altsep)):
        return name
    raise ValueError(f"{path} must be a file name, got {value!r}")


def _entries(doc, layout: dict, what: str, path: str = "") -> dict:
    """The entries ``doc`` holds, keyed as in its ``layout``: a dict from each
    entry's key ("section.key" inside a section) to whether it is required.
    ``doc`` is the JSON object of the ``what`` document, or of its key
    ``path``. A section that is not an object is refused, then every key
    that names no entry (top-level keys first) together by its path, then
    the first missing required key."""
    prefix, known = f"{path}." if path else "", {tuple(key.split(".")) for key in layout}
    sections = {key[0] for key in known if len(key) == 2}
    doc = _object(doc, path or what)
    entries = {(key,): value for key, value in doc.items() if key not in sections}
    for section in [key for key in doc if key in sections]:
        inner = _object(doc[section], f"{what} key {prefix + section!r}")
        entries.update(((section, key), value) for key, value in inner.items())
    unknown = [prefix + ".".join(key) for key in entries if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    entries = {".".join(key): value for key, value in entries.items()}
    missing = [key for key, required in layout.items() if required and key not in entries]
    if missing:
        section = missing[0].partition(".")[0]
        raise ValueError(f"{what} key {prefix + (missing[0] if section in doc else section)!r} is missing")
    return entries


def _field(read, default=MISSING, key=None):
    """A dataclass field read by ``read`` at its JSON ``key`` ("section.key" in a section; else its name)."""
    return field(default=default, metadata={"read": read, "key": key})


def _json_keys(cls) -> dict:
    """Each ``_field`` field of ``cls`` by its JSON key."""
    return {f.metadata["key"] or f.name: f for f in fields(cls) if f.metadata}


def _read_fields(obj) -> None:
    """Set each ``_field`` field of ``obj`` to its reader's value, refused by its key."""
    for key, f in _json_keys(obj).items():
        object.__setattr__(obj, f.name, f.metadata["read"](getattr(obj, f.name), key))


def _from_json(cls, doc, what: str, **values):
    """``cls`` from ``values`` and the ``what`` document ``doc``, walked by
    ``_entries`` against its JSON keys (one without a default is required)."""
    keys = _json_keys(cls)
    entries = _entries(doc, {key: f.default is MISSING for key, f in keys.items()}, what)
    return cls(**values, **{keys[key].name: value for key, value in entries.items()})


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-component Gaussian mixtures sharing their components across
    domains; only the mixing proportions differ, so the density ratio is a
    closed-form two-term expression and its supremum is max_k target/source.

    Labels come from a deterministic rule applied identically in both
    domains: "halfspace" labels 1 where x . rule_vector + rule_offset > 0.
    """

    kind: ClassVar[str] = "synthetic"
    dim: int = _field(_integer)
    component_means: tuple = _field(_list(_list(_finite)))
    component_std: float = _field(_finite)
    source_mix: tuple = _field(_list(_finite))
    target_mix: tuple = _field(_list(_finite))
    n_source: int = _field(_integer)
    n_target: int = _field(_integer)
    seed: int = _field(_integer)
    label_rule: str = _field(_string, "halfspace")
    rule_vector: tuple = _field(_list(_finite), ())
    rule_offset: float = _field(_finite, 0.0)

    def __post_init__(self):
        _read_fields(self)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.component_means) != 2:
            raise ValueError("exactly two mixture components are supported")
        if any(len(m) != self.dim for m in self.component_means):
            raise ValueError("component means must have length dim")
        if self.component_means[0] == self.component_means[1]:
            raise ValueError("component means must be distinct")
        if not self.component_std > 0:
            raise ValueError("component_std must be positive")
        for mix in (self.source_mix, self.target_mix):
            if len(mix) != 2 or any(p < 0 for p in mix) or abs(sum(mix) - 1.0) > 1e-9:
                raise ValueError("mixes must be two nonnegative weights summing to 1")
        if any(p == 0 for p in self.source_mix):
            raise OverlapError(
                "source mix has a zero component: the density ratio would be "
                "unbounded and the worst-case weight infinite"
            )
        if self.n_source < 1 or self.n_target < 1:
            raise ValueError("sample sizes must be positive")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label_rule must be one of {LABEL_RULES}")
        if not self.rule_vector:
            object.__setattr__(self, "rule_vector", (1.0,) + (0.0,) * (self.dim - 1))
        if len(self.rule_vector) != self.dim:
            raise ValueError("rule_vector must have length dim")


@dataclass
class TaskInstance:
    """A materialised task: weighted labeled source, unlabeled target, and the
    target labels held separately for oracle-only use. ``target_x`` is the
    unlabeled view of ``target_labeled_oracle``, so both hold the same rows;
    only the latter carries labels, which give the evaluation column and,
    in oracle mode, the ``add`` bound's lambda_rho."""

    source: LabeledSample
    target_x: UnlabeledSample = field(init=False)
    target_labeled_oracle: LabeledSample
    spec: object
    beta_inf: float

    def __post_init__(self):
        self.target_x = self.target_labeled_oracle.unlabeled()
        if self.source.weights is None:
            raise ValueError("task source must carry importance weights")
        if _exceeds_beta_inf(self.source.weights, self.beta_inf):
            raise ValueError("attached weights exceed the declared beta_inf")

    @property
    def kind(self) -> str:
        """The construction, as its spec names it."""
        return self.spec.kind


def _exceeds_beta_inf(weights: np.ndarray, beta_inf: float) -> bool:
    """Whether a weight exceeds ``beta_inf`` beyond float rounding."""
    return float(weights.max()) > beta_inf * (1.0 + 1e-12)


def apply_label_rule(spec: SyntheticSpec, X) -> np.ndarray:
    """The shared class-conditional rule; identical in both domains, which is
    what makes the construction a covariate shift."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return (X @ np.asarray(spec.rule_vector) + spec.rule_offset > 0).astype(np.int64)


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
    return TaskInstance(source=source, target_labeled_oracle=oracle, spec=spec, beta_inf=synthetic_beta_infinity(spec))


@dataclass(frozen=True)
class MixtureTaskSpec:
    """Two-origin mixture construction: per class, ``source_share[c]`` of the
    origin-1 rows (and the complementary share of origin-0 rows) go to the
    source; the remainder is the target. Labels below
    ``binary_relabel_threshold`` become 0, the rest 1.

    Shares may be given as Fraction, str ("1/12"), int, or float; they are
    held exactly as Fractions, and any other value is refused by its index.
    """

    kind: ClassVar[str] = "mixture"
    num_classes: int = _field(_integer)
    source_share: tuple = _field(_list(_share))
    per_class_counts: tuple = _field(_list(_list(_integer)))  # per class: (origin-0 count, origin-1 count)
    binary_relabel_threshold: int = _field(_integer, 0)

    def __post_init__(self):
        _read_fields(self)
        if self.num_classes < 2:  # else both domains carry one label
            raise ValueError("num_classes must be >= 2")
        if len(self.source_share) != self.num_classes:
            raise ValueError("need one source share per class")
        if any(not 0 <= s <= 1 for s in self.source_share):
            raise ValueError("shares must lie in [0, 1]")
        counts = self.per_class_counts
        for c, pair in enumerate(counts):
            if len(pair) != 2:
                raise ValueError(f"per_class_counts[{c}] must be a pair, got {list(pair)}")
        if len(counts) != self.num_classes:
            raise ValueError("need per-origin counts for every class")
        if any(a < 1 or b < 1 for a, b in counts):
            raise ValueError("per-class counts must be >= 1")
        if self.binary_relabel_threshold == 0:
            object.__setattr__(self, "binary_relabel_threshold", self.num_classes // 2)
        elif not 1 <= self.binary_relabel_threshold < self.num_classes:  # else one label only
            raise ValueError(f"binary_relabel_threshold must be 0 or lie in [1, {self.num_classes - 1}], "
                             f"got {self.binary_relabel_threshold}")

    def binary_label(self, cls: int) -> int:
        return 0 if cls < self.binary_relabel_threshold else 1


def mixture_counts(spec: MixtureTaskSpec):
    """Integer (source, target) row counts per (class, origin) implied by the
    shares; refuses any cell with zero mass on either side."""
    src = []
    tgt = []
    for c in range(spec.num_classes):
        n0, n1 = spec.per_class_counts[c]
        share1 = spec.source_share[c]
        s1 = round(share1 * n1)
        s0 = round((1 - share1) * n0)
        row_s = (s0, s1)
        row_t = (n0 - s0, n1 - s1)
        for o in range(2):
            if row_s[o] == 0 or row_t[o] == 0:
                raise OverlapError(
                    f"class {c} origin {o}: source share {share1} leaves an empty "
                    f"side; every (class, origin) cell needs mass in both domains"
                )
        src.append(row_s)
        tgt.append(row_t)
    return src, tgt


def mixture_weights(spec: MixtureTaskSpec):
    """Exact importance weights per (class, origin):

        w[c][o] = (target count / #T) / (source count / #S)

    returned as Fractions (convert with float() for numeric use)."""
    src, tgt = mixture_counts(spec)
    total_s = sum(a + b for a, b in src)
    total_t = sum(a + b for a, b in tgt)
    return [
        [Fraction(tgt[c][o] * total_s, src[c][o] * total_t) for o in range(2)]
        for c in range(spec.num_classes)
    ]


def beta_infinity(spec: MixtureTaskSpec) -> float:
    """Largest importance weight of the mixture (exact arithmetic, then float)."""
    table = mixture_weights(spec)
    return float(max(w for row in table for w in row))


def _pooled_task(cells, spec) -> TaskInstance:
    """The task whose rows come from ``cells``, each a ``(features, labels,
    origin, rows, k, weight)``: the cell's ``rows``, in order, send their
    first ``k`` to the source with ``weight`` and the rest to the target,
    all with ``origin``. Both samples are the cells' rows in cell order, and
    beta_inf is the largest cell weight."""
    parts = ([], [])
    for features, labels, origin, rows, k, weight in cells:
        for part, idx in zip(parts, (rows[:k], rows[k:])):
            part.append((features[idx], labels[idx], np.full(idx.size, origin, dtype=np.int64), np.full(idx.size, weight)))
    source, target = ([np.concatenate(column) for column in zip(*part)] for part in parts)
    source, target = LabeledSample(*source), LabeledSample(*target[:3])  # the target carries no weights
    return TaskInstance(source=source, target_labeled_oracle=target, spec=spec, beta_inf=max(c[5] for c in cells))


def build_mixture_task(
    pool0: LabeledSample, pool1: LabeledSample, spec: MixtureTaskSpec, seed: int
) -> TaskInstance:
    """Per class, route the spec's share of origin-1 rows (and the
    complementary share of origin-0 rows) to the source, the rest to the
    target; binarise labels and attach exact weights by (class, origin)."""
    if pool1.dim != pool0.dim:
        raise ValueError(f"pool1 has {pool1.dim} features, pool0 has {pool0.dim}")
    pools = (pool0, pool1)
    for o, pool in enumerate(pools):
        outside = np.count_nonzero((pool.labels < 0) | (pool.labels >= spec.num_classes))
        if outside:
            raise ValueError(f"pool{o} has {outside} rows outside the spec's classes 0..{spec.num_classes - 1}")
    binary = np.array([spec.binary_label(c) for c in range(spec.num_classes)], dtype=np.int64)
    labels = [binary[pool.labels] for pool in pools]
    src_counts, _ = mixture_counts(spec)
    table = mixture_weights(spec)
    cells = []
    for c in range(spec.num_classes):
        for o, pool in enumerate(pools):
            idx = np.nonzero(pool.labels == c)[0]
            want = spec.per_class_counts[c][o]
            if idx.size != want:
                raise ValueError(f"pool{o} has {idx.size} rows of class {c}, spec declares {want}")
            idx = idx[stream_rng(seed, "task", c, o).permutation(idx.size)]
            cells.append((pool.features, labels[o], o, idx, src_counts[c][o], float(table[c][o])))
    return _pooled_task(cells, spec)


@dataclass(frozen=True)
class OneSidedSpec:
    """One-sided construction: a ``move_fraction`` of the shared pool, drawn by ``seed``, joins the source."""

    kind: ClassVar[str] = "one_sided"
    move_fraction: float = _field(_finite)
    seed: int = _field(_integer)

    def __post_init__(self):
        _read_fields(self)
        if not 0 < self.move_fraction < 1:
            raise ValueError("move_fraction must lie in (0, 1)")


def one_sided_weight(move_fraction, num_source: int, num_target: int) -> float:
    """Importance weight for shared-pool rows when a ``move_fraction`` slice of
    one dataset is moved into the source and its remainder is the target:

        w = ((1 - f) / f) * (#S / #T)

    in exact arithmetic on ``Fraction(move_fraction)`` (a float fraction is
    taken at its exact binary value), rounded to float once."""
    if not 0 < move_fraction < 1:
        raise ValueError("move_fraction must lie in (0, 1)")
    if num_source < 1 or num_target < 1:
        raise ValueError("counts must be positive")
    f = Fraction(move_fraction)
    return float((1 - f) / f * Fraction(num_source, num_target))


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
    spec = OneSidedSpec(move_fraction, seed)
    if pool_shared.dim != pool_source_only.dim:
        raise ValueError(f"pool_shared has {pool_shared.dim} features, pool_source_only has {pool_source_only.dim}")
    m1 = len(pool_shared)
    k = round(spec.move_fraction * m1)
    if k < 1 or k >= m1:
        raise OverlapError(
            f"move_fraction={move_fraction} with {m1} shared rows leaves an empty side"
        )
    for pool in (pool_source_only, pool_shared):
        if not np.all((pool.labels == 0) | (pool.labels == 1)):
            raise ValueError("one-sided pools must carry binary labels")
    n0 = len(pool_source_only)
    weight = one_sided_weight(Fraction(k, m1), n0 + k, m1 - k)
    cells = [
        (pool_source_only.features, pool_source_only.labels, 0, np.arange(n0), n0, 0.0),
        (pool_shared.features, pool_shared.labels, 1, stream_rng(spec.seed, "task").permutation(m1), k, weight),
    ]
    return _pooled_task(cells, spec)


# Rows formatted per write. A chunk's Python floats, their strings and its
# joined text are held at once, about 390 bytes a row of a 2-feature source
# file: 2,048 rows keep a saved task's traced peak at 0.8 MiB (3.1 MiB at
# 8,192), and the writes are no slower.
CHUNK = 2048

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


def _read_table(path, fh, what: str, floats: int, ints=(), least: float = -math.inf):
    """The data rows of ``path``, open as ``fh`` with universal newlines just
    past its header line, by the column declaration: ``floats`` columns of
    ``what`` values (each finite and >= ``least``), then one integer column
    per (name, stop, message) of ``ints`` (each in [0, stop)). Returns the
    floats as an (n, floats) array and the integer columns, each
    C-contiguous.

    One ``np.loadtxt`` call parses the rows while the lines it reads are
    counted. Where it raises or warns, skips blank lines (its row count then
    differs from the line count), meets a character only numpy strips as
    whitespace, or gives a value out of range, ``_walk_rows`` reads the file
    again the way the ``csv`` module and ``float``/``int`` do: it raises the
    ``path:line`` diagnostic of the first faulty row, or returns the rows'
    values when none is faulty (quoted fields, ``1_000``, non-ASCII digits)."""
    dtype = np.dtype([("x", np.float64, (floats,))] + [(name, np.int64) for name, _, _ in ints])
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
        or not all(((table[name] >= 0) & (table[name] < stop)).all() for name, stop, _ in ints)
    ):
        table = np.array(_walk_rows(path, what, floats, ints, least), dtype)
    return [np.ascontiguousarray(table[name]) for name in dtype.names]


def data_rows(path, reader, width: int):
    """(line number, row) for each row of the CSV ``reader`` after the
    header, refusing a row that does not have ``width`` fields with its
    ``path:line``."""
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        yield lineno, row


def _walk_rows(path, what: str, floats: int, ints, least: float) -> list:
    """Every row after the header, read by ``csv.reader`` and checked by the
    column declaration of ``_read_table``: the field count, then each float
    converted, finite and >= ``least``, then each integer column converted
    and in range. Raises the ``path:line`` diagnostic of the first faulty
    row; returns each row's converted values when none is faulty."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in data_rows(path, reader, floats + len(ints)):
            try:
                values = tuple(map(float, row[:floats]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} value ({exc})") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite {what} value")
            if not all(v >= least for v in values):
                raise ValueError(f"{path}:{lineno}: negative {what} value")
            codes = []
            for (name, stop, message), text in zip(ints, row[floats:]):
                try:
                    code = int(text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad {name} {text!r}") from None
                if not 0 <= code < stop:
                    raise ValueError(f"{path}:{lineno}: " + message.format(code))
                codes.append(code)
            rows.append((values, *codes))
    return rows


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
    """Parse a dataset CSV, rejecting a header without a feature column, and
    malformed rows with their line number: a wrong field count, a feature
    that is not a finite float, a label that is not an integer in
    [0, num_classes), an origin other than 0 or 1."""
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
        if not feat_names or feat_names != expected or header[label_pos : label_pos + 1] != ["label"]:
            raise ValueError(f"{path}: header must be f0..f{{d-1}},label[,origin]")
        ints = [("label", num_classes, f"label {{}} outside declared {num_classes} classes")]
        if has_origin:
            ints.append(("origin", 2, "origin must be 0 or 1"))
        features, labels, *origin = _read_table(path, fh, "feature", label_pos, ints)
    if not len(labels):
        raise ValueError(f"{path}: no data rows")
    return LabeledSample(features=features, labels=labels, origin=origin[0] if origin else None)


def _fraction_to_json(value):
    """``json.dump`` default for task specs: a Fraction (a mixture share) as
    its exact string, e.g. "1/12"; nothing else is converted."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot write {type(value).__name__} to a task manifest")


_SPEC_TYPES = {cls.kind: cls for cls in (SyntheticSpec, MixtureTaskSpec, OneSidedSpec)}
_MANIFEST = dict.fromkeys(("kind", "spec", "beta_inf", "files.source", "files.target", "files.weights"), True)


def spec_from_json(kind: str, d):
    """The spec of a task of ``kind`` from its JSON object (a manifest's ``spec``,
    a ``make-task --spec`` file, an inline config spec), built by ``_from_json``."""
    return _from_json(_SPEC_TYPES[kind], d, "spec")


def read_json(path):
    """The JSON document in the file ``path``, refused with ``path`` named if it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from exc


def save_task(task: TaskInstance, dirpath) -> None:
    """Materialise a task as a directory: source.csv, target.csv, weights.csv
    (one weight per source row), and manifest.json with spec and beta_inf."""
    os.makedirs(dirpath, exist_ok=True)
    save_dataset(task.source, os.path.join(dirpath, "source.csv"))
    save_dataset(task.target_labeled_oracle, os.path.join(dirpath, "target.csv"))
    _write_csv(os.path.join(dirpath, "weights.csv"), ["weight"], [task.source.weights])
    manifest = {
        "kind": task.kind,
        "spec": asdict(task.spec),
        "beta_inf": task.beta_inf,
        "files": {"source": "source.csv", "target": "target.csv", "weights": "weights.csv"},
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_fraction_to_json)
        fh.write("\n")


def load_task(dirpath) -> TaskInstance:
    """Read back a directory written by ``save_task``.

    The manifest, read by ``read_json`` and walked by ``_entries`` against
    ``_MANIFEST``, is checked before any CSV is read, each refusal naming it;
    then the CSVs' rows (by ``path:line``), counts and ``beta_inf``."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    manifest = read_json(manifest_path)
    try:
        entries = _entries(manifest, _MANIFEST, "manifest")
        source_path, target_path, weights_path = (
            os.path.join(dirpath, _file_name(entries[key], key))
            for key in ("files.source", "files.target", "files.weights")
        )
        kind, beta_inf = entries["kind"], entries["beta_inf"]
        if kind not in _SPEC_TYPES:
            raise ValueError(f"kind must be one of {', '.join(_SPEC_TYPES)}, got {kind!r}")
        # comparisons, not math.isfinite: an integer beyond the float range is refused too
        if type(beta_inf) not in (int, float) or not 0 < beta_inf <= sys.float_info.max:
            raise ValueError(f"beta_inf must be a finite number > 0, got {beta_inf!r}")
        try:
            spec = spec_from_json(kind, entries["spec"])
        except ValueError as exc:
            raise ValueError(f"spec: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    source = load_dataset(source_path, num_classes=2)
    target = load_dataset(target_path, num_classes=2)
    if target.dim != source.dim:
        raise ValueError(f"{target_path}: {target.dim} features, but {source_path} has {source.dim}")
    with open(weights_path) as fh:
        if next(csv.reader(fh), None) != ["weight"]:
            raise ValueError(f"{weights_path}: header must be the single column 'weight'")
        (weights,) = _read_table(weights_path, fh, "weight", 1, least=0.0)
    weights = weights[:, 0]
    if len(weights) != len(source):
        raise ValueError(f"{weights_path}: {len(weights)} weights for {len(source)} source rows")
    if _exceeds_beta_inf(weights, beta_inf):
        raise ValueError(
            f"{manifest_path}: beta_inf {beta_inf!r} is below the largest weight "
            f"{float(weights.max())!r} in {weights_path}"
        )
    return TaskInstance(
        source=replace(source, weights=weights),
        target_labeled_oracle=target,
        spec=spec,
        beta_inf=float(beta_inf),
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
