"""Spans around the public functions of each shiftbound module.

The tracer patches functions from the benchmark's side: for every function
in ``LAYERS`` it replaces each module attribute bound to that function
object, so the wrapper sits at whatever name the caller looks up (for
example ``shiftbound.experiment.estimate_risks``, bound there by
``from .risks import estimate_risks``). Nothing inside ``src/`` changes.

A span records its name, start, end and parent; self time is the span's
duration minus the time its child spans cover. Counts are computed at the
same boundaries from the call's arguments.
"""

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _dir_bytes(dirpath):
    return sum(e.stat().st_size for e in os.scandir(dirpath) if e.is_file())


def _forward_counts(arch, w, x):
    rows = len(x) if getattr(x, "ndim", 1) == 2 else 1
    widths = arch.layer_widths
    macs = sum(widths[i] * widths[i + 1] for i in range(len(widths) - 1))
    return {"nn.forward.rows": rows, "nn.forward.flops": 2 * rows * macs}


def _train_counts(arch, w0, data, cfg, *args, **kwargs):
    return {"nn.train.steps": cfg.epochs * -(-len(data) // cfg.batch_size)}


def _grid_counts(bound, inputs, grid=None):
    from shiftbound.bounds import default_grid

    return {"bounds.grid_search.candidates": (grid or default_grid(bound)).size}


def _mmd_counts(X, Y, cfg):
    n = min(len(X), len(Y))
    n -= n % 2
    # each linear statistic evaluates four kernels on n/2 row pairs
    return {"divergences.mmd_estimate.kernel_evals": 2 * n * cfg.shuffles * len(cfg.bandwidths)}


# (module, function, span name or None for module.function, counts from args)
LAYERS = [
    ("nn", "forward", None, _forward_counts),
    ("nn", "train", None, _train_counts),
    ("stochastic", "learn_prior_posterior", None, None),
    ("stochastic", "sample_posterior", None, None),
    ("stochastic", "kl_isotropic", None, None),
    ("risks", "estimate_risks", None, None),
    ("risks", "gibbs_risk", None, None),
    ("risks", "lambda_rho_oracle", None, None),
    ("bounds", "grid_search", None, _grid_counts),
    ("divergences", "median_heuristic_bandwidths", None, None),
    ("divergences", "mmd_estimate", None, _mmd_counts),
    ("tasks", "build_synthetic_task", None, None),
    ("tasks", "save_task", None, lambda task, dirpath: {"tasks.save_task.bytes": _dir_bytes(dirpath)}),
    ("tasks", "load_task", None, lambda dirpath: {"tasks.load_task.bytes": _dir_bytes(dirpath)}),
    ("experiment", "run_experiment", None, None),
    ("experiment", "emit", None, lambda report, fmt, path: {"experiment.emit.bytes": os.path.getsize(path)}),
    ("cli", "main", lambda argv=None: f"cli.{argv[0]}", None),
]

RISKS_SPANS = ("risks.estimate_risks", "risks.gibbs_risk", "risks.lambda_rho_oracle")

# (metric, unit); every traced run reports all of them, 0 where the
# workload never calls the layer
METRICS = [
    ("nn.forward.calls", "count"),
    ("nn.forward.rows", "count"),
    ("nn.forward.time_s", "s"),
    ("nn.forward.flops", "flop"),
    ("risks.forward_per_row", "count"),
    ("risks.estimate_risks.time_s", "s"),
    ("risks.gibbs_risk.time_s", "s"),
    ("risks.lambda_rho_oracle.time_s", "s"),
    ("risks.self_s", "s"),
    ("nn.train.calls", "count"),
    ("nn.train.steps", "count"),
    ("nn.train.time_s", "s"),
    ("stochastic.learn_prior_posterior.time_s", "s"),
    ("stochastic.learn_prior_posterior.self_s", "s"),
    ("stochastic.sample_posterior.time_s", "s"),
    ("stochastic.kl_isotropic.time_s", "s"),
    ("bounds.grid_search.calls", "count"),
    ("bounds.grid_search.candidates", "count"),
    ("bounds.grid_search.time_s", "s"),
    ("divergences.median_heuristic_bandwidths.time_s", "s"),
    ("divergences.mmd_estimate.time_s", "s"),
    ("divergences.mmd_estimate.kernel_evals", "count"),
    ("tasks.build_synthetic_task.time_s", "s"),
    ("tasks.save_task.time_s", "s"),
    ("tasks.save_task.bytes", "bytes"),
    ("tasks.load_task.time_s", "s"),
    ("tasks.load_task.bytes", "bytes"),
    ("experiment.run_experiment.time_s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.emit.time_s", "s"),
    ("experiment.emit.bytes", "bytes"),
    ("cli.make-task.time_s", "s"),
    ("cli.run.time_s", "s"),
    ("cli.summarize.time_s", "s"),
]
COUNT_METRICS = [name for name, unit in METRICS if unit != "s"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Install with ``with Tracer() as t:``; spans stay in memory and
    ``metrics()`` reduces them once the traced work is done."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def __enter__(self):
        for module_name, fn_name, span_name, counter in LAYERS:
            original = getattr(importlib.import_module(f"shiftbound.{module_name}"), fn_name)
            wrapper = self._wrap(original, span_name or f"{module_name}.{fn_name}", counter)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "shiftbound" and not mod_name.startswith("shiftbound."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name(*args, **kwargs) if callable(name) else name, time.perf_counter(), math.nan,
                        self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    self.counts[key] += value
            return result

        return wrapper

    def _under_risks(self, span):
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name in RISKS_SPANS:
                return True
        return False

    def metrics(self) -> dict:
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for span in self.spans:
            total[span.name] += span.end - span.start
            calls[span.name] += 1
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        self_time = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_time[span.name] += span.end - span.start - child[i]

        out = {name: 0 for name, _ in METRICS}
        out.update(self.counts)
        for name in total:
            out[f"{name}.time_s"] = total[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_time[name]
        out["risks.self_s"] = sum(self_time[name] for name in RISKS_SPANS)
        evals = calls["risks.estimate_risks"]
        under = sum(1 for s in self.spans if s.name == "nn.forward" and self._under_risks(s))
        out["risks.forward_per_row"] = under / evals if evals else 0
        return {name: out[name] for name, _ in METRICS}
