"""The benchmark tracer (bench/tracer.py) patches shiftbound functions by
name. These checks catch a rename, deletion or signature change in ``src/``
that would break ``bench/run.py --trace 1``: the layer names are checked
without running a workload, then both workloads run traced at their small
size. The benchmark files are loaded from their paths, without editing
them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import shiftbound  # noqa: F401  (loads every submodule the tracer patches)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shiftbound_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "shiftbound" or name.startswith("shiftbound.")
        for attr, value in vars(module).items()
    }


def test_every_traced_layer_is_a_shiftbound_callable():
    tracer = _load("tracer")
    for module_name, fn_name, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"shiftbound.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"shiftbound.{module_name}.{fn_name}"


def test_tracer_patches_each_layer_and_restores_every_attribute():
    tracer = _load("tracer")
    before = _shiftbound_attributes()
    with tracer.Tracer():
        for module_name, fn_name, _, _ in tracer.LAYERS:
            module = importlib.import_module(f"shiftbound.{module_name}")
            assert before[(f"shiftbound.{module_name}", fn_name)] is not getattr(module, fn_name)
    after = _shiftbound_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", ["quickstart_oracle", "cli_roundtrip"])
def test_small_workload_runs_traced(tmp_path, workload):
    tracer, workloads = _load("tracer"), _load("workloads")
    with tracer.Tracer() as traced:
        outcome = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, str(tmp_path), small=True)()
    assert all(code == 0 for code in outcome.exit_codes.values()), outcome.exit_codes
    assert Path(outcome.csv_path).is_file() and Path(outcome.json_path).is_file()
    metrics = traced.metrics()
    assert list(metrics) == [name for name, _ in tracer.METRICS]
    assert metrics["nn.forward.calls"] > 0
    # both workloads run in oracle mode, so every checkpoint reduces its
    # Gibbs risks with gibbs_risk and forms lambda_rho with lambda_rho_oracle
    assert metrics["risks.gibbs_risk.time_s"] > 0
    assert metrics["risks.lambda_rho_oracle.time_s"] > 0
    # one prediction matrix per sample: source and target
    assert metrics["risks.forward_per_row"] == 2
