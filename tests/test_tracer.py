"""The benchmark tracer (bench/tracer.py) patches shiftbound functions by
name. These checks catch a rename or deletion in ``src/`` that would break
``bench/run.py --trace 1``, without running a workload."""

import importlib
import importlib.util
import sys
from pathlib import Path

import shiftbound  # noqa: F401  (loads every submodule the tracer patches)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
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
    tracer = _load_tracer()
    for module_name, fn_name, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"shiftbound.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"shiftbound.{module_name}.{fn_name}"


def test_tracer_patches_each_layer_and_restores_every_attribute():
    tracer = _load_tracer()
    before = _shiftbound_attributes()
    with tracer.Tracer():
        for module_name, fn_name, _, _ in tracer.LAYERS:
            module = importlib.import_module(f"shiftbound.{module_name}")
            assert before[(f"shiftbound.{module_name}", fn_name)] is not getattr(module, fn_name)
    after = _shiftbound_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
