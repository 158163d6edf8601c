"""The benchmark's per-layer trace reports metrics named
``<layer>.<function>.<metric>``; ``perfbench/run.py --trace 1`` fails when a
listed function is no longer a public function of its layer module. Catch a
rename or deletion here instead."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_functions():
    spec = json.loads(BENCHMARK.read_text())
    names = [entry["name"].split(".") for entry in spec["per_layer"]]
    return sorted({(parts[0], parts[1]) for parts in names if len(parts) == 3})


def test_per_layer_functions_exist():
    pairs = traced_functions()
    assert pairs, "BENCHMARK.json lists no per-function metric"
    missing = []
    for layer, name in pairs:
        module = importlib.import_module(f"decoybb84.{layer}")
        fn = vars(module).get(name)
        # The tracer wraps exactly these: public functions defined in the module.
        if (
            name.startswith("_")
            or not inspect.isfunction(fn)
            or fn.__module__ != module.__name__
        ):
            missing.append(f"{layer}.{name}")
    assert not missing, f"traced functions missing: {missing}"
