"""The benchmark's per-layer metrics name library functions that exist.

`bench/run.py --trace 1` reads each `<module>.<function>.<stat>` of
BENCHMARK.json's `per_layer` list and raises KeyError when the function
is not one its tracer wraps: a public function defined in that `mimlab`
module.  Its tracer opens no span for a generator function, so a timed
statistic of one would read zero.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
NAMES = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
LIBRARY = [name for name in NAMES
           if name.split(".", 1)[0] not in ("trace", "bench")]


def test_library_entries_found():
    assert any(name.startswith("harness.run_") for name in LIBRARY)


@pytest.mark.parametrize("name", LIBRARY)
def test_names_a_public_function_of_its_module(name):
    fn, _, stat = name.rpartition(".")
    layer, _, attr = fn.partition(".")
    module = importlib.import_module(f"mimlab.{layer}")
    obj = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(obj)
    assert obj.__module__ == module.__name__
    if stat in ("self_s", "setup_self_s", "errors"):
        assert not inspect.isgeneratorfunction(obj)
