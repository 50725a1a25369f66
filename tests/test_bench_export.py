"""The corpus-verify export of the benchmark, pinned in the unit tests.

`bench/run.py --workload corpus-verify` runs `harness.verify` over
`VERIFY_CHECKS` of `bench/workloads.py` and checks the SHA-256 of its JSON
export against `bench/reference.json`.  This test runs the same spec at
seed 0, with the smoke parameters and with the defaults, so a change
that moves an exported byte fails here and not only in the benchmark.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mimlab.harness import ExperimentSpec, export, verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _workloads():
    # Registered before it runs: its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("key, params", [
    ("smoke/export_sha256", WORKLOADS.SMOKE_VERIFY_PARAMS),
    ("export_sha256", {}),
], ids=["smoke", "default"])
def test_corpus_verify_export_matches_reference(tmp_path, key, params):
    spec = ExperimentSpec(checks=WORKLOADS.VERIFY_CHECKS, seed=0, threads=1,
                          params=params)
    path = tmp_path / "verify.json"
    export(verify(spec), "json", path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == REFERENCE["corpus-verify"]["seed0"][key]
