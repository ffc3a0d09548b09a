"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.bootstrap()

import replay  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _measured(name, tmp_path, trace=False):
    return run.measure(name, 7, 0.5, trace, str(tmp_path), smoke=True)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(name, trace, tmp_path):
    result, details = _measured(name, tmp_path, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert details["solves"]
    if trace:
        assert result["metrics"]["bench.replay.match_frac"]["value"] == 1.0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_replay_flags_a_perturbed_step(tmp_path):
    workload = workloads.make("ref", 7, str(tmp_path), smoke=True)
    workload.setup()
    workload.measure(0.0)
    record = next(r for r in workload.records.values() if r.variant == "sskm-exact")
    assert replay.replay(record, replay.Spans())
    record.step[0] = np.nextafter(record.step[0], np.inf)
    assert not replay.replay(record, replay.Spans())


def test_ok_frac_drops_when_a_check_fails(tmp_path):
    # an independent MSE that disagrees with the trace fails every solve's check
    with workloads.patched(workloads.sk, "mse", lambda x, x_hat: 2.0):
        result, _ = _measured("ref", tmp_path)
    # every full solve fails; the prefix solves and the theory reports do not check the MSE
    sizes = workloads.SMOKE_SIZES["ref"]
    full_solves = sizes.pool * 4 + sizes.rk_pool
    assert not result["correct"] and result["failed"] >= full_solves
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["metrics"]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(layer_map) == {m["name"] for m in BENCHMARK["per_layer"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e and set(entry["on"]) <= names


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
