"""The benchmark's own tests: contract, smoke runs, and trace hygiene.

Run from the root of the checkout with ``python3 -m pytest perfbench/tests``.
The smoke runs take about a minute and a half in all.
"""

import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import grid
import run
from common import ROOT
from layers import LayerTracer, layer_metrics, profile
from speed import Calibration, usable_cpus

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(tmp_root),
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", list(run.WHY))
def test_smoke_run(workload):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "grid-warm", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _small_specs():
    from repro.core.runner import ExperimentSpec

    return [
        ExperimentSpec(systems=("BV", "GL-S-R-I", "HD", "BB"), workloads=(w,),
                       datasets=("twitter", "wrn"), cluster_sizes=(16,),
                       dataset_size="tiny")
        for w in ("pagerank", "sssp")
    ]


def _namespace_snapshot():
    """Identity of every attribute of every repro module and class."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for key, member in list(vars(value).items()):
                    snap[(name, attr, key)] = id(member)
    return snap


def test_traced_run_leaves_results_alone_and_unwraps(tmp_path):
    specs = _small_specs()
    plain, _ = grid.run_pass(specs, 1, tmp_path / "plain")
    tracer = LayerTracer()
    before = _namespace_snapshot()
    traced, wall = grid.run_pass(specs, 1, tmp_path / "traced", tracer)

    assert plain.grid.same_results(traced.grid)
    assert grid.compare_to(traced, grid.baseline_of(plain.results)) == []
    # every wrapper is gone: each module and class holds its original again
    assert not tracer.installed and tracer.patched_targets() == []
    after = _namespace_snapshot()
    assert {k: v for k, v in after.items() if k in before} == before

    metrics = layer_metrics([profile(tracer, wall, traced.report.cache_hits,
                                     traced.report.executed)])
    for layer in ("partitioning", "cluster", "engines", "workloads"):
        assert metrics[f"{layer}.self_s"] > 0
    assert metrics["engines.supersteps"] == sum(r.iterations for r in traced.results)
    assert 0.5 < metrics["trace.attributed_frac"] <= 1.0


_BURN = "import numpy as np\na = np.random.rand(2_000_000)\nfor _ in range(12): a = np.sort(a)[::-1].copy()"


def test_speed_unit_does_not_see_the_measured_load(tmp_path):
    """The unit is calibrated between stretches of work, so work that loads
    every CPU is adjusted like work that loads none, and a grid pass has
    reaped its pool workers before the caller calibrates."""
    speed = Calibration(usable_cpus())
    idle, loaded = [], []
    for _ in range(3):
        subprocess.run([sys.executable, "-c", "import time; time.sleep(0.5)"], check=True)
        idle.append(speed.scale())
        burners = [subprocess.Popen([sys.executable, "-c", _BURN],
                                    preexec_fn=lambda c=cpu: os.sched_setaffinity(0, {c}))
                   for cpu in usable_cpus()]
        for burner in burners:
            assert burner.wait(timeout=60) == 0
        loaded.append(speed.scale())
    assert statistics.median(loaded) == pytest.approx(statistics.median(idle), rel=0.2)

    grid.run_pass(_small_specs(), 2, tmp_path / "cache")
    assert multiprocessing.active_children() == []


def test_self_time_subtracts_children():
    tracer = LayerTracer()
    outer = ["engines", "run", 0.0, 10.0, None]
    inner = ["partitioning", "p", 2.0, 5.0, outer]
    leaf = ["cluster", "c", 3.0, 4.0, inner]
    tracer.spans.extend([outer, inner, leaf])
    layer_self, calls, _ = tracer.self_times()
    assert layer_self == {"engines": 7.0, "partitioning": 2.0, "cluster": 1.0}
    assert calls == {"engines": 1, "partitioning": 1, "cluster": 1}
    assert tracer.covered_seconds() == 10.0
