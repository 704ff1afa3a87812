"""Tests for the benchmark itself, at the ``tiny`` input size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.measure import END_TO_END, end_to_end_metrics, run_benchmark
from perfbench.workloads import (
    SIZES,
    WORKLOADS,
    PassResult,
    pinned_configuration,
)
from repro.kernels import backend_name
from repro.kernels.profile import profiling_enabled
from repro.kernels.tick import fused_enabled, reset_fusion_override

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_run():
    """One tiny run per (workload, seed, trace), shared by the tests."""
    cache: dict = {}

    def run(workload: str, seed: int = 3, trace: bool = False):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = run_benchmark(
                workload, seed=seed, seconds=0.0, trace=trace,
                size="tiny", out_dir=None,
            )
        return cache[key]

    return run


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END
    )


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(
    tiny_run, workload, trace
):
    line, artifact = tiny_run(workload, trace=trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert line["correct"], artifact["outputs"]["checks"]
    assert line["attempted"] >= 1 and line["failed"] == 0


def test_same_seed_reproduces_the_output_digest(tiny_run):
    _, first = tiny_run("synth-1p", seed=3)
    _, again = run_benchmark(
        "synth-1p", seed=3, seconds=0.0, size="tiny", out_dir=None
    )
    assert again["outputs"]["digest"] == first["outputs"]["digest"]
    assert again["inputs"]["digest"] == first["inputs"]["digest"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_different_seed_gives_different_inputs(workload):
    digests = []
    for seed in (3, 4):
        wl = WORKLOADS[workload](seed, SIZES["tiny"])
        wl.build_inputs()
        digests.append(wl.inputs_digest())
    assert digests[0] != digests[1]


def test_traced_self_times_sum_to_traced_wall(tiny_run):
    line, _ = tiny_run("churn-mix", trace=True)
    metrics = line["metrics"]
    total = sum(
        v["value"] for k, v in metrics.items()
        if k.startswith("self_us_per_frame.")
    )
    assert total == pytest.approx(metrics["traced_us_per_frame"]["value"])


def test_timings_are_divided_by_the_host_slowdown():
    class Probe:
        def __init__(self, slowdown):
            self.slowdown = lambda: slowdown
            self.typical_slowdown = lambda: 3 * slowdown

    passes = [
        PassResult(wall_s=1.0, offered=4, served=4, admits=1, refused=0,
                   latencies_s=np.full(4, 1e-3), digest="", accounted=True,
                   marks=[0.0, 0.5, 1.0])
    ]
    base = end_to_end_metrics(passes, [0.3], 1.0, Probe(1.0))
    slow = end_to_end_metrics(passes, [0.3], 1.0, Probe(2.0))
    assert slow["fps"] == pytest.approx(2 * base["fps"])
    for name in ("frame_p50_ms", "frame_p99_ms", "setup_s"):
        assert slow[name] == pytest.approx(base[name] / 2)
    assert base["setup_s"] == pytest.approx(0.1)
    assert slow["peak_alloc_mb"] == base["peak_alloc_mb"]


def test_pinning_restores_the_callers_configuration(monkeypatch):
    def current():
        return backend_name(), fused_enabled(), profiling_enabled()

    try:
        monkeypatch.setenv("REPRO_FUSED", "0")
        monkeypatch.setenv("REPRO_PROFILE", "1")
        reset_fusion_override()
        before = current()
        with pinned_configuration() as overridden:
            assert current() == ("numpy", True, False)
        assert current() == before
        assert overridden["REPRO_FUSED"] == "0"
        assert overridden["REPRO_PROFILE"] == "1"
    finally:
        monkeypatch.undo()
        reset_fusion_override()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-1p",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
