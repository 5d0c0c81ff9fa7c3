"""Tests of the benchmark itself, at the smoke size and a held-out seed.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced through ``run.py`` in
a subprocess, exactly as the benchmark is invoked, at seed 7 (the
goldens use 42) and the ``smoke`` size.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import passes  # noqa: E402
import studies  # noqa: E402

HELD_OUT_SEED = 7

#: Layer-metric prefixes that must read zero, per workload, because the
#: workload never calls those layers.
ZERO_PREFIXES = {
    "table1-mini": ("surrogate.", "tune.", "ctl.", "faults."),
    "d9-surrogate": ("ctl.", "faults."),
    "ctl-online": ("surrogate.", "tune."),
}
#: And the ones it exists to exercise, which must not.
NONZERO = {
    "table1-mini": ("sim.events", "iocontrol.sched_us_per_io", "core.host_build_ms"),
    "d9-surrogate": ("surrogate.fit_s", "warm.surrogate.fit_s",
                     "warm.surrogate.predict_ms_per_candidate", "tune.evaluations"),
    "ctl-online": ("ctl.us_per_sample", "ctl.actuations", "faults.us_per_io",
                   "obs.us_per_io"),
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    result = last_json(proc)
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, specs) -> None:
    assert list(result["metrics"]) == [name for name, _ in specs]
    for name, unit in specs:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)


@pytest.mark.parametrize("workload", sorted(studies.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench(workload, trace=0)
    assert_metrics(result, passes.END_TO_END)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["ok_rate"] == 1.0
    for name in ("wall_s", "warm_wall_s", "setup_s", "sim_ios_per_s", "peak_rss_mib"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("workload", sorted(studies.WORKLOADS))
def test_traced_run_reports_layers_and_zeros(workload):
    result = bench(workload, trace=1)
    assert_metrics(result, passes.PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["warm.exec.cache_hit_ratio"] == 1.0
    for name, value in metrics.items():
        layer_name = name.removeprefix("warm.")
        if layer_name.startswith(ZERO_PREFIXES[workload]):
            assert value == 0.0, name
    for name in NONZERO[workload]:
        assert metrics[name] > 0, name


@pytest.mark.parametrize("workload", sorted(studies.WORKLOADS))
def test_full_size_is_the_golden_settings(workload):
    spec = studies.WORKLOADS[workload]
    test = importlib.import_module(spec.golden_test)
    assert spec.settings(studies.GOLDEN_SEED, "full") == test.mini_settings()
    assert spec.golden_applies(test.mini_settings())
    assert not spec.golden_applies(spec.settings(HELD_OUT_SEED, "full"))


def test_table1_bench_size_is_full_size():
    spec = studies.WORKLOADS["table1-mini"]
    assert spec.settings(3, "bench") == spec.settings(3, "full")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(studies.WORKLOADS)
    for entry in doc["workloads"]:
        assert entry["why"] == studies.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(passes.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(passes.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "table1-mini", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_summary_digest_tracks_content_only():
    import copy
    import pickle

    from repro.core.d8_online import build_scenarios
    from repro.exec.summary import run_scenario_summary

    settings = studies.WORKLOADS["ctl-online"].settings(HELD_OUT_SEED, "smoke")
    summary = run_scenario_summary(build_scenarios(settings)[0][0])
    same = pickle.loads(pickle.dumps(summary))
    same.wall_seconds += 1.0
    assert passes.summary_digest(same) == passes.summary_digest(summary)
    changed = copy.deepcopy(summary)
    series = next(iter(changed.apps.values()))
    series.latencies[-1] = series.latencies[-1] + 1e-9
    assert passes.summary_digest(changed) != passes.summary_digest(summary)
    changed = copy.deepcopy(summary)
    changed.ctl_counters["steps"] = changed.ctl_counters.get("steps", 0.0) + 1
    assert passes.summary_digest(changed) != passes.summary_digest(summary)


class Base:
    def step(self, n):
        return n + 1


class Child(Base):
    def step(self, n):
        return super().step(n) * 2


def test_tracer_self_times_add_up_and_nesting_counts_once(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(layers.time, "perf_counter", lambda: float(next(ticks)))
    tracer = layers.Tracer()
    original_base, original_child = Base.step, Child.step
    Base.step = tracer.wrap("layer", original_base)
    Child.step = tracer.wrap("layer", original_child)
    root = tracer.wrap("root", lambda: Child().step(1))
    try:
        assert root() == 4  # root 0 .. 5, Child 1 .. 4, Base 2 .. 3
    finally:
        Base.step, Child.step = original_base, original_child
    assert tracer.depth == 0
    assert tracer.calls == {"root": 1, "layer": 1}
    assert tracer.self_s == {"root": 2.0, "layer": 3.0}


def test_instrumentation_wraps_and_restores_repro_bindings():
    from repro.exec import cachekey, executor
    from repro.workloads.generator import App

    before = (App.on_complete, executor.scenario_key, cachekey.scenario_key)
    tracer = layers.Tracer()
    with layers.Instrumentation(tracer) as instrumentation:
        assert App.on_complete is not before[0]
        assert executor.scenario_key is cachekey.scenario_key
        assert executor.scenario_key is not before[1]
        assert not instrumentation.missing
    assert (App.on_complete, executor.scenario_key, cachekey.scenario_key) == before


def test_kernel_ring_is_one_cycle_through_every_slot():
    ring = hostspeed._ring()
    seen = bytearray(len(ring))
    slot = 0
    for _ in range(len(ring)):
        seen[slot] = 1
        slot = ring[slot]
    assert slot == 0 and all(seen)


def test_probe_rescales_each_stretch_by_the_kernel_around_it():
    probe = hostspeed.SpeedProbe()
    probe.stretches = [(0.0, 1.0), (1.5, 2.5), (3.0, 4.0)]
    nominal = hostspeed.NOMINAL_S
    probe.samples = [2 * nominal, 2 * nominal]  # twice as slow as nominal
    assert probe.raw_seconds(0.0, 4.0) == pytest.approx(3.0)
    assert probe.ref_seconds(0.0, 4.0) == pytest.approx(1.5)
    # Kernel time (1.0 .. 1.5, 2.5 .. 3.0) is never program time.
    assert probe.raw_seconds(0.5, 3.5) == pytest.approx(2.0)
    assert probe.ref_seconds(0.5, 3.5) == pytest.approx(1.0)


def test_live_probe_leaves_kernel_time_out():
    start = time.perf_counter()
    with hostspeed.SpeedProbe() as probe:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.35:
            pass
        end = time.perf_counter()
    assert len(probe.samples) >= 2
    assert len(probe.stretches) == len(probe.samples) + 1
    kernel_s = sum(probe.samples)
    assert probe.raw_seconds(begin, end) == pytest.approx(end - begin - kernel_s, abs=0.01)
    assert probe.ref_seconds(begin, end) > 0
    assert time.perf_counter() - start < 5
