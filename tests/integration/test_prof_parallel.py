"""Profiler vs the executor: bit-identity and cache/dedup bypass.

Profiling must not perturb results across the strictest process model
(spawned workers), and profiled scenarios must keep their own execution
-- a cache hit or an in-sweep dedup would skip the run that produces
the profile artifact.
"""

import pytest

from repro.core.config import MqDeadlineKnob, Scenario
from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.exec.summary import run_scenario_summary
from repro.prof import ProfConfig
from repro.workloads.apps import batch_app, lc_app


def tiny_scenario(prof=None, seed=7) -> Scenario:
    """Same shape as the unit-test scenario: fast, mixed pipeline."""
    return Scenario(
        name="prof-tiny",
        knob=MqDeadlineKnob(classes={"/t/a": "realtime"}),
        apps=[batch_app("a", "/t/a", queue_depth=8), lc_app("b", "/t/b")],
        duration_s=0.05,
        warmup_s=0.01,
        seed=seed,
        device_scale=16.0,
        prof=prof,
    )


def test_profiled_worker_run_bit_identical():
    """Serial unprofiled vs 2-worker-spawn profiled: same summary."""
    serial = run_scenario_summary(tiny_scenario())
    with SweepExecutor(max_workers=2) as executor:
        profiled, also_profiled = executor.run_strict(
            [tiny_scenario(prof=ProfConfig()), tiny_scenario(prof=ProfConfig())]
        )
    assert serial.content_equal(profiled)
    assert serial.content_equal(also_profiled)
    # Identical profiled submissions must NOT dedupe onto one run.
    assert executor.stats.deduped == 0
    assert executor.stats.executed == 2
    # Spawned workers report their busy time back to the coordinator.
    assert executor.stats.busy_seconds > 0
    assert 0 < executor.stats.utilization <= 1


def test_profiled_scenarios_bypass_cache(tmp_path):
    cache = ResultCache(tmp_path)
    with SweepExecutor(max_workers=1, cache=cache) as executor:
        executor.run_strict([tiny_scenario(prof=ProfConfig())])
        executor.run_strict([tiny_scenario(prof=ProfConfig())])
        assert executor.stats.executed == 2
        assert executor.stats.cached == 0
        assert cache.stats.stores == 0
        # The same scenario without prof caches normally.
        executor.run_strict([tiny_scenario()])
        executor.run_strict([tiny_scenario()])
        assert executor.stats.cached == 1


def test_serial_worker_accounting(tmp_path):
    with SweepExecutor(max_workers=1) as executor:
        executor.run_strict([tiny_scenario(seed=1), tiny_scenario(seed=2)])
    stats = executor.stats
    assert stats.busy_seconds > 0
    assert stats.elapsed_seconds >= stats.busy_seconds * 0.5
    assert stats.events_processed > 0
    # One serial worker: capacity is the sweep's own wall time.
    assert stats.utilization == pytest.approx(
        stats.busy_seconds / stats.elapsed_seconds
    )
    assert 0 < stats.utilization <= 1
    assert stats.idle_seconds == pytest.approx(
        stats.elapsed_seconds - stats.busy_seconds
    )
    # Utilization appears in the human-readable stats line.
    assert "util)" in str(stats)


def test_progress_reports_utilization():
    ticks = []
    with SweepExecutor(max_workers=1, progress=ticks.append) as executor:
        executor.run_strict([tiny_scenario(seed=1)])
    final = ticks[-1]
    assert final.workers == 1
    assert final.busy_seconds > 0
    assert 0 < final.utilization <= 1
    assert final.idle_seconds >= 0
    assert "util=" in str(final)
