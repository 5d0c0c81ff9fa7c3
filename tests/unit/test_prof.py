"""Unit tests for the simulator self-profiler (repro.prof).

The contract under test:

* phase attribution maps callback code objects onto the pipeline
  taxonomy and the breakdown covers (>= 90% of) the loop wall-clock;
* profiling NEVER changes simulation results (bit-identical summary
  vs an unprofiled run);
* the exports load with their standard consumers (``pstats.Stats``,
  Chrome trace JSON).
"""

import json
import pstats

import pytest

from repro.core.config import MqDeadlineKnob, Scenario
from repro.core.runner import run_scenario
from repro.exec.summary import run_scenario_summary
from repro.obs import TraceConfig
from repro.prof import (
    ENGINE_POP,
    PHASES,
    ProfConfig,
    SimProfiler,
    format_phase_table,
    phase_of_code,
    write_chrome_trace,
    write_pstats,
)
from repro.prof.export import PROF_PID, chrome_profile_events
from repro.prof.phases import phase_of_filename, phase_of_server
from repro.workloads.apps import batch_app, lc_app


def tiny_scenario(prof=None, trace=None, seed=7) -> Scenario:
    """A fast mixed scenario touching dispatch, device and metrics."""
    return Scenario(
        name="prof-tiny",
        knob=MqDeadlineKnob(classes={"/t/a": "realtime"}),
        apps=[batch_app("a", "/t/a", queue_depth=8), lc_app("b", "/t/b")],
        duration_s=0.05,
        warmup_s=0.01,
        seed=seed,
        device_scale=16.0,
        prof=prof,
        trace=trace,
    )


class TestPhases:
    def test_fragment_mapping(self):
        assert phase_of_filename("/x/src/repro/iocontrol/dispatch.py") == "dispatch"
        assert phase_of_filename("/x/src/repro/iocontrol/iomax.py") == "throttle"
        assert phase_of_filename("/x/src/repro/ssd/device.py") == "device"
        assert phase_of_filename("/x/src/repro/sim/resources.py") == "device"
        assert phase_of_filename("/x/src/repro/faults/injector.py") == "faults"
        assert phase_of_filename("/home/user/random.py") == "other"

    def test_server_names(self):
        assert phase_of_server("cpu") == "cpu"
        assert phase_of_server("ssd0.flash") == "device"
        assert phase_of_server("ssd3.bus") == "device"

    def test_windows_paths_normalize(self):
        assert phase_of_filename("C:\\src\\repro\\metrics\\collector.py") == "metrics"

    def test_phase_of_code(self):
        assert phase_of_code(tiny_scenario.__code__) == "other"

    def test_every_fragment_phase_is_in_taxonomy(self):
        from repro.prof.phases import _FRAGMENT_PHASES

        assert {phase for _, phase in _FRAGMENT_PHASES} <= set(PHASES)


class TestProfiledRun:
    def test_profile_none_when_off(self):
        assert run_scenario(tiny_scenario()).profile is None

    def test_breakdown_covers_loop_wall(self):
        result = run_scenario(tiny_scenario(prof=ProfConfig()))
        profile = result.profile
        # The acceptance bar: phases must explain >= 90% of the loop.
        assert profile.coverage() >= 0.9
        assert profile.loop_wall_seconds > 0
        assert ENGINE_POP in profile.phase_wall
        assert set(profile.phase_wall) <= set(PHASES)
        # This scenario exercises the dispatch + device pipeline.
        assert profile.phase_wall["device"] > 0
        assert profile.phase_wall["dispatch"] > 0

    def test_server_completions_charged_to_owning_resource(self):
        profile = run_scenario(tiny_scenario(prof=ProfConfig())).profile
        assert profile.phase_wall["cpu"] > 0
        assert profile.phase_wall["device"] > 0
        # Attributed by module, all 1,203 QueuedServer completions plus
        # device callbacks of this scenario landed in ``device``; by
        # owning server they split between the core set and the device.
        events = profile.phase_events
        assert events["cpu"] + events["device"] == 1203

    def test_counters_match_engine(self):
        result = run_scenario(tiny_scenario(prof=ProfConfig()))
        profile = result.profile
        assert profile.counters["events.fired"] == result.events_processed
        assert profile.events_accounted == result.events_processed
        assert profile.counters["events.scheduled"] >= profile.counters["events.fired"]
        assert profile.counters["events.heap_peak"] >= 1

    def test_bit_identical_to_unprofiled_run(self):
        plain = run_scenario_summary(tiny_scenario())
        profiled = run_scenario_summary(tiny_scenario(prof=ProfConfig()))
        assert plain.content_equal(profiled)

    def test_profiled_and_traced_together(self):
        result = run_scenario(
            tiny_scenario(
                prof=ProfConfig(), trace=TraceConfig(sample_period_us=2_000.0)
            )
        )
        profile = result.profile
        assert result.trace is not None
        # The sampler's periodic emission fires as events -> obs phase.
        assert profile.phase_wall.get("obs", 0.0) > 0
        assert profile.counters["obs.spans"] == len(result.trace.spans)
        assert profile.counters["obs.samples"] == len(result.trace.samples)


class TestTimeline:
    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            ProfConfig(timeline_bucket_us=-1.0)

    def test_buckets_cover_run(self):
        result = run_scenario(
            tiny_scenario(prof=ProfConfig(timeline_bucket_us=10_000.0))
        )
        profile = result.profile
        assert profile.bucket_us == 10_000.0
        assert profile.buckets
        ends = [row["t_us"] for row in profile.buckets]
        assert ends == sorted(ends)
        for row in profile.buckets:
            assert row["t_us"] % 10_000.0 == 0.0
        bucketed = sum(
            wall
            for row in profile.buckets
            for key, wall in row.items()
            if key != "t_us"
        )
        callback_wall = sum(
            wall for key, wall in profile.phase_wall.items() if key != ENGINE_POP
        )
        assert bucketed == pytest.approx(callback_wall)


class TestExports:
    @pytest.fixture(scope="class")
    def profile(self):
        prof = SimProfiler()
        result = run_scenario(tiny_scenario(prof=ProfConfig()))
        del prof
        return result.profile

    def test_format_phase_table(self, profile):
        text = format_phase_table(profile)
        assert "loop total" in text
        assert ENGINE_POP in text
        assert "coverage" in text

    def test_pstats_roundtrip(self, profile, tmp_path):
        path = tmp_path / "profile.pstats"
        write_pstats(profile, str(path))
        stats = pstats.Stats(str(path))
        names = {name for (_, _, name) in stats.stats}
        assert "device" in names
        assert ENGINE_POP in names
        total_tt = sum(entry[2] for entry in stats.stats.values())
        assert total_tt == pytest.approx(sum(profile.phase_wall.values()))

    def test_chrome_trace_structure(self, profile, tmp_path):
        path = tmp_path / "profile.trace.json"
        write_chrome_trace(profile, str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(e["pid"] == PROF_PID for e in counters)
        assert {e["name"] for e in counters} == {
            f"prof.{phase}" for phase in profile.phase_wall
        }

    def test_chrome_trace_merges_obs_trace(self, tmp_path):
        result = run_scenario(
            tiny_scenario(prof=ProfConfig(), trace=TraceConfig(sample_period_us=0.0))
        )
        path = tmp_path / "merged.trace.json"
        write_chrome_trace(result.profile, str(path), trace=result.trace)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        prof_only = len(chrome_profile_events(result.profile))
        assert len(events) > prof_only  # request spans came along
        assert document["otherData"]["scenario"] == "prof-tiny"

    def test_json_dict_is_json_serializable(self, profile):
        encoded = json.dumps(profile.to_json_dict())
        decoded = json.loads(encoded)
        assert decoded["coverage"] == pytest.approx(profile.coverage())
