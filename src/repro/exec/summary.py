"""Compact, serializable scenario results.

:class:`ScenarioSummary` is the unit the sweep executor moves across
process boundaries and stores in the result cache. It carries the
windowed stats, CDFs, fairness inputs and CPU report that the Table I /
figure modules consume -- everything a :class:`~repro.core.runner.
ScenarioResult` offers except the live :class:`~repro.core.host.Host`
(event heap, controllers, tracer), which is deliberately and permanently
excluded: hosts hold closures over the simulator and do not pickle, and
a cached result must not pretend to offer live-object access.

The contract, enforced by unit tests:

* a summary round-trips unchanged through ``pickle`` and JSON;
* two runs of the same seeded scenario -- in-process or in a spawned
  worker -- produce summaries whose :meth:`ScenarioSummary.content_equal`
  is True (``wall_seconds`` is wall-clock noise and excluded);
* there is no ``host`` attribute, ever.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.cpu.accounting import CpuReport
from repro.iorequest import GIB
from repro.metrics.collector import AppWindowStats
from repro.metrics.fairness import weighted_jain_index
from repro.metrics.latency import cdf, summarize_latencies

#: Bump when the summary layout changes; folded into cache keys so stale
#: cache entries from older layouts can never be returned.
#: v2: added fault_counters (failure accounting under Scenario.faults).
#: v3: added ctl_counters (control-plane accounting under Scenario.ctl).
SUMMARY_SCHEMA_VERSION = 3


@dataclass
class AppSeries:
    """One app's full completion log (the collector's view, frozen)."""

    name: str
    cgroup_path: str
    times: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)


@dataclass
class ScenarioSummary:
    """Measurements of one scenario run, detached from the live host."""

    scenario_name: str
    knob_label: str
    seed: int
    num_devices: int
    cores: int
    device_scale: float
    t_start_us: float
    t_end_us: float
    apps: dict[str, AppSeries]
    cpu: CpuReport
    work_conservation_violation: float
    events_processed: int = 0
    # Failure accounting under Scenario.faults (retries, timeouts,
    # delivered failures, per-device injector counters); empty for
    # fault-free runs. Deterministic content: same seed + same plan
    # must reproduce it bit-identically.
    fault_counters: dict[str, float] = field(default_factory=dict)
    # Control-plane accounting under Scenario.ctl (plane steps, per-
    # controller applied/skipped and final-setting counters); empty for
    # uncontrolled runs. Deterministic content like fault_counters: the
    # plane runs on the sim clock, so same scenario -> same counters.
    ctl_counters: dict[str, float] = field(default_factory=dict)
    # Wall-clock diagnostics of the run that produced this summary; not
    # part of the deterministic content (see content_equal).
    wall_seconds: float = 0.0
    schema_version: int = SUMMARY_SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Windows and series (mirrors ScenarioResult / MetricsCollector)
    # ------------------------------------------------------------------
    @property
    def window_us(self) -> float:
        """Measurement-window length in microseconds."""
        return self.t_end_us - self.t_start_us

    @property
    def events_per_sec(self) -> float:
        """Simulator throughput of the producing run (wall-clock rate)."""
        return self.events_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def app_names(self) -> list[str]:
        """Sorted names of every app that completed at least one IO."""
        return sorted(self.apps)

    def cgroup_of(self, app_name: str) -> str:
        """The cgroup path the app ran in."""
        return self.apps[app_name].cgroup_path

    def series_of(self, app_name: str) -> tuple[list[float], list[int]]:
        """Completion series as ``(times_us, sizes_bytes)``."""
        series = self.apps[app_name]
        return series.times, series.sizes

    def window_latencies(self, app_name: str, t_start: float, t_end: float) -> list[float]:
        """Latencies of completions inside ``[t_start, t_end)``."""
        return self._scan_window(app_name, t_start, t_end)[2]

    def _scan_window(
        self, app_name: str, t_start: float, t_end: float
    ) -> tuple[int, int, list[float]]:
        """One pass over an app's log: ``(ios, bytes, latencies)`` in the window."""
        series = self.apps[app_name]
        total_bytes = 0
        ios = 0
        latencies: list[float] = []
        for time, lat, size in zip(series.times, series.latencies, series.sizes):
            if t_start <= time < t_end:
                total_bytes += size
                ios += 1
                latencies.append(lat)
        return ios, total_bytes, latencies

    def app_stats_window(self, app_name: str, t_start: float, t_end: float) -> AppWindowStats:
        """IOs/bytes/latency digest of one app over an arbitrary window."""
        ios, total_bytes, latencies = self._scan_window(app_name, t_start, t_end)
        return AppWindowStats(
            name=app_name,
            cgroup_path=self.apps[app_name].cgroup_path,
            ios=ios,
            bytes=total_bytes,
            window_us=t_end - t_start,
            latency=summarize_latencies(latencies) if latencies else None,
        )

    def app_stats(self, app_name: str) -> AppWindowStats:
        """:meth:`app_stats_window` over the full measurement window."""
        return self.app_stats_window(app_name, self.t_start_us, self.t_end_us)

    def all_app_stats(self) -> dict[str, AppWindowStats]:
        """Full-window stats for every app, keyed by name."""
        return {name: self.app_stats(name) for name in self.app_names()}

    def cgroup_stats(self) -> dict[str, AppWindowStats]:
        """Per-cgroup stats: member apps merged, latencies pooled.

        Each app's log is scanned once; latencies pool in app-name order.
        """
        groups: dict[str, list] = {}
        for name in self.app_names():
            ios, total_bytes, latencies = self._scan_window(
                name, self.t_start_us, self.t_end_us
            )
            group = groups.setdefault(self.apps[name].cgroup_path, [0, 0, []])
            group[0] += ios
            group[1] += total_bytes
            group[2].extend(latencies)
        return {
            path: AppWindowStats(
                name=path,
                cgroup_path=path,
                ios=ios,
                bytes=total_bytes,
                window_us=self.window_us,
                latency=summarize_latencies(latencies) if latencies else None,
            )
            for path, (ios, total_bytes, latencies) in groups.items()
        }

    def latency_cdf(self, app_name: str, points: int = 200):
        """Empirical latency CDF of one app over the full window."""
        samples = self.window_latencies(app_name, self.t_start_us, self.t_end_us)
        return cdf(samples, points=points)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_bytes(self, t_start: float, t_end: float) -> int:
        """Bytes completed by all apps inside the window."""
        return sum(
            self.app_stats_window(name, t_start, t_end).bytes for name in self.apps
        )

    @property
    def aggregate_bandwidth_gib_s(self) -> float:
        """All-app bandwidth over the measurement window, in GiB/s."""
        total = self.total_bytes(self.t_start_us, self.t_end_us)
        return total / GIB / (self.window_us / 1e6)

    @property
    def equivalent_bandwidth_gib_s(self) -> float:
        """Bandwidth rescaled to the unscaled device (x ``device_scale``)."""
        return self.aggregate_bandwidth_gib_s * self.device_scale

    def fairness(self, weights_by_group: dict[str, float] | None = None) -> float:
        """Weighted Jain fairness index over per-cgroup bandwidth."""
        groups = self.cgroup_stats()
        if not groups:
            raise ValueError("no completions in the measurement window")
        paths = sorted(groups)
        bandwidths = [groups[path].bytes / (self.window_us / 1e6) for path in paths]
        if weights_by_group is None:
            weights = [1.0] * len(paths)
        else:
            missing = [path for path in paths if path not in weights_by_group]
            if missing:
                raise ValueError(f"missing weights for groups: {missing}")
            weights = [weights_by_group[path] for path in paths]
        return weighted_jain_index(bandwidths, weights)

    def describe(self) -> str:
        """One-paragraph text summary (used by the CLI)."""
        lines = [
            f"scenario {self.scenario_name!r} "
            f"[knob={self.knob_label}, "
            f"{self.num_devices} SSD(s), {self.cores} cores]",
            f"  aggregate bandwidth: {self.aggregate_bandwidth_gib_s:.3f} GiB/s",
            f"  cpu: {self.cpu}",
            f"  engine: {self.events_processed:,} events in "
            f"{self.wall_seconds:.2f}s wall ({self.events_per_sec:,.0f} events/s)",
        ]
        for name, stats in sorted(self.all_app_stats().items()):
            latency = f", {stats.latency}" if stats.latency else ""
            lines.append(
                f"  app {name:<12s} {stats.bandwidth_mib_s:9.1f} MiB/s "
                f"({stats.iops:9.0f} IOPS){latency}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Equality and serialization
    # ------------------------------------------------------------------
    def content_dict(self) -> dict:
        """The deterministic content, excluding wall-clock noise."""
        doc = self.to_json_dict()
        doc.pop("wall_seconds", None)
        return doc

    def content_equal(self, other: "ScenarioSummary") -> bool:
        """Bit-identical deterministic content (ignores wall_seconds)."""
        return self.content_dict() == other.content_dict()

    def to_json_dict(self) -> dict:
        """Plain-dict form (JSON-serializable, nested dataclasses inlined)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioSummary":
        """Rebuild a summary from a :meth:`to_json_dict` document."""
        doc = dict(doc)
        doc["apps"] = {
            name: AppSeries(**series) for name, series in doc["apps"].items()
        }
        doc["cpu"] = CpuReport(**doc["cpu"])
        return cls(**doc)


def summarize(result) -> ScenarioSummary:
    """Distill a live :class:`~repro.core.runner.ScenarioResult`.

    Reads the collector's raw per-app logs (via the public series/window
    accessors), the CPU report and the engine counters; the host object
    itself is dropped here and never travels further.
    """
    scenario = result.scenario
    apps: dict[str, AppSeries] = {}
    for name in result.collector.app_names():
        times, latencies, sizes, ops = result.collector.full_log_of(name)
        apps[name] = AppSeries(
            name=name,
            cgroup_path=result.collector.cgroup_of(name),
            times=list(times),
            latencies=list(latencies),
            sizes=list(sizes),
            ops=list(ops),
        )
    return ScenarioSummary(
        scenario_name=scenario.name,
        knob_label=scenario.knob.label,
        seed=scenario.seed,
        num_devices=scenario.num_devices,
        cores=scenario.cores,
        device_scale=scenario.device_scale,
        t_start_us=result.t_start_us,
        t_end_us=result.t_end_us,
        apps=apps,
        cpu=result.cpu,
        work_conservation_violation=result.work_conservation_violation,
        events_processed=result.events_processed,
        fault_counters=dict(result.fault_counters),
        ctl_counters=dict(result.ctl_counters),
        wall_seconds=result.wall_seconds,
    )


def run_scenario_summary(scenario) -> ScenarioSummary:
    """Run one scenario and return its summary (the worker entry point)."""
    from repro.core.runner import run_scenario

    return summarize(run_scenario(scenario))
