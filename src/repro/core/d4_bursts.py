"""D4: burst support (§VI-C, Q10).

A BE-app saturates the device; the priority app (LC or batch) arrives
mid-run as a burst. We measure the *response time*: how long after the
burst starts the I/O control delivers the priority app's objective --
steady-state bandwidth for a batch app, steady-state latency for an
LC-app. The paper's headline: io.cost/io.max/schedulers respond within
milliseconds, io.latency can take seconds because its 500 ms windows
halve the BE queue depth one step at a time (1024 -> 1 is ten windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cgroups.knobs import IoCostQosParams
from repro.core.config import (
    BfqKnob,
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    KnobConfig,
    MqDeadlineKnob,
    Scenario,
)
from repro.core.scenarios import (
    BE_GROUP,
    PRIORITY_GROUP,
    burst_specs,
    scaled_priority_qd,
)
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.exec.summary import ScenarioSummary
from repro.iorequest import KIB, OpType, Pattern
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like


@dataclass(frozen=True)
class BurstResponse:
    """Response-time measurement for one knob."""

    knob: str
    priority_kind: str
    response_ms: float | None  # None when the objective was never reached
    steady_metric: float
    bucket_ms: float

    @property
    def reached(self) -> bool:
        return self.response_ms is not None


def burst_knobs(
    ssd: SsdModel, priority_kind: str, lc_target_us: float = 400.0
) -> dict[str, KnobConfig]:
    """Prioritizing configurations per knob for the burst study."""
    saturation = ssd.saturation_bandwidth_bps(OpType.READ, Pattern.RANDOM, 4 * KIB)
    return {
        "mq-deadline": MqDeadlineKnob(
            classes={PRIORITY_GROUP: "realtime", BE_GROUP: "best-effort"}
        ),
        "bfq": BfqKnob(weights={PRIORITY_GROUP: 1000, BE_GROUP: 100}),
        "io.max": IoMaxKnob(limits={BE_GROUP: {"rbps": saturation * 0.3}}),
        "io.latency": IoLatencyKnob(targets_us={PRIORITY_GROUP: lc_target_us}),
        "io.cost": IoCostKnob(
            weights={PRIORITY_GROUP: 10000, BE_GROUP: 100},
            qos=IoCostQosParams(
                enable=True,
                ctrl="user",
                rpct=99.0,
                rlat_us=lc_target_us,
                vrate_min_pct=25.0,
                vrate_max_pct=100.0,
            ),
        ),
    }


def _bucketized(
    summary: ScenarioSummary,
    app_name: str,
    bucket_us: float,
    value: str,
) -> tuple[list[float], list[float]]:
    """Per-bucket (start_us, metric) for one app: 'mib_s' or 'mean_lat'."""
    log_times, log_sizes = summary.series_of(app_name)
    latencies = summary.window_latencies(app_name, 0.0, math.inf)
    end = summary.t_end_us
    n_buckets = max(1, int(end / bucket_us))
    sums = [0.0] * n_buckets
    counts = [0] * n_buckets
    for i, time_us in enumerate(log_times):
        if time_us >= n_buckets * bucket_us:
            continue
        bucket = int(time_us / bucket_us)
        counts[bucket] += 1
        sums[bucket] += log_sizes[i] if value == "mib_s" else latencies[i]
    starts = [i * bucket_us for i in range(n_buckets)]
    if value == "mib_s":
        values = [s / (1024.0 * 1024.0) / (bucket_us / 1e6) for s in sums]
    else:
        values = [
            s / c if c else math.inf for s, c in zip(sums, counts)
        ]
    return starts, values


def measure_burst_response(
    knob: KnobConfig,
    priority_kind: str,
    burst_start_s: float = 2.0,
    duration_s: float = 10.0,
    ssd: SsdModel | None = None,
    cores: int = 10,
    seed: int = 42,
    device_scale: float = 16.0,
    bucket_ms: float = 50.0,
    be_queue_depth: int = 256,
    settle_fraction: float = 0.7,
    executor: SweepExecutor | None = None,
) -> BurstResponse:
    """Run one burst scenario and locate the response time.

    The steady-state objective is measured over the last
    ``1 - settle_fraction`` of the run; the response time is the first
    bucket after the burst whose metric is within 20% of it (bandwidth)
    or below 1.3x it (latency).
    """
    ssd = ssd or samsung_980pro_like()
    burst_start_us = burst_start_s * 1e6
    specs = burst_specs(
        priority_kind,
        burst_start_us,
        be_queue_depth=be_queue_depth,
        priority_queue_depth=scaled_priority_qd(device_scale),
    )
    scenario = Scenario(
        name=f"d4-{knob.profile_name}-{priority_kind}",
        knob=knob,
        apps=specs,
        ssd_model=ssd,
        cores=cores,
        duration_s=duration_s,
        warmup_s=burst_start_s * 0.5,
        seed=seed,
        device_scale=device_scale,
    )
    summary = resolve_executor(executor).run_one(scenario)
    bucket_us = bucket_ms * 1e3
    value_kind = "mib_s" if priority_kind == "batch" else "mean_lat"
    starts, values = _bucketized(summary, "prio", bucket_us, value_kind)

    settle_from = burst_start_us + (duration_s * 1e6 - burst_start_us) * settle_fraction
    steady_samples = [
        v
        for t, v in zip(starts, values)
        if t >= settle_from and not math.isinf(v) and v > 0
    ]
    if not steady_samples:
        return BurstResponse(knob.profile_name, priority_kind, None, math.inf, bucket_ms)
    steady = sum(steady_samples) / len(steady_samples)

    response_ms = None
    for t, v in zip(starts, values):
        if t < burst_start_us:
            continue
        if value_kind == "mib_s" and v >= steady * 0.8:
            response_ms = (t + bucket_us - burst_start_us) / 1e3
            break
        if value_kind == "mean_lat" and v <= steady * 1.3:
            response_ms = (t + bucket_us - burst_start_us) / 1e3
            break
    return BurstResponse(knob.profile_name, priority_kind, response_ms, steady, bucket_ms)

