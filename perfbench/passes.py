"""Cold and warm passes over one study, their checks and their metrics.

A pass calls the study's public entry point once with a serial
``SweepExecutor`` over a :class:`CheckedCache`. The cold pass starts
from an empty cache; a warm pass reruns the identical call against the
cache the cold pass filled and must execute nothing. Every check that
fails is recorded by name and counts as a failed operation; an
operation is one scenario submission.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import SpeedProbe
from layers import CHECK_LAYER, STUDY_LAYER, Instrumentation, Tracer
from repro.core.host import Host
from repro.exec import ResultCache, SweepExecutor

#: End-to-end metrics, printed with ``--trace 0``: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ios_per_s", "io/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_rate", "fraction"),
    ("claims_held", "count"),
)

#: Per-layer metrics of the cold traced pass: (name, unit).
COLD_LAYER_METRICS = (
    ("sim.events", "count"),
    ("sim.events_per_io", "count"),
    ("sim.self_us_per_io", "us"),
    ("workloads.us_per_io", "us"),
    ("iocontrol.throttle_us_per_io", "us"),
    ("iocontrol.sched_us_per_io", "us"),
    ("cpu.us_per_io", "us"),
    ("cpu.util", "fraction"),
    ("ssd.us_per_io", "us"),
    ("ssd.util", "fraction"),
    ("metrics.us_per_io", "us"),
    ("faults.us_per_io", "us"),
    ("obs.us_per_io", "us"),
    ("ctl.us_per_sample", "us"),
    ("ctl.actuations", "count"),
    ("core.host_build_ms", "ms"),
)

#: Per-layer metrics outside the event loop, reported for the cold
#: pass under their own name and for the warm pass as ``warm.<name>``.
PASS_LAYER_METRICS = (
    ("core.study_self_s", "s"),
    ("exec.run_self_s", "s"),
    ("exec.cachekey_us", "us"),
    ("exec.cache_get_ms", "ms"),
    ("exec.cache_put_ms", "ms"),
    ("exec.cache_hit_ratio", "fraction"),
    ("exec.summarize_ms", "ms"),
    ("exec.summary_stats_s", "s"),
    ("surrogate.corpus_s", "s"),
    ("surrogate.featurize_us", "us"),
    ("surrogate.fit_s", "s"),
    ("surrogate.predict_ms_per_candidate", "ms"),
    ("surrogate.verified_per_scored", "fraction"),
    ("tune.search_self_s", "s"),
    ("tune.score_ms", "ms"),
    ("tune.evaluations", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

PER_LAYER = (
    COLD_LAYER_METRICS
    + PASS_LAYER_METRICS
    + tuple((f"warm.{name}", unit) for name, unit in PASS_LAYER_METRICS)
)

#: Warm passes a run repeats at most while ``--seconds`` lasts.
MAX_WARM_PASSES = 50
#: Allowed gap between the layer self times and the traced wall.
SELF_TIME_TOLERANCE = 0.01


def _plain(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return str(value)


def summary_digest(summary) -> str:
    """SHA-256 of a summary's deterministic content (``content_dict``).

    Every field but ``wall_seconds`` is hashed; the completion logs are
    hashed as packed binary arrays, so equal digests mean bit-identical
    logs. Packing keeps the check cheap next to the pass it checks.
    """
    digest = hashlib.sha256()
    scalars = {
        f.name: getattr(summary, f.name)
        for f in dataclasses.fields(summary)
        if f.name not in ("apps", "wall_seconds")
    }
    digest.update(json.dumps(scalars, sort_keys=True, default=_plain).encode())
    for name in sorted(summary.apps):
        series = summary.apps[name]
        digest.update(json.dumps([name, series.name, series.cgroup_path]).encode())
        for typecode, values in (("d", series.times), ("d", series.latencies),
                                 ("q", series.sizes), ("q", series.ops)):
            digest.update(len(values).to_bytes(8, "little"))
            digest.update(array(typecode, values).tobytes())
    return digest.hexdigest()


def completed_ios(summary) -> int:
    """Simulated I/Os the scenario completed (successful ones)."""
    return sum(len(series.times) for series in summary.apps.values())


class CheckedCache(ResultCache):
    """A result cache that fingerprints what it stores and checks hits.

    ``expected`` maps cache keys to the digests a hit must have (the
    cold pass's, for a warm pass); by default a pass checks its own
    hits against what it stored earlier. Time spent checking is kept
    in ``check_s`` so the pass can leave it out of its wall time.
    """

    def __init__(self, root, expected=None, tracer: Tracer | None = None):
        super().__init__(root)
        self.stored: dict[str, str] = {}
        self.expected = self.stored if expected is None else expected
        self.mismatched: list[str] = []
        self.ios = 0
        self.events = 0
        self.check_s = 0.0
        self._digest = tracer.wrap(CHECK_LAYER, summary_digest) if tracer else summary_digest

    def put(self, key, summary, scenario=None) -> None:
        super().put(key, summary, scenario=scenario)
        start = time.perf_counter()
        self.stored[key] = self._digest(summary)
        self.ios += completed_ios(summary)
        self.events += summary.events_processed
        self.check_s += time.perf_counter() - start

    def get(self, key):
        hit = super().get(key)
        if hit is not None:
            start = time.perf_counter()
            if self._digest(hit) != self.expected.get(key):
                self.mismatched.append(key)
            self.check_s += time.perf_counter() - start
        return hit


@dataclass
class PassResult:
    """One call of the study function and what it did."""

    headline: object
    headline_text: str
    wall_s: float
    submitted: int
    executed: int
    sweep_errors: int
    cache: CheckedCache
    #: ``time.perf_counter()`` at the start and end of the call.
    started: float = 0.0
    ended: float = 0.0
    error: str | None = None

    def ref_wall_s(self, probe: SpeedProbe) -> float:
        """The pass's time without its checks, in reference seconds."""
        raw = probe.raw_seconds(self.started, self.ended)
        ref = probe.ref_seconds(self.started, self.ended)
        return _ratio((raw - self.cache.check_s) * ref, raw)


def run_pass(workload, settings, cache_dir: Path, expected=None, tracer=None) -> PassResult:
    """Call the study once over ``cache_dir``; time it without the checks."""
    cache = CheckedCache(cache_dir, expected=expected, tracer=tracer)
    study = tracer.wrap(STUDY_LAYER, workload.run) if tracer else workload.run
    headline, error = None, None
    # Start every pass from the same collector state, not from whatever
    # garbage the previous pass left behind.
    gc.collect()
    with SweepExecutor(max_workers=1, cache=cache) as executor:
        start = time.perf_counter()
        try:
            headline = study(settings, executor)
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        wall_s = end - start - cache.check_s
        stats = executor.stats
    text = workload.headline_text(headline) if headline is not None else ""
    return PassResult(
        headline=headline,
        headline_text=text,
        wall_s=wall_s,
        submitted=stats.executed + stats.cached + stats.deduped + stats.failed,
        executed=stats.executed,
        sweep_errors=stats.failed,
        cache=cache,
        started=start,
        ended=end,
        error=error,
    )


@dataclass
class Checks:
    """Named check failures plus the operation counts behind ok_rate."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, name: str, detail: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append(f"{name}: {detail}")

    def count_pass(self, result: PassResult, label: str) -> None:
        """Count a pass's submissions and check what it returned."""
        self.attempted += result.submitted
        if result.sweep_errors:
            self.fail(f"{label}-sweep-error", f"{result.sweep_errors} scenario(s)",
                      result.sweep_errors)
        if result.error is not None:
            self.fail(f"{label}-raised", result.error)
        if result.cache.mismatched:
            self.fail(
                f"{label}-summary-differs",
                f"{len(result.cache.mismatched)} cache hit(s) differ from the "
                "summary the cold pass stored",
                len(result.cache.mismatched),
            )

    def check_warm(self, warm: PassResult, cold: PassResult, label: str) -> None:
        """A warm pass executes nothing and reproduces the cold headline."""
        self.count_pass(warm, label)
        if warm.executed:
            self.fail(f"{label}-executed", f"{warm.executed} scenario(s) ran again")
        if warm.headline_text != cold.headline_text:
            self.fail(f"{label}-headline-differs", "headline differs from the cold pass")

    @property
    def correct(self) -> bool:
        return not self.failures


def check_golden(workload, settings, cold: PassResult, checks: Checks) -> bool:
    """Compare with the golden when the settings are the golden's."""
    if cold.headline is None or not workload.golden_applies(settings):
        return False
    try:
        workload.check_golden(cold.headline)
    except AssertionError as exc:
        checks.fail("golden-mismatch", f"{workload.golden_test}: {exc}")
    return True


class HostProbe:
    """Reads each finished ``Host``: events fired, simulated utilizations.

    It wraps ``Host.run`` without a span, so its few reads land in the
    enclosing span's self time.
    """

    def __init__(self) -> None:
        self.events = 0
        self.flash_busy_us = 0.0
        self.flash_capacity_us = 0.0
        self.cpu_busy_us = 0.0
        self.cpu_capacity_us = 0.0
        self.actuations = 0.0
        self._original = None

    def _record(self, host) -> None:
        now = host.sim.now
        self.events += host.sim.events_processed
        for device in host.devices.devices:
            self.flash_busy_us += device.flash.busy_integral()
            self.flash_capacity_us += now * device.model.parallelism
        self.cpu_busy_us += host.core_set.busy_time_us((0.0, 0.0, 0.0))
        self.cpu_capacity_us += now * host.core_set.cores
        self.actuations += sum(
            value for key, value in host.ctl_counters().items()
            if key.endswith(".applied")
        )

    def __enter__(self) -> "HostProbe":
        original = self._original = Host.run
        probe = self

        def run(host) -> None:
            original(host)
            probe._record(host)

        Host.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        Host.run = self._original


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class LayerTotals:
    """A frozen copy of the tracer's totals for one pass."""

    self_s: dict
    calls: dict
    items: dict
    wall_s: float

    @classmethod
    def take(cls, tracer: Tracer, wall_s: float) -> "LayerTotals":
        return cls(dict(tracer.self_s), dict(tracer.calls), dict(tracer.items), wall_s)

    def per_call(self, layer: str, scale: float) -> float:
        return _ratio(self.self_s.get(layer, 0.0) * scale, self.calls.get(layer, 0))

    def traced_s(self) -> float:
        """Self time of every layer but the benchmark's checks."""
        return sum(t for layer, t in self.self_s.items() if layer != CHECK_LAYER)


def _verified_per_scored(result: PassResult) -> float:
    rows = json.loads(result.headline_text or "{}").get("rows")
    if not isinstance(rows, dict):
        return 0.0
    scored = sum(row.get("scored", 0) for row in rows.values())
    verified = sum(row.get("verified", 0) for row in rows.values())
    return _ratio(verified, scored)


def pass_metrics(totals: LayerTotals, result: PassResult, untraced_wall: float) -> dict:
    """The :data:`PASS_LAYER_METRICS` of one traced pass."""
    stats = result.cache.stats
    return {
        "core.study_self_s": totals.self_s.get(STUDY_LAYER, 0.0),
        "exec.run_self_s": totals.self_s.get("exec.run", 0.0),
        "exec.cachekey_us": totals.per_call("exec.cachekey", 1e6),
        "exec.cache_get_ms": totals.per_call("exec.cache_get", 1e3),
        "exec.cache_put_ms": totals.per_call("exec.cache_put", 1e3),
        "exec.cache_hit_ratio": _ratio(stats.hits, stats.hits + stats.misses),
        "exec.summarize_ms": totals.per_call("exec.summarize", 1e3),
        "exec.summary_stats_s": totals.self_s.get("exec.summary_stats", 0.0),
        "surrogate.corpus_s": totals.self_s.get("surrogate.corpus", 0.0),
        "surrogate.featurize_us": totals.per_call("surrogate.featurize", 1e6),
        "surrogate.fit_s": totals.self_s.get("surrogate.fit", 0.0),
        "surrogate.predict_ms_per_candidate": _ratio(
            totals.self_s.get("surrogate.predict", 0.0) * 1e3,
            totals.items.get("surrogate.rank", 0),
        ),
        "surrogate.verified_per_scored": _verified_per_scored(result),
        "tune.search_self_s": totals.self_s.get("tune.search", 0.0),
        "tune.score_ms": totals.per_call("tune.score", 1e3),
        "tune.evaluations": float(totals.calls.get("tune.evaluate", 0)),
        "trace.wall_s": totals.wall_s,
        "trace.overhead_frac": _ratio(totals.wall_s - untraced_wall, untraced_wall),
    }


def cold_metrics(totals: LayerTotals, result: PassResult, probe: HostProbe) -> dict:
    """The :data:`COLD_LAYER_METRICS` of the cold traced pass."""
    ios = result.cache.ios

    def per_io(layer: str) -> float:
        return _ratio(totals.self_s.get(layer, 0.0) * 1e6, ios)

    return {
        "sim.events": float(probe.events),
        "sim.events_per_io": _ratio(probe.events, ios),
        "sim.self_us_per_io": per_io("sim"),
        "workloads.us_per_io": per_io("workloads"),
        "iocontrol.throttle_us_per_io": per_io("iocontrol.throttle"),
        "iocontrol.sched_us_per_io": per_io("iocontrol.sched"),
        "cpu.us_per_io": per_io("cpu"),
        "cpu.util": _ratio(probe.cpu_busy_us, probe.cpu_capacity_us),
        "ssd.us_per_io": per_io("ssd"),
        "ssd.util": _ratio(probe.flash_busy_us, probe.flash_capacity_us),
        "metrics.us_per_io": per_io("metrics"),
        "faults.us_per_io": per_io("faults"),
        "obs.us_per_io": per_io("obs"),
        "ctl.us_per_sample": totals.per_call("ctl", 1e6),
        "ctl.actuations": probe.actuations,
        "core.host_build_ms": totals.per_call("core.host_build", 1e3),
    }


def self_time_table(label: str, totals: LayerTotals) -> list[str]:
    """Text table of one traced pass: self time, share and calls per layer."""
    lines = [f"{label} traced pass: wall {totals.wall_s:.3f} s",
             f"  {'layer':<22} {'self_s':>10} {'share':>7} {'calls':>10}"]
    for layer, seconds in sorted(totals.self_s.items(), key=lambda kv: -kv[1]):
        share = _ratio(seconds, totals.wall_s) if layer != CHECK_LAYER else 0.0
        note = "  (checks, not in wall)" if layer == CHECK_LAYER else ""
        lines.append(
            f"  {layer:<22} {seconds:>10.4f} {share:>7.1%} "
            f"{totals.calls.get(layer, 0):>10}{note}"
        )
    return lines


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    checks: Checks
    metrics: dict
    notes: list[str]


def _warm_until(workload, settings, cache_dir, cold, deadline, checks) -> list[PassResult]:
    """Warm passes until the next one would end after ``deadline`` (at least one)."""
    warms: list[PassResult] = []
    while len(warms) < MAX_WARM_PASSES:
        start = time.perf_counter()
        warm = run_pass(workload, settings, cache_dir, expected=cold.cache.stored)
        checks.check_warm(warm, cold, "warm")
        warms.append(warm)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    return warms


def measure(workload, settings, work_dir: Path, seconds: float, setup_s: float) -> Outcome:
    """``--trace 0``: one cold pass, warm passes until ``seconds`` is up.

    Times are in reference seconds (:mod:`hostspeed`), so that the host's
    drift in speed between runs does not read as the program's.
    """
    checks = Checks()
    start = time.perf_counter()
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work_dir))
    with SpeedProbe() as probe:
        cold = run_pass(workload, settings, cache_dir)
        checks.count_pass(cold, "cold")
        warms = _warm_until(workload, settings, cache_dir, cold, start + seconds, checks)
    wall_s = cold.ref_wall_s(probe)
    warm_wall_s = statistics.median(w.ref_wall_s(probe) for w in warms)
    raw_cold_s = probe.raw_seconds(cold.started, cold.ended) - cold.cache.check_s
    raw_warm_s = statistics.median(
        probe.raw_seconds(w.started, w.ended) - w.cache.check_s for w in warms
    )
    notes = [f"cold pass: {cold.executed} executed of {cold.submitted} submitted, "
             f"{cold.cache.ios} simulated I/Os, {cold.cache.events} events",
             f"warm passes: {len(warms)}",
             f"host seconds (not rescaled): cold {raw_cold_s:.4f}, warm median {raw_warm_s:.4f}; "
             f"{len(probe.samples)} reference-kernel calls between stretches, median "
             f"{statistics.median(probe.samples or probe.edge) * 1e3:.3f} ms"]
    if check_golden(workload, settings, cold, checks):
        notes.append(f"golden compared: {workload.golden_test}")
    metrics = {
        "wall_s": wall_s,
        "warm_wall_s": warm_wall_s,
        "setup_s": setup_s,
        "sim_ios_per_s": _ratio(cold.cache.ios, wall_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - _ratio(checks.failed, checks.attempted),
        "claims_held": float(workload.claims(cold.headline)) if cold.headline else 0.0,
    }
    shutil.rmtree(cache_dir, ignore_errors=True)
    return Outcome(checks, metrics, notes)


def measure_traced(workload, settings, work_dir: Path) -> Outcome:
    """``--trace 1``: untraced cold+warm, then the same two passes traced."""
    checks = Checks()
    plain_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work_dir))
    cold = run_pass(workload, settings, plain_dir)
    checks.count_pass(cold, "cold")
    warm = run_pass(workload, settings, plain_dir, expected=cold.cache.stored)
    checks.check_warm(warm, cold, "warm")
    check_golden(workload, settings, cold, checks)

    tracer = Tracer()
    traced_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work_dir))
    with Instrumentation(tracer) as instrumentation, HostProbe() as probe:
        t_cold = run_pass(workload, settings, traced_dir, tracer=tracer)
        cold_totals = LayerTotals.take(tracer, t_cold.wall_s)
        open_spans = tracer.depth
        tracer.reset()
        t_warm = run_pass(workload, settings, traced_dir,
                          expected=t_cold.cache.stored, tracer=tracer)
        warm_totals = LayerTotals.take(tracer, t_warm.wall_s)
        open_spans += tracer.depth

    checks.count_pass(t_cold, "traced-cold")
    checks.check_warm(t_warm, t_cold, "traced-warm")
    if t_cold.cache.stored != cold.cache.stored:
        differing = sum(
            1 for key in set(cold.cache.stored) | set(t_cold.cache.stored)
            if cold.cache.stored.get(key) != t_cold.cache.stored.get(key)
        )
        checks.fail("traced-summary-differs",
                    f"{differing} summary(ies) differ from the untraced pass", differing)
    if t_cold.headline_text != cold.headline_text:
        checks.fail("traced-headline-differs", "headline differs from the untraced pass")
    if probe.events != t_cold.cache.events:
        checks.fail("sim-events-mismatch",
                    f"traced {probe.events} events, summaries report {t_cold.cache.events}")
    completions = cold_totals.calls.get("metrics", 0)
    if completions != t_cold.cache.ios:
        checks.fail("io-count-mismatch",
                    f"traced {completions} completions, summaries hold {t_cold.cache.ios}")
    if open_spans:
        checks.fail("open-spans", f"{open_spans} span(s) left open")
    for label, totals in (("cold", cold_totals), ("warm", warm_totals)):
        gap = abs(totals.traced_s() - totals.wall_s)
        if gap > SELF_TIME_TOLERANCE * totals.wall_s:
            checks.fail("self-time-sum",
                        f"{label}: layer self times {totals.traced_s():.4f} s vs "
                        f"traced wall {totals.wall_s:.4f} s")

    metrics = cold_metrics(cold_totals, t_cold, probe)
    metrics.update(pass_metrics(cold_totals, t_cold, cold.wall_s))
    warm_metrics = pass_metrics(warm_totals, t_warm, warm.wall_s)
    metrics.update({f"warm.{name}": value for name, value in warm_metrics.items()})

    notes = self_time_table("cold", cold_totals) + self_time_table("warm", warm_totals)
    notes.append(f"untraced wall: cold {cold.wall_s:.3f} s, warm {warm.wall_s:.3f} s")
    notes.append(f"wrapped entry points ({len(instrumentation.wrapped)}):")
    notes.extend(f"  {line}" for line in instrumentation.wrapped)
    if instrumentation.missing:
        notes.append("entry points absent from this revision (time falls to the caller):")
        notes.extend(f"  {target}" for target in instrumentation.missing)
    for path in (plain_dir, traced_dir):
        shutil.rmtree(path, ignore_errors=True)
    return Outcome(checks, metrics, notes)
