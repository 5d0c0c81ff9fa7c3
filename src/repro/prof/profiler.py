"""The simulator self-profiler: phase timers and event counters.

The profiled event loop
(:meth:`repro.sim.engine.Simulator.run_until_profiled`) times every
fired callback and attributes it to a pipeline phase via
:func:`repro.prof.phases.phase_of_code`, memoized per code object.
Heap-pop and loop bookkeeping time lands in the synthetic
``engine.pop`` phase, so the per-phase wall-clock breakdown sums to
the measured loop wall-clock (the remainder is timer-read overhead).

The profiler is only ever constructed when ``Scenario.prof`` is set;
the un-profiled hot path never sees any of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prof.config import ProfConfig
from repro.prof.phases import ENGINE_POP, phase_of_filename


@dataclass
class SimProfile:
    """An immutable snapshot of everything one profiled run measured."""

    #: Wall-clock seconds per event-loop phase (includes ``engine.pop``).
    phase_wall: dict[str, float] = field(default_factory=dict)
    #: Fired-callback count per event-loop phase.
    phase_events: dict[str, int] = field(default_factory=dict)
    #: Allocation/event counters (events scheduled, fired, cancelled, …).
    counters: dict[str, float] = field(default_factory=dict)
    #: Total wall-clock seconds spent inside the profiled event loop.
    loop_wall_seconds: float = 0.0
    #: Per-phase wall-clock timeline buckets (empty unless configured).
    buckets: list[dict] = field(default_factory=list)
    #: Simulated-time width of each timeline bucket (0 = no timeline).
    bucket_us: float = 0.0

    @property
    def events_accounted(self) -> int:
        """Callbacks attributed to a phase (== events fired in the loop)."""
        return sum(self.phase_events.values())

    def coverage(self) -> float:
        """Fraction of loop wall-clock the phase breakdown accounts for.

        ~1.0 by construction (every gap lands in ``engine.pop``); the
        shortfall is the cost of reading the clock twice per event.
        """
        if self.loop_wall_seconds <= 0:
            return 0.0
        return sum(self.phase_wall.values()) / self.loop_wall_seconds

    def to_json_dict(self) -> dict:
        """Plain-dict form (JSON-serializable), as ``--prof-format json`` writes."""
        return {
            "phase_wall": dict(sorted(self.phase_wall.items())),
            "phase_events": dict(sorted(self.phase_events.items())),
            "counters": dict(sorted(self.counters.items())),
            "loop_wall_seconds": self.loop_wall_seconds,
            "coverage": self.coverage(),
            "bucket_us": self.bucket_us,
            "buckets": [dict(bucket) for bucket in self.buckets],
        }


class SimProfiler:
    """Accumulates phase timings and counters for one scenario run.

    The profiled event loop writes straight into :attr:`phase_wall` /
    :attr:`phase_events` / :attr:`_phase_cache` (hot-path dicts exposed
    as attributes on purpose); everything else goes through methods.
    """

    def __init__(self, config: ProfConfig | None = None):
        self.config = config or ProfConfig()
        self.phase_wall: dict[str, float] = {ENGINE_POP: 0.0}
        self.phase_events: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.loop_wall_seconds = 0.0
        self.bucket_us = self.config.timeline_bucket_us
        self.buckets: list[dict] = []
        self._bucket_end = self.bucket_us
        self._bucket_acc: dict[str, float] = {}
        self._phase_cache: dict = {}

    # ------------------------------------------------------------------
    # Event-loop side (called from Simulator.run_until_profiled)
    # ------------------------------------------------------------------
    def resolve_phase(self, fn) -> str:
        """Phase of a callback, memoized per code object."""
        code = getattr(fn, "__code__", None)
        phase = self._phase_cache.get(code)
        if phase is None:
            phase = (
                phase_of_filename(code.co_filename)
                if code is not None
                else "other"
            )
            self._phase_cache[code] = phase
        return phase

    def bucket_add(self, t_us: float, phase: str, wall: float) -> None:
        """Charge ``wall`` seconds to the timeline bucket holding ``t_us``."""
        while t_us >= self._bucket_end:
            self._flush_bucket()
        acc = self._bucket_acc
        acc[phase] = acc.get(phase, 0.0) + wall

    def _flush_bucket(self) -> None:
        """Close the current timeline bucket and open the next one."""
        if self._bucket_acc:
            row = {"t_us": self._bucket_end}
            row.update(self._bucket_acc)
            self.buckets.append(row)
            self._bucket_acc = {}
        self._bucket_end += self.bucket_us

    def note_engine(self, sim) -> None:
        """Record engine allocation/event counters after a loop run."""
        self.counters["events.scheduled"] = float(sim._seq)
        self.counters["events.fired"] = float(sim.events_processed)
        self.counters["events.cancelled"] = float(sim._cancelled_total)
        self.counters["events.pending"] = float(sim.pending_events())

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def profile(self) -> SimProfile:
        """Snapshot the accumulated measurements."""
        if self._bucket_acc:
            self._flush_bucket()
        return SimProfile(
            phase_wall=dict(self.phase_wall),
            phase_events=dict(self.phase_events),
            counters=dict(self.counters),
            loop_wall_seconds=self.loop_wall_seconds,
            buckets=[dict(bucket) for bucket in self.buckets],
            bucket_us=self.bucket_us,
        )
