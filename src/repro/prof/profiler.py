"""The simulator self-profiler: phase timers and event counters.

The engine has one event loop per core and knows nothing of profiling.
:meth:`SimProfiler.attach` instead gives one simulator an instance-level
``schedule`` that wraps every callback in a timing closure, so each
fired callback charges its wall-clock time to a pipeline phase (see
:mod:`repro.prof.phases`). The phase is resolved once, when the event
is scheduled, and memoized per callback code object; ``QueuedServer``
completions are resolved by the server they belong to instead, so CPU
core service lands in ``cpu`` and flash/bus service in ``device``.
:meth:`SimProfiler.run_until` times the ordinary ``sim.run_until`` and
charges whatever the callbacks did not take (heap pops, loop
bookkeeping, the closures themselves) to the synthetic ``engine.pop``
phase, so the per-phase breakdown sums to the measured loop wall-clock.

The profiler is only ever constructed when ``Scenario.prof`` is set;
the un-profiled hot path never sees any of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from types import CodeType

from repro.prof.config import ProfConfig
from repro.prof.phases import ENGINE_POP, phase_of_code, phase_of_server
from repro.sim.resources import QueuedServer

#: Code object of the completion closure ``QueuedServer`` schedules, and
#: the index of its closure cell holding the server itself.
_SERVER_DONE = next(
    const
    for const in QueuedServer._start.__code__.co_consts
    if isinstance(const, CodeType)
)
_SERVER_CELL = _SERVER_DONE.co_freevars.index("self")


@dataclass
class SimProfile:
    """An immutable snapshot of everything one profiled run measured."""

    #: Wall-clock seconds per event-loop phase (includes ``engine.pop``).
    phase_wall: dict[str, float] = field(default_factory=dict)
    #: Fired-callback count per event-loop phase.
    phase_events: dict[str, int] = field(default_factory=dict)
    #: Allocation/event counters (events scheduled, fired, cancelled, …).
    counters: dict[str, float] = field(default_factory=dict)
    #: Total wall-clock seconds spent inside the event loop.
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

        1.0 by construction: ``engine.pop`` is defined as the loop wall
        minus the callback wall.
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


def _phase_of_key(key) -> str:
    """Phase of a record key: a ``QueuedServer`` or a code object."""
    if isinstance(key, QueuedServer):
        return phase_of_server(key.name)
    return phase_of_code(key) if key is not None else "other"


class SimProfiler:
    """Accumulates phase timings and counters for one scenario run."""

    def __init__(self, config: ProfConfig | None = None):
        self.config = config or ProfConfig()
        self.counters: dict[str, float] = {"events.heap_peak": 0.0}
        self.loop_wall_seconds = 0.0
        self._pop_wall = 0.0
        self.bucket_us = self.config.timeline_bucket_us
        self.buckets: list[dict] = []
        self._bucket_end = self.bucket_us
        self._bucket_acc: dict[str, float] = {}
        # Callback wall seconds and count per code object (per server
        # for QueuedServer completions): key -> [wall, count, phase].
        self._records: dict = {}

    # ------------------------------------------------------------------
    # Event-loop side
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Time every callback ``sim`` fires from now on.

        Call before anything schedules on ``sim``: events scheduled
        earlier fire untimed. Sets an instance-level ``schedule`` that
        hands the class ``schedule`` a timing closure around ``fn``;
        the firing order is untouched, so results stay bit-identical.
        """
        plain = type(sim).schedule
        records = self._records
        counters = self.counters
        bucket_add = self.bucket_add if self.bucket_us else None
        perf = perf_counter

        def schedule(delay_us, fn):
            code = getattr(fn, "__code__", None)
            key = (
                fn.__closure__[_SERVER_CELL].cell_contents
                if code is _SERVER_DONE
                else code
            )
            rec = records.get(key)
            if rec is None:
                rec = records[key] = [0.0, 0, _phase_of_key(key)]

            def timed():
                t0 = perf()
                fn()
                elapsed = perf() - t0
                rec[0] += elapsed
                rec[1] += 1
                if bucket_add is not None:
                    bucket_add(sim.now, rec[2], elapsed)

            entry = plain(sim, delay_us, timed)
            # Stored entries, cancelled-but-unpopped included, on either core.
            stored = (
                sim.pending_events() + sim._cancelled_total - sim._cancelled_popped
            )
            if stored > counters["events.heap_peak"]:
                counters["events.heap_peak"] = float(stored)
            return entry

        sim.schedule = schedule

    def run_until(self, sim, end_time_us: float) -> None:
        """``sim.run_until(end_time_us)``, timed and charged to phases."""
        callback_wall = self._callback_wall()
        start = perf_counter()
        sim.run_until(end_time_us)
        loop_wall = perf_counter() - start
        self.loop_wall_seconds += loop_wall
        self._pop_wall += loop_wall - (self._callback_wall() - callback_wall)
        self.note_engine(sim)

    def _callback_wall(self) -> float:
        """Wall seconds spent inside timed callbacks so far."""
        return sum(rec[0] for rec in self._records.values())

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
        phase_wall = {ENGINE_POP: self._pop_wall}
        phase_events: dict[str, int] = {}
        for wall, count, phase in self._records.values():
            if count:
                phase_wall[phase] = phase_wall.get(phase, 0.0) + wall
                phase_events[phase] = phase_events.get(phase, 0) + count
        return SimProfile(
            phase_wall=phase_wall,
            phase_events=phase_events,
            counters=dict(self.counters),
            loop_wall_seconds=self.loop_wall_seconds,
            buckets=[dict(bucket) for bucket in self.buckets],
            bucket_us=self.bucket_us,
        )
