"""Core set: N cores behind one run queue, plus spin accounting.

On-core work (per-I/O submission/completion costs) goes through a
:class:`~repro.sim.resources.QueuedServer`; when the demanded rate exceeds
capacity, work queues up and app-visible latency inflates -- which is how
the CPU saturation effects of the paper's Fig. 3 emerge rather than being
scripted.

Spin time (busy-waiting on a contended scheduler dispatch lock) does not
occupy the run queue -- the waiter burns its own core -- so it is recorded
as a separate integral and folded into the reported utilization, exactly
the effect that makes MQ-DL/BFQ "require a full core per batch app"
(Fig. 4c/d).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator
from repro.sim.resources import QueuedServer


class CoreSet:
    """A pool of identical CPU cores shared by a set of apps."""

    def __init__(self, sim: Simulator, cores: int, name: str = "cpu"):
        if cores < 1:
            raise ValueError(f"core count must be >= 1, got {cores}")
        self.sim = sim
        self.cores = cores
        self.server = QueuedServer(sim, cores, name=name)
        self._spin_integral = 0.0

    def charge(self, cost_us: float, done: Callable[[], None]) -> None:
        """Run ``cost_us`` of work on some core, then call ``done``."""
        if cost_us <= 0:
            done()
            return
        self.server.submit(cost_us, done)

    def account_spin(self, spin_us: float) -> None:
        """Record lock busy-wait time (affects utilization, not the queue)."""
        if spin_us > 0:
            self._spin_integral += spin_us

    def is_saturated(self, backlog_threshold: int = 4) -> bool:
        """Heuristic saturation probe: a persistent run-queue backlog.

        Used by the io.cost model to decide when deferred-timer latency
        applies (paper O1: io.cost's latency overhead appears only past
        the CPU saturation point).
        """
        return self.server.queue_depth >= backlog_threshold

    # -- measurement window support ------------------------------------
    def snapshot(self) -> tuple[float, float, float]:
        """Opaque utilization checkpoint: pass to :meth:`utilization`."""
        return (self.server.busy_integral(), self._spin_integral, self.sim.now)

    def utilization(self, snapshot: tuple[float, float, float]) -> float:
        """Mean utilization (work + spin) since ``snapshot``, capped at 1."""
        busy0, spin0, t0 = snapshot
        now = self.sim.now
        if now <= t0:
            return 0.0
        span = (now - t0) * self.cores
        used = (self.server.busy_integral() - busy0) + (self._spin_integral - spin0)
        return min(1.0, used / span)

    def busy_time_us(self, snapshot: tuple[float, float, float]) -> float:
        """Core-microseconds of work+spin accumulated since ``snapshot``."""
        busy0, spin0, _ = snapshot
        return (self.server.busy_integral() - busy0) + (self._spin_integral - spin0)
