"""The simulated NVMe device: flash units in series with a data bus.

A request entering the device:

1. waits at the device boundary if ``nvme_max_qd`` requests are already in
   flight (the bound the paper's io.latency analysis depends on),
2. occupies one of ``parallelism`` flash units for its fixed access cost
   (noisy, op/pattern dependent, write-amplified under GC),
3. occupies the shared data bus for ``size / bus_bandwidth``,
4. completes.

Completions and byte counters feed the metrics layer; the device also
exposes idle-capacity probes used by the work-conservation metric.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from typing import Callable

from repro.iorequest import IoRequest, OpType
from repro.sim.engine import Simulator
from repro.sim.resources import QueuedServer
from repro.ssd.gc import GcState
from repro.ssd.model import SsdModel

CompletionFn = Callable[[IoRequest], None]


class SimulatedNvmeDevice:
    """One NVMe namespace backed by the parametric SSD model."""

    def __init__(
        self,
        sim: Simulator,
        model: SsdModel,
        rng: random.Random,
        index: int = 0,
        preconditioned: bool = False,
    ):
        self.sim = sim
        self.model = model
        self.rng = rng
        self.index = index
        self.flash = QueuedServer(sim, model.parallelism, name=f"ssd{index}.flash")
        self.bus = QueuedServer(sim, 1, name=f"ssd{index}.bus")
        self.gc = GcState(model, preconditioned=preconditioned)
        self._in_flight = 0
        self._boundary_queue: deque[tuple[IoRequest, CompletionFn]] = deque()
        # Lifetime counters (bytes moved, requests completed) per op.
        self.bytes_completed = {OpType.READ: 0, OpType.WRITE: 0}
        self.requests_completed = {OpType.READ: 0, OpType.WRITE: 0}
        self.requests_failed = {OpType.READ: 0, OpType.WRITE: 0}
        # Optional fault runtime (repro.faults.FaultInjector): rolls
        # per-request errors and scales service costs when attached.
        self.injector = None
        # Deterministic cost components memoized by (op, pattern) and
        # (op, size): workloads draw from a handful of size/pattern
        # combinations, so the model arithmetic runs once per distinct key.
        self._fixed_cost_cache: dict[tuple, float] = {}
        self._bus_plan_cache: dict[tuple, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def submit(self, req: IoRequest, done: CompletionFn) -> None:
        """Accept a request; ``done(req)`` fires at device completion."""
        if self._in_flight >= self.model.nvme_max_qd:
            self._boundary_queue.append((req, done))
        else:
            self._start(req, done)

    def _start(self, req: IoRequest, done: CompletionFn) -> None:
        req.device_start_time = self.sim.now
        self._in_flight += 1
        key = (req.op, req.pattern)
        fixed = self._fixed_cost_cache.get(key)
        if fixed is None:
            fixed = self._fixed_cost_cache[key] = self.model.fixed_cost_us(*key)
        flash_cost = fixed * self._noise()
        if req.op == OpType.WRITE:
            flash_cost = self.gc.amplify(flash_cost)
        injector = self.injector
        if injector is not None:
            error_cost = injector.roll_error(self.sim.now)
            if error_cost > 0.0:
                # The failing attempt still occupies a flash unit for its
                # abort/ECC-retry cost, then completes with the error flag
                # set — the host's RetryCoordinator takes it from there.
                self.flash.submit(error_cost, partial(self._finish_failed, req, done))
                return
            flash_cost *= injector.service_multiplier(req.op, self.sim.now)
        self.flash.submit(flash_cost, partial(self._bus_phase, req, done))

    def _bus_phase(self, req: IoRequest, done: CompletionFn) -> None:
        # Large transfers occupy the bus one segment at a time so small
        # requests can interleave (see SsdModel.bus_segment_bytes).
        key = (req.op, req.size)
        plan = self._bus_plan_cache.get(key)
        if plan is None:
            segments = max(1, -(-req.size // self.model.bus_segment_bytes))
            plan = self._bus_plan_cache[key] = (
                segments,
                self.model.bus_cost_us(req.op, req.size) / segments,
            )
        remaining_segments, per_segment_cost = plan
        if req.op == OpType.WRITE:
            per_segment_cost = self.gc.amplify(per_segment_cost)
        if self.injector is not None:
            # Slowdown windows are re-evaluated per phase: a window that
            # opens while a request sits in a flash queue still slows its
            # transfer phase.
            per_segment_cost *= self.injector.service_multiplier(req.op, self.sim.now)
        self._bus_segment(req, done, per_segment_cost, remaining_segments)

    def _bus_segment(
        self, req: IoRequest, done: CompletionFn, cost: float, remaining: int
    ) -> None:
        if remaining <= 0:
            self._finish(req, done)
            return
        self.bus.submit(
            cost, partial(self._bus_segment, req, done, cost, remaining - 1)
        )

    def _finish(self, req: IoRequest, done: CompletionFn) -> None:
        self._in_flight -= 1
        self.bytes_completed[req.op] += req.size
        self.requests_completed[req.op] += 1
        if req.op == OpType.WRITE:
            self.gc.on_write(req.size)
        if self._boundary_queue:
            next_req, next_done = self._boundary_queue.popleft()
            self._start(next_req, next_done)
        done(req)

    def _finish_failed(self, req: IoRequest, done: CompletionFn) -> None:
        """Complete an errored attempt: no data moved, no GC accounting."""
        self._in_flight -= 1
        self.requests_failed[req.op] += 1
        req.failed = True
        if self._boundary_queue:
            next_req, next_done = self._boundary_queue.popleft()
            self._start(next_req, next_done)
        done(req)

    def _noise(self) -> float:
        model = self.model
        if model.noise_tail_mean <= 0:
            return model.noise_base
        return model.noise_base + self.rng.expovariate(1.0 / model.noise_tail_mean)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently inside the device (past the QD boundary)."""
        return self._in_flight

    @property
    def boundary_queue_depth(self) -> int:
        """Requests waiting because the NVMe queue bound was reached."""
        return len(self._boundary_queue)

    def has_idle_capacity(self) -> bool:
        """True when at least one flash unit is idle.

        The paper adopts the strict work-conservation definition: requests
        pending anywhere while this returns True mean the I/O control is
        non-work-conserving at that moment.
        """
        return self.flash.busy < self.model.parallelism

    def snapshot(self) -> dict[str, float]:
        """Instantaneous device state for the periodic sampler.

        Cumulative byte/request counters are included so the sampled
        series differentiate into per-interval throughput, like io.stat.
        """
        return {
            "in_flight": float(self._in_flight),
            "boundary_queue": float(len(self._boundary_queue)),
            "flash_busy": float(self.flash.busy),
            "bus_busy": float(self.bus.busy),
            "rbytes": float(self.bytes_completed[OpType.READ]),
            "wbytes": float(self.bytes_completed[OpType.WRITE]),
            "rios": float(self.requests_completed[OpType.READ]),
            "wios": float(self.requests_completed[OpType.WRITE]),
            "rerrs": float(self.requests_failed[OpType.READ]),
            "werrs": float(self.requests_failed[OpType.WRITE]),
            "gc_waf": self.gc.write_amplification,
            "gc_amplified_bytes": float(self.gc.amplified_bytes),
        }
