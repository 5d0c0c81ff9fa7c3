"""The I/O request record shared across the whole pipeline.

A request is created by an app, timestamped as it traverses the stack
(submit -> cgroup throttling -> scheduler -> device -> completion), and
finally handed to the metrics layer. ``__slots__`` keeps the hot path
allocation-light: a 60-second scenario creates millions of these.
"""

from __future__ import annotations

import enum


class OpType(enum.IntEnum):
    """Request direction."""

    READ = 0
    WRITE = 1


class Pattern(enum.IntEnum):
    """Access pattern of the issuing job (per-job, like fio's readwrite=)."""

    RANDOM = 0
    SEQUENTIAL = 1


KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


class IoRequest:
    """One block I/O request flowing through the simulated stack.

    Timestamps (microseconds, simulated clock):

    * ``submit_time`` -- the app issued the request (clock starts for
      app-visible latency).
    * ``queued_time`` -- admitted past cgroup throttling into the scheduler.
    * ``dispatch_time`` -- dispatched from the scheduler to the device.
    * ``device_start_time`` -- entered device service (past the NVMe
      queue-depth boundary); ``device_start_time - dispatch_time`` is the
      boundary wait.
    * ``complete_time`` -- device completion reached the app.
    """

    __slots__ = (
        "app_name",
        "cgroup_path",
        "op",
        "pattern",
        "size",
        "device_index",
        "prio_class",
        "submit_time",
        "queued_time",
        "dispatch_time",
        "device_start_time",
        "complete_time",
        "abs_cost",
        "attempts",
        "failed",
        "abandoned",
        "timeout_event",
    )

    def __init__(
        self,
        app_name: str,
        cgroup_path: str,
        op: OpType,
        pattern: Pattern,
        size: int,
        device_index: int = 0,
        prio_class: int = 0,
    ):
        self.app_name = app_name
        self.cgroup_path = cgroup_path
        self.op = op
        self.pattern = pattern
        self.size = size
        self.device_index = device_index
        self.prio_class = prio_class
        self.submit_time = 0.0
        self.queued_time = 0.0
        self.dispatch_time = 0.0
        self.device_start_time = 0.0
        self.complete_time = 0.0
        # Filled in by the io.cost controller: the request's absolute cost
        # in device-microseconds according to the configured io.cost.model.
        self.abs_cost = 0.0
        # Fault-injection state (see repro.faults.retry): attempt number
        # of the current submission, device-error flag for this attempt,
        # watchdog-abandoned flag (completion will be dropped as stale)
        # and the armed watchdog event handle, if any.
        self.attempts = 1
        self.failed = False
        self.abandoned = False
        self.timeout_event = None

    def clone_for_retry(self) -> "IoRequest":
        """A fresh attempt replacing a watchdog-abandoned submission.

        The clone keeps ``submit_time`` (app-visible latency spans every
        attempt) and the attempt count of the abandoned original; stack
        timestamps reset as the clone re-enters the block layer.
        """
        clone = IoRequest(
            self.app_name,
            self.cgroup_path,
            self.op,
            self.pattern,
            self.size,
            self.device_index,
            self.prio_class,
        )
        clone.submit_time = self.submit_time
        clone.attempts = self.attempts
        return clone

    @property
    def latency_us(self) -> float:
        """App-visible completion latency."""
        return self.complete_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IoRequest({self.app_name}, {self.op.name}, {self.pattern.name}, "
            f"{self.size}B, dev={self.device_index})"
        )
