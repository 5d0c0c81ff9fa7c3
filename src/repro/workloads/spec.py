"""Job specifications (the equivalent of an fio job file)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.iorequest import KIB, Pattern


@dataclass(frozen=True)
class ActivityWindow:
    """One contiguous interval during which a job issues I/O."""

    start_us: float
    stop_us: float = math.inf

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("window start must be >= 0")
        if self.stop_us <= self.start_us:
            raise ValueError("window stop must be after start")


@dataclass(frozen=True)
class ArrivalPhase:
    """One interval of an open-loop job's time-varying arrival rate.

    A phased job is the open-loop Poisson generator with a piecewise-
    constant rate: inside ``[start_us, stop_us)`` arrivals come at
    ``rate_iops``. Phases are the raw material of the :mod:`repro.
    workloads.patterns` builders (diurnal ramps, flash crowds) that the
    D8 online-control study stresses static configurations with.
    """

    start_us: float
    stop_us: float
    rate_iops: float

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("phase start must be >= 0")
        if self.stop_us <= self.start_us:
            raise ValueError("phase stop must be after start")
        if self.rate_iops <= 0:
            raise ValueError("phase arrival rate must be positive")


@dataclass(frozen=True)
class JobSpec:
    """A single app's workload definition.

    ``read_fraction`` is the probability each request is a read (1.0 for
    read-only jobs). ``rate_limit_bps`` caps the job's own issue rate,
    like fio's ``rate=`` (used in the Fig. 2 examples where each app is
    limited to 1.5 GiB/s). ``windows`` is the activity timeline; jobs
    default to always-on.
    """

    name: str
    cgroup_path: str
    size: int = 4 * KIB
    pattern: Pattern = Pattern.RANDOM
    read_fraction: float = 1.0
    queue_depth: int = 1
    rate_limit_bps: float | None = None
    windows: tuple[ActivityWindow, ...] = (ActivityWindow(0.0),)
    # Free-form archetype tag ("lc", "batch", "be") used by reports.
    app_class: str = "be"
    # Direct I/O (the paper's setting) bypasses the page cache; buffered
    # jobs go through repro.fs.pagecache (§VII future-work extension).
    direct: bool = True
    # Open-loop mode: when set, requests arrive as a Poisson process at
    # this rate (IOPS) regardless of completions -- the arrival model
    # behind "bursty apps" (D4). ``queue_depth`` is ignored; backlog can
    # grow without bound under overload, as in real open-loop clients.
    arrival_rate_iops: float | None = None
    # Time-varying open-loop arrivals: a sorted, non-overlapping phase
    # timeline replacing the single ``arrival_rate_iops`` constant (the
    # two are mutually exclusive). Phase times are raw simulated
    # microseconds, same convention as ``windows``.
    arrival_phases: tuple[ArrivalPhase, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must not be empty")
        if self.size <= 0:
            raise ValueError("request size must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        if self.rate_limit_bps is not None and self.rate_limit_bps <= 0:
            raise ValueError("rate limit must be positive when set")
        if self.arrival_rate_iops is not None:
            if self.arrival_rate_iops <= 0:
                raise ValueError("arrival rate must be positive when set")
            if self.rate_limit_bps is not None:
                raise ValueError("open-loop jobs cannot also set a rate limit")
        if self.arrival_phases is not None:
            if self.arrival_rate_iops is not None:
                raise ValueError(
                    "arrival_phases and arrival_rate_iops are mutually exclusive"
                )
            if self.rate_limit_bps is not None:
                raise ValueError("phased jobs cannot also set a rate limit")
            if not self.arrival_phases:
                raise ValueError("arrival_phases must not be empty when set")
            for earlier, later in zip(self.arrival_phases, self.arrival_phases[1:]):
                if later.start_us < earlier.stop_us:
                    raise ValueError("arrival phases must be sorted and non-overlapping")
        if not self.windows:
            raise ValueError("a job needs at least one activity window")
        ordered = sorted(self.windows, key=lambda w: w.start_us)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start_us < earlier.stop_us:
                raise ValueError("activity windows must not overlap")

    @property
    def is_read_only(self) -> bool:
        return self.read_fraction >= 1.0

    def active_at(self, time_us: float) -> bool:
        """Whether the job issues I/O at ``time_us``."""
        for w in self.windows:
            if w.start_us <= time_us < w.stop_us:
                return True
        return False


@dataclass(frozen=True)
class CgroupAppGroup:
    """Helper pairing a cgroup with the specs it should contain.

    Fairness scenarios place several identical batch apps in each cgroup
    (§VI-A uses four per group); this keeps that shape explicit.
    """

    cgroup_path: str
    specs: tuple[JobSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for spec in self.specs:
            if spec.cgroup_path != self.cgroup_path:
                raise ValueError(
                    f"spec {spec.name!r} targets {spec.cgroup_path!r}, "
                    f"not {self.cgroup_path!r}"
                )
