"""Phase taxonomy: which stage of the request pipeline owns an event.

The profiler attributes each fired callback to a *phase* by the module
that owns the callback's code object — the simulator is callback-based,
so "which module scheduled this work" is exactly "which pipeline stage
is running". The mapping is resolved once per distinct code object and
memoized, so the per-event cost is a single dict hit. The one exception
is the completion closure of :class:`~repro.sim.resources.QueuedServer`,
which models both CPU cores and device flash/bus: it is resolved by the
owning server's name (:func:`phase_of_server`).

The taxonomy (stable names; new modules fall into ``other``):

========== ===========================================================
phase      what runs there
========== ===========================================================
engine.pop loop wall minus callback wall: heap pops, loop
           bookkeeping and the profiler's timing closures
workload   app request issue / completion handling (repro.workloads)
cpu        per-I/O submit/complete CPU cost: core-set service
           completions (server ``cpu``) and repro.cpu callbacks
throttle   cgroup controller decisions: io.max token refills,
           io.latency window evaluation, io.cost vtime accounting
           (repro.iocontrol.{iomax,iolatency,iocost,base,dynamic_iomax})
dispatch   scheduler dispatch: lock section, mq-deadline/bfq pop logic
           (repro.iocontrol.{dispatch,mq_deadline,bfq,nonectl})
device     device service: flash unit + bus completions (servers
           ``ssd<i>.flash`` / ``ssd<i>.bus``) and repro.ssd callbacks
faults     fault injection + retry/watchdog machinery (repro.faults)
obs        span recording + stack-sampler emission (repro.obs)
pagecache  buffered-I/O page-cache machinery (repro.fs)
host       host-level glue callbacks (repro.core.host)
metrics    metrics collection callbacks (repro.metrics)
other      anything else (tests, examples, ad-hoc callbacks)
========== ===========================================================
"""

from __future__ import annotations

#: The synthetic phase charged with loop wall minus callback wall.
ENGINE_POP = "engine.pop"

#: Phase name -> one-line description (docs + table rendering order).
PHASES: dict[str, str] = {
    ENGINE_POP: "event pop + loop bookkeeping",
    "workload": "app request issue/completion",
    "cpu": "per-I/O CPU cost accounting",
    "throttle": "cgroup controller decisions",
    "dispatch": "scheduler dispatch + lock section",
    "device": "device service-cost computation",
    "faults": "fault injection + retry machinery",
    "obs": "span recording + sampler emission",
    "pagecache": "page-cache machinery",
    "host": "host-level glue callbacks",
    "metrics": "metrics collection",
    "other": "uncategorized callbacks",
}

#: Path-fragment -> phase, first match wins (checked in order).
_FRAGMENT_PHASES: tuple[tuple[str, str], ...] = (
    ("repro/workloads/", "workload"),
    ("repro/cpu/", "cpu"),
    ("repro/iocontrol/dispatch", "dispatch"),
    ("repro/iocontrol/mq_deadline", "dispatch"),
    ("repro/iocontrol/bfq", "dispatch"),
    ("repro/iocontrol/nonectl", "dispatch"),
    ("repro/iocontrol/", "throttle"),
    ("repro/ssd/", "device"),
    ("repro/sim/resources", "device"),
    ("repro/faults/", "faults"),
    ("repro/obs/", "obs"),
    ("repro/fs/", "pagecache"),
    ("repro/core/host", "host"),
    ("repro/metrics/", "metrics"),
)


def phase_of_filename(filename: str) -> str:
    """Map a code object's ``co_filename`` to a phase name."""
    normalized = filename.replace("\\", "/")
    for fragment, phase in _FRAGMENT_PHASES:
        if fragment in normalized:
            return phase
    return "other"


def phase_of_code(code) -> str:
    """Map a callback's code object to its phase (uncached form).

    The profiler memoizes this per code object; call sites outside the
    hot loop can use it directly.
    """
    return phase_of_filename(code.co_filename)


def phase_of_server(name: str) -> str:
    """Map a ``QueuedServer`` name to the phase its completions run in.

    The core set's server is named ``cpu``; the device's flash units
    and bus are ``ssd<i>.flash`` / ``ssd<i>.bus``.
    """
    return "cpu" if name == "cpu" else "device"
