"""repro.prof: simulator self-observability.

Where :mod:`repro.obs` answers "where does a *request's* latency go?",
``repro.prof`` answers "where does the *simulator's* wall-clock time
go?" — the prerequisite for the engine speedup work (ROADMAP item 2):
a hot-path change is only a win if the per-phase breakdown says so.

:class:`SimProfiler` holds near-zero-overhead-when-disabled phase
timers over the engine hot path. Every fired event callback is
attributed to a phase of the request pipeline (workload issue, throttle
decision, scheduler dispatch, device service, fault injection, obs
emission, …) by the module that owns the callback — or, for a
``QueuedServer`` completion, by the CPU or device resource that owns
the server — plus event counters. Enable by passing ``prof=ProfConfig()`` to a
:class:`~repro.core.config.Scenario`; read the :class:`SimProfile` back
from ``ScenarioResult.profile``. With ``prof=None`` (the default) the
simulator runs the exact un-instrumented event loop — the same
pay-for-what-you-use contract :mod:`repro.obs` honours, guarded by the
same overhead benchmark. Whole-pipeline timing of the study commands
lives outside the package, in ``perfbench/``.

Exporters mirror :mod:`repro.obs.export` conventions: JSON documents, a
pstats-compatible dump loadable by :class:`pstats.Stats`, and Chrome
Trace Event Format that merges with a request-span timeline.
"""

from repro.prof.config import ProfConfig
from repro.prof.export import (
    format_phase_table,
    write_chrome_trace,
    write_pstats,
)
from repro.prof.phases import ENGINE_POP, PHASES, phase_of_code
from repro.prof.profiler import SimProfile, SimProfiler

__all__ = [
    "ProfConfig",
    "SimProfiler",
    "SimProfile",
    "PHASES",
    "ENGINE_POP",
    "phase_of_code",
    "format_phase_table",
    "write_pstats",
    "write_chrome_trace",
]
