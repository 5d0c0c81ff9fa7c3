"""Outside-in layer tracing: wrap each layer's public entry points.

The benchmark never edits the simulator. For a traced pass it replaces
each entry point named in :data:`ENTRY_POINTS` with a wrapper that
records a span on a stack, and restores the originals afterwards.
A span's *self* time is its duration minus the time of the spans it
encloses, so the self times of all layers add up to the duration of
the root span exactly.

Where the wrappers go:

* Methods are wrapped on the class that names them and on every
  subclass that overrides them, before any ``Host`` is built, so the
  bound methods hosts capture at construction are the wrapped ones.
* Module-level functions are wrapped in every ``repro`` module that
  holds them, because studies import names (``from x import f``) and
  look them up in their own namespace.
* ``callback`` entries also wrap the completion callback passed in, so
  the work a layer's completion triggers is charged to that layer
  until it enters the next wrapped call.

Spans are aggregated as they close (self seconds, outermost calls and
items per layer) instead of being stored one by one: a cold pass
closes millions of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped call: ``module:Class.method`` or ``module:function``."""

    layer: str
    target: str
    #: Index into ``args`` (``self`` is 0) of a completion callback to
    #: wrap into the same layer, or None.
    callback: Optional[int] = None
    #: Index into ``args`` of a sequence whose length counts as the
    #: call's items (e.g. candidates ranked), or None.
    items: Optional[int] = None


#: Every wrapped entry point. Time below a ``sim`` span that is inside
#: none of them is ``sim`` self time: the engine loop plus unwrapped
#: event callbacks (iocost/iolatency period timers, QueuedServer
#: completions, dispatch-lock releases, arrival chains).
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("sim", "repro.sim.engine:Simulator.run_until"),
    EntryPoint("sim", "repro.sim.engine:Simulator.run"),
    EntryPoint("workloads", "repro.workloads.generator:App.start"),
    EntryPoint("workloads", "repro.workloads.generator:App.on_complete"),
    EntryPoint("workloads", "repro.workloads.generator:App._issue_one"),
    EntryPoint("iocontrol.throttle", "repro.iocontrol.base:ThrottleLayer.submit"),
    EntryPoint("iocontrol.throttle", "repro.iocontrol.base:ThrottleLayer.on_complete"),
    EntryPoint("iocontrol.sched", "repro.iocontrol.base:IoScheduler.add"),
    EntryPoint("iocontrol.sched", "repro.iocontrol.base:IoScheduler.pop"),
    EntryPoint("iocontrol.sched", "repro.iocontrol.base:IoScheduler.on_complete"),
    EntryPoint("iocontrol.sched", "repro.iocontrol.dispatch:DispatchEngine.submit"),
    EntryPoint("iocontrol.sched", "repro.iocontrol.dispatch:DispatchEngine.submit_batch"),
    EntryPoint("iocontrol.sched", "repro.iocontrol.dispatch:DispatchEngine.pump"),
    EntryPoint("cpu", "repro.cpu.cores:CoreSet.charge", callback=2),
    EntryPoint("ssd", "repro.ssd.device:SimulatedNvmeDevice.submit", callback=2),
    EntryPoint("ssd", "repro.ssd.device:SimulatedNvmeDevice._bus_phase"),
    EntryPoint("ssd", "repro.ssd.device:SimulatedNvmeDevice._bus_segment"),
    EntryPoint("ssd", "repro.ssd.device:SimulatedNvmeDevice._finish"),
    EntryPoint("ssd", "repro.ssd.device:SimulatedNvmeDevice._finish_failed"),
    EntryPoint("metrics", "repro.metrics.collector:MetricsCollector.on_complete"),
    EntryPoint("faults", "repro.faults.injector:FaultInjector.service_multiplier"),
    EntryPoint("faults", "repro.faults.injector:FaultInjector.roll_error"),
    EntryPoint("faults", "repro.faults.injector:FaultInjector._spike"),
    EntryPoint("faults", "repro.faults.injector:FaultInjector._storm_begin"),
    EntryPoint("faults", "repro.faults.injector:FaultInjector._storm_chunk"),
    EntryPoint("faults", "repro.faults.injector:FaultInjector._storm_end"),
    EntryPoint("faults", "repro.faults.retry:RetryCoordinator.watch"),
    EntryPoint("faults", "repro.faults.retry:RetryCoordinator.resolve"),
    EntryPoint("faults", "repro.faults.retry:RetryCoordinator._on_timeout"),
    EntryPoint("faults", "repro.faults.retry:RetryCoordinator._schedule_retry"),
    EntryPoint("obs", "repro.obs.sampler:StackSampler._tick"),
    EntryPoint("ctl", "repro.ctl.plane:ControlPlane.on_sample"),
    EntryPoint("core.host_build", "repro.core.host:Host.__init__"),
    EntryPoint("exec.run", "repro.exec.executor:SweepExecutor.run"),
    EntryPoint("exec.cachekey", "repro.exec.cachekey:scenario_key"),
    EntryPoint("exec.cache_get", "repro.exec.cache:ResultCache.get"),
    EntryPoint("exec.cache_put", "repro.exec.cache:ResultCache.put"),
    EntryPoint("exec.summarize", "repro.exec.summary:summarize"),
    EntryPoint("exec.summary_stats", "repro.exec.summary:ScenarioSummary.cgroup_stats"),
    EntryPoint("exec.summary_stats", "repro.exec.summary:ScenarioSummary.all_app_stats"),
    EntryPoint("exec.summary_stats", "repro.exec.summary:ScenarioSummary.app_stats"),
    EntryPoint("exec.summary_stats", "repro.exec.summary:ScenarioSummary.app_stats_window"),
    EntryPoint("surrogate.corpus", "repro.surrogate.corpus:corpus_from_pairs"),
    EntryPoint("surrogate.featurize", "repro.surrogate.features:featurize"),
    EntryPoint("surrogate.fit", "repro.surrogate.model:fit_surrogate"),
    EntryPoint("surrogate.predict", "repro.surrogate.model:SurrogateModel.predict"),
    EntryPoint("surrogate.rank", "repro.surrogate.filter:SurrogatePrefilter.rank", items=2),
    EntryPoint("tune.search", "repro.tune.search:search"),
    EntryPoint("tune.score", "repro.tune.slo:score_summary"),
    EntryPoint("tune.evaluate", "repro.tune.evaluator:TuneEvaluator.evaluate_values"),
)

#: Root span of a pass: the study function itself.
STUDY_LAYER = "core.study"
#: The benchmark's own output checks; excluded from the traced wall.
CHECK_LAYER = "bench.check"


class Tracer:
    """A span stack that aggregates self time, calls and items per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        # One frame per open span: [layer, seconds covered by children].
        self._stack: list[list] = []

    @property
    def depth(self) -> int:
        """Number of spans currently open (0 between passes)."""
        return len(self._stack)

    def reset(self) -> None:
        """Drop all totals; the stack must be empty."""
        if self._stack:
            raise RuntimeError(f"reset with {len(self._stack)} open span(s)")
        self.self_s.clear()
        self.calls.clear()
        self.items.clear()

    def wrap(
        self,
        layer: str,
        fn: Callable,
        callback: Optional[int] = None,
        items: Optional[int] = None,
    ) -> Callable:
        """``fn`` with a ``layer`` span around every call."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        item_counts = self.items
        clock = time.perf_counter
        wrap = self.wrap

        def traced(*args, **kwargs):
            if callback is not None and len(args) > callback:
                args = (
                    args[:callback]
                    + (wrap(layer, args[callback]),)
                    + args[callback + 1:]
                )
            # Nested spans of one layer (a subclass calling its base,
            # a completion re-entering its layer) count as one call.
            if not stack or stack[-1][0] != layer:
                calls[layer] += 1
            if items is not None and len(args) > items:
                item_counts[layer] += len(args[items])
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced


def _resolve(target: str):
    """``(owner, attribute)`` for ``module:Class.attr`` / ``module:func``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _subclasses(cls: type) -> list[type]:
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _in_repro(module_name: str) -> bool:
    return module_name.split(".")[0] == "repro"


class Instrumentation:
    """Installs and removes the :data:`ENTRY_POINTS` wrappers.

    Subclasses defined outside ``repro`` (the benchmark's own result
    cache) are left alone: they are measuring code, not a layer.
    """

    def __init__(self, tracer: Tracer, entry_points=ENTRY_POINTS):
        self.tracer = tracer
        self.entry_points = entry_points
        #: ``(owner, attribute, original)`` for every replaced binding.
        self._saved: list[tuple[object, str, object]] = []
        #: Entry points absent from this revision of the simulator;
        #: their time falls to the enclosing span.
        self.missing: list[str] = []
        #: Every wrapped binding, as ``layer <- module.owner.attr``.
        self.wrapped: list[str] = []

    def install(self) -> None:
        """Wrap every entry point that exists."""
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for entry in self.entry_points:
            try:
                owner, attr = _resolve(entry.target)
            except (ImportError, AttributeError):
                self.missing.append(entry.target)
                continue
            if isinstance(owner, type):
                hit = self._wrap_method(entry, owner, attr)
            else:
                hit = self._wrap_function(entry, owner, attr)
            if not hit:
                self.missing.append(entry.target)

    def _wrap_method(self, entry: EntryPoint, cls: type, attr: str) -> bool:
        hit = False
        for klass in _subclasses(cls):
            original = klass.__dict__.get(attr)
            if callable(original) and _in_repro(klass.__module__):
                self._replace(klass, attr, original, self._wrapper(entry, original),
                              f"{entry.layer} <- {klass.__module__}.{klass.__qualname__}.{attr}")
                hit = True
        return hit

    def _wrap_function(self, entry: EntryPoint, module, attr: str) -> bool:
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = self._wrapper(entry, original)
        for name, holder in sorted(sys.modules.items()):
            if holder is not None and _in_repro(name):
                if holder.__dict__.get(attr) is original:
                    self._replace(holder, attr, original, wrapped,
                                  f"{entry.layer} <- {name}.{attr}")
        return True

    def _wrapper(self, entry: EntryPoint, original):
        wrapped = self.tracer.wrap(
            entry.layer, original, callback=entry.callback, items=entry.items
        )
        return functools.update_wrapper(wrapped, original)

    def _replace(self, owner, attr: str, original, wrapped, label: str) -> None:
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, original))
        self.wrapped.append(label)

    def remove(self) -> None:
        """Restore every original binding."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
