"""Profiler configuration.

A scenario opts into self-profiling by setting ``Scenario.prof`` to a
:class:`ProfConfig`; the default (``None``) keeps the subsystem fully
dormant: no profiler object is built and the event loop runs the exact
seed hot path (``tests/unit/test_obs_overhead.py`` guards that path).
Profiling never changes simulation *results* — only how the run is
timed — which the bit-identity tests in ``tests/unit/test_prof.py``
pin down for both serial and multi-worker execution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProfConfig:
    """How to profile a scenario run.

    * ``timeline_bucket_us`` — width (in *simulated* microseconds) of
      the per-phase timeline buckets used by the Chrome-trace exporter;
      ``0`` (the default) records phase totals only, which keeps
      profiled runs lean.
    """

    timeline_bucket_us: float = 0.0

    def __post_init__(self) -> None:
        if self.timeline_bucket_us < 0:
            raise ValueError("timeline_bucket_us must be >= 0 (0 disables buckets)")

    @property
    def timeline(self) -> bool:
        """Whether per-phase timeline buckets are recorded."""
        return self.timeline_bucket_us > 0
