"""The three study pipelines the benchmark drives, at three sizes.

Each workload is one public study entry point (``evaluate_table_one``,
``evaluate_surrogate_study``, ``evaluate_online_control``) with its
settings built from the benchmark's seed. Sizes:

* ``full`` -- exactly the settings pinned by the study's golden test
  (``tests/integration/test_*_golden.py::mini_settings``). At seed 42
  the headline is compared against the golden with that test's own
  comparison function.
* ``bench`` -- what the benchmark measures by default. ``table1-mini``
  runs at full size; ``d9-surrogate`` and ``ctl-online`` are scaled
  down (shorter or coarser simulated runs, same matrix) so that a run
  fits the benchmark's time budget on a 2-core host.
* ``smoke`` -- one knob and the shortest runs that still exercise
  every layer the workload is chosen for; used by the tests.

This module imports ``repro`` lazily so that ``run.py`` can check for
the source tree before importing anything from it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from dataclasses import dataclass
from typing import Callable

SIZES = ("bench", "full", "smoke")
#: The seed every golden in ``tests/data`` was generated with.
GOLDEN_SEED = 42


def _table1_settings(seed: int, size: str):
    from repro.core.table_one import TableOneSettings

    if size == "smoke":
        return TableOneSettings(
            duration_s=0.03,
            warmup_s=0.01,
            fairness_duration_s=0.04,
            iolatency_duration_s=0.25,
            burst_duration_s=1.2,
            device_scale=32.0,
            burst_device_scale=48.0,
            sweep_points=2,
            seed=seed,
        )
    # bench == full: tests/integration/test_table1_golden.py::mini_settings
    return TableOneSettings(
        duration_s=0.06,
        warmup_s=0.02,
        fairness_duration_s=0.08,
        iolatency_duration_s=0.5,
        burst_duration_s=2.5,
        device_scale=16.0,
        burst_device_scale=24.0,
        sweep_points=2,
        seed=seed,
    )


def _table1_run(settings, executor):
    from repro.core.table_one import evaluate_table_one

    return evaluate_table_one(settings, executor=executor)


def _table1_doc(table) -> dict:
    return dataclasses.asdict(table)


def _table1_claims(table) -> int:
    return sum(table.matches_paper().values())


def _d9_settings(seed: int, size: str):
    from repro.core.d9_surrogate import mini_settings

    overrides = {
        "full": {},
        "bench": {"duration_s": 0.1, "warmup_s": 0.05, "device_scale": 32.0},
        "smoke": {
            "knobs": ("io.max",),
            "budget": 4,
            "pool_factor": 4,
            "duration_s": 0.1,
            "warmup_s": 0.05,
            "device_scale": 32.0,
        },
    }[size]
    return dataclasses.replace(mini_settings(), seed=seed, **overrides)


def _d9_run(settings, executor):
    from repro.core.d9_surrogate import evaluate_surrogate_study

    return evaluate_surrogate_study(settings, executor=executor)


def _d9_claims(report) -> int:
    return sum(1 for row in report.rows if row.meets_or_beats)


def _d8_settings(seed: int, size: str):
    from repro.core.d8_online import mini_settings

    overrides = {
        "full": {},
        "bench": {"duration_s": 2.4, "warmup_s": 0.3, "device_scale": 96.0},
        "smoke": {
            "knobs": ("io.max",),
            "patterns": ("flash-crowd-gc",),
            "duration_s": 0.8,
            "warmup_s": 0.1,
            "device_scale": 64.0,
        },
    }[size]
    return dataclasses.replace(mini_settings(), seed=seed, **overrides)


def _d8_run(settings, executor):
    from repro.core.d8_online import evaluate_online_control

    return evaluate_online_control(settings, executor=executor)


def _d8_claims(table) -> int:
    return sum(1 for pair in table.pairs.values() if pair.online.slo_met)


def _to_json_dict(headline) -> dict:
    return headline.to_json_dict()


@dataclass(frozen=True)
class Workload:
    """One study pipeline, as the benchmark drives and checks it."""

    name: str
    why: str
    #: ``(seed, size) -> settings`` for the study function.
    settings: Callable[[int, str], object]
    #: ``(settings, executor) -> headline`` -- the public entry point.
    run: Callable[[object, object], object]
    #: The headline as a plain document (compared cold vs warm).
    doc: Callable[[object], dict]
    #: Reference claims the headline reproduces (deterministic per seed).
    claims: Callable[[object], int]
    #: The golden test module whose ``assert_matches_golden`` and
    #: ``MINI_GOLDEN`` judge the headline at the golden settings.
    golden_test: str

    def headline_text(self, headline) -> str:
        """Canonical JSON of the headline (NaN-safe equality)."""
        return json.dumps(self.doc(headline), sort_keys=True, default=str)

    def golden_applies(self, settings) -> bool:
        """True when ``settings`` are exactly the golden test's."""
        return settings == self.settings(GOLDEN_SEED, "full")

    def check_golden(self, headline) -> None:
        """Raise AssertionError when the headline differs from the golden."""
        test = importlib.import_module(self.golden_test)
        test.assert_matches_golden(headline, test.MINI_GOLDEN)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="table1-mini",
            why=(
                "the paper's Table I pipeline: 115 short closed-loop scenarios "
                "over every knob, so per-scenario costs show; never touches "
                "surrogate, tune, ctl or faults"
            ),
            settings=_table1_settings,
            run=_table1_run,
            doc=_table1_doc,
            claims=_table1_claims,
            golden_test="tests.integration.test_table1_golden",
        ),
        Workload(
            name="d9-surrogate",
            why=(
                "D9 surrogate tuning: the only workload where surrogate fit and "
                "predict, search and summary reduction dominate, above all warm"
            ),
            settings=_d9_settings,
            run=_d9_run,
            doc=_to_json_dict,
            claims=_d9_claims,
            golden_test="tests.integration.test_d9_golden",
        ),
        Workload(
            name="ctl-online",
            why=(
                "D8 online control: open-loop phased arrivals, GC-storm faults "
                "with retries, sampler ticks and mid-run knob rewrites in few "
                "long scenarios"
            ),
            settings=_d8_settings,
            run=_d8_run,
            doc=_to_json_dict,
            claims=_d8_claims,
            golden_test="tests.integration.test_d8_golden",
        ),
    )
}
