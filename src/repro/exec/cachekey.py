"""Canonical scenario serialization and content-addressed cache keys.

A cache key must change when -- and only when -- something that affects
the simulation's output changes. The canonicalizer therefore renders a
:class:`~repro.core.config.Scenario` (and everything it transitively
contains: knob dataclasses, job specs, device presets, GC params, QoS
params, enums) into a deterministic text form with these properties:

* **No identity leakage**: object ids, dict insertion order and
  ``PYTHONHASHSEED`` never reach the key. Dicts are sorted by their
  canonical key text; dataclass fields are sorted by field name.
* **Type-tagged**: the rendering embeds each dataclass's qualified class
  name and each enum's class + member name, so two knobs with identical
  field values but different types (e.g. ``IoMaxKnob`` vs a subclass)
  key differently.
* **Exact floats**: floats are rendered with ``repr`` (shortest
  round-trip form, stable across CPython platforms), so a weight of
  ``0.1`` and ``0.1000000000000001`` key differently -- the simulation
  would diverge too. ``inf``/``nan`` render symbolically.

The SHA-256 runs over that text plus :data:`SCHEMA_VERSION` (bumped
whenever the summary layout or simulation semantics change incompatibly)
and the summary's own schema version, so stale entries are structurally
unreachable rather than "probably invalidated".
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math

from repro.exec.summary import SUMMARY_SCHEMA_VERSION

#: Bump to invalidate every existing cache entry (e.g. after a simulator
#: change that alters results without touching any Scenario field).
#: v2: fault-injection layer (Scenario.faults, retry/timeout completion
#: path) — pre-faults entries were produced by a semantically different
#: simulator and must read as misses.
#: v3: JobSpec.macro_tick_us arrival batching — specs render with a new
#: field, and macro-tick runs draw from a dedicated arrival RNG stream
#: older entries never saw.
#: v4: online control plane (Scenario.ctl, repro.ctl) plus
#: JobSpec.arrival_phases time-varying arrivals — scenarios render with
#: new fields whose defaults older entries never carried, and ctl runs
#: rewrite knob files mid-run, which no pre-v4 simulator could.
#: v5: JobSpec.macro_tick_us removed with macro-tick arrival batching —
#: specs render without the field, so every v4 key is unreachable.
SCHEMA_VERSION = 5

_SALT = f"isolbench-cache:v{SCHEMA_VERSION}:summary-v{SUMMARY_SCHEMA_VERSION}"


def _render(obj, out: list[str]) -> None:
    """Append the canonical text of ``obj`` to ``out``."""
    if obj is None:
        out.append("N")
    elif obj is True:
        out.append("T")
    elif obj is False:
        out.append("F")
    elif isinstance(obj, enum.Enum):
        out.append(f"E:{type(obj).__module__}.{type(obj).__qualname__}.{obj.name}")
    elif isinstance(obj, int):
        out.append(f"i:{obj}")
    elif isinstance(obj, float):
        if math.isnan(obj):
            out.append("f:nan")
        elif math.isinf(obj):
            out.append("f:+inf" if obj > 0 else "f:-inf")
        else:
            out.append(f"f:{obj!r}")
    elif isinstance(obj, str):
        out.append(f"s:{len(obj)}:{obj}")
    elif isinstance(obj, bytes):
        out.append(f"b:{len(obj)}:{obj.hex()}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(f"D:{type(obj).__module__}.{type(obj).__qualname__}{{")
        for field in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            out.append(f"{field.name}=")
            _render(getattr(obj, field.name), out)
            out.append(";")
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _render(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, (set, frozenset)):
        rendered = sorted(canonical_text(item) for item in obj)
        out.append("{" + ",".join(rendered) + "}")
    elif isinstance(obj, dict):
        out.append("M{")
        entries = sorted(
            (canonical_text(key), value) for key, value in obj.items()
        )
        for key_text, value in entries:
            out.append(key_text)
            out.append(":")
            _render(value, out)
            out.append(";")
        out.append("}")
    elif hasattr(obj, "__dict__") and not callable(obj):
        # Plain configuration objects (e.g. a bare KnobConfig subclass
        # that is not a dataclass): class identity + sorted attributes.
        out.append(f"O:{type(obj).__module__}.{type(obj).__qualname__}{{")
        for name in sorted(vars(obj)):
            out.append(f"{name}=")
            _render(vars(obj)[name], out)
            out.append(";")
        out.append("}")
    else:
        raise TypeError(
            f"cannot canonicalize {type(obj).__module__}.{type(obj).__qualname__} "
            f"for cache keying; add dataclass/enum support or exclude it "
            f"from the Scenario"
        )


def canonical_text(obj) -> str:
    """Deterministic, content-complete text rendering of ``obj``."""
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


def scenario_key(scenario) -> str:
    """SHA-256 content address of a scenario (hex, 64 chars)."""
    text = _SALT + "|" + canonical_text(scenario)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
