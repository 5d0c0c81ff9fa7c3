"""Content-addressed on-disk result cache.

Layout (under ``.isolbench-cache/`` by default, overridable with the
``ISOLBENCH_CACHE_DIR`` environment variable or an explicit path)::

    .isolbench-cache/
      ab/abcdef...1234.pkl.gz     # first two hex chars shard the dir
      cd/cdef01...5678.pkl.gz

Each entry is a gzipped pickle of ``{"schema_version", "key",
"summary"}``. Reads are defensive: a truncated, corrupt, or
wrong-schema file is treated as a *miss* (and removed) -- a poisoned
cache can cost a recomputation but never a crash or a wrong result.
Writes are atomic (temp file + ``os.replace``) so a killed run cannot
leave a half-written entry behind.

Invalidation is purely structural: the key hashes the full scenario
content plus :data:`~repro.exec.cachekey.SCHEMA_VERSION`, so editing a
scenario, a device preset or a knob parameter changes the key, while
unrelated code edits leave it stable. ``isol-bench cache clear`` (or
:meth:`ResultCache.clear`) wipes everything for simulator-semantics
changes that keys cannot see; ``isol-bench cache stats|path`` inspect
the store.
"""

from __future__ import annotations

import gzip
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.cachekey import SCHEMA_VERSION
from repro.exec.summary import ScenarioSummary

_ENV_VAR = "ISOLBENCH_CACHE_DIR"
_DEFAULT_DIRNAME = ".isolbench-cache"


def default_cache_dir() -> Path:
    """``$ISOLBENCH_CACHE_DIR`` or ``./.isolbench-cache``."""
    return Path(os.environ.get(_ENV_VAR, _DEFAULT_DIRNAME))


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s)"
            + (f", {self.corrupt} corrupt entr(ies) dropped" if self.corrupt else "")
        )


@dataclass
class ResultCache:
    """SHA-256-keyed store of :class:`ScenarioSummary` objects."""

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        """Entry location: ``<root>/<key[:2]>/<key>.pkl.gz``."""
        return self.root / key[:2] / f"{key}.pkl.gz"

    def get(self, key: str) -> ScenarioSummary | None:
        """The stored summary, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with gzip.open(path, "rb") as fh:
                entry = pickle.load(fh)
            if (
                not isinstance(entry, dict)
                or entry.get("schema_version") != SCHEMA_VERSION
                or entry.get("key") != key
                or not isinstance(entry.get("summary"), ScenarioSummary)
            ):
                raise ValueError("malformed cache entry")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncated gzip, pickle garbage, schema drift: drop + miss.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return entry["summary"]

    def put(self, key: str, summary: ScenarioSummary, scenario=None) -> None:
        """Store atomically; concurrent writers of the same key are safe.

        ``scenario`` (the :class:`~repro.core.config.Scenario` that
        produced the summary) is stored alongside it when given, so the
        entry doubles as surrogate training data
        (:func:`repro.surrogate.corpus.load_corpus`). ``get`` ignores
        the extra key, and entries written without it stay valid --
        they just cannot be featurized.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema_version": SCHEMA_VERSION, "key": key, "summary": summary}
        if scenario is not None:
            entry["scenario"] = scenario
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".pkl.gz"
        )
        try:
            with os.fdopen(fd, "wb") as raw:
                with gzip.open(raw, "wb", compresslevel=6) as fh:
                    pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All entry files currently on disk, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.pkl.gz"))

    def size_bytes(self) -> int:
        """Total on-disk size of the cache in bytes."""
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
