"""Sharded, concurrency-safe on-disk store for whole rollouts.

Entries live under ``root/<k[:2]>/<k[2:4]>/<k>.npz`` where ``k`` is the
content address from :func:`repro.cache.keys.rollout_key`; two-level
hash-prefix sharding keeps directory fan-out bounded for large sweeps.
Each entry is the file :meth:`repro.hil.record.HilResult.save` writes,
in the flat entry format of :mod:`repro.utils.cache` (the ``.npz``
suffix is historical): a JSON header with the outcome flags, the
non-float cycle columns, the telemetry manifest and the key document,
then the trace and the float cycle columns as raw float64, so a hit is
one read and :meth:`RolloutCache.verify` can re-hash any entry without
knowing how it was produced.  Entries in the older two- and
twelve-member ``.npz`` layouts load and verify the same way.

Writes are atomic (:func:`repro.utils.cache.write_entry`: ``mkstemp``
+ :func:`os.replace`), so concurrent writers of one key each replace
the entry wholesale and readers never observe a torn file.  A missing,
corrupt or truncated entry behaves like a miss.  Loads refresh the
entry's mtime, and stores evict least-recently-used entries past the
size bound (``REPRO_CACHE_MAX_MB``, default 4 GiB).  Store upkeep does
not scale with the store on every write: an instance sweeps stale temp
files and totals the entry bytes in one walk, then keeps the total
running from its own stores and rescans only when it passes the bound
(writers in other processes are seen at that rescan).

A sweep's prescreen vectors live beside the rollouts, in an
:class:`~repro.utils.cache.ArtifactCache` at ``root/prescreen``
(:meth:`RolloutCache.prescreens`); ``repro cache --stats/--clear``
cover both.

``REPRO_NO_CACHE=1`` disables every store, and ``REPRO_CACHE_DIR``
relocates the default root, exactly as for ``ArtifactCache``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cache.keys import RolloutKey, keyed, rollout_key
from repro.utils.cache import (
    _LOAD_ERRORS,
    _STALE_TMP_AGE_S,
    ArtifactCache,
    default_cache_dir,
    sweep_tmp,
)

__all__ = [
    "CacheStats",
    "RolloutCache",
    "global_stats",
    "resolve_cache",
]

_DEFAULT_MAX_BYTES = 4 * 1024**3


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counters (process-wide or per store)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (metrics/bench reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        return CacheStats(self.hits, self.misses, self.stores, self.evictions)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an *earlier* snapshot."""
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.stores - earlier.stores,
            self.evictions - earlier.evictions,
        )


#: Process-wide tallies across every store (the benchmarks read deltas
#: of this to report hit/miss rates).
_GLOBAL_STATS = CacheStats()


def global_stats() -> CacheStats:
    """The process-wide cache counters (mutated by every store)."""
    return _GLOBAL_STATS


class RolloutCache:
    """Content-addressed store of :class:`~repro.hil.record.HilResult`.

    Parameters
    ----------
    root:
        Store directory; default ``<cache dir>/rollouts``.
    max_bytes:
        LRU size bound; default ``$REPRO_CACHE_MAX_MB`` MiB or 4 GiB.
    enabled:
        Force-enable/disable; defaults to honouring ``REPRO_NO_CACHE``.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        max_bytes: Optional[int] = None,
        enabled: Optional[bool] = None,
    ):
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_CACHE", "0") != "1"
        if max_bytes is None:
            env = os.environ.get("REPRO_CACHE_MAX_MB")
            max_bytes = (
                int(float(env) * 1024**2) if env else _DEFAULT_MAX_BYTES
            )
        self.root = Path(root) if root is not None else default_cache_dir() / "rollouts"
        self.max_bytes = max_bytes
        self.enabled = enabled
        self.stats = CacheStats()
        #: Entry bytes on disk: one scan's total plus this instance's
        #: stores since.  ``None`` until a scan finds an entry.
        self._bytes: Optional[int] = None

    # -- key -> path -----------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Sharded entry path for a content address."""
        return Path(self.root, key[:2], key[2:4], f"{key}.npz")

    def entries(self) -> List[Path]:
        """Every stored entry, sorted by path (stable for tests/CLI)."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*/*.npz"))

    def total_bytes(self) -> int:
        """Bytes currently held by the store (0 if the root is absent)."""
        return sum(size for _, size, _ in self._scan())

    def prescreens(self) -> ArtifactCache:
        """The sweep's prescreen vectors: an artifact cache at
        ``root/prescreen``, beside the rollouts (outside their
        ``*/*/*.npz`` entry layout)."""
        cache = ArtifactCache("prescreen", enabled=self.enabled)
        cache.root = self.root / "prescreen"
        return cache

    def _scan(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` of every entry, least recently used first."""
        aged = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
        aged.sort()
        return aged

    # -- stats -----------------------------------------------------------

    def _count(self, field: str) -> None:
        for stats in (self.stats, _GLOBAL_STATS):
            setattr(stats, field, getattr(stats, field) + 1)

    # -- load / store ----------------------------------------------------

    def load(self, document: Union[RolloutKey, Dict[str, object], None]):
        """The cached result for a key document, or ``None`` on a miss.

        *document* is a key document or its
        :class:`~repro.cache.keys.RolloutKey`; a key carries its address,
        so nothing is re-derived.  ``document=None`` (an uncacheable
        rollout) is a silent miss without counters — there is nothing
        such a rollout could ever hit.  Corrupt entries behave like
        misses.  A hit refreshes the entry's mtime, making eviction
        least-recently-*used*.
        """
        if not self.enabled or document is None:
            return None
        from repro.hil.record import HilResult

        path = self.path_for(keyed(document).key)
        try:
            result = HilResult.load(path)
        except _LOAD_ERRORS:
            # Missing (FileNotFoundError), corrupt or truncated.
            self._count("misses")
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self._count("hits")
        return result

    def store(
        self, document: Union[RolloutKey, Dict[str, object], None], result
    ) -> Optional[Path]:
        """Atomically persist *result* under its key document's address.

        Returns the entry path, or ``None`` when the store is disabled
        or the rollout is uncacheable.  The canonical JSON of the key
        document (:attr:`RolloutKey.canonical`) is embedded in the entry
        for :meth:`verify`.

        Until this instance knows the store's size, a store first
        sweeps stale temp files and totals the entries in one walk; an
        empty store has nothing to sweep or count, so the walk repeats
        (cheaply) until the store holds an entry.  After that a store
        adds its entry's size and rescans only when the total passes
        ``max_bytes``.
        """
        if not self.enabled or document is None:
            return None
        key = keyed(document)
        path = self.path_for(key.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if self._bytes is None:
            self._sweep_tmp(max_age_s=_STALE_TMP_AGE_S)
            aged = self._scan()
            self._bytes = sum(size for _, size, _ in aged) if aged else None
        result.save(path, extra_json={"cache_key_json": key.canonical})
        self._count("stores")
        if self._bytes is not None:
            try:
                self._bytes += path.stat().st_size
            except OSError:
                pass  # already evicted by a concurrent writer
            if self._bytes > self.max_bytes:
                self._evict(protect=path)
        return path

    # -- maintenance -----------------------------------------------------

    def _evict(self, protect: Optional[Path] = None) -> int:
        """Rescan, then drop least-recently-used entries until under the
        size bound; the rescanned total becomes the running one."""
        aged = self._scan()
        total = sum(size for _, size, _ in aged)
        evicted = 0
        for mtime, size, path in aged:
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            self._count("evictions")
        self._bytes = total
        return evicted

    def _sweep_tmp(self, max_age_s: float) -> int:
        """Unlink stale ``*.npz.tmp`` files anywhere under the root
        (``ArtifactCache._sweep_tmp`` over the shard directories)."""
        return sweep_tmp(self.root, "**/*.npz.tmp", max_age_s)

    def clear(self) -> int:
        """Delete every entry (and stale temp files); return the count."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self._sweep_tmp(max_age_s=0.0)
        self._bytes = None
        return removed

    def verify(self) -> Tuple[int, List[str]]:
        """Re-hash every entry against its embedded key document.

        Returns ``(checked, problems)``: an entry is a problem when it
        is unreadable (including a record that does not load, which
        :meth:`load` would count as a miss), lacks an embedded key,
        re-hashes to a different address than its file name, or sits
        in the wrong shard.  An empty ``problems`` list means the store
        is self-consistent.
        """
        from repro.hil.record import load_with_extras

        problems: List[str] = []
        checked = 0
        for path in self.entries():
            checked += 1
            try:
                # A key that verifies is only useful on an entry that loads.
                _, extras = load_with_extras(path)
                if "cache_key_json" not in extras:
                    problems.append(f"{path}: no embedded cache key")
                    continue
                document = json.loads(extras["cache_key_json"])
            except _LOAD_ERRORS as exc:
                problems.append(f"{path}: unreadable ({exc})")
                continue
            key = rollout_key(document)
            if self.path_for(key) != path:
                problems.append(
                    f"{path}: content hashes to {key} "
                    f"(expected at {self.path_for(key)})"
                )
        return checked, problems


def resolve_cache(cache: Union[str, Path, None]) -> Optional[RolloutCache]:
    """Map the facade's ``cache=`` keyword to a store (or ``None``).

    ``None``/``"off"`` disable caching; ``"auto"`` uses the default
    root; any other string or path is an explicit store root.
    ``REPRO_NO_CACHE=1`` wins over everything and yields ``None``.
    """
    if cache is None or cache == "off":
        return None
    root = None if cache == "auto" else Path(cache)
    store = RolloutCache(root)
    return store if store.enabled else None
