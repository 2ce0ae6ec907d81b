"""On-disk artifact cache for expensive deterministic computations.

Trained classifier weights and characterization tables are deterministic
functions of their configuration.  The cache stores such artifacts as
``.npz`` files keyed by a SHA-256 hash of the configuration dictionary,
so a second run (or a test suite following a benchmark run) skips the
expensive recomputation.

Set the environment variable ``REPRO_NO_CACHE=1`` to bypass the cache
entirely, or ``REPRO_CACHE_DIR`` to relocate it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["ArtifactCache", "config_hash", "default_cache_dir"]

#: Orphaned ``*.npz.tmp`` files older than this are swept on store();
#: young ones may belong to a concurrent writer mid-flight.
_STALE_TMP_AGE_S = 3600.0

#: What ``np.load`` of a corrupt or truncated ``.npz`` entry may raise.
_LOAD_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile)


def default_cache_dir() -> Path:
    """Return the cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def config_hash(config: Dict[str, Any]) -> str:
    """Hash a JSON-serializable config dict to a stable hex digest."""
    blob = json.dumps(config, sort_keys=True, default=_jsonify)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_config"):
        return obj.to_config()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


class ArtifactCache:
    """Store/retrieve dictionaries of numpy arrays keyed by config hashes.

    Parameters
    ----------
    namespace:
        Subdirectory under the cache root, e.g. ``"classifiers"``.
    enabled:
        Force-enable/disable; defaults to honouring ``REPRO_NO_CACHE``.
    """

    def __init__(self, namespace: str, *, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_CACHE", "0") != "1"
        self.namespace = namespace
        self.enabled = enabled
        self.root = default_cache_dir() / namespace

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, config: Dict[str, Any]) -> Optional[Dict[str, np.ndarray]]:
        """Return the cached arrays for *config*, or ``None`` on a miss."""
        if not self.enabled:
            return None
        path = self._path(config_hash(config))
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except _LOAD_ERRORS:
            # A corrupt cache entry behaves like a miss.
            return None

    def store(self, config: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Path:
        """Atomically persist *arrays* under the hash of *config*.

        The write goes to a unique ``*.npz.tmp`` file that is renamed
        over the target with :func:`os.replace`, so concurrent writers
        of the same key are safe: each writes its own temp file and the
        last rename wins atomically — readers never observe a partial
        entry.  Stale temp files from interrupted writers are swept
        opportunistically.
        """
        path = self._path(config_hash(config))
        if not self.enabled:
            return path
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_tmp(max_age_s=_STALE_TMP_AGE_S)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete every entry in this namespace; return the count removed.

        Also removes orphaned ``*.npz.tmp`` files left by interrupted
        :meth:`store` calls (those do not count towards the total —
        they were never visible entries).
        """
        if not self.root.exists():
            return 0
        removed = 0
        for path in self.root.glob("*.npz"):
            path.unlink()
            removed += 1
        self._sweep_tmp(max_age_s=0.0)
        return removed

    def _sweep_tmp(self, max_age_s: float) -> int:
        """Unlink ``*.npz.tmp`` files older than *max_age_s* seconds."""
        if not self.root.exists():
            return 0
        now = time.time()
        swept = 0
        for tmp in self.root.glob("*.npz.tmp"):
            try:
                if now - tmp.stat().st_mtime >= max_age_s:
                    tmp.unlink()
                    swept += 1
            except OSError:
                # Raced with a concurrent writer finishing its rename
                # (or another sweep): the file is gone either way.
                continue
        return swept
