"""On-disk artifact cache for expensive deterministic computations.

Trained classifier weights and characterization tables are deterministic
functions of their configuration.  The cache stores such artifacts as
flat entry files keyed by a SHA-256 hash of the configuration
dictionary, so a second run (or a test suite following a benchmark run)
skips the expensive recomputation.

This module also owns the entry format both on-disk stores write
(:func:`write_entry`, :func:`read_entry`; the rollout store's
:meth:`repro.hil.record.HilResult.save` uses it too).  An entry is
laid out as

- 8 magic bytes (``ENTRY_MAGIC``) and the header length as a
  little-endian u64;
- a UTF-8 JSON header, space-padded to a multiple of 8 bytes:
  ``{"doc": ..., "arrays": [[name, dtype.str, shape, offset], ...],
  "size": block bytes}``;
- the block: each array's raw C-order bytes, zero-padded to 8, at its
  offset from the end of the header.

A read is one ``open``, one ``readinto`` of the whole file into a
``bytearray`` and one small ``json.loads``; the arrays are writable
views of that buffer.  Nothing is ever unpickled: object dtypes are
refused both ways.  The files keep their historical ``.npz`` suffix
(and ``*.npz.tmp`` while written), so store paths stay the same; an
``ArtifactCache`` entry in the old ``np.savez`` layout is a miss and is
rewritten in place.

Set the environment variable ``REPRO_NO_CACHE=1`` to bypass the cache
entirely, or ``REPRO_CACHE_DIR`` to relocate it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ENTRY_MAGIC",
    "ArtifactCache",
    "config_hash",
    "default_cache_dir",
    "read_entry",
    "sweep_tmp",
    "write_entry",
]

#: Orphaned ``*.npz.tmp`` files older than this are swept on store();
#: young ones may belong to a concurrent writer mid-flight.
_STALE_TMP_AGE_S = 3600.0

#: What reading a missing, corrupt or truncated entry may raise (the
#: zip errors come from the rollout store's legacy ``.npz`` reader).
_LOAD_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile)

#: First bytes of every entry file (a zip archive starts ``PK``).
ENTRY_MAGIC = b"\x93REPRO\x01\n"
#: Magic plus the little-endian u64 header length.
_PREFIX = struct.Struct("<8sQ")
#: Alignment of the header end and of every array in the block.
_ALIGN = 8


def write_entry(
    path: Union[str, Path], doc: Any, arrays: Dict[str, np.ndarray]
) -> Path:
    """Atomically write one entry file: *doc* (JSON) plus raw *arrays*.

    The bytes go to a unique ``<suffix>.tmp`` file beside *path* that
    :func:`os.replace` renames over it, so concurrent writers of one
    path each replace the file wholesale (the last rename wins) and a
    reader never sees a partial entry; a failed write leaves no temp
    file behind.  Object and structured dtypes raise ``ValueError``.
    """
    path = Path(path)
    table: List[list] = []
    chunks: List[bytes] = []
    size = 0
    for name, value in arrays.items():
        value = np.asarray(value)
        if value.dtype.hasobject or value.dtype.names is not None:
            raise ValueError(f"array {name!r}: unsupported dtype {value.dtype}")
        table.append([name, value.dtype.str, list(value.shape), size])
        pad = -value.nbytes % _ALIGN
        chunks += [value.tobytes(), bytes(pad)]
        size += value.nbytes + pad
    header = json.dumps({"doc": doc, "arrays": table, "size": size}).encode()
    header += b" " * (-len(header) % _ALIGN)
    payload = b"".join([_PREFIX.pack(ENTRY_MAGIC, len(header)), header, *chunks])
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_entry(path: Union[str, Path]) -> Tuple[Any, Dict[str, np.ndarray]]:
    """The ``(doc, arrays)`` of an entry file written by :func:`write_entry`.

    A missing file raises ``FileNotFoundError``.  A bad magic, a
    truncated or padded file, a malformed header, an array overrunning
    the block, or an unknown or object dtype raises ``ValueError``.
    """
    with open(path, "rb", buffering=0) as handle:
        size = os.fstat(handle.fileno()).st_size
        buf = bytearray(size)
        read = handle.readinto(buf)
    if read != size or size < _PREFIX.size:
        raise ValueError(f"{path}: truncated entry ({read} of {size} bytes)")
    magic, header_len = _PREFIX.unpack_from(buf)
    if magic != ENTRY_MAGIC:
        raise ValueError(f"{path}: not an entry file (magic {magic!r})")
    start = _PREFIX.size + header_len
    try:
        if start > size:
            raise ValueError(f"header of {header_len} bytes overruns the file")
        header = json.loads(buf[_PREFIX.size : start])
        doc, table, block = header["doc"], header["arrays"], header["size"]
        if start + block != size:
            raise ValueError(f"block of {block} bytes in {size - start}")
        arrays = {}
        for name, descr, shape, offset in table:
            dtype = np.dtype(descr) if isinstance(descr, str) else None
            if dtype is None or dtype.hasobject:
                raise ValueError(f"array {name!r}: unsupported dtype {descr!r}")
            if min(shape, default=0) < 0 or offset < 0:
                raise ValueError(f"array {name!r}: negative shape or offset")
            # frombuffer raises ValueError for an array past the file's end.
            arrays[name] = np.frombuffer(
                buf, dtype, math.prod(shape), start + offset
            ).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed entry ({exc})") from exc
    return doc, arrays


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

    Each entry is one :func:`write_entry` file at ``<root>/<hash>.npz``
    (the suffix is historical; the files are not zip archives).

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
        try:
            return read_entry(self._path(config_hash(config)))[1]
        except _LOAD_ERRORS:
            # A missing, corrupt or old-layout entry behaves like a miss.
            return None

    def store(self, config: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Path:
        """Atomically persist *arrays* under the hash of *config*.

        The write is :func:`write_entry`'s (a unique ``*.npz.tmp`` file
        renamed over the target), so concurrent writers of the same key
        are safe and readers never observe a partial entry; it replaces
        an old-layout ``.npz`` entry in place.  Stale temp files from
        interrupted writers are swept opportunistically.
        """
        path = self._path(config_hash(config))
        if not self.enabled:
            return path
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_tmp(max_age_s=_STALE_TMP_AGE_S)
        return write_entry(path, {}, arrays)

    def entries(self) -> List[Path]:
        """Every stored entry, sorted by path."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*.npz"))

    def clear(self) -> int:
        """Delete every entry in this namespace; return the count removed.

        Also removes orphaned ``*.npz.tmp`` files left by interrupted
        :meth:`store` calls (those do not count towards the total —
        they were never visible entries).
        """
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        self._sweep_tmp(max_age_s=0.0)
        return removed

    def _sweep_tmp(self, max_age_s: float) -> int:
        """Unlink ``*.npz.tmp`` files older than *max_age_s* seconds."""
        return sweep_tmp(self.root, "*.npz.tmp", max_age_s)


def sweep_tmp(root: Path, pattern: str, max_age_s: float) -> int:
    """Unlink the temp files matching *pattern* under *root* that are
    older than *max_age_s* seconds; return how many went.

    Young temp files may belong to a concurrent writer mid-flight and
    are left alone.
    """
    if not root.exists():
        return 0
    now = time.time()
    swept = 0
    for tmp in root.glob(pattern):
        try:
            if now - tmp.stat().st_mtime >= max_age_s:
                tmp.unlink()
                swept += 1
        except OSError:
            # Raced with a concurrent writer finishing its rename
            # (or another sweep): the file is gone either way.
            continue
    return swept
