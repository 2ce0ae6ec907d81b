"""Canonical cache-key documents for whole-rollout results.

A rollout is a deterministic function of its inputs: the track
geometry, the design case, the knob table, the situation identifier
spec, and the full :class:`~repro.hil.engine.HilConfig` (which carries
the seed, the fault plan and the mitigation policy).  This module turns
those inputs into a *key document* — a plain-JSON dictionary — and
hashes it with the same :func:`repro.utils.cache.config_hash` machinery
every other cache in the package uses.

Three identity fields ride along beside the inputs:

- ``package_version`` — results produced by a different release are
  never trusted (behaviour may have changed anywhere);
- ``libraries`` — the numpy and scipy versions: an upgrade can move
  last-ulp results (BLAS kernels, ``exp``/``sin`` loops), and a rollout
  is a bitwise function of those too; plus the OpenBLAS core the
  process dispatched to, since one numpy build runs different GEMM
  kernels on different CPUs, with different last-ulp results;
- ``kernel`` — the kernel-identity tag (see :func:`kernel_identity_tag`
  and the DESIGN note): simulation kernels are part of the function
  being memoized, so bumping a kernel version invalidates every entry
  produced by the old maths without touching the config schema.

Inputs the document cannot faithfully describe make the rollout
*uncacheable* and :func:`rollout_key_document` returns ``None``: a
situation-identifier **instance** (only registry spec strings and the
``None`` default are serializable), a non-dataclass case object, or a
profiled config (profiling is observational, but ``profile`` is part of
the config hash and a cached result could not carry measured stats
anyway).

This module is the only place rollout cache keys may be constructed —
the ``CAC001`` lint rule rejects ``config_hash`` calls elsewhere, so
every consumer (facade, batch engine, sweep runner) agrees on
one key for one rollout.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, List, Optional

from repro.utils.cache import config_hash
from repro.utils.version import __version__

__all__ = [
    "KEY_SCHEMA",
    "ROLLOUT_KERNEL_VERSION",
    "kernel_identity_tag",
    "rollout_key",
    "rollout_key_document",
]

#: Version of the key-document layout itself (bump on field changes).
KEY_SCHEMA = 2

#: Version of the closed-loop rollout kernels (engine stepping, batched
#: sensing, control maths).  Bump whenever a kernel change alters the
#: bits of any rollout — it invalidates every cached entry at once.
ROLLOUT_KERNEL_VERSION = 1


def kernel_identity_tag() -> str:
    """The kernel-identity component of every rollout cache key.

    Combines the rollout-kernel version with the renderer version (the
    renderer is the other numerical kernel whose output feeds the
    loop).  See ``docs/DESIGN.md`` for why this is part of the key.
    """
    from repro.sim.renderer import RENDERER_VERSION

    return f"rollout-v{ROLLOUT_KERNEL_VERSION}/renderer-v{RENDERER_VERSION}"


@functools.lru_cache(maxsize=None)
def _blas_core() -> str:
    """The OpenBLAS core numpy's bundled BLAS runs, or ``"unknown"``.

    Read once per process through ctypes from the ``scipy_openblas``
    library in ``numpy.libs``; a build without that library or symbol
    reports ``"unknown"``.
    """
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        name = corename()
        if name:
            return name.decode()
    return "unknown"


def _library_versions() -> Dict[str, str]:
    """Versions of the numerical libraries a rollout's bits depend on."""
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_core": _blas_core(),
    }


def _case_entry(case: Any) -> Optional[Any]:
    """JSON form of the design case (``None`` = uncacheable).

    Registry names resolve to their :class:`CaseConfig` first, so
    ``case="case4"`` and ``case=case_config("case4")`` address the same
    entry.
    """
    if isinstance(case, str):
        from repro.core.cases import case_config

        case = case_config(case)
    if is_dataclass(case) and not isinstance(case, type):
        return asdict(case)
    return None


def _table_entry(table: Any) -> Optional[List[list]]:
    """JSON form of the situation -> knob table, sorted for canonicity."""
    if table is None:
        return []
    entries = [
        [list(situation.to_config()), knobs.to_config()]
        for situation, knobs in table.items()
    ]
    entries.sort(key=lambda entry: entry[0])
    return entries


def rollout_key_document(
    *,
    track: Any,
    case: Any,
    table: Any = None,
    identifier: Any = None,
    config: Any = None,
) -> Optional[Dict[str, object]]:
    """The canonical key document for one rollout, or ``None``.

    ``None`` means the rollout is uncacheable (see the module
    docstring); callers then simply run it live.  The document is pure
    JSON (``json.dumps`` needs no coercions), so the exact string the
    store embeds next to each entry re-hashes to the entry's file name
    — that is what ``python -m repro cache --verify`` checks.
    """
    from repro.hil.engine import HilConfig

    if config is None:
        config = HilConfig()
    if config.profile:
        return None
    if identifier is not None and not isinstance(identifier, str):
        return None
    case_entry = _case_entry(case)
    if case_entry is None:
        return None
    document: Dict[str, object] = {
        "schema": KEY_SCHEMA,
        "kernel": kernel_identity_tag(),
        "package_version": __version__,
        "libraries": _library_versions(),
        "track": track.to_config(),
        "case": case_entry,
        "table": _table_entry(table),
        "identifier": identifier,
        "config": asdict(config),
    }
    try:
        json.dumps(document, sort_keys=True)
    except (TypeError, ValueError):
        # An input the document cannot faithfully serialize (e.g. a
        # fault plan carrying an exotic payload): run it live.
        return None
    return document


def rollout_key(document: Dict[str, object]) -> str:
    """Hash a key document to the store's content address."""
    return config_hash(document)
