"""Content-addressed cache of whole closed-loop rollouts.

The characterization sweep re-runs thousands of rollouts whose outputs
are fully determined by their inputs; this package memoizes them on
disk so a warm sweep (or a repeated facade call) loads results instead
of simulating.  The invariant the test layer enforces end to end: a
cache hit is **bit-identical** to the rerun it replaces — arrays,
cycle records, and the manifest minus its wall-clock bounds.

- :mod:`repro.cache.keys` — canonical key documents and hashing (the
  only legal place to build rollout keys; lint rule ``CAC001``);
- :mod:`repro.cache.store` — the sharded atomic store with LRU bound,
  hit/miss counters and ``verify``.

Consumers: the rollout driver :func:`repro.hil.batch.run_batch`, which
``repro.simulate(cache=...)`` and the characterization sweep go through
(it looks every lane up and stores every fresh result in the calling
process; only the misses are rolled, in any worker count), and the
``python -m repro cache`` CLI.
"""

from repro.cache.keys import (
    KEY_SCHEMA,
    ROLLOUT_KERNEL_VERSION,
    kernel_identity_tag,
    rollout_key,
    rollout_key_document,
)
from repro.cache.store import (
    CacheStats,
    RolloutCache,
    global_stats,
    resolve_cache,
)

__all__ = [
    "KEY_SCHEMA",
    "ROLLOUT_KERNEL_VERSION",
    "CacheStats",
    "RolloutCache",
    "global_stats",
    "kernel_identity_tag",
    "resolve_cache",
    "rollout_key",
    "rollout_key_document",
]
