"""Deterministic process-pool fan-out for independent sweep evaluations.

The characterization sweep (Table III), the Monte-Carlo sensitivity
study and the multi-case experiment drivers all evaluate many
*independent* closed-loop simulations: every work item carries its own
seed and builds its own world, so the only thing parallelism may change
is wall-clock time.  :func:`parallel_map` encodes that contract:

- **Determinism** — results are returned in submission order, never in
  completion order, and each worker executes exactly the code the
  serial loop would.  The produced values are therefore bit-identical
  for any worker count.  Work items that need their own random stream
  derive it with :func:`task_seed` (a thin wrapper over
  :func:`repro.utils.rng.stream_seed` that folds the task index into
  the stream name).
- **Safe serial fallback** — with ``jobs=1`` no process is ever
  spawned; the map degenerates to a plain loop, keeping tests,
  debuggers and coverage tools simple.
- **Crash isolation** — an exception inside one work item does not
  abort the sweep: the failing item is reported through logging and a
  :class:`TaskFailure` takes its slot in the result list, so callers
  can both continue and see exactly which knob setting failed.  If the
  pool itself dies (a worker segfault kills the executor), the
  remaining items are re-run serially in-process.
- **Stats funneling** — process-global collectors (the profiling
  singleton, the telemetry metrics registry) do not silently lose what
  workers record: registered :class:`StatsFunnel` instances scope a
  fresh collector around every task and merge its snapshot back into
  the parent, identically for serial and pooled execution.

Worker-count resolution (:func:`resolve_jobs`): an explicit integer
wins, then the ``REPRO_JOBS`` environment variable, then 1 (serial).
``0`` or ``"auto"`` selects ``os.cpu_count()``.

Lane-count resolution (:func:`resolve_batch`) works the same way for
the batched rollout engine: explicit value, then ``$REPRO_BATCH``,
then ``"auto"`` (a deterministic function of the task and worker
counts — never of timing).

Consecutive :func:`parallel_map` calls reuse one persistent
:class:`ProcessPoolExecutor` per worker count instead of spawning a
fresh pool per sweep stage (characterize alone runs two stages per
situation); :func:`shutdown_pool` tears it down explicitly and an
``atexit`` hook covers interpreter exit.  Forked workers inherit the
parent's state *as of pool creation* — callers that mutate process
globals (environment variables, monkeypatched modules) between sweeps
should call :func:`shutdown_pool` so the next sweep sees the change.
"""

from __future__ import annotations

import atexit
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.utils import profiling
from repro.utils.rng import stream_seed

__all__ = [
    "StatsFunnel",
    "TaskFailure",
    "parallel_map",
    "register_stats_funnel",
    "require_all",
    "resolve_batch",
    "resolve_jobs",
    "shutdown_pool",
    "task_seed",
]

_log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Log a progress line every this many completed tasks (and at the end).
_PROGRESS_EVERY = 8


@dataclass(frozen=True)
class TaskFailure:
    """Placeholder result for a work item whose evaluation raised.

    ``item`` is the original work spec (so the failing knob setting can
    be reported), ``error`` the formatted exception.
    """

    index: int
    item: object
    error: str

    def __bool__(self) -> bool:
        # Failures are falsy so ``[r for r in results if r]`` keeps
        # only successful evaluations.
        return False


def task_seed(seed: int, stream: str, index: int) -> int:
    """Per-task child seed: fold the task index into the stream name.

    Tasks seeded this way draw from statistically independent streams
    that depend only on ``(seed, stream, index)`` — never on worker
    identity or completion order — so a sweep is reproducible for any
    ``jobs`` value.
    """
    return stream_seed(seed, f"{stream}/{index}")


def resolve_jobs(jobs: Union[int, str, None] = None) -> int:
    """Resolve a worker count: explicit value, then ``$REPRO_JOBS``, then 1.

    ``0`` or ``"auto"`` (either as the argument or as the environment
    value) means :func:`os.cpu_count`.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        jobs = env
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ValueError(
                    f"invalid jobs value {jobs!r}: expected an integer or 'auto'"
                ) from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


#: Upper bound of the ``"auto"`` batch size: beyond ~16 lanes the
#: kernels stop gaining arithmetic intensity and peak memory grows.
_AUTO_BATCH_CAP = 16


def resolve_batch(
    batch: Union[int, str, None],
    n_tasks: int,
    jobs: int = 1,
) -> int:
    """Resolve the rollout lane count: explicit > ``$REPRO_BATCH`` > auto.

    ``0`` or ``"auto"`` (argument or environment value) chooses
    ``min(16, ceil(n_tasks / jobs))`` — every worker gets its whole
    chunk as one batch, capped where the kernels stop gaining.  The
    result depends only on ``(batch, n_tasks, jobs)``, never on timing,
    so sweep composition is deterministic.
    """
    if batch is None:
        env = os.environ.get("REPRO_BATCH", "").strip()
        batch = env if env else "auto"
    if isinstance(batch, str):
        if batch.lower() == "auto":
            batch = 0
        else:
            try:
                batch = int(batch)
            except ValueError:
                raise ValueError(
                    f"invalid batch value {batch!r}: expected an integer or 'auto'"
                ) from None
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    if batch == 0:
        batch = min(_AUTO_BATCH_CAP, math.ceil(n_tasks / max(1, jobs)))
    return max(1, batch)


# ---------------------------------------------------------------------------
# persistent pool
#
# Pool startup is pure overhead repeated per sweep stage; keeping one
# executor alive across consecutive parallel_map calls amortizes it.
# The pool is keyed by its worker count: asking for a different count
# replaces it (workers are forked lazily, so an oversized max_workers
# would still only fork what the first sweep touches — but replacing
# keeps the observable process count exact).

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS: int = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def _discard_pool() -> None:
    """Forget a broken pool without joining its corpse."""
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pool() -> None:
    """Shut down the persistent worker pool (no-op when none is live).

    Call between sweeps after mutating process-global state that forked
    workers must observe (environment knobs, monkeypatches); the next
    :func:`parallel_map` transparently starts a fresh pool.
    """
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(shutdown_pool)


def _run_one(fn: Callable[[T], R], item: T, index: int) -> Union[R, TaskFailure]:
    """Evaluate one work item, converting exceptions to TaskFailure."""
    try:
        return fn(item)
    # Crash isolation is the contract here: any failure becomes a
    # recorded TaskFailure and the sweep continues.
    except Exception as exc:
        return TaskFailure(index=index, item=item, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# worker-stats funnel
#
# Process-global collectors (the profiling singleton, the telemetry
# recorder) are inherited by forked workers, but whatever a worker
# records there dies with the pool.  A registered StatsFunnel closes
# that gap: when its collector is active in the parent, every task —
# serial or pooled — runs against a fresh per-task collector whose
# picklable snapshot rides back alongside the result and is merged into
# the parent's collector in submission order.  Because jobs=1 takes the
# exact same scope/snapshot/merge path, parent-side stats are identical
# for any worker count.


@dataclass(frozen=True)
class StatsFunnel:
    """How one process-global collector crosses the pool boundary.

    ``parent_active`` says whether the collector is live in the parent
    (inactive funnels add zero overhead); ``begin_task`` scopes a fresh
    collector in the executing process and returns an opaque handle;
    ``end_task`` restores the previous collector and returns a
    picklable snapshot; ``merge`` folds a snapshot into the parent's
    collector.  Workers resolve funnels by *name* from their own
    registry (names pickle, callables need not), which fork-based pools
    satisfy by inheriting the registration.
    """

    name: str
    parent_active: Callable[[], bool]
    begin_task: Callable[[], object]
    end_task: Callable[[object], object]
    merge: Callable[[object], None]


_FUNNELS: Dict[str, StatsFunnel] = {}


def register_stats_funnel(funnel: StatsFunnel) -> None:
    """Register *funnel* (replacing any previous one with its name)."""
    _FUNNELS[funnel.name] = funnel


def _active_funnel_names() -> Tuple[str, ...]:
    """Names of the funnels whose parent collector is live, sorted."""
    return tuple(
        sorted(name for name, f in _FUNNELS.items() if f.parent_active())
    )


def _run_one_with_stats(
    fn: Callable[[T], R], item: T, index: int, funnel_names: Tuple[str, ...]
) -> Tuple[Union[R, TaskFailure], Dict[str, object]]:
    """:func:`_run_one` plus per-task collector snapshots for the parent."""
    scoped = [
        (funnel, funnel.begin_task())
        for funnel in (_FUNNELS.get(name) for name in funnel_names)
        if funnel is not None
    ]
    result = _run_one(fn, item, index)
    payloads: Dict[str, object] = {}
    for funnel, handle in reversed(scoped):
        payloads[funnel.name] = funnel.end_task(handle)
    return result, payloads


def _merge_stats(payloads: Dict[str, object]) -> None:
    """Fold one task's collector snapshots into the parent collectors."""
    for name, snapshot in payloads.items():
        funnel = _FUNNELS.get(name)
        if funnel is not None:
            funnel.merge(snapshot)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: Union[int, str, None] = None,
    label: str = "sweep",
) -> List[Union[R, TaskFailure]]:
    """Map *fn* over *items*, optionally across a process pool.

    Parameters
    ----------
    fn:
        A picklable (module-level) callable evaluating one work item.
    items:
        Picklable work specs; evaluated independently.
    jobs:
        Worker count (see :func:`resolve_jobs`).  ``1`` runs a plain
        in-process loop without spawning anything.
    label:
        Name used in progress/failure log lines.

    Returns
    -------
    list
        One entry per item, in item order.  Entries are either ``fn``'s
        return value or a :class:`TaskFailure` (falsy) if that item
        raised.
    """
    n_jobs = resolve_jobs(jobs)
    items = list(items)
    if not items:
        return []
    # Resolved once up front so serial, pooled and broken-pool paths
    # agree on which collectors are scoped per task.
    funnel_names = _active_funnel_names()
    if n_jobs == 1:
        if not funnel_names:
            return [
                _seen(_run_one(fn, item, i), label)
                for i, item in enumerate(items)
            ]
        out: List[Union[R, TaskFailure]] = []
        for i, item in enumerate(items):
            result, payloads = _run_one_with_stats(fn, item, i, funnel_names)
            _merge_stats(payloads)
            out.append(_seen(result, label))
        return out

    results: List[Optional[Union[R, TaskFailure]]] = [None] * len(items)
    workers = min(n_jobs, len(items))
    _log.info("%s: %d tasks across %d workers", label, len(items), workers)
    pool = _get_pool(workers)
    if funnel_names:
        futures = [
            pool.submit(_run_one_with_stats, fn, item, i, funnel_names)
            for i, item in enumerate(items)
        ]
    else:
        futures = [
            pool.submit(_run_one, fn, item, i)
            for i, item in enumerate(items)
        ]
    broken_from: Optional[int] = None
    for i, future in enumerate(futures):
        try:
            if funnel_names:
                result, payloads = future.result()
                _merge_stats(payloads)
            else:
                result = future.result()
            results[i] = _seen(result, label)
        except BrokenProcessPool:
            # A worker died hard (e.g. OOM-kill): every unfinished
            # future raises.  Discard the dead executor so the next
            # sweep starts fresh, and fall back to in-process
            # execution for the remaining items.
            _discard_pool()
            broken_from = i
            break
        # Same crash-isolation contract for errors raised on the
        # submission side (e.g. an unpicklable work item).
        except Exception as exc:
            results[i] = _seen(
                TaskFailure(
                    index=i, item=items[i], error=f"{type(exc).__name__}: {exc}"
                ),
                label,
            )
        if (i + 1) % _PROGRESS_EVERY == 0 or i + 1 == len(items):
            _log.info("%s: %d/%d done", label, i + 1, len(items))
    if broken_from is not None:
        _log.warning(
            "%s: process pool broke at task %d/%d; finishing serially",
            label,
            broken_from + 1,
            len(items),
        )
        for i in range(broken_from, len(items)):
            if results[i] is None:
                if funnel_names:
                    result, payloads = _run_one_with_stats(
                        fn, items[i], i, funnel_names
                    )
                    _merge_stats(payloads)
                    results[i] = _seen(result, label)
                else:
                    results[i] = _seen(_run_one(fn, items[i], i), label)
    return results  # type: ignore[return-value]


def require_all(results: Sequence[Union[R, TaskFailure]], label: str) -> List[R]:
    """*results* as a list, or a ``RuntimeError`` if any task failed."""
    failed = [r for r in results if isinstance(r, TaskFailure)]
    if failed:
        raise RuntimeError(
            f"{label}: {len(failed)} of {len(results)} tasks failed "
            f"(first: {failed[0].error})"
        )
    return list(results)


def _seen(result: Union[R, TaskFailure], label: str) -> Union[R, TaskFailure]:
    """Log failures as they are collected; pass results through."""
    if isinstance(result, TaskFailure):
        _log.warning(
            "%s: task %d failed on %r: %s",
            label,
            result.index,
            result.item,
            result.error,
        )
    return result


# -- profiling funnel --------------------------------------------------------
#
# The profiling singleton is the original victim of the dropped-stats
# gap: sweep workers timed their stages into a forked copy of the
# parent's profiler and the numbers vanished with the pool.  The funnel
# below fixes that; repro.telemetry registers an equivalent funnel for
# its metrics registry at import.


def _profiling_parent_active() -> bool:
    return profiling.get_active() is not None


def _profiling_begin_task():
    previous = profiling.get_active()
    fresh = profiling.Profiler()
    profiling.activate(fresh)
    return previous, fresh


def _profiling_end_task(handle):
    previous, fresh = handle
    if previous is not None:
        profiling.activate(previous)
    else:
        profiling.deactivate()
    return fresh.snapshot()


def _profiling_merge(snapshot) -> None:
    active = profiling.get_active()
    if active is not None:
        active.merge(snapshot)


register_stats_funnel(
    StatsFunnel(
        name="profiling",
        parent_active=_profiling_parent_active,
        begin_task=_profiling_begin_task,
        end_task=_profiling_end_task,
        merge=_profiling_merge,
    )
)
