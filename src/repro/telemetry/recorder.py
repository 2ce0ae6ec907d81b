"""The telemetry recorder and its shared no-op activation pattern.

This mirrors :mod:`repro.utils.profiling` exactly: a module-level
``_ACTIVE`` recorder that defaults to ``None``, so instrumentation in
the per-cycle hot path costs one ``get_active() is None`` check when
telemetry is off — no object allocation, no string formatting, nothing
recorded.  Hook sites follow the idiom::

    rec = telemetry.get_active()
    if rec is not None:
        rec.emit(telemetry.CYCLE_START, time_ms=t_ms, ...)

Enabling
--------
- ``REPRO_TELEMETRY=1`` in the environment activates a process-global
  recorder at import time, or
- pass ``--telemetry out.jsonl`` to ``python -m repro run``, or
- programmatically: ``activate(TelemetryRecorder())`` / the
  ``activated()`` context manager.

Telemetry never touches RNG state or array values, so simulated traces
are bit-identical with telemetry on or off (tier-1 pinned).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.telemetry.events import EVENT_SCHEMA, SCHEMA_VERSION
from repro.telemetry.metrics import MetricsRegistry
from repro.utils import parallel

__all__ = [
    "TelemetryRecorder",
    "telemetry_enabled",
    "activate",
    "deactivate",
    "get_active",
    "activated",
]


def telemetry_enabled() -> bool:
    """Whether ``REPRO_TELEMETRY`` requests telemetry (checked per call)."""
    return os.environ.get("REPRO_TELEMETRY", "0").lower() not in ("", "0", "false")


class TelemetryRecorder:
    """Accumulates schema-validated events and a metrics registry."""

    def __init__(self):
        self.events: List[Dict[str, object]] = []
        self.metrics = MetricsRegistry()

    def emit(self, event: str, **fields) -> None:
        """Append one event; *event* must be a registered schema name.

        Unknown names and missing required fields raise
        :class:`ValueError` — an unregistered event would be invisible
        to ``trace --diff`` consumers.
        """
        required = EVENT_SCHEMA.get(event)
        if required is None:
            raise ValueError(
                f"unknown telemetry event {event!r}; register it in "
                "repro.telemetry.events.EVENT_SCHEMA"
            )
        missing = [name for name in required if name not in fields]
        if missing:
            raise ValueError(
                f"telemetry event {event!r} is missing required fields "
                f"{missing}"
            )
        record: Dict[str, object] = {"event": event, "schema": SCHEMA_VERSION}
        record.update(fields)
        self.events.append(record)

    def events_of(self, event: str) -> List[Dict[str, object]]:
        """The recorded events with name *event*, in emit order."""
        return [record for record in self.events if record["event"] == event]

    def reset(self) -> None:
        """Drop all recorded events and metrics."""
        self.events.clear()
        self.metrics.reset()


_ACTIVE: Optional[TelemetryRecorder] = None


def activate(recorder: Optional[TelemetryRecorder] = None) -> TelemetryRecorder:
    """Install *recorder* (or a fresh one) as the active collector."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else TelemetryRecorder()
    return _ACTIVE


def deactivate() -> Optional[TelemetryRecorder]:
    """Remove the active recorder; returns it (with its data)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def get_active() -> Optional[TelemetryRecorder]:
    """The currently active recorder, if any."""
    return _ACTIVE


@contextmanager
def activated(recorder: Optional[TelemetryRecorder]):
    """Scoped activation; ``activated(None)`` is a no-op passthrough.

    Restores whatever recorder was active before on exit, so nested
    scopes (a run inside an env-enabled session) compose.
    """
    global _ACTIVE
    if recorder is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


# -- parallel_map stats funnel ----------------------------------------------
#
# Worker processes inherit the parent's active recorder via fork but
# their events/metrics die with the pool.  Registering this funnel makes
# parallel_map scope a fresh recorder around each task and ship its
# metrics snapshot back with the result; per-worker *events* are
# intentionally dropped (a sweep's event interleaving is not
# deterministic — its metrics are).


def _funnel_parent_active() -> bool:
    return _ACTIVE is not None


def _funnel_begin_task():
    previous = _ACTIVE
    fresh = TelemetryRecorder()
    activate(fresh)
    return previous, fresh


def _funnel_end_task(handle):
    previous, fresh = handle
    if previous is not None:
        activate(previous)
    else:
        deactivate()
    return fresh.metrics.snapshot()


def _funnel_merge(snapshot) -> None:
    active = _ACTIVE
    if active is not None:
        active.metrics.merge(snapshot)


parallel.register_stats_funnel(
    parallel.StatsFunnel(
        name="telemetry",
        parent_active=_funnel_parent_active,
        begin_task=_funnel_begin_task,
        end_task=_funnel_end_task,
        merge=_funnel_merge,
    )
)


# REPRO_TELEMETRY in the environment enables collection for the whole
# process without touching any call site.
if telemetry_enabled():  # pragma: no cover - env-dependent import effect
    activate(TelemetryRecorder())
