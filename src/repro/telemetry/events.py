"""The telemetry event schema: names, required fields, schema version.

Every event emitted through :class:`repro.telemetry.TelemetryRecorder`
uses one of the constants below, so renaming an event is a single-file
change and the trace diff tool can rely on a closed set of names.
:data:`EVENT_SCHEMA` maps each name to the fields an emit must provide;
the recorder validates both at runtime.

Bump :data:`SCHEMA_VERSION` whenever an event gains/loses required
fields or changes meaning; every persisted trace line carries the
version so offline consumers can dispatch on it.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "RUN_MANIFEST",
    "CYCLE_START",
    "CYCLE_END",
    "KNOBS_RECONFIGURED",
    "IDENTIFIER_INVOKED",
    "FAULT_ACTIVATED",
    "FAULT_CLEARED",
    "DEGRADED_ENTER",
    "DEGRADED_EXIT",
    "EVENT_SCHEMA",
]

#: Version stamped into every event line and manifest.
SCHEMA_VERSION = 1

#: The first line of every trace file: the run manifest record.
RUN_MANIFEST = "run.manifest"
#: A control cycle began (ISP knob applied, classifiers scheduled).
CYCLE_START = "cycle.start"
#: A control cycle finished (knobs, timing, and controller output).
CYCLE_END = "cycle.end"
#: The reconfiguration manager changed at least one knob.
KNOBS_RECONFIGURED = "knobs.reconfigured"
#: The situation identifier ran for a set of classifiers.
IDENTIFIER_INVOKED = "identifier.invoked"
#: A fault spec's window opened.
FAULT_ACTIVATED = "fault.activated"
#: A fault spec's window closed.
FAULT_CLEARED = "fault.cleared"
#: The staleness watchdog engaged the safe fallback knobs.
DEGRADED_ENTER = "degraded.enter"
#: Identification recovered; characterized knobs are trusted again.
DEGRADED_EXIT = "degraded.exit"

#: Registered event name -> required payload fields.  The recorder
#: rejects unknown names and missing fields at emit time.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    RUN_MANIFEST: ("manifest",),
    CYCLE_START: ("time_ms", "s", "active_isp", "invoked"),
    CYCLE_END: (
        "time_ms",
        "s",
        "active_isp",
        "roi",
        "speed_kmph",
        "period_ms",
        "delay_ms",
        "measurement_valid",
        "degraded",
        "steering",
    ),
    KNOBS_RECONFIGURED: ("time_ms", "isp", "roi", "speed_kmph", "degraded"),
    IDENTIFIER_INVOKED: ("time_ms", "classifiers"),
    FAULT_ACTIVATED: ("time_ms", "kind", "spec"),
    FAULT_CLEARED: ("time_ms", "kind", "spec"),
    DEGRADED_ENTER: ("time_ms",),
    DEGRADED_EXIT: ("time_ms",),
}
