"""Run records and QoC aggregation for closed-loop simulations."""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, fields
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.metrics.qoc import mae
from repro.sim.track import Track
from repro.utils.cache import read_entry, write_entry
from repro.utils.profiling import StageStats, format_stage_table

__all__ = ["CycleRecord", "HilResult", "SectorQoC", "load_with_extras"]


@dataclass
class CycleRecord:
    """Bookkeeping of one control cycle."""

    time_ms: float
    s: float
    active_isp: str
    roi: str
    speed_kmph: float
    period_ms: float
    delay_ms: float
    invoked: tuple
    measurement_valid: bool
    y_l_measured: float
    steering: float
    #: True when the cycle ran on the mitigation fallback knobs
    #: (identification stale — see repro.core.reconfiguration).
    degraded: bool = False
    #: Kind strings of the fault specs active during this cycle
    #: (empty without a fault plan — see repro.faults).
    faults: tuple = ()


#: Field order of a saved cycle row.
_CYCLE_FIELDS = tuple(f.name for f in fields(CycleRecord))
#: The trace arrays, in the order they are concatenated on disk.
_TRACE_ARRAYS = ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed")
#: What is not an ``extra_json`` entry: the record document's own keys
#: and the members of the older one-member-per-field layout.
_RECORD_KEYS = frozenset(
    (
        "crashed", "crash_s", "completed", "lengths", "fields",
        "float_fields", "cycles", "manifest",
    )
)
_LEGACY_MEMBERS = frozenset(
    _TRACE_ARRAYS + ("crashed", "crash_s", "completed", "cycles_json", "manifest_json")
)


def _read_record(data) -> Tuple[Dict[str, object], np.ndarray]:
    """The record document and trace vector of an open ``.npz`` file."""
    if "record_json" in data.files:
        return json.loads(data["record_json"].tobytes()), data["trace"]
    # The one-member-per-field layout written before the record document.
    arrays = [data[name] for name in _TRACE_ARRAYS]
    record = {
        name: str(data[name][()]) for name in data.files if name not in _LEGACY_MEMBERS
    }
    crash_s = float(data["crash_s"])
    cycles = []
    for cycle in json.loads(str(data["cycles_json"])):
        # Cycles saved before the fault subsystem lack these two fields.
        cycle = {"degraded": False, "faults": [], **cycle}
        cycles.append([cycle[name] for name in _CYCLE_FIELDS])
    record.update(
        crashed=bool(data["crashed"]),
        crash_s=None if np.isnan(crash_s) else crash_s,
        completed=bool(data["completed"]),
        lengths=[values.size for values in arrays],
        fields=list(_CYCLE_FIELDS),
        cycles=cycles,
        # Absent in traces saved before the telemetry subsystem.
        manifest=(
            json.loads(str(data["manifest_json"]))
            if "manifest_json" in data.files
            else None
        ),
    )
    return record, np.concatenate(arrays)


def _flat_rows(record: Dict[str, object], block: np.ndarray) -> Iterable[tuple]:
    """The cycle rows of a flat entry: float columns from *block*, the
    rest from the record's JSON columns."""
    floats, columns = record["float_fields"], record["cycles"]
    if block.ndim != 2 or block.shape[0] != len(floats):
        raise ValueError(f"cycle block {block.shape} for {len(floats)} float fields")
    columns = {**columns, **dict(zip(floats, block.tolist()))}
    if sorted(columns) != sorted(_CYCLE_FIELDS) or any(
        len(values) != block.shape[1] for values in columns.values()
    ):
        raise ValueError("cycle columns do not match the CycleRecord fields")
    return zip(*(columns[name] for name in _CYCLE_FIELDS))


def _read(path: str) -> Tuple[Dict[str, object], np.ndarray, Iterable[tuple]]:
    """Record document, trace vector and cycle rows of a saved result.

    A flat entry (:func:`repro.utils.cache.read_entry`) is read with
    one ``readinto``; a zip archive goes to the ``.npz`` reader of the
    two- and twelve-member layouts written before.
    """
    try:
        record, arrays = read_entry(path)
    except ValueError:
        if not zipfile.is_zipfile(path):
            raise
        with np.load(path, allow_pickle=False) as data:
            record, trace = _read_record(data)
        return record, trace, record["cycles"]
    if not isinstance(record, dict) or arrays.keys() != {"trace", "cycles"}:
        raise ValueError(f"{path}: not a saved result")
    return record, arrays["trace"], _flat_rows(record, arrays["cycles"])


def load_with_extras(path: str) -> Tuple["HilResult", Dict[str, str]]:
    """A saved result and the ``extra_json`` entries it carries, read once.

    Any record that does not fit raises :class:`ValueError` (or
    ``OSError`` for a file that cannot be read).
    """
    try:
        record, trace, rows = _read(path)
        result = HilResult._from_record(record, trace, rows)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed record ({exc!r})") from exc
    return result, {k: v for k, v in record.items() if k not in _RECORD_KEYS}


@dataclass
class SectorQoC:
    """Per-sector QoC summary (the Fig. 8 bar data)."""

    sector: int
    s_start: float
    s_end: float
    mae: Optional[float]
    reached: bool
    completed: bool

    @property
    def failed(self) -> bool:
        """The vehicle entered the sector but crashed inside it."""
        return self.reached and not self.completed


@dataclass
class HilResult:
    """Full trace of one closed-loop run."""

    time_s: np.ndarray
    s: np.ndarray
    lateral_offset: np.ndarray
    y_l_true: np.ndarray
    steering: np.ndarray
    speed: np.ndarray
    cycles: List[CycleRecord] = field(default_factory=list)
    crashed: bool = False
    crash_s: Optional[float] = None
    completed: bool = False
    #: Measured per-stage wall-clock stats (``HilConfig.profile=True``
    #: or ``REPRO_PROFILE=1``); ``None`` when profiling was off.  This
    #: is ephemeral observability data: :meth:`save` does not persist
    #: it, and it never influences the simulated trace.
    profile: Optional[Dict[str, StageStats]] = None
    #: The run manifest (config hash, package version, RNG streams —
    #: see :func:`repro.telemetry.build_manifest`).  Attached by the
    #: engine, persisted by :meth:`save`, and ``None`` for results
    #: constructed by hand or loaded from pre-telemetry traces.
    manifest: Optional[Dict[str, object]] = None

    def profile_table(self) -> str:
        """The stage-timing table as text ('' when profiling was off)."""
        if not self.profile:
            return ""
        return format_stage_table(self.profile)

    def mae(self, skip_time_s: float = 0.0) -> float:
        """MAE of the true look-ahead deviation (Eq. 1).

        ``skip_time_s`` optionally drops the initial transient (the runs
        start with a deliberate lateral offset).  Runs shorter than the
        skip (e.g. an early crash) fall back to the full trace.  An
        empty trace (a run that recorded no step) has no defined MAE
        and raises :class:`ValueError`.
        """
        if self.time_s.size == 0:
            raise ValueError("MAE of an empty trace is undefined")
        sel = self.time_s >= skip_time_s
        if not sel.any():
            sel = slice(None)
        return mae(self.y_l_true[sel])

    def duration_s(self) -> float:
        """Simulated duration of the run in seconds."""
        return float(self.time_s[-1]) if self.time_s.size else 0.0

    def max_offset(self) -> float:
        """Largest absolute lateral offset reached (0.0 on an empty trace)."""
        if self.lateral_offset.size == 0:
            return 0.0
        return float(np.max(np.abs(self.lateral_offset)))

    def degraded_cycles(self) -> int:
        """Cycles that ran on the mitigation fallback knobs."""
        return sum(1 for c in self.cycles if c.degraded)

    def degraded_fraction(self) -> float:
        """Fraction of cycles in degraded mode (0.0 without cycles)."""
        if not self.cycles:
            return 0.0
        return self.degraded_cycles() / len(self.cycles)

    def fault_kinds(self) -> tuple:
        """Distinct fault kinds seen across the run's cycles (sorted)."""
        return tuple(sorted({kind for c in self.cycles for kind in c.faults}))

    def save(
        self, path: str, *, extra_json: Optional[Dict[str, str]] = None
    ) -> Path:
        """Persist the trace as one flat entry file (the rollout cache's entry).

        The file is :func:`repro.utils.cache.write_entry`'s format.  Its
        JSON header holds ``crashed``, ``crash_s``, ``completed``, the
        six array ``lengths``, the :class:`CycleRecord` field names,
        ``float_fields`` (the cycle columns whose every value is a
        Python float) and, as JSON lists, the other columns (strings,
        bools, tuples, ints) under ``cycles``, plus the manifest.  Two
        raw float64 arrays follow: ``trace``, the six trace arrays
        concatenated, and ``cycles``, the float columns as one
        ``(columns, cycles)`` block.  Every field loads back with its
        Python type, and no float is parsed as text, so a cache hit is
        one read and one small ``json.loads``.

        Useful for offline analysis of long runs without re-simulating.
        The write is atomic (temp file + :func:`os.replace`), so a crash
        mid-write never leaves a corrupt file at the returned path —
        which is always exactly the file written, with the ``.npz``
        suffix applied when missing.  The suffix is historical: the
        rollout store's paths and the goldens predate this format.

        ``extra_json`` adds JSON-string entries to the header (e.g. the
        cache-key document :mod:`repro.cache` embeds for ``verify``;
        read them back with :func:`load_with_extras`).  :meth:`load`
        ignores them, so extras never change the loaded result.
        """
        target = Path(path)
        if target.suffix != ".npz":
            target = target.with_suffix(target.suffix + ".npz")
        arrays = [getattr(self, name) for name in _TRACE_ARRAYS]
        columns = {
            name: [getattr(c, name) for c in self.cycles] for name in _CYCLE_FIELDS
        }
        floats = [
            name
            for name, values in columns.items()
            if all(isinstance(value, float) for value in values)
        ]
        record = {
            "crashed": bool(self.crashed),
            "crash_s": self.crash_s,
            "completed": bool(self.completed),
            "lengths": [len(values) for values in arrays],
            "fields": list(_CYCLE_FIELDS),
            "float_fields": floats,
            "cycles": {
                name: values for name, values in columns.items() if name not in floats
            },
            "manifest": self.manifest,
        }
        for name, blob in (extra_json or {}).items():
            if name in record:
                raise ValueError(f"extra_json key shadows a record key: {name!r}")
            record[name] = blob
        block = np.array([columns[name] for name in floats], dtype=np.float64)
        return write_entry(
            target,
            record,
            {
                "trace": np.concatenate(arrays, dtype=np.float64),
                "cycles": block.reshape(len(floats), len(self.cycles)),
            },
        )

    @classmethod
    def load(cls, path: str) -> "HilResult":
        """Inverse of :meth:`save`; also reads the older ``.npz`` layouts.

        A record whose ``lengths`` do not split ``trace`` or whose cycle
        columns or rows do not fit :class:`CycleRecord` raises
        :class:`ValueError`, so a cache treats it like any corrupt entry.
        """
        return load_with_extras(path)[0]

    @classmethod
    def _from_record(
        cls, record: Dict[str, object], trace: np.ndarray, rows: Iterable[tuple]
    ) -> "HilResult":
        """Build a result from a saved record document, trace and cycle rows."""
        lengths = record["lengths"]
        if (
            trace.ndim != 1
            or len(lengths) != len(_TRACE_ARRAYS)
            or min(lengths) < 0
            or sum(lengths) != trace.size
        ):
            raise ValueError(f"lengths {lengths} do not split {trace.size} samples")
        width = len(_CYCLE_FIELDS)
        if record["fields"] != list(_CYCLE_FIELDS):
            raise ValueError("cycle fields do not match the CycleRecord fields")
        cycles = []
        for row in rows:
            if len(row) != width:
                raise ValueError("cycle rows do not match the CycleRecord fields")
            cycle = CycleRecord(*row)
            cycle.invoked, cycle.faults = tuple(cycle.invoked), tuple(cycle.faults)
            cycles.append(cycle)
        return cls(
            **{
                name: trace[end - n : end]
                for name, n, end in zip(_TRACE_ARRAYS, lengths, accumulate(lengths))
            },
            cycles=cycles,
            crashed=record["crashed"],
            crash_s=record["crash_s"],
            completed=record["completed"],
            manifest=record["manifest"],
        )

    def sector_qoc(self, track: Track, skip_distance_m: float = 0.0) -> List[SectorQoC]:
        """Aggregate QoC per track sector (Fig. 8).

        Parameters
        ----------
        track:
            The track the run was recorded on (provides sector bounds).
        skip_distance_m:
            Arc length skipped at the start of each sector before QoC is
            accumulated, so a sector's score is not dominated by the
            switching transient of its entry (the paper evaluates
            per-sector performance the same way: the transition effects
            belong to the failure analysis, not the steady QoC).
        """
        sectors: List[SectorQoC] = []
        progress = float(self.s[-1]) if self.s.size else 0.0
        for index, seg in enumerate(track.segments, start=1):
            reached = progress > seg.s_start
            completed = (progress >= seg.s_end - 1e-6) or (
                self.completed and index == len(track.segments)
            )
            sel = (self.s >= seg.s_start + skip_distance_m) & (self.s < seg.s_end)
            # Same Eq. 1 aggregate as HilResult.mae; a sector without a
            # single sample has no QoC (None), not a zero.
            sector_mae = mae(self.y_l_true[sel]) if sel.any() else None
            sectors.append(
                SectorQoC(
                    sector=index,
                    s_start=seg.s_start,
                    s_end=seg.s_end,
                    mae=sector_mae,
                    reached=reached,
                    completed=completed and not (
                        self.crashed
                        and self.crash_s is not None
                        and seg.s_start <= self.crash_s < seg.s_end
                    ),
                )
            )
        return sectors
