"""Layer spans recorded from outside the program.

A traced benchmark run wraps the public function at each layer boundary
of ``src/repro`` (at the site where the caller looks it up) and records
one span per call: ``(stage, start_ns, end_ns, parent, items)``.  Spans
stay in memory and are written as JSONL once the run ends.  A stage's
*self* time is its spans' duration minus the part their child spans
cover, so the self times of all stages plus the root spans' own self
time add up to the root wall time exactly.

Serial and batched twins of a kernel report under one stage name; a
batched call counts once in ``calls`` and B times in ``items``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the span the benchmark opens around each timed operation.
ROOT = "bench.op"


def _lanes(index: int) -> Callable[[tuple], int]:
    return lambda args: len(args[index])


def _rows(index: int) -> Callable[[tuple], int]:
    return lambda args: int(args[index].shape[0])


def _threshold_items(args: tuple) -> int:
    return int(args[0].shape[0]) if args[0].ndim == 4 else 1


def _batch_engine_items(args: tuple) -> int:
    return len(args[0].engines)


#: stage -> wrapped call sites ``(module, attribute path, items of a call)``;
#: ``None`` counts one item per call.
STAGES: Dict[str, Sequence[Tuple[str, str, Optional[Callable[[tuple], int]]]]] = {
    "sim.render": (
        ("repro.sim.renderer", "RoadSceneRenderer.render_raw", None),
        ("repro.hil.batch", "render_raw_batch", _lanes(0)),
    ),
    "isp.process": (
        ("repro.isp.pipeline", "IspPipeline.process", None),
        ("repro.isp.pipeline", "IspPipeline.process_batch", _rows(1)),
    ),
    "classifiers.identify": (
        ("repro.core.reconfiguration", "OracleIdentifier.identify", None),
    ),
    "perception.process": (
        ("repro.perception.pipeline", "PerceptionPipeline.process", None),
        ("repro.hil.batch", "perception_process_batch", _lanes(0)),
        ("repro.perception.evaluation", "process_batch", _lanes(0)),
    ),
    "perception.warp": (
        ("repro.perception.bev", "BevGrid.warp", None),
        ("repro.perception.bev", "BevGrid.warp_batch", _rows(1)),
    ),
    "perception.threshold": (
        ("repro.perception.pipeline", "dynamic_threshold", _threshold_items),
    ),
    "perception.window": (
        ("repro.perception.pipeline", "find_lane_pixels", None),
    ),
    "perception.fit": (
        ("repro.perception.pipeline", "fit_lane_lines", None),
    ),
    "perception.evaluate": (
        ("repro.core.characterization", "evaluate_sequence", None),
        ("repro.core.characterization", "evaluate_sequence_batch", _lanes(1)),
    ),
    "sim.plant": (
        ("repro.sim.vehicle", "Vehicle.step", None),
        ("repro.sim.vehicle", "Vehicle.step_batch", _rows(2)),
    ),
    "sim.frenet": (
        ("repro.sim.track", "Track.frenet", None),
        ("repro.sim.track", "Track.frenet_batch", _lanes(1)),
    ),
    "control.gains": (
        ("repro.control.gains", "GainScheduler.gains_for", None),
    ),
    "control.step": (
        ("repro.control.controller", "LaneKeepingController.step", None),
    ),
    "core.decide": (
        ("repro.core.reconfiguration", "ReconfigurationManager.begin_cycle", None),
        ("repro.core.reconfiguration", "ReconfigurationManager.decide", None),
    ),
    "cache.load": (("repro.cache.store", "RolloutCache.load", None),),
    "cache.store": (("repro.cache.store", "RolloutCache.store", None),),
    # The engines' own time, once every stage above is subtracted, is
    # the orchestration residual of the step loop.
    "hil.residual": (
        ("repro.hil.engine", "HilEngine.run", None),
        ("repro.hil.batch", "BatchedHilEngine.run", _batch_engine_items),
    ),
}

#: Per-stage ISP kernels, read from the program's own profiler spans.
ISP_STAGES = (
    "isp.demosaic",
    "isp.denoise",
    "isp.color_map",
    "isp.gamut_map",
    "isp.tone_map",
)


class SpanRecorder:
    """Collects spans from wrapped layer calls and benchmark root spans."""

    def __init__(self) -> None:
        #: ``(stage, start_ns, end_ns, parent index, items)`` per span,
        #: in the order the spans were opened.
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = [-1]

    def _open(self) -> Tuple[int, int]:
        parent = self._stack[-1]
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: int, items: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, items)

    @contextmanager
    def span(self, name: str):
        """A root (or nested) span opened by the benchmark itself."""
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, parent, name, start, 1)

    def wrap(self, fn: Callable, name: str, items: Optional[Callable[[tuple], int]]) -> Callable:
        """*fn* recording one span per call under *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start, items(args) if items else 1)

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every call site in :data:`STAGES`; returns the undo function.

        Static and class methods are re-wrapped in their descriptor, so
        ``Vehicle.step_batch(...)`` keeps working unbound.
        """
        undo = []
        for name, sites in STAGES.items():
            for module_name, path, items in sites:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self.wrap(raw.__func__, name, items))
                else:
                    wrapped = self.wrap(raw, name, items)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))

        def uninstall() -> None:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

        return uninstall

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in the order spans were opened."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, items in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "items": items}
                    )
                    + "\n"
                )

    def stage_table(self) -> Tuple[float, Dict[str, dict]]:
        """``(root wall s, stage -> calls/items/self_s/durations_ms)``.

        The root spans' own self time is reported as stage ``other``:
        time in the program that no wrapped layer covers.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        root_ns = 0
        table: Dict[str, dict] = {}
        for index, (name, start, end, parent, items) in enumerate(self.spans):
            duration = end - start
            if name == ROOT:
                root_ns += duration
                name = "other"
            row = table.setdefault(name, {"calls": 0, "items": 0, "self_s": 0.0, "durations_ms": []})
            row["calls"] += 1
            row["items"] += items
            row["self_s"] += (duration - child_ns[index]) / 1e9
            row["durations_ms"].append(duration / 1e6)
        return root_ns / 1e9, table
