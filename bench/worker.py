"""One benchmark workload in a fresh process.

``run.py`` starts this script once per workload with a scrubbed
environment (no ``REPRO_*`` knobs, one BLAS thread, a private cache
directory) and reads the JSON object it prints as its last line.  The
worker sets the workload up, runs its cold operations, repeats its warm
operation until the time window closes, checks the outputs, and reports
per-operation timings, digests and, for a traced run, per-layer
statistics.

    PYTHONPATH=src python bench/worker.py WORKLOAD --seed N --seconds S --t0 T
        [--trace] [--smoke] [--setup-only] [--spans PATH]

``--t0`` is the launcher's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports and input construction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import spans

#: Seconds the reference kernel took on the 2-vCPU Xeon host the
#: baseline was measured on.  Timings are reported in *reference
#: seconds*: measured seconds times this over the kernel's time around
#: the measurement, which cancels most of a shared host's slowdowns.
REFERENCE_S = 0.020

#: HilResult arrays hashed into a run digest (with crashed/completed).
_TRACE_ARRAYS = ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed")


def results_digest(results) -> str:
    """SHA-256 over each result's trace arrays and its outcome flags."""
    digest = hashlib.sha256()
    for result in results:
        for name in _TRACE_ARRAYS:
            values = np.ascontiguousarray(getattr(result, name), dtype=np.float64)
            digest.update(b"%s:%d:" % (name.encode(), values.size))
            digest.update(values.tobytes())
        digest.update(b"crashed=%d completed=%d;" % (result.crashed, result.completed))
    return digest.hexdigest()


def table_digest(table) -> str:
    """SHA-256 of a situation -> knob table, independent of dict order."""
    rows = sorted(
        json.dumps([list(situation.to_config()), knobs.isp, knobs.roi, knobs.speed_kmph])
        for situation, knobs in table.items()
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@dataclass
class Outcome:
    """What one operation produced, summarised outside the timed region."""

    #: Operations with the same key compute the same inputs, so they
    #: must produce the same digest.
    key: str
    digest: str
    #: Simulated lane-seconds and control cycles the operation computed
    #: (zero for an operation served entirely from the cache).
    sim_s: float = 0.0
    cycles: int = 0
    #: Cycles with a valid perception measurement.
    valid: int = 0


def simulated(key: str, results, digest: Optional[str] = None) -> Outcome:
    """The outcome of an operation that simulated these rollouts."""
    cycles = [c for r in results for c in r.cycles]
    return Outcome(
        key=key,
        digest=digest or results_digest(results),
        sim_s=float(sum(r.duration_s() for r in results)),
        cycles=len(cycles),
        valid=sum(1 for c in cycles if c.measurement_valid),
    )


class Fig8Case4:
    """Serial (B=1) case-4 runs over every sector of the Fig. 7 track.

    One operation is a *tour*: for each of the nine sectors, a fresh
    ``HilEngine`` starts at the sector's first metre and runs a fixed
    simulated time.  A whole Fig. 8 run takes ~70 s, longer than a
    measurement window; the tour keeps its per-sector layer mix (eight
    S7 sectors and the S2 dark sector) in a few seconds.  The first
    tour is the cold operation.
    """

    cold_ops = 1

    def __init__(self, seed: int, smoke: bool, cache_dir: Path):
        from repro import hil
        from repro.sim.world import fig7_track

        self.hil = hil
        self.track = fig7_track()
        width, height = (48, 24) if smoke else (384, 192)
        self.config = hil.HilConfig(
            seed=3 + seed,
            frame_width=width,
            frame_height=height,
            max_sim_time_s=0.2 if smoke else 0.3,
        )
        self.starts = [segment.s_start for segment in self.track.segments]
        self.checked = seed % len(self.starts)
        self.first = None

    def _engine(self):
        return self.hil.HilEngine(self.track, "case4", config=self.config)

    def run(self, index: int):
        return [self._engine().run(start_s=start) for start in self.starts]

    def outcome(self, index: int, results) -> Outcome:
        if index == 0:
            self.first = results
        return simulated("tour", results)

    def run_digest(self, outcomes: List[Outcome]) -> str:
        return outcomes[0].digest

    def cross_check(self) -> List[str]:
        """The batched engine with one lane must reproduce a serial segment."""
        k = self.checked
        lane = self.hil.BatchedHilEngine([self._engine()]).run(start_s=self.starts[k])
        if results_digest(lane) != results_digest([self.first[k]]):
            return [f"sector {k + 1}: one-lane batched run differs from the serial run"]
        return []


class Mc16Batch:
    """Sixteen Monte-Carlo seeds advanced lock-step through the batched kernels.

    Every operation is the same 16-lane call; the first is the cold one.
    """

    cold_ops = 1

    def __init__(self, seed: int, smoke: bool, cache_dir: Path):
        import repro
        from repro.hil import HilConfig

        self.simulate = repro.simulate
        lanes = 2 if smoke else 16
        self.seeds = list(range(3 + seed, 3 + seed + lanes))
        self.kwargs = dict(
            situation=1,
            case="case4",
            length_m=20.0 if smoke else 60.0,
            frame=(48, 24) if smoke else (384, 192),
            cache="off",
            config=HilConfig(max_sim_time_s=0.5),
        )
        self.checked = seed % lanes
        self.first = None

    def run(self, index: int):
        return self.simulate(seed=self.seeds, batch="auto", **self.kwargs)

    def outcome(self, index: int, results) -> Outcome:
        if index == 0:
            self.first = results
        return simulated("batch", results)

    def run_digest(self, outcomes: List[Outcome]) -> str:
        return outcomes[0].digest

    def cross_check(self) -> List[str]:
        """Every lane is bit-identical to its serial run; check one of them."""
        k = self.checked
        serial = self.simulate(seed=self.seeds[k], **self.kwargs)
        if results_digest([serial]) != results_digest([self.first[k]]):
            return [f"lane {k}: batched result differs from the serial run"]
        return []


class Table3Lofi:
    """The Table III knob sweep at 48x24 over all 21 situations.

    The cold operations sweep the situations three at a time into an
    empty cache: prescreen plus batched closed-loop rollouts, each
    stored.  Seven short cold operations instead of one long sweep let
    the reference kernel track the host's speed through the cold phase;
    lanes never span situations, so the work is the same as one sweep.
    Every warm operation then sweeps all 21 situations and loads every
    rollout back.  One speed knob (50 km/h), 20 m tracks and 10
    prescreen frames keep the cold phase near 10 s.
    """

    #: Situations per cold operation.
    GROUP = 3
    #: Lanes per lock-step chunk: what ``batch="auto"`` resolves to for
    #: the whole grid, fixed so that a group chunks like the whole grid.
    BATCH = 16

    def __init__(self, seed: int, smoke: bool, cache_dir: Path):
        import repro
        from repro.cache import RolloutCache
        from repro.core.characterization import CharacterizationConfig
        from repro.hil import HilResult

        self.characterize = repro.characterize
        self.load = HilResult.load
        self.situations = (1, 8) if smoke else tuple(range(1, 22))
        self.groups = [
            self.situations[i : i + self.GROUP]
            for i in range(0, len(self.situations), self.GROUP)
        ]
        self.cold_ops = len(self.groups)
        self.config = CharacterizationConfig(
            track_length=20.0,
            frame_width=48,
            frame_height=24,
            prescreen_frames=4 if smoke else 10,
            speeds_kmph=(50.0,),
            seed=11 + seed,
        )
        self.store = RolloutCache(cache_dir / "rollouts")
        self.stored: Dict[Path, str] = {}
        self.cold_table: Dict = {}
        self.warm_table = None

    def run(self, index: int):
        cold = index < self.cold_ops
        return self.characterize(
            situations=self.groups[index] if cold else self.situations,
            config=self.config,
            jobs=1,
            batch=self.BATCH,
            cache=str(self.store.root),
        )

    def outcome(self, index: int, table) -> Outcome:
        if index >= self.cold_ops:
            self.warm_table = self.warm_table or table
            return Outcome(key="warm", digest=table_digest(table))
        self.cold_table.update(table)
        # The rollouts this cold operation stored, read back untimed.
        fresh = {p: self.load(p) for p in self.store.entries() if p not in self.stored}
        self.stored.update({p: results_digest([r]) for p, r in fresh.items()})
        return simulated(f"cold{index}", list(fresh.values()), digest=table_digest(table))

    def run_digest(self, outcomes: List[Outcome]) -> str:
        """The table plus every stored rollout, independent of key layout."""
        rollouts = "".join(sorted(self.stored.values()))
        return hashlib.sha256((table_digest(self.cold_table) + rollouts).encode()).hexdigest()

    def cross_check(self) -> List[str]:
        checked, problems = self.store.verify()
        if checked != len(self.stored) or checked == 0:
            problems.append(f"the cold sweeps stored {len(self.stored)} rollouts, the store holds {checked}")
        if self.warm_table is not None and self.warm_table != self.cold_table:
            problems.append("the warm sweep's table differs from the cold sweeps'")
        return problems


WORKLOADS = {
    "fig8_case4": Fig8Case4,
    "mc16_batch": Mc16Batch,
    "table3_lofi": Table3Lofi,
}

#: Warm operations a smoke run performs (it ignores --seconds).
SMOKE_WARM_OPS = {"fig8_case4": 1, "mc16_batch": 1, "table3_lofi": 5}


class ReferenceKernel:
    """A fixed piece of work that runs no code of the program.

    It mixes what the workloads spend their time on -- interpreted
    Python, small-array numpy calls, frame-sized float32 arithmetic and
    a scipy image filter -- so that a busy host stretches it about as
    much as it stretches an operation.  Calling it returns its seconds.
    """

    def __init__(self) -> None:
        from scipy import ndimage

        rng = np.random.default_rng(0)
        self._convolve = ndimage.convolve
        self._frame = rng.random((192, 384, 3), dtype=np.float32)
        self._small = rng.random(256)
        self._kernel = np.full((3, 3), 1.0 / 9.0, dtype=np.float32)
        self()  # first-touch page faults are not host speed

    def __call__(self) -> float:
        started = time.perf_counter()
        table: Dict[int, float] = {}
        for i in range(50_000):
            table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        for _ in range(2500):
            np.maximum(self._small, 0.5).sum()
        frame = self._frame
        for _ in range(8):
            frame = np.clip(frame * 1.01 + 0.001, 0.0, 1.0)
            self._convolve(frame[:, :, 0], self._kernel)
        return time.perf_counter() - started


def reference_seconds(wall_s: List[float], kernel_s: List[float]) -> List[float]:
    """Each operation's seconds on the reference host.

    ``kernel_s[i]`` ran just before operation ``i`` and the last sample
    after the last operation.  The host's speed around an operation is
    the median of the two kernel samples before and the two after it,
    so one disturbed kernel sample does not skew the operation.
    """
    return [
        wall * REFERENCE_S / statistics.median(kernel_s[max(0, i - 1) : i + 3])
        for i, wall in enumerate(wall_s)
    ]


def deferred_stats_profiler():
    """The program's own profiler, without statistics after every run.

    Each finished rollout attaches ``profiler.stats()`` to its result;
    with one profiler shared by a whole traced run that would sort every
    sample so far after each rollout.  This one returns no statistics
    there, and the benchmark reads its raw samples once, at the end.
    """
    from repro.utils.profiling import Profiler

    class DeferredStatsProfiler(Profiler):
        def stats(self):
            return {}

    return DeferredStatsProfiler()


def _percentiles(samples_ms: List[float]) -> Dict[str, float]:
    """p50, and p95 once at least ten samples lie beyond it."""
    values = np.asarray(samples_ms)
    out = {"p50_ms": float(np.percentile(values, 50))}
    if values.size >= 200:
        out["p95_ms"] = float(np.percentile(values, 95))
    return out


def layer_report(recorder: spans.SpanRecorder, profiler_snapshot: Dict[str, tuple]) -> dict:
    """Per-stage calls, items, self time and call latency of a traced run."""
    root_s, table = recorder.stage_table()
    layers = {}
    for name, row in table.items():
        row.update(_percentiles(row.pop("durations_ms")))
        layers[name] = row
    for name in spans.ISP_STAGES:
        samples, count, total = profiler_snapshot.get(name, ([], 0, 0.0))
        row = {"calls": len(samples), "items": count, "self_s": total}
        if samples:
            row.update(_percentiles([s * 1e3 for s in samples]))
        layers[name] = row
    return {"root_s": root_s, "layers": layers}


def versions() -> dict:
    """Interpreter, library and BLAS versions the workload ran against."""
    import scipy

    import repro

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, Path(os.environ["REPRO_CACHE_DIR"])
    )
    setup_s = time.monotonic() - args.t0
    kernel = ReferenceKernel()
    kernel_s = [kernel()]
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s * REFERENCE_S / kernel_s[0]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    from repro.cache import global_stats
    from repro.utils import profiling

    recorder = spans.SpanRecorder() if args.trace else None
    if recorder:
        uninstall = recorder.install()
        profiler = profiling.activate(deferred_stats_profiler())
    cache_before = global_stats().snapshot()

    last_op = workload.cold_ops + SMOKE_WARM_OPS[args.workload] if args.smoke else None
    ops: List[dict] = []
    outcomes: List[Outcome] = []
    errors: List[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(ops)
        if index:
            kernel_s.append(kernel())
        started = time.perf_counter()
        try:
            if recorder:
                with recorder.span(spans.ROOT):
                    product = workload.run(index)
            else:
                product = workload.run(index)
            wall_s = time.perf_counter() - started
            outcomes.append(workload.outcome(index, product))
        # Boundary of the measured program: record the failure, stop timing.
        except Exception:
            errors.append(traceback.format_exc())
            ops.append({"wall_s": time.perf_counter() - started, "failed": True})
            break
        ops.append({"wall_s": wall_s, "cold": index < workload.cold_ops})
        if len(ops) == last_op or (
            last_op is None and len(ops) > workload.cold_ops and time.perf_counter() >= deadline
        ):
            break
    kernel_s.append(kernel())
    for op, ref_s in zip(ops, reference_seconds([op["wall_s"] for op in ops], kernel_s)):
        op["ref_s"] = ref_s

    cache_stats = global_stats().since(cache_before).as_dict()
    trace = None
    if recorder:
        uninstall()
        profiling.deactivate()
        trace = layer_report(recorder, profiler.snapshot())
        if args.spans:
            recorder.write_jsonl(args.spans)

    digest = None
    if outcomes:
        first: Dict[str, str] = {}
        for op, outcome in zip(ops, outcomes):
            op.update(
                sim_s=outcome.sim_s,
                cycles=outcome.cycles,
                failed=first.setdefault(outcome.key, outcome.digest) != outcome.digest,
            )
        digest = workload.run_digest(outcomes)
        errors.extend(workload.cross_check())

    print(
        json.dumps(
            {
                **setup,
                "ops": ops,
                "kernel_s": kernel_s,
                "digest": digest,
                "errors": errors,
                "valid": sum(o.valid for o in outcomes),
                "cache": cache_stats,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "versions": versions(),
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
