"""The closed-loop rollout engine: lock-step lanes, batched kernels.

Every closed-loop run goes through :class:`BatchedHilEngine`; a serial
``HilEngine.run`` is a batch of one lane.  Sweeps (Table III
characterization, Monte-Carlo studies) evaluate many *independent*
rollouts whose per-cycle cost is dominated by numpy dispatch overhead,
not arithmetic, so the engine advances B rollouts ("lanes") in lock
step — lanes advance their own 5 ms plant steps and rendezvous at
control cycles — and funnels the hot sensing stages through
leading-axis kernel calls per cycle, stacking lanes only where a stack
pays:

- **render** — lanes sharing (track, camera, options, sensed extent)
  stack their poses over the shared per-situation photometry constants
  (:func:`repro.sim.renderer.render_raw_batch`);
- **ISP** — lanes running the same configuration stack their RAW planes
  through :meth:`repro.isp.pipeline.IspPipeline.process_batch`, ISP
  fault taps applied per lane;
- **classifier** — each lane calls its own identifier on its own frame
  (:meth:`repro.hil.engine.HilEngine._cycle_classify`); a CNN forward
  is dominated by its per-row GEMMs, so stacking lanes gains little;
- **perception** — each lane warps its frame (one csr product) and
  thresholds its own BEV, whose channels stay in cache
  (:func:`repro.perception.pipeline.process_batch`).

Render and ISP are frame-sized and memory-bound: a stack only pays
while it stays in cache.  They stack at most :data:`STACK_PIXELS`
pixels per call, so a 16-lane group at 48x24 still goes through whole,
while at 384x192 (one frame is already 73,728 pixels, a 16-frame stack
4.7 MB of RAW and 14 MB of RGB) every lane gets its own call, which
runs ~1.1-1.2x faster per frame than the stack (DESIGN.md section 5).

A lane senses only its camera's :func:`~repro.perception.bev.sensing_box`
(render, noise, ISP and warp all run on that crop) on a cycle where
perception is the frame's only reader: no invoked identifier looks at
pixels, the active ISP configuration has no whole-frame statistic
(:data:`~repro.isp.stages.FRAME_STATISTIC_STAGES`), and no fault plan
touches the frame.  Every other lane-cycle senses the whole frame.  The
crop is bit for bit the whole frame's pixels where perception reads
them (DESIGN.md section 5).

Between cycles, lanes sharing a plant configuration advance a whole
control interval per call as one stacked cohort — the only plant loop
in :mod:`repro.hil`: RK4 ticks into a buffer, then one projection block
for every buffered pose and look-ahead point, each hinted with its
lane's start hint and projected again with its tick-by-tick hint until
that lies in the :meth:`Track.hint_slots` slot of the hint it used.
Points are independent and depend on their hint only through its slot,
so at that fixed point every point equals the tick-by-tick chain, by
induction over a lane's ticks.  A lane's trace is written as slices up
to its first tick off the road (a crash) or past the finish; the ticks
stepped beyond it are dropped unrecorded.

Everything else — controller, reconfiguration manager, fault
injection, RNG draws — is each lane's own Python, executed through the
cycle seam methods of :class:`repro.hil.engine.HilEngine`.  Batching
happens over the leading axis only and per-lane reduction orders are
unchanged, so every lane's :class:`HilResult` trace is invariant to
batch composition: bit-identical to running that lane alone (see
DESIGN.md for the invariance argument).

Lanes leave the active set as soon as they crash, finish the track, or
exhaust their step budget; the survivors keep batching until the last
lane retires.

:func:`run_batch` is the one rollout driver above the engine: every
caller that rolls closed loops (``repro.simulate``, the
characterization sweep, Fig. 6, Fig. 8, the ablations, the sensitivity
and fault-tolerance studies) hands it a list of lanes, and it does the
rollout-cache lookups and stores, the lane chunking and the process
fan-out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import RolloutCache, rollout_key_document
from repro.control.controller import LaneKeepingController
from repro.core.cases import CaseConfig
from repro.core.knobs import KnobSetting
from repro.core.reconfiguration import SituationIdentifier
from repro.core.situation import Situation
from repro.hil.engine import HilConfig, HilEngine
from repro.hil.record import HilResult
from repro.isp.stages import FRAME_STATISTIC_STAGES
from repro.perception.bev import sensing_box
from repro.perception.pipeline import PerceptionResult
from repro.perception.pipeline import process_batch as perception_process_batch
from repro.sim.camera import PixelBox
from repro.sim.geometry import Pose2D
from repro.sim.renderer import render_raw_batch
from repro.sim.track import Track
from repro.sim.vehicle import Vehicle, VehicleState
from repro.telemetry import build_manifest
from repro.telemetry import recorder as telemetry
from repro.utils import profiling
from repro.utils.parallel import TaskFailure, parallel_map, resolve_batch, resolve_jobs
from repro.utils.profiling import profile

__all__ = ["BatchedHilEngine", "run_batch"]

#: Largest stack, in pixels, that render and ISP still run as one call:
#: beyond it a lane group goes through in chunks of
#: ``max(1, STACK_PIXELS // (H * W))`` lanes, one lane per chunk at
#: 384x192.  Measured crossover of stacked vs one-lane-per-call
#: kernels; ``benchmarks/bench_sensing_stack.py`` re-derives it.
STACK_PIXELS = 2**16


def _stack_chunks(members: List[int], frame_pixels: int) -> List[List[int]]:
    """*members* in runs of at most ``STACK_PIXELS`` stacked pixels."""
    size = max(1, STACK_PIXELS // frame_pixels)
    return [members[k : k + size] for k in range(0, len(members), size)]


@dataclass
class _Lane:
    """Mutable per-lane rollout state: the step loop's variables."""

    engine: HilEngine
    vehicle: object
    n_steps: int
    s_hint: float  # its last tick's s: the next tick's projection hint
    s_now: float = 0.0  # its pose's s at the rendezvous
    controller: Optional[LaneKeepingController] = None
    step: int = 0
    control_due: int = 0
    pending: list = field(default_factory=list)  # (apply_step, command) in flight
    current_u: float = 0.0
    crashed: bool = False
    crash_s: Optional[float] = None
    completed: bool = False
    recorded: int = 0
    cycles: list = field(default_factory=list)
    active: bool = True

    def __post_init__(self):
        n = self.n_steps
        self.times = np.zeros(n)
        self.s_arr = np.zeros(n)
        self.d_arr = np.zeros(n)
        self.y_arr = np.zeros(n)
        self.steer_arr = np.zeros(n)
        self.speed_arr = np.zeros(n)

    def record(self, dt: float, rows, s, d, y_true) -> int:
        """Record an interval's ticks up to the first one off the road or
        past the finish; returns how many.  A lane still active puts its
        state at the rendezvous back onto its vehicle."""
        cfg = self.engine.config
        crash = np.abs(d) > cfg.crash_offset_m
        stop = crash | (s >= self.engine.track.length - cfg.end_margin_m)
        n = int(stop.argmax()) + 1 if stop.any() else s.size
        at = slice(self.recorded, self.recorded + n)
        self.times[at] = np.arange(self.step + 1, self.step + n + 1) * dt
        self.s_arr[at], self.d_arr[at], self.y_arr[at] = s[:n], d[:n], y_true[:n]
        self.speed_arr[at], self.steer_arr[at] = rows[:n, 5], rows[:n, 6]
        self.recorded += n
        self.step += n
        self.s_hint = float(s[n - 1])
        self.active = not stop[n - 1] and self.step < self.n_steps
        if stop[n - 1]:
            self.crashed = bool(crash[n - 1])
            self.completed = not self.crashed
            self.crash_s = self.s_hint if self.crashed else None
        elif self.active:
            x, y, heading, v_y, r, speed, steer = rows[n - 1].tolist()
            self.vehicle.state = VehicleState(Pose2D(x, y, heading), v_y, r, steer, speed)
        return n

    def result(self, profile, wall_started: float, wall_finished: float) -> HilResult:
        """Assemble the :class:`HilResult` of the finished rollout.

        The manifest is pure provenance (config hash, versions, RNG
        stream names, wall-clock bounds): always attached, never read
        back by the loop, so the simulated arrays stay bit-identical.
        """
        engine = self.engine
        manifest = build_manifest(
            config=engine.config,
            rng_streams=engine.rng_streams,
            started_at=wall_started,
            finished_at=wall_finished,
        )
        n = self.recorded
        return HilResult(
            time_s=self.times[:n],
            s=self.s_arr[:n],
            lateral_offset=self.d_arr[:n],
            y_l_true=self.y_arr[:n],
            steering=self.steer_arr[:n],
            speed=self.speed_arr[:n],
            cycles=self.cycles,
            crashed=self.crashed,
            crash_s=self.crash_s,
            completed=self.completed,
            profile=profile,
            manifest=manifest,
        )


class BatchedHilEngine:
    """Advance several independent :class:`HilEngine` rollouts lock-step.

    Lanes rendezvous at control cycles, not at raw simulation steps:
    each lane advances its own 5 ms plant steps (vectorized across the
    cohort sharing its plant configuration) until its next control
    cycle is due, then *all* active lanes run that cycle together
    through the batched sensing kernels.  Lanes
    with different sampling periods — a knob sweep evaluates exactly
    that — would almost never share a wall-clock step, but they always
    share cycle rendezvous, so every cycle batches the full surviving
    lane set.  Each lane's cycle carries its own simulated time; lanes
    are independent rollouts, so nothing couples their clocks.

    Sharing track objects, camera sizes, or ISP names across lanes is
    what unlocks the batched kernels, but none of it is required —
    unshared lanes run their own one-lane kernel calls and stay
    bit-identical either way.  The engine holds no result cache:
    :func:`run_batch` looks each lane up and hands only the misses to
    the engine.
    """

    def __init__(self, engines: Sequence[HilEngine]):
        if not engines:
            raise ValueError("BatchedHilEngine needs at least one engine")
        self.engines = list(engines)

    @staticmethod
    def _t_ms(lane: _Lane) -> float:
        """The lane's current simulated time (its own clock)."""
        return lane.step * lane.engine.config.sim_step_ms

    def run(self, start_s: float = 0.0) -> List[HilResult]:
        """Simulate every lane from ``start_s``; results in lane order."""
        # Profiling never alters the simulation: spans only read the
        # wall clock, and the loop's timing model stays Table II based.
        # A run profiles into its own collector whenever an outer
        # profiler is active (REPRO_PROFILE=1, ``repro profile``) or a
        # lane asks for it; the outer one then receives the run's
        # samples, and results and telemetry carry this run's stats
        # only.  Batched spans are whole-batch by nature.
        outer = profiling.get_active()
        profiler = None
        if outer is not None or any(e.config.profile for e in self.engines):
            profiler = profiling.Profiler()

        lanes = []
        for engine in self.engines:
            vehicle, n_steps = engine._start_run(start_s)
            lanes.append(_Lane(engine, vehicle, n_steps, s_hint=start_s))

        wall_started = time.time()
        with profiling.activated(profiler):
            active = [lane for lane in lanes if lane.n_steps > 0]
            while active:
                # A lane's first tick after its cycle is the cycle
                # step's plant update: the cycle set control_due and
                # queued its command at least one step ahead.
                self._advance_all(active)
                active = [lane for lane in active if lane.active]
                if active:
                    self._run_cycles(active)

        stats = None
        if profiler is not None:
            if outer is not None:
                outer.merge(profiler.snapshot())
            stats = profiler.stats()
            rec = telemetry.get_active()
            if rec is not None:
                rec.metrics.absorb_profiler(stats)

        wall_finished = time.time()
        return [lane.result(stats, wall_started, wall_finished) for lane in lanes]

    # ------------------------------------------------------------------

    def _advance_all(self, lanes: List[_Lane]) -> None:
        """Advance every lane to its next control cycle, plant vectorized.

        Lanes sharing ``(sim_step_ms, vehicle params, track)`` step as one
        stacked cohort of any size, one lane included.
        """
        cohorts: Dict[tuple, List[_Lane]] = {}
        for lane in lanes:
            key = (
                lane.engine.config.sim_step_ms,
                lane.vehicle.params,
                id(lane.engine.track),
            )
            cohorts.setdefault(key, []).append(lane)
        for (step_ms, params, _), members in cohorts.items():
            self._advance_group(members, params, step_ms / 1000.0)

    def _advance_group(self, members: List[_Lane], params, dt: float) -> None:
        """Advance one homogeneous lane cohort through a control interval:
        one :meth:`_project` block takes the buffered poses, each lane's
        rendezvous pose (whose ``s`` its next cycle starts from) and all
        their look-ahead points."""
        track = members[0].engine.track
        ticks = np.array(
            [min(lane.control_due, lane.n_steps) - lane.step for lane in members]
        )
        started = time.perf_counter()
        buf = self._plant_ticks(members, params, dt, ticks)
        # Lane-major rows: a lane's ticks in order, then its rendezvous
        # pose again; the next lane's rows follow.
        first = np.cumsum(ticks + 1) - (ticks + 1)
        lane_of = np.repeat(np.arange(len(members)), ticks + 1)
        nth = np.arange(lane_of.size) - first[lane_of]
        rows = buf[np.minimum(nth + 1, ticks[lane_of]), lane_of]
        n = rows.shape[0]
        look = np.array([lane.engine.perception.lookahead for lane in members])[lane_of]
        xs = np.concatenate((rows[:, 0], rows[:, 0] + look * np.cos(rows[:, 2])))
        ys = np.concatenate((rows[:, 1], rows[:, 1] + look * np.sin(rows[:, 2])))
        # A row chains from the row before it (a lane's first row from its
        # s_hint), a look-ahead point from its row.
        chain = np.where(nth == 0, -1, np.arange(-1, n - 1))
        starts = np.array([lane.s_hint for lane in members])[lane_of]
        s, d = self._project(
            track, xs, ys, np.tile(starts, 2), np.concatenate((chain, np.arange(n)))
        )
        s, d, y_true = s[:n], d[:n], d[n:]
        recorded = 0
        for lane, lo, hi in zip(members, first, first + ticks):
            lane.s_now = float(s[hi])
            if hi > lo:  # no lane ticks on a run's first call
                recorded += lane.record(dt, rows[lo:hi], s[lo:hi], d[lo:hi], y_true[lo:hi])
        profiler = profiling.get_active()
        if profiler is not None and recorded:
            profiler.record("hil.plant", time.perf_counter() - started, count=recorded)

    @staticmethod
    def _plant_ticks(members: List[_Lane], params, dt: float, ticks) -> np.ndarray:
        """The cohort's RK4 ticks, ``(ticks + 1, lanes, 7)``: row k holds
        each lane's ``x, y, heading, v_y, r, speed, steer`` after tick k.

        A queued command applies before its step's tick (with tau == h
        it lands exactly when the next frame is taken), never before one
        queued ahead of it; commands due at the rendezvous apply too.
        """
        buf = np.empty((ticks.max() + 1, len(members), 7))
        u = np.empty((ticks.max(), len(members)))
        for j, lane in enumerate(members):
            state = lane.vehicle.state
            pose = state.pose
            buf[0, j] = (pose.x, pose.y, pose.heading, state.lateral_velocity,
                         state.yaw_rate, state.speed, state.steer)
            u[:, j] = lane.current_u
            due = lane.step
            while lane.pending and lane.pending[0][0] <= lane.step + ticks[j]:
                apply_step, lane.current_u = lane.pending.pop(0)
                due = max(due, apply_step)
                u[due - lane.step :, j] = lane.current_u
        target = np.array([lane.vehicle.target_speed for lane in members])
        all_tick = ticks.min()
        for k in range(ticks.max()):
            # Every lane ticking (always so at B=1) needs no gather.
            sel = slice(None) if k < all_tick else np.flatnonzero(ticks > k)
            prev = buf[k]
            state, speed, steer = Vehicle.step_batch(
                params, dt, prev[sel, :5], prev[sel, 5], prev[sel, 6],
                target[sel], u[k, sel],
            )
            buf[k + 1, sel, :5] = state
            buf[k + 1, sel, 5] = speed
            buf[k + 1, sel, 6] = steer
        return buf

    @staticmethod
    def _project(track: Track, xs, ys, starts, source):
        """``(s, d)`` of every point, bit for bit its tick-by-tick chain: a
        point is hinted with the ``s`` of its *source* point, or with its
        start hint where *source* is negative (see the module docstring)."""
        head = source < 0
        hints, slots = starts, track.hint_slots(starts)
        while True:
            s, d = track.frenet_batch(xs, ys, hints)
            chained = np.where(head, starts, s[source])
            chained_slots = track.hint_slots(chained)
            if np.array_equal(chained_slots, slots):
                return s, d
            hints, slots = chained, chained_slots

    def _run_cycles(self, due: List[_Lane]) -> None:
        """Run one sensing+control cycle for every due lane, batched."""
        pres = [
            lane.engine._cycle_begin(
                self._t_ms(lane), lane.vehicle.state, lane.s_now
            )
            for lane in due
        ]

        sensing = [i for i, pre in enumerate(pres) if not pre.dropped]
        rgbs: Dict[int, np.ndarray] = {}
        if sensing:
            raws = self._render(due, pres, sensing)
            rgbs = self._isp(due, pres, sensing, raws)
            for i in sensing:
                due[i].engine._cycle_classify(self._t_ms(due[i]), pres[i], rgbs[i])

        decisions = []
        for i, (lane, pre) in enumerate(zip(due, pres)):
            with profile("hil.decide"):
                decision = lane.engine.manager.decide(self._t_ms(lane), pre.invoked)
            decisions.append(decision)
            if i in rgbs:
                lane.engine.perception.set_roi(decision.roi)

        measurements = self._perceive(due, rgbs)

        for i, (lane, pre, decision) in enumerate(zip(due, pres, decisions)):
            measurement = measurements.get(i)
            if measurement is None:
                measurement = PerceptionResult.invalid()
            u, decision, record, controller = lane.engine._cycle_finish(
                self._t_ms(lane), pre, decision, measurement, lane.controller
            )
            lane.controller = controller
            lane.cycles.append(record)
            lane.vehicle.set_target_speed(decision.speed_kmph / 3.6)
            tau_steps, h_steps = lane.engine._timing_steps(record)
            lane.pending.append((lane.step + tau_steps, u))
            lane.control_due = lane.step + h_steps

    @staticmethod
    def _sensed_box(engine: HilEngine, pre) -> Optional[PixelBox]:
        """The box of the frame a lane-cycle senses; ``None`` is all of it.

        The camera's sensing box when perception is the only reader of
        the frame: no invoked identifier looks at pixels, the active ISP
        configuration has no whole-frame statistic, and no fault plan
        is armed (RAW banding and ISP taps see whole frames).
        """
        if engine.injector.enabled or (
            pre.invoked and getattr(engine.identifier, "reads_frame", True)
        ):
            return None
        if not FRAME_STATISTIC_STAGES.isdisjoint(engine._isp(pre.active_isp).config.stages):
            return None
        return sensing_box(engine.camera, *engine.perception._bev_shape)

    def _render(
        self,
        due: List[_Lane],
        pres: list,
        sensing: List[int],
    ) -> Dict[int, np.ndarray]:
        """Batched render + per-lane RAW corruption; RAW plane per lane."""
        groups: Dict[tuple, List[int]] = {}
        for i in sensing:
            engine = due[i].engine
            renderer = engine.renderer
            box = self._sensed_box(engine, pres[i])
            key = (id(renderer.track), renderer.camera, renderer.options, box)
            groups.setdefault(key, []).append(i)

        raws: Dict[int, np.ndarray] = {}
        for (_, camera, _, box), members in groups.items():
            top, left, bottom, right = box or (0, 0, camera.height, camera.width)
            for chunk in _stack_chunks(members, (bottom - top) * (right - left)):
                renderers = [due[i].engine.renderer for i in chunk]
                poses = [pres[i].state.pose for i in chunk]
                with profile("hil.render", count=len(chunk)):
                    stacked = render_raw_batch(
                        renderers,
                        poses,
                        s_vehicles=[pres[i].s_now for i in chunk],
                        box=box,
                    )
                for j, i in enumerate(chunk):
                    raws[i] = stacked[j]
        for i in sensing:
            raws[i] = due[i].engine.injector.corrupt_raw(
                self._t_ms(due[i]), raws[i]
            )
        return raws

    def _isp(
        self,
        due: List[_Lane],
        pres: list,
        sensing: List[int],
        raws: Dict[int, np.ndarray],
    ) -> Dict[int, np.ndarray]:
        """Batched ISP per active configuration; RGB frame per lane.

        Lanes with an active ISP fault ride in the same call: their taps
        run per lane after each stage.
        """
        rgbs: Dict[int, np.ndarray] = {}
        groups: Dict[tuple, List[int]] = {}
        for i in sensing:
            groups.setdefault((pres[i].active_isp, raws[i].shape), []).append(i)
        for (isp_name, shape), members in groups.items():
            pipeline = due[members[0]].engine._isp(isp_name)
            for chunk in _stack_chunks(members, shape[0] * shape[1]):
                taps = [
                    due[i].engine.injector.isp_tap(self._t_ms(due[i])) for i in chunk
                ]
                with profile("hil.isp", count=len(chunk)):
                    batch_rgb = pipeline.process_batch(
                        np.stack([raws[i] for i in chunk]), taps=taps
                    )
                for j, i in enumerate(chunk):
                    rgbs[i] = batch_rgb[j]
        return rgbs

    def _perceive(
        self,
        due: List[_Lane],
        rgbs: Dict[int, np.ndarray],
    ) -> Dict[int, PerceptionResult]:
        """Per-lane warp, threshold, windows and fit, then dropout faults."""
        measurements: Dict[int, PerceptionResult] = {}
        members = sorted(rgbs)
        if members:
            pipelines = [due[i].engine.perception for i in members]
            frames = [rgbs[i] for i in members]
            with profile("hil.pr", count=len(members)):
                results = perception_process_batch(pipelines, frames)
            for i, measurement in zip(members, results):
                if due[i].engine.injector.perception_dropout(self._t_ms(due[i])):
                    measurement = PerceptionResult.invalid()
                measurements[i] = measurement
        return measurements


def _per_lane(value, n_lanes: int, name: str) -> list:
    """One value per lane: a list or tuple is per lane, anything else shared."""
    if not isinstance(value, (list, tuple)):
        return [value] * n_lanes
    if len(value) != n_lanes:
        raise ValueError(f"expected {n_lanes} {name}, got {len(value)}")
    return list(value)


def _run_chunk(chunk: Tuple[List[tuple], float]) -> List[HilResult]:
    """Build one lane chunk's engines and run them lock-step.

    Module level, so a process pool can ship it; a chunk is its lanes'
    ``(track, case, table, identifier, config)`` plus ``start_s``.
    """
    lanes, start_s = chunk
    engines = [
        HilEngine(track, case, table=table, identifier=identifier, config=config)
        for track, case, table, identifier, config in lanes
    ]
    return BatchedHilEngine(engines).run(start_s=start_s)


def run_batch(
    configs: Sequence[HilConfig],
    *,
    track: Union[Track, Sequence[Track]],
    case: Union[CaseConfig, str, Sequence[Union[CaseConfig, str]]],
    table: Union[
        Mapping[Situation, KnobSetting],
        Sequence[Optional[Mapping[Situation, KnobSetting]]],
        None,
    ] = None,
    identifier: Union[SituationIdentifier, str, None] = None,
    start_s: float = 0.0,
    jobs: Union[int, str, None] = 1,
    batch: Union[int, str, None] = None,
    cache: Optional[RolloutCache] = None,
) -> List[Union[HilResult, TaskFailure]]:
    """Run one rollout per config: the one rollout driver.

    ``track``, ``case`` and ``table`` each take one value shared by
    every lane or a per-lane list.  ``identifier`` accepts a registry
    spec string (resolved per lane, so each lane derives its own
    identifier RNG streams exactly as a serial run would) or a
    stateless identifier instance such as :class:`CnnIdentifier`
    (shared across lanes; each lane still classifies its own frame).

    Every lane is first looked up in ``cache`` (a
    :class:`~repro.cache.RolloutCache`, or ``None`` for no caching), in
    this process.  The misses are grouped by track object in order of
    first appearance, cut into chunks of
    :func:`~repro.utils.parallel.resolve_batch` lanes, and each chunk
    runs lock-step through :class:`BatchedHilEngine`; fresh results
    are stored from this process too, so the store's counters are exact
    for any worker count.  Results come back in config order, each
    bit-identical to ``HilEngine(...).run(start_s)`` for that lane.

    ``jobs`` (see :func:`~repro.utils.parallel.resolve_jobs`) spreads
    the chunks over :func:`~repro.utils.parallel.parallel_map`'s
    process pool, where a chunk that raised fills its lanes' slots with
    :class:`~repro.utils.parallel.TaskFailure`.  With one job the
    chunks run in this process as plain calls: an exception propagates
    to the caller, and an active telemetry recorder receives every
    event (the pool keeps only a task's metrics).
    """
    n_lanes = len(configs)
    tracks = _per_lane(track, n_lanes, "tracks")
    cases = _per_lane(case, n_lanes, "cases")
    tables = _per_lane(table, n_lanes, "tables")
    n_jobs = resolve_jobs(jobs)

    results: List[Union[HilResult, TaskFailure, None]] = [None] * n_lanes
    documents: List[Optional[dict]] = [None] * n_lanes
    if cache is not None:
        for i in range(n_lanes):
            documents[i] = rollout_key_document(
                track=tracks[i],
                case=cases[i],
                table=tables[i],
                identifier=identifier,
                config=configs[i],
            )
            results[i] = cache.load(documents[i])
    misses = [i for i, result in enumerate(results) if result is None]
    by_track: Dict[int, List[int]] = {}
    for i in misses:
        by_track.setdefault(id(tracks[i]), []).append(i)
    lanes = resolve_batch(batch, len(misses), n_jobs)
    groups = [
        members[k : k + lanes]
        for members in by_track.values()
        for k in range(0, len(members), lanes)
    ]
    chunks = [
        (
            [(tracks[i], cases[i], tables[i], identifier, configs[i]) for i in group],
            start_s,
        )
        for group in groups
    ]
    if n_jobs == 1:
        outputs = [_run_chunk(chunk) for chunk in chunks]
    else:
        outputs = parallel_map(_run_chunk, chunks, jobs=n_jobs, label="rollouts")
    for group, output in zip(groups, outputs):
        for lane, i in enumerate(group):
            if isinstance(output, TaskFailure):
                results[i] = TaskFailure(index=i, item=configs[i], error=output.error)
            else:
                results[i] = output[lane]
                if cache is not None:
                    cache.store(documents[i], output[lane])
    return results  # type: ignore[return-value]
