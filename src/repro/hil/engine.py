"""The closed-loop HiL engine.

One run couples, at a 5 ms base step:

- the **vehicle plant** (nonlinear bicycle + steering actuator),
- the **camera** (a frame is available every step — 200 FPS),
- the **sensing chain** (ISP with the active knob -> scheduled
  classifiers -> sliding-window perception with the active ROI),
- the **reconfiguration manager** (believed situation -> knobs; ISP
  knob applied next cycle),
- the **controller** (situation-scheduled delay-aware LQR), whose
  output is actuated ``ceil(tau / 5 ms)`` steps after the frame was
  sampled.

A run ends when the vehicle reaches the end of the track, exceeds the
crash offset (lane departure), or the time budget runs out.

This module holds a run's configuration and its per-cycle seams; the
step loop lives in :mod:`repro.hil.batch`, and :meth:`HilEngine.run` is
that lock-step engine with one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.utils.contracts import assert_finite, contracts_enabled
from repro.control.controller import LaneKeepingController
from repro.control.gains import GainScheduler
from repro.control.lqr import LqrWeights
from repro.core.cases import CaseConfig, case_config
from repro.core.knobs import KnobSetting
from repro.core.reconfiguration import (
    MitigationConfig,
    OracleIdentifier,
    ReconfigurationManager,
    SituationIdentifier,
)
from repro.core.situation import Situation
from repro.faults.injection import (
    CLASSIFIER_FAILED,
    CLASSIFIER_WRONG,
    build_injector,
)
from repro.faults.plan import FaultPlan
from repro.hil.record import CycleRecord, HilResult
from repro.isp.pipeline import IspPipeline
from repro.perception.pipeline import PerceptionPipeline
from repro.sim.camera import CameraModel
from repro.sim.geometry import Pose2D
from repro.sim.renderer import RenderOptions, RoadSceneRenderer
from repro.sim.track import Track
from repro.sim.vehicle import Vehicle, VehicleParams, VehicleState
from repro.telemetry import recorder as telemetry
from repro.telemetry.events import CYCLE_END, CYCLE_START, IDENTIFIER_INVOKED
from repro.utils.profiling import profile
from repro.utils.rng import collect_streams

__all__ = ["HilConfig", "HilEngine"]


@dataclass
class _CyclePre:
    """Per-lane cycle context produced by :meth:`HilEngine._cycle_begin`.

    Carries everything the later cycle phases need, so the lock-step
    engine (:mod:`repro.hil.batch`) can interleave phases across lanes
    without re-deriving state.  ``invoked`` is already ``()`` when the
    frame was dropped: no identification runs that cycle.
    """

    state: object
    s_now: float
    true_situation: Situation
    active_isp: str
    invoked: tuple
    rec: object
    dropped: bool


@dataclass(frozen=True)
class HilConfig:
    """Engine parameters (paper Sec. IV-A defaults).

    The default frame size is 384x192 — 3/4 of the paper's 512x256 — to
    keep closed-loop wall-clock practical; timing (``tau``, ``h``) comes
    from the Xavier model either way, and the BEV resampling makes the
    perception geometry resolution-independent.
    """

    frame_width: int = 384
    frame_height: int = 192
    sim_step_ms: float = 5.0
    initial_offset_m: float = 0.20
    initial_heading_err: float = 0.0
    crash_offset_m: float = 1.975  # half lane width + half vehicle margin
    end_margin_m: float = 8.0
    max_sim_time_s: Optional[float] = None
    invocation_window_ms: float = 300.0
    isp_apply_lag: int = 1
    power_mode: str = "30W"
    sensor_noise: bool = True
    imu_noise: bool = False
    frame_drop_rate: float = 0.0
    use_feedforward: bool = False
    use_lqg: bool = False
    seed: int = 0
    #: Measure wall-clock time per sensing/control stage and attach the
    #: stats to :attr:`HilResult.profile`.  Pure observability: the
    #: simulated trace is bit-identical with profiling on or off (timing
    #: in the loop is *modeled* via Table II, never measured).
    profile: bool = False
    #: Deterministic fault campaign applied at the sensing seams (see
    #: :mod:`repro.faults`).  ``None`` or an empty plan injects nothing
    #: and leaves the trace bit-identical.
    fault_plan: Optional[FaultPlan] = None
    #: Graceful-degradation policy (staleness watchdog + bounded
    #: classifier retries).  ``None`` disables mitigation; an attached
    #: but idle policy (no faults firing) does not alter the trace.
    mitigation: Optional[MitigationConfig] = None


class HilEngine:
    """Runs closed-loop LKAS simulations for one track and design case."""

    def __init__(
        self,
        track: Track,
        case: Union[CaseConfig, str],
        table: Optional[Mapping[Situation, KnobSetting]] = None,
        identifier: Optional[Union[SituationIdentifier, str]] = None,
        config: HilConfig = HilConfig(),
        vehicle_params: VehicleParams = VehicleParams(),
        weights: LqrWeights = LqrWeights(),
    ):
        self.track = track
        self.case = case if isinstance(case, CaseConfig) else case_config(case)
        self.config = config
        self.vehicle_params = vehicle_params

        # The manifest records which RNG streams a run consumes; the
        # collection listener only observes derive_rng *names*, so the
        # generators constructed inside are untouched.
        with collect_streams() as streams:
            self.camera = CameraModel(
                width=config.frame_width, height=config.frame_height
            )
            self.renderer = RoadSceneRenderer(
                self.camera,
                track,
                options=RenderOptions(noise=config.sensor_noise),
                seed=config.seed,
            )
            self.perception = PerceptionPipeline(self.camera)
            if isinstance(identifier, str):
                # Registry spec, e.g. "oracle:0.99" or "cnn" — mirrors
                # case_config(name) for the case argument.
                from repro.core.identifiers import resolve_identifier

                identifier = resolve_identifier(identifier, seed=config.seed)
            self.identifier = identifier or OracleIdentifier(seed=config.seed)
            self.injector = build_injector(config.fault_plan, config.seed)
            self.manager = ReconfigurationManager(
                self.case,
                table,
                invocation_window_ms=config.invocation_window_ms,
                isp_apply_lag=config.isp_apply_lag,
                power_mode=config.power_mode,
                mitigation=config.mitigation,
            )
            self.gain_scheduler = GainScheduler(vehicle_params, weights)
            self._isp_cache: Dict[str, IspPipeline] = {}
            self._lqg_estimator = None
            self._kalman_cache: Dict[int, "np.ndarray"] = {}
            if config.imu_noise:
                from repro.sim.imu import ImuModel

                self._imu = ImuModel(seed=config.seed)
            else:
                self._imu = None
            if not 0.0 <= config.frame_drop_rate < 1.0:
                raise ValueError("frame_drop_rate must be in [0, 1)")
            from repro.utils.rng import derive_rng

            self._drop_rng = derive_rng(config.seed, "frame-drop")
        #: RNG stream names derived while the engine assembled itself
        #: (externally constructed identifier instances derive theirs
        #: before this scope and are not captured).
        self.rng_streams = tuple(sorted(set(streams)))

    def _isp(self, name: str) -> IspPipeline:
        pipeline = self._isp_cache.get(name)
        if pipeline is None:
            pipeline = IspPipeline(name)
            self._isp_cache[name] = pipeline
        return pipeline

    def _start_run(self, start_s: float):
        """Reset the manager and build the initial vehicle + step budget.

        Called by the lock-step engine (:mod:`repro.hil.batch`) once per
        lane, whatever the batch it runs in.
        """
        cfg = self.config
        track = self.track
        initial_situation = track.situation_at(start_s)
        self.manager.reset(initial_situation)

        # Initial pose: on the lane with the configured offset.
        center = track.pose_at(start_s, cfg.initial_offset_m)
        pose = Pose2D(
            center.x, center.y, center.heading + cfg.initial_heading_err
        )
        # Initial speed: what the case would command in this situation.
        # A preview, not a decide(): deciding here would enqueue an ISP
        # knob that begin_cycle pops one cycle early at step 0.
        initial_decision = self.manager.preview()
        vehicle = Vehicle(
            self.vehicle_params,
            VehicleState(pose=pose, speed=initial_decision.speed_kmph / 3.6),
        )
        max_time_s = cfg.max_sim_time_s
        if max_time_s is None:
            # Generous budget: slowest knob speed plus transients.
            max_time_s = (track.length - start_s) / (30.0 / 3.6) * 1.5 + 10.0
        n_steps = int(np.ceil(max_time_s / (cfg.sim_step_ms / 1000.0)))
        return vehicle, n_steps

    def _timing_steps(self, record: CycleRecord):
        """Actuation delay / control period of a cycle in whole steps."""
        cfg = self.config
        tau_steps = max(
            1, int(np.ceil(record.delay_ms / cfg.sim_step_ms - 1e-9))
        )
        h_steps = max(1, int(round(record.period_ms / cfg.sim_step_ms)))
        return tau_steps, h_steps

    def run(self, start_s: float = 0.0) -> HilResult:
        """Simulate from ``start_s`` to the end of the track.

        A serial run is the lock-step stepper with one lane: the same
        loop, kernels and result as this engine's lane in any batch.
        """
        # Function-local: repro.hil.batch imports this module.
        from repro.hil.batch import BatchedHilEngine

        return BatchedHilEngine([self]).run(start_s)[0]

    # ------------------------------------------------------------------

    def _filter_measurement(self, gains, measurement, u_prev):
        """Optional LQG path: Kalman-filter the perception measurement.

        The estimator state persists across situation switches (the
        physical state is continuous); the model/filter gains follow
        the active design.
        """
        from repro.control.lqg import KalmanLaneEstimator, design_kalman_gain

        key = id(gains)
        kalman_gain = self._kalman_cache.get(key)
        if kalman_gain is None:
            kalman_gain = design_kalman_gain(gains)
            self._kalman_cache[key] = kalman_gain
        if self._lqg_estimator is None:
            self._lqg_estimator = KalmanLaneEstimator(gains, kalman_gain)
        elif self._lqg_estimator.gains is not gains:
            self._lqg_estimator.set_gains(gains, kalman_gain)
        estimator = self._lqg_estimator
        estimator.predict(u_prev)
        estimator.update(measurement)
        return estimator.filtered_measurement(curvature=measurement.curvature)

    def _cycle_begin(self, t_ms, state, s_now) -> _CyclePre:
        """Phase 1 of a cycle: situate, open the cycle, roll frame drop.

        The lock-step engine runs this per lane, with the *s_now* it
        projected, before grouping lanes for the batched sensing
        kernels; each lane's operations keep their order whatever the
        batch, so traces stay bit-identical.
        """
        true_situation = self.track.situation_at(s_now)

        active_isp, invoked = self.manager.begin_cycle(t_ms)
        # One lookup per cycle: with telemetry disabled every hook below
        # is a single `is not None` check on the shared no-op slot.
        rec = telemetry.get_active()
        if rec is not None:
            rec.emit(
                CYCLE_START,
                time_ms=t_ms,
                s=s_now,
                active_isp=active_isp,
                invoked=list(invoked),
            )
        dropped = (
            self.config.frame_drop_rate > 0.0
            and self._drop_rng.random() < self.config.frame_drop_rate
        )
        if dropped:
            # Camera glitch: no frame this cycle — no identification,
            # no measurement; the controller holds (fault injection).
            invoked = ()
        return _CyclePre(
            state, s_now, true_situation, active_isp, invoked, rec, dropped
        )

    def _cycle_classify(self, t_ms, pre: _CyclePre, rgb) -> None:
        """Phase 2b: classifier invocation + identification bookkeeping."""
        invoked = pre.invoked
        rec = pre.rec
        # None means every invocation is clean (the only path the
        # null injector takes, so fault-free runs stay identical).
        outcomes = self.injector.classifier_outcomes(t_ms, invoked)
        if outcomes is None:
            if invoked:
                if rec is not None:
                    rec.emit(
                        IDENTIFIER_INVOKED,
                        time_ms=t_ms,
                        classifiers=list(invoked),
                    )
                with profile("hil.classifier"):
                    features = self.identifier.identify(
                        rgb, invoked, pre.true_situation
                    )
                self.manager.integrate_identification(features)
            self.manager.note_identification(t_ms, invoked)
        else:
            ok = tuple(
                n for n in invoked if outcomes[n] != CLASSIFIER_FAILED
            )
            failed = tuple(
                n for n in invoked if outcomes[n] == CLASSIFIER_FAILED
            )
            wrong = tuple(n for n in ok if outcomes[n] == CLASSIFIER_WRONG)
            if ok:
                if rec is not None:
                    rec.emit(
                        IDENTIFIER_INVOKED,
                        time_ms=t_ms,
                        classifiers=list(ok),
                    )
                with profile("hil.classifier"):
                    features = self.identifier.identify(
                        rgb, ok, pre.true_situation
                    )
                features = self.injector.corrupt_features(
                    t_ms, features, wrong
                )
                self.manager.integrate_identification(features)
            self.manager.note_identification(t_ms, ok, failed)

    def _cycle_finish(self, t_ms, pre: _CyclePre, decision, measurement, controller):
        """Phase 3: contracts, control law, cycle record + telemetry."""
        state = pre.state
        s_now = pre.s_now
        rec = pre.rec
        invoked = pre.invoked
        if contracts_enabled():
            # NaN here would silently corrupt the control loop; fail at
            # the sensing/control boundary instead.
            assert_finite(
                (measurement.y_l, measurement.epsilon_l, measurement.curvature),
                "perception measurement",
            )
        self.manager.observe_measurement(measurement.valid)

        with profile("hil.control"):
            gains = self.gain_scheduler.gains_for(
                decision.speed_kmph / 3.6,
                decision.timing.period_s,
                decision.timing.delay_s,
            )
            if controller is None:
                controller = LaneKeepingController(
                    gains,
                    steer_limit=self.vehicle_params.steer_limit,
                    use_feedforward=self.config.use_feedforward,
                )
            else:
                controller.set_gains(gains)

            if self.config.use_lqg:
                measurement = self._filter_measurement(
                    gains, measurement, controller.state.u_prev
                )

            if self._imu is not None:
                v_y, r, steer = self._imu.sample(
                    state, self.config.sim_step_ms / 1000.0
                )
            else:
                v_y, r, steer = (
                    state.lateral_velocity,
                    state.yaw_rate,
                    state.steer,
                )
            u = controller.step(measurement, v_y, r, steer)
        # A latency-spike fault blocks the pipeline: the extra time adds
        # to this cycle's delay and period (0.0 without faults, which
        # leaves the float values bit-identical).
        extra_ms = self.injector.extra_latency_ms(t_ms)
        record = CycleRecord(
            time_ms=t_ms,
            s=s_now,
            active_isp=decision.active_isp,
            roi=decision.roi,
            speed_kmph=decision.speed_kmph,
            period_ms=decision.timing.period_ms + extra_ms,
            delay_ms=decision.timing.delay_ms + extra_ms,
            invoked=invoked,
            measurement_valid=measurement.valid,
            y_l_measured=measurement.y_l,
            steering=u,
            degraded=decision.degraded,
            faults=self.injector.active_kinds(t_ms),
        )
        if rec is not None:
            rec.emit(
                CYCLE_END,
                time_ms=t_ms,
                s=s_now,
                active_isp=record.active_isp,
                roi=record.roi,
                speed_kmph=record.speed_kmph,
                period_ms=record.period_ms,
                delay_ms=record.delay_ms,
                measurement_valid=record.measurement_valid,
                degraded=record.degraded,
                steering=u,
            )
        return u, decision, record, controller
