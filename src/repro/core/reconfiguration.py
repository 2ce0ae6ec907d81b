"""Dynamic runtime reconfiguration (paper Sec. III-D).

Each control cycle:

1. the scheduled classifiers analyse the ISP output and update the
   *believed* situation features (road layout / lane type / scene);
2. the best pre-characterized knob tuning for the believed situation is
   selected: the **PR and control knobs apply in the same cycle**, the
   **ISP knob applies from the next cycle** (the frame was already
   processed with the old ISP configuration) — the paper argues the one
   cycle of extra latency is harmless because situations do not change
   per frame;
3. the cycle's ``(h, tau)`` follow from the ISP configuration that ran
   and the case's classifier budget, via the platform timing model.

Situation identification is abstracted behind
:class:`SituationIdentifier` so the closed loop can run either with the
trained CNN classifiers (:mod:`repro.classifiers`) or with a
ground-truth oracle of configurable accuracy (useful for fast tests and
for isolating perception effects from classification effects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.cases import CaseConfig
from repro.core.defaults import (
    default_characterization,
    natural_roi,
    natural_speed_kmph,
)
from repro.core.knobs import KnobSetting
from repro.core.scheduler import InvocationScheme
from repro.core.situation import (
    LaneColor,
    LaneForm,
    RoadLayout,
    Scene,
    Situation,
)
from repro.platform.schedule import PipelineTiming, pipeline_timing
from repro.telemetry import recorder as telemetry
from repro.telemetry.events import (
    DEGRADED_ENTER,
    DEGRADED_EXIT,
    KNOBS_RECONFIGURED,
)
from repro.utils.rng import derive_rng

__all__ = [
    "SituationIdentifier",
    "OracleIdentifier",
    "CycleDecision",
    "MitigationConfig",
    "ReconfigurationManager",
]


class SituationIdentifier:
    """Maps a frame to situation-feature estimates.

    ``identify`` returns a dict with any of the keys ``"road"``
    (:class:`RoadLayout`), ``"lane"`` (``(LaneColor, LaneForm)``) and
    ``"scene"`` (:class:`Scene`) — only for the classifiers in *which*.
    """

    #: Whether :meth:`identify` looks at the frame's pixels.  The
    #: closed loop senses only the part of the frame perception reads
    #: on cycles where no invoked identifier does.
    reads_frame = True

    def identify(
        self,
        frame_rgb: np.ndarray,
        which: Tuple[str, ...],
        true_situation: Situation,
    ) -> Dict[str, object]:
        raise NotImplementedError


class OracleIdentifier(SituationIdentifier):
    """Ground-truth identifier with configurable per-call accuracy.

    With ``accuracy < 1`` each invocation independently returns a wrong
    label with probability ``1 - accuracy`` (uniform over the wrong
    classes), modelling the ~0.1 % error rates of Table IV or any
    degraded classifier for sensitivity studies.  It never looks at the
    frame.
    """

    reads_frame = False

    def __init__(self, accuracy: float = 1.0, seed: int = 0):
        if not 0.0 < accuracy <= 1.0:
            raise ValueError(f"accuracy must be in (0, 1], got {accuracy}")
        self.accuracy = accuracy
        self._rng = derive_rng(seed, "oracle-identifier")

    def _maybe_flip(self, true_value, choices):
        if self.accuracy >= 1.0 or self._rng.random() < self.accuracy:
            return true_value
        wrong = [c for c in choices if c != true_value]
        return wrong[self._rng.integers(len(wrong))]

    def identify(
        self,
        frame_rgb: np.ndarray,
        which: Tuple[str, ...],
        true_situation: Situation,
    ) -> Dict[str, object]:
        result: Dict[str, object] = {}
        if "road" in which:
            result["road"] = self._maybe_flip(
                true_situation.layout, list(RoadLayout)
            )
        if "lane" in which:
            true_lane = (true_situation.lane_color, true_situation.lane_form)
            lane_classes = [
                (color, form)
                for color in LaneColor
                for form in LaneForm
            ]
            result["lane"] = self._maybe_flip(true_lane, lane_classes)
        if "scene" in which:
            result["scene"] = self._maybe_flip(true_situation.scene, list(Scene))
        return result


@dataclass(frozen=True)
class CycleDecision:
    """Everything the HiL engine needs for one control cycle."""

    active_isp: str
    invoked_classifiers: Tuple[str, ...]
    roi: str
    speed_kmph: float
    timing: PipelineTiming
    believed: Situation
    #: True when the staleness watchdog selected the safe fallback
    #: knobs instead of the characterized tuning (see
    #: :class:`MitigationConfig`).
    degraded: bool = False


@dataclass(frozen=True)
class MitigationConfig:
    """Graceful-degradation policy for the reconfiguration manager.

    Attach one via ``ReconfigurationManager(mitigation=...)`` (or
    ``HilConfig(mitigation=...)``) to enable:

    - **staleness watchdog** — the manager tracks when identification
      last succeeded; once the believed situation is older than
      ``stale_after_ms`` (classifier outage, persistent timeouts, a
      blind sensor), knob selection falls back to the safe defaults:
      the *natural* ROI of the believed situation and the conservative
      speed, with the active ISP held (no blind switching);
    - **bounded retry** — a classifier invocation that produced no
      output is re-invoked in the next cycle's budget, at most
      ``retry_limit`` times per failure episode (the count resets when
      the classifier succeeds again).

    Without faults the watchdog never fires and no retries are
    scheduled, so an attached-but-idle mitigation leaves closed-loop
    traces bit-identical (the acceptance regression pins this).
    """

    #: Believed-situation age beyond which the safe fallback engages.
    #: 900 ms = three 300 ms invocation windows — every scheme
    #: refreshes at least one feature well inside that.
    stale_after_ms: float = 900.0
    #: Retries per failed classifier invocation (per failure episode).
    retry_limit: int = 1
    #: Fallback speed knob when identification is stale (the paper's
    #: conservative turn speed).
    conservative_speed_kmph: float = 30.0

    def __post_init__(self):
        if self.stale_after_ms <= 0:
            raise ValueError(
                f"stale_after_ms must be > 0, got {self.stale_after_ms}"
            )
        if self.retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {self.retry_limit}")
        if self.conservative_speed_kmph <= 0:
            raise ValueError(
                "conservative_speed_kmph must be > 0, got "
                f"{self.conservative_speed_kmph}"
            )


class ReconfigurationManager:
    """Holds the believed situation and selects knobs per cycle."""

    def __init__(
        self,
        case: CaseConfig,
        table: Optional[Mapping[Situation, KnobSetting]] = None,
        invocation_window_ms: float = 300.0,
        isp_apply_lag: int = 1,
        power_mode: str = "30W",
        mitigation: Optional[MitigationConfig] = None,
    ):
        """``isp_apply_lag`` is the number of cycles between deciding an
        ISP knob and it taking effect.  The paper's scheme is 1 (the
        frame was already processed when the classifiers ran); 0 models
        a hypothetical same-cycle oracle and larger values a slower
        reconfiguration path — exercised by the ablation benchmarks.
        ``power_mode`` rescales the platform's profiled runtimes (the
        paper measures at the Xavier 30 W preset).
        ``invocation_window_ms`` is the variable-scheme window (the
        same keyword as ``HilConfig.invocation_window_ms``); the old
        ``window_ms`` spelling went through a ``DeprecationWarning``
        cycle and was removed in 1.3.0.  ``mitigation`` enables graceful
        degradation (see :class:`MitigationConfig`); ``None`` disables
        it entirely."""
        if isp_apply_lag < 0:
            raise ValueError(f"isp_apply_lag must be >= 0, got {isp_apply_lag}")
        self.case = case
        self.power_mode = power_mode
        self.table = dict(table) if table is not None else default_characterization()
        self.invocation_window_ms = invocation_window_ms
        self.scheme: InvocationScheme = case.make_scheme(invocation_window_ms)
        self.isp_apply_lag = isp_apply_lag
        self.mitigation = mitigation
        self._believed: Optional[Situation] = None
        self._believed_changed = False
        self._active_isp = "S0"
        self._isp_queue: list = []
        self._last_identified_ms = 0.0
        self._identification_failed = False
        self._retry_queue: List[str] = []
        self._retry_counts: Dict[str, int] = {}
        self._last_knobs: Optional[Tuple[str, str, float]] = None
        self._degraded = False

    # -- lifecycle -------------------------------------------------------

    def reset(self, initial_situation: Situation) -> None:
        """Start a run: the believed situation is the starting one."""
        self._believed = initial_situation
        self._believed_changed = False
        self.scheme.reset()
        isp = self._select_isp(initial_situation)
        self._active_isp = isp
        self._isp_queue = []
        self._last_identified_ms = 0.0
        self._identification_failed = False
        self._retry_queue = []
        self._retry_counts = {}
        self._last_knobs = None
        self._degraded = False

    @property
    def believed(self) -> Situation:
        """The currently believed situation (requires :meth:`reset`)."""
        if self._believed is None:
            raise RuntimeError("ReconfigurationManager.reset() was not called")
        return self._believed

    # -- per-cycle protocol ------------------------------------------------

    def begin_cycle(self, time_ms: float) -> Tuple[str, Tuple[str, ...]]:
        """Apply the pending ISP knob and pick this cycle's classifiers.

        Classifier invocations that failed last cycle and were granted
        a retry (see :class:`MitigationConfig`) are appended to the
        scheduled set — the bounded retry rides in this cycle's budget.
        """
        if self._isp_queue and len(self._isp_queue) >= self.isp_apply_lag:
            self._active_isp = self._isp_queue.pop(0)
        invoked = tuple(
            c
            for c in self.scheme.classifiers_for_cycle(time_ms)
            if c in self.case.classifiers
        )
        if self._retry_queue:
            retries = tuple(c for c in self._retry_queue if c not in invoked)
            self._retry_queue = []
            invoked = invoked + retries
        return self._active_isp, invoked

    def integrate_identification(self, features: Mapping[str, object]) -> Situation:
        """Merge classifier outputs into the believed situation."""
        current = self.believed
        layout = features.get("road", current.layout)
        lane = features.get("lane", (current.lane_color, current.lane_form))
        scene = features.get("scene", current.scene)
        color, form = lane  # type: ignore[misc]
        self._believed = Situation(layout, color, form, scene)  # type: ignore[arg-type]
        if self._believed != current:
            self._believed_changed = True
        return self._believed

    def note_identification(
        self,
        time_ms: float,
        succeeded: Tuple[str, ...],
        failed: Tuple[str, ...] = (),
    ) -> None:
        """Record which scheduled classifier invocations produced output.

        Successful identification refreshes the believed situation's
        timestamp (the staleness watchdog's input) and closes any retry
        episode for those classifiers.  Failed invocations (timeout,
        outage, blind frame) are queued for a bounded retry in the next
        cycle when mitigation is enabled.
        """
        if succeeded:
            self._last_identified_ms = time_ms
            for name in succeeded:
                self._retry_counts.pop(name, None)
        if failed:
            self._identification_failed = True
            if self.mitigation is not None:
                for name in failed:
                    used = self._retry_counts.get(name, 0)
                    if used < self.mitigation.retry_limit and name not in self._retry_queue:
                        self._retry_counts[name] = used + 1
                        self._retry_queue.append(name)

    def identification_age_ms(self, time_ms: float) -> float:
        """Age of the believed situation at *time_ms* (0 when fresh)."""
        return max(0.0, time_ms - self._last_identified_ms)

    def is_stale(self, time_ms: float) -> bool:
        """Whether the staleness watchdog would fire at *time_ms*.

        Always False without a :class:`MitigationConfig` or for cases
        that deploy no classifiers (nothing to go stale: the design is
        static by construction).
        """
        if self.mitigation is None or not self.case.classifiers:
            return False
        return self.identification_age_ms(time_ms) > self.mitigation.stale_after_ms

    def observe_measurement(self, measurement_valid: bool) -> None:
        """Per-cycle feedback for adaptive invocation schemes."""
        self.scheme.observe(
            self._believed_changed, measurement_valid, self._identification_failed
        )
        self._believed_changed = False
        self._identification_failed = False

    def preview(self, invoked: Tuple[str, ...] = ()) -> CycleDecision:
        """Knob selection for the believed situation, **without** side
        effects.

        Unlike :meth:`decide`, nothing is enqueued into the ISP apply
        pipeline: a preview is a pure query.  The HiL engine uses it
        before the first cycle to pick the initial vehicle speed — a
        ``decide()`` there would enqueue an ISP knob that
        :meth:`begin_cycle` pops one cycle early, violating the
        ``isp_apply_lag`` contract.
        """
        return self._decision(invoked)

    def decide(
        self, time_ms: float, invoked: Tuple[str, ...]
    ) -> CycleDecision:
        """Select knobs for the believed situation (Sec. III-D rules).

        When the staleness watchdog fires (see :meth:`is_stale`) the
        characterized tuning is *not* trusted: the manager degrades to
        the safe fallback knobs — natural ROI, conservative speed, the
        active ISP held — until identification recovers.
        """
        if self.is_stale(time_ms):
            # Degraded: no ISP switch is enqueued either — switching the
            # pipeline on a stale belief risks making sensing worse.
            decision = self._fallback_decision(invoked)
        else:
            isp = self._select_isp(self.believed)
            # ISP knob switches take effect ``isp_apply_lag`` cycles
            # later (Sec. III-D: one cycle in the paper's scheme).
            if self.isp_apply_lag == 0:
                self._active_isp = isp
                self._isp_queue = []
            else:
                self._isp_queue.append(isp)
                while len(self._isp_queue) > self.isp_apply_lag:
                    self._isp_queue.pop(0)
            decision = self._decision(invoked)
        self._observe_decision(time_ms, decision)
        return decision

    def _observe_decision(self, time_ms: float, decision: CycleDecision) -> None:
        """Telemetry hook for :meth:`decide` (never :meth:`preview`).

        Knob/degraded transition tracking always runs so the emitted
        stream does not depend on *when* telemetry was enabled relative
        to the run; the emits themselves cost one ``is not None`` check
        per decide when telemetry is off.
        """
        knobs = (decision.active_isp, decision.roi, decision.speed_kmph)
        knobs_changed = knobs != self._last_knobs
        self._last_knobs = knobs
        degraded_changed = decision.degraded != self._degraded
        self._degraded = decision.degraded
        rec = telemetry.get_active()
        if rec is None:
            return
        if knobs_changed:
            rec.emit(
                KNOBS_RECONFIGURED,
                time_ms=time_ms,
                isp=decision.active_isp,
                roi=decision.roi,
                speed_kmph=decision.speed_kmph,
                degraded=decision.degraded,
            )
        if degraded_changed:
            rec.emit(
                DEGRADED_ENTER if decision.degraded else DEGRADED_EXIT,
                time_ms=time_ms,
            )

    def _timing(self) -> PipelineTiming:
        """Timing for the currently active ISP and the case's budget."""
        return pipeline_timing(
            self._active_isp,
            self.case.classifier_budget(),
            dynamic_isp=self.case.adapt_isp,
            power_mode=self.power_mode,
        )

    def _decision(self, invoked: Tuple[str, ...]) -> CycleDecision:
        """Assemble the cycle decision from the current manager state."""
        believed = self.believed
        return CycleDecision(
            active_isp=self._active_isp,
            invoked_classifiers=invoked,
            roi=self._select_roi(believed),
            speed_kmph=self._select_speed(believed),
            timing=self._timing(),
            believed=believed,
        )

    def _fallback_decision(self, invoked: Tuple[str, ...]) -> CycleDecision:
        """The safe-default decision used while identification is stale.

        The pre-characterized *natural* knobs of the believed situation
        are the least-risk choice the manager can still justify: the
        natural ROI degrades gracefully if the layout changed, and the
        conservative speed bounds how fast the vehicle runs into
        whatever the stale belief is missing.
        """
        believed = self.believed
        assert self.mitigation is not None  # is_stale() gated on it
        if self.case.adapt_roi_fine:
            roi = natural_roi(believed)
        else:
            roi = self._select_roi(believed)
        if self.case.adapt_speed:
            speed = min(
                self.mitigation.conservative_speed_kmph,
                natural_speed_kmph(believed),
            )
        else:
            speed = self._select_speed(believed)
        return CycleDecision(
            active_isp=self._active_isp,
            invoked_classifiers=invoked,
            roi=roi,
            speed_kmph=speed,
            timing=self._timing(),
            believed=believed,
            degraded=True,
        )

    # -- knob selection ----------------------------------------------------

    def _select_roi(self, believed: Situation) -> str:
        if not self.case.adapt_roi_coarse:
            return "ROI 1"
        if not self.case.adapt_roi_fine:
            # Road classifier only: coarse layout-driven switching.
            if believed.layout is RoadLayout.STRAIGHT:
                return "ROI 1"
            return "ROI 2" if believed.layout is RoadLayout.RIGHT else "ROI 4"
        knobs = self.table.get(believed)
        if knobs is not None:
            return knobs.roi
        return natural_roi(believed)

    def _select_speed(self, believed: Situation) -> float:
        if not self.case.adapt_speed:
            return 50.0
        if self.case.adapt_roi_fine:
            knobs = self.table.get(believed)
            if knobs is not None:
                return knobs.speed_kmph
        # Road classifier only: the layout rule (50 straight / 30 turns).
        return natural_speed_kmph(believed)

    def _select_isp(self, believed: Situation) -> str:
        if not self.case.adapt_isp:
            return "S0"
        knobs = self.table.get(believed)
        if knobs is not None:
            return knobs.isp
        # Fallback for situations outside the characterized set: reuse
        # the knobs of the nearest characterized situation by scene.
        # Sorted by the situation's config tuple so the choice depends
        # only on the table's *contents*, not its insertion order.
        for situation, setting in sorted(
            self.table.items(), key=lambda item: item[0].to_config()
        ):
            if situation.scene is believed.scene:
                return setting.isp
        return "S0"
