"""The complete perception (PR) pipeline and its measurement output.

``PerceptionPipeline.process`` runs ROI -> BEV warp -> dynamic
threshold -> sliding windows -> polynomial fit and converts the result
into control measurements:

- ``y_l``       — lateral deviation of the vehicle from the lane center
                  at the look-ahead distance (LL = 5.5 m), the paper's
                  control input;
- ``epsilon_l`` — heading error estimate at the look-ahead;
- ``curvature`` — road-curvature estimate (used for steering
                  feed-forward, as in standard LKAS implementations).

Sign convention: positive ``y_l`` means the vehicle is left of the lane
center (so the controller steers right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.utils.contracts import check_shapes
from repro.utils.profiling import profile
from repro.perception.bev import BevGrid, bev_grid
from repro.perception.lane_fit import LaneFit, fit_lane_lines
from repro.perception.roi import RoiPreset, roi_preset
from repro.perception.sliding_window import (
    SlidingWindowParams,
    find_lane_pixels,
)
from repro.perception.threshold import ThresholdParams, dynamic_threshold
from repro.sim.camera import CameraModel

__all__ = [
    "LOOKAHEAD_DISTANCE",
    "PerceptionResult",
    "PerceptionPipeline",
    "process_batch",
]

#: Look-ahead distance LL of the paper (Sec. II, control design).
LOOKAHEAD_DISTANCE = 5.5


@dataclass
class PerceptionResult:
    """Measurements extracted from one frame."""

    y_l: float
    epsilon_l: float
    curvature: float
    valid: bool
    lines_used: int
    n_pixels: int

    @classmethod
    def invalid(cls) -> "PerceptionResult":
        """The result reported when no lane line could be detected."""
        return cls(
            y_l=0.0,
            epsilon_l=0.0,
            curvature=0.0,
            valid=False,
            lines_used=0,
            n_pixels=0,
        )


class PerceptionPipeline:
    """Sliding-window lane detection with a switchable ROI knob.

    BEV grids are built once per process and camera (:func:`bev_grid`),
    so runtime ROI reconfiguration (the paper's dynamic PR knob) costs a
    cache lookup.
    """

    #: Consecutive invalid frames after which temporal hints expire.
    MAX_HINT_MISSES = 5

    def __init__(
        self,
        camera: CameraModel,
        roi: Union[RoiPreset, str] = "ROI 1",
        lookahead: float = LOOKAHEAD_DISTANCE,
        threshold_params: ThresholdParams = ThresholdParams(),
        window_params: SlidingWindowParams = SlidingWindowParams(),
        n_rows: int = 96,
        n_cols: int = 128,
        temporal_tracking: bool = False,
        require_both_lines: bool = True,
    ):
        self.camera = camera
        self.lookahead = lookahead
        self.threshold_params = threshold_params
        self.window_params = window_params
        self.temporal_tracking = temporal_tracking
        self.require_both_lines = require_both_lines
        self._bev_shape = (n_rows, n_cols)
        self._roi: RoiPreset = roi if isinstance(roi, RoiPreset) else roi_preset(roi)
        self._hints = None
        self._hint_misses = 0

    @property
    def roi(self) -> RoiPreset:
        """The active ROI preset."""
        return self._roi

    def set_roi(self, roi: Union[RoiPreset, str]) -> None:
        """Switch the active ROI preset (cheap: grids are cached).

        Switching invalidates the temporal tracking hints: they live in
        the rectified frame of the previous preset.
        """
        new_roi = roi if isinstance(roi, RoiPreset) else roi_preset(roi)
        if new_roi.name != self._roi.name:
            self._hints = None
            self._hint_misses = 0
        self._roi = new_roi

    def _grid(self) -> BevGrid:
        return bev_grid(self.camera, self._roi, *self._bev_shape)

    @check_shapes(frame_rgb=("H", "W", 3))
    def process(self, frame_rgb: np.ndarray) -> PerceptionResult:
        """Measure lateral deviation from one RGB frame.

        With ``temporal_tracking`` on (the closed-loop default) the
        previous frame's fit seeds the sliding-window base search,
        which keeps sparse dash patterns tracked through their gaps.
        Hints expire after :data:`MAX_HINT_MISSES` consecutive misses.
        """
        return process_batch([self], [frame_rgb])[0]

    def _finish_mask(self, mask: np.ndarray, grid: BevGrid) -> PerceptionResult:
        """Sliding windows + fit + hint bookkeeping on a threshold mask.

        The per-lane tail of :func:`process_batch`.
        """
        hints = self._hints if self.temporal_tracking else None
        with profile("pr.window"):
            pixels = find_lane_pixels(
                mask, grid.lateral_resolution, self.window_params, base_hints=hints
            )
        with profile("pr.fit"):
            fit = fit_lane_lines(
                pixels,
                grid.x_axis,
                grid.lat_axis,
                lane_width=self.window_params.lane_width,
                require_both_lines=self.require_both_lines,
            )
        if self.temporal_tracking:
            self._update_hints(fit, grid)
        return self.measurement_from_fit(fit)

    def _update_hints(self, fit: LaneFit, grid: BevGrid) -> None:
        if fit.valid:
            x_near = float(grid.x_axis[0])
            left = (
                float(np.polyval(fit.left_poly, x_near))
                if fit.left_poly is not None
                else None
            )
            right = (
                float(np.polyval(fit.right_poly, x_near))
                if fit.right_poly is not None
                else None
            )
            self._hints = (left, right)
            self._hint_misses = 0
        else:
            self._hint_misses += 1
            if self._hint_misses > self.MAX_HINT_MISSES:
                self._hints = None

    def measurement_from_fit(self, fit: LaneFit) -> PerceptionResult:
        """Convert a rectified-frame lane fit into control measurements."""
        if not fit.valid:
            return PerceptionResult.invalid()
        ll = self.lookahead
        roi = self._roi
        # Undo the ROI's curvature rectification to get vehicle-frame
        # lateral coordinates of the lane center.
        center_at_ll = fit.center_lateral(ll) + float(roi.center_offset(np.array(ll)))
        slope_at_ll = fit.center_slope(ll) + roi.curvature * ll
        curvature = fit.center_curvature() + roi.curvature
        return PerceptionResult(
            y_l=-center_at_ll,
            epsilon_l=-slope_at_ll,
            curvature=curvature,
            valid=True,
            lines_used=fit.lines_used,
            n_pixels=fit.n_left + fit.n_right,
        )


def process_batch(
    pipelines: Sequence[PerceptionPipeline],
    frames: Sequence[np.ndarray],
) -> List[PerceptionResult]:
    """Run one frame through each pipeline, lane by lane.

    Each lane's frame is warped (one csr product) and thresholded on its
    own, so its BEV and channels stay in cache: the warp and the
    threshold gain nothing from a stack of lanes (DESIGN.md section 5).
    Then every lane finishes (sliding windows, fit, temporal hints) on
    its own pipeline state; running the finishes back to back, after
    all thresholds, measured faster than interleaving them.  Results
    are returned in lane order, each independent of the other lanes in
    the call; :meth:`PerceptionPipeline.process` is the call with one
    lane.
    """
    masks = []
    for pipe, frame in zip(pipelines, frames):
        grid = pipe._grid()
        with profile("pr.warp"):
            bev = grid.warp_batch(frame[None])[0]
        with profile("pr.threshold"):
            mask = dynamic_threshold(bev, pipe.threshold_params, valid=grid.inside)
        masks.append(mask)
    return [pipe._finish_mask(m, pipe._grid()) for pipe, m in zip(pipelines, masks)]
