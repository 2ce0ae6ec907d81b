"""Road centerline geometry: piecewise line/arc tracks with per-sector
situations.

A :class:`Track` is a chain of :class:`TrackSegment` objects, each a
straight line (curvature 0) or a constant-curvature arc.  Positive
curvature turns left.  Each segment carries the :class:`~repro.core.situation.Situation`
that holds while the vehicle drives it, which is how the Fig. 7 world
model encodes its nine sectors.

The essential operations are *Frenet projections*: mapping world points
to ``(s, d)`` road coordinates (arc length along the centerline, signed
lateral offset, positive left).  The renderer projects every ground-plane
pixel this way; the HiL engine projects the vehicle pose and the
look-ahead point to obtain the ground-truth lateral deviation
``y_L`` used by the QoC metric (Eq. 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.situation import Situation
from repro.sim.geometry import Pose2D, wrap_angle

__all__ = ["SectorSpec", "TrackSegment", "Track"]

#: Curvatures below this magnitude are treated as straight lines.
_STRAIGHT_EPS = 1e-9


@dataclass(frozen=True)
class SectorSpec:
    """Declarative description of one track sector.

    Parameters
    ----------
    length:
        Arc length of the sector in metres.
    curvature:
        Signed centerline curvature in 1/m (positive = left turn).
    situation:
        The situation active in this sector.
    """

    length: float
    curvature: float
    situation: Situation

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"sector length must be > 0, got {self.length}")


class TrackSegment:
    """One line or arc piece of a track centerline."""

    def __init__(
        self,
        start: Pose2D,
        length: float,
        curvature: float,
        situation: Situation,
        s_start: float,
    ):
        if length <= 0:
            raise ValueError(f"segment length must be > 0, got {length}")
        self.start = start
        self.length = float(length)
        self.curvature = float(curvature)
        self.situation = situation
        self.s_start = float(s_start)
        self._is_arc = abs(self.curvature) > _STRAIGHT_EPS
        if self._is_arc:
            radius = 1.0 / self.curvature
            self._center = start.position() + radius * start.left()
            self._start_angle = float(
                np.arctan2(
                    start.y - self._center[1], start.x - self._center[0]
                )
            )

    @property
    def s_end(self) -> float:
        """Arc length at the end of the segment."""
        return self.s_start + self.length

    @property
    def is_arc(self) -> bool:
        """Whether the segment is curved (vs a straight line)."""
        return self._is_arc

    def end_pose(self) -> Pose2D:
        """Pose at the end of the segment (start of the next one)."""
        return self.pose_at(self.length)

    def pose_at(self, s_local: float) -> Pose2D:
        """Centerline pose at local arc length *s_local* (may extrapolate)."""
        if not self._is_arc:
            return self.start.advanced(s_local)
        heading = wrap_angle(self.start.heading + self.curvature * s_local)
        angle = self._start_angle + self.curvature * s_local
        radius = 1.0 / self.curvature
        pos = self._center + abs(radius) * np.array([np.cos(angle), np.sin(angle)])
        return Pose2D(float(pos[0]), float(pos[1]), heading)

    def locate(self, points_xy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Frenet-project world points onto this segment.

        Parameters
        ----------
        points_xy:
            Array of shape ``(..., 2)`` of world coordinates.

        Returns
        -------
        (s_local, d):
            Local arc length (0 at segment start, unclamped) and signed
            lateral offset (positive left of the travel direction).
        """
        pts = np.asarray(points_xy)
        if pts.dtype not in (np.float32, np.float64):
            pts = pts.astype(np.float64)
        dtype = pts.dtype
        if not self._is_arc:
            rel = pts - self.start.position().astype(dtype)
            t = self.start.forward().astype(dtype)
            n = self.start.left().astype(dtype)
            # Explicit mul/add instead of `rel @ t`: BLAS picks different
            # accumulation kernels for (2,) and (M, 2) operands, so matmul
            # is not shape-invariant at the last ulp — elementwise ufuncs
            # are, which keeps scalar and stacked projections bit-identical.
            s_local = rel[..., 0] * t[0] + rel[..., 1] * t[1]
            d = rel[..., 0] * n[0] + rel[..., 1] * n[1]
            return s_local, d
        v = pts - self._center.astype(dtype)
        r = np.hypot(v[..., 0], v[..., 1])
        d = dtype.type(1.0 / self.curvature) - dtype.type(np.sign(self.curvature)) * r
        angle = np.arctan2(v[..., 1], v[..., 0])
        sweep = wrap_angle(angle - dtype.type(self._start_angle))
        s_local = sweep / dtype.type(self.curvature)
        return np.asarray(s_local, dtype=dtype), np.asarray(d, dtype=dtype)


def _segment_column(index: int, seg: TrackSegment, last: int) -> List[float]:
    """The :meth:`Track.frenet_batch` parameters of segment *index*.

    Straight segments carry dummy arc parameters (centre at the origin,
    curvature 1) so the arc formulas, evaluated for every candidate and
    discarded by ``np.where``, never divide by zero.  ``lo``/``hi``
    bound the overshoot-free local arc length: ``[0, length]``, opened
    towards the track ends by :meth:`Track.frenet`'s first/last-segment
    rules (the last-segment rule wins on a one-segment track).
    """
    start = seg.start.position()
    forward = seg.start.forward()
    left = seg.start.left()
    if seg.is_arc:
        center, angle0, curvature = seg._center, seg._start_angle, seg.curvature
    else:
        center, angle0, curvature = np.zeros(2), 0.0, 1.0
    lo = -np.inf if index == 0 and index != last else 0.0
    hi = np.inf if index == last else seg.length
    return [
        start[0], start[1], forward[0], forward[1], left[0], left[1],
        center[0], center[1], angle0, curvature, 1.0 / curvature,
        float(np.sign(curvature)), lo, hi, seg.s_start, float(seg.is_arc),
    ]


class Track:
    """A chain of :class:`TrackSegment` pieces forming a road centerline."""

    def __init__(self, segments: Sequence[TrackSegment]):
        if not segments:
            raise ValueError("a track needs at least one segment")
        self.segments: List[TrackSegment] = list(segments)
        self._s_bounds = np.array(
            [seg.s_start for seg in self.segments] + [self.segments[-1].s_end]
        )
        last = len(self.segments) - 1
        #: ``(16, n_segments)``: one row per parameter, so a gathered
        #: window unpacks into one contiguous array per parameter.
        self._seg_table = np.array(
            [_segment_column(i, seg, last) for i, seg in enumerate(self.segments)]
        ).T.copy()
        #: Interior bounds: ``searchsorted(..., "right")`` on them is
        #: :meth:`segment_index_at`, clamping included.
        self._s_interior = self._s_bounds[1:-1].copy()
        #: The :meth:`_candidate_segments` window of each segment index
        #: as three slots; slots past the window's end repeat its last
        #: segment (an equal cost, so argmin still returns the earlier
        #: slot).
        self._windows = np.array(
            [
                [min(max(i - 1, 0) + k, min(i + 1, last)) for k in range(3)]
                for i in range(last + 1)
            ]
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_sections(
        cls, sections: Sequence[SectorSpec], start: Optional[Pose2D] = None
    ) -> "Track":
        """Build a track by chaining sector specs head-to-tail."""
        if start is None:
            start = Pose2D(0.0, 0.0, 0.0)
        segments: List[TrackSegment] = []
        pose = start
        s = 0.0
        for spec in sections:
            seg = TrackSegment(pose, spec.length, spec.curvature, spec.situation, s)
            segments.append(seg)
            pose = seg.end_pose()
            s = seg.s_end
        return cls(segments)

    # -- queries ---------------------------------------------------------

    def to_config(self) -> List[dict]:
        """JSON-friendly geometry description (for cache hashing).

        One entry per segment — exact start pose, length, curvature and
        situation — so two tracks hash equal exactly when their
        centerlines and sector situations are identical.  Floats pass
        through ``repr`` round-trip-exact, keeping the hash faithful to
        the geometry the engine actually simulates.
        """
        return [
            {
                "start": [seg.start.x, seg.start.y, seg.start.heading],
                "length": seg.length,
                "curvature": seg.curvature,
                "situation": list(seg.situation.to_config()),
            }
            for seg in self.segments
        ]

    @property
    def length(self) -> float:
        """Total arc length of the track."""
        return float(self._s_bounds[-1])

    def segment_index_at(self, s) -> np.ndarray:
        """Index of the segment containing arc length *s* (clamped)."""
        idx = np.searchsorted(self._s_bounds, np.asarray(s, dtype=float), "right") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def curvature_at(self, s) -> np.ndarray:
        """Centerline curvature at arc length *s* (vectorized)."""
        curvatures = np.array([seg.curvature for seg in self.segments])
        result = curvatures[self.segment_index_at(s)]
        if np.ndim(s) == 0:
            return float(result)
        return result

    def situation_at(self, s: float) -> Situation:
        """The situation active at arc length *s*."""
        return self.segments[int(self.segment_index_at(s))].situation

    def pose_at(self, s: float, d: float = 0.0) -> Pose2D:
        """World pose at road coordinates ``(s, d)``."""
        seg = self.segments[int(self.segment_index_at(s))]
        center = seg.pose_at(s - seg.s_start)
        if abs(d) < 1e-12:
            return center
        pos = center.position() + d * center.left()
        return Pose2D(float(pos[0]), float(pos[1]), center.heading)

    def frenet(
        self, x: float, y: float, s_hint: Optional[float] = None
    ) -> Tuple[float, float]:
        """Project a single world point to ``(s, d)`` road coordinates.

        When *s_hint* is given, only segments near the hint are searched,
        which is both faster and unambiguous on self-approaching tracks.
        """
        point = np.array([x, y])
        candidates = self._candidate_segments(s_hint)
        best: Optional[Tuple[float, float]] = None
        best_cost = np.inf
        for seg in candidates:
            s_local, d = seg.locate(point)
            s_local = float(s_local)
            d = float(d)
            overshoot = max(0.0, -s_local, s_local - seg.length)
            # Allow extrapolation off the first/last segment ends.
            if seg is self.segments[0]:
                overshoot = max(0.0, s_local - seg.length)
            if seg is self.segments[-1]:
                overshoot = max(0.0, -s_local)
            cost = overshoot + 1e-3 * abs(d)
            if cost < best_cost:
                best_cost = cost
                best = (seg.s_start + s_local, d)
        assert best is not None
        return best

    def frenet_batch(
        self, xs: np.ndarray, ys: np.ndarray, s_hints: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Project many world points to ``(s, d)``, one hint per point.

        Vectorized :meth:`frenet` with a fixed number of array ops: each
        point's three-slot hint window gathers its segments' parameters,
        :meth:`TrackSegment.locate`'s straight and arc formulas run
        elementwise in the same operand order (``np.where`` picks one),
        the per-segment ``lo``/``hi`` bounds carry the first/last-segment
        overshoot rules (``0.0 - s`` equals ``-s`` up to the sign of
        zero, which no cost comparison sees), and ``argmin`` keeps the
        first minimum in window order — the scalar loop's first strict
        minimum.  Every point's result is therefore bit-identical to
        ``frenet(x, y, s_hint)``.
        """
        # Flat (3K,) layout, point-major: same-shape ufuncs skip the
        # broadcasting machinery, which dominates at small K.
        xs = np.repeat(np.asarray(xs, dtype=float), 3)
        ys = np.repeat(np.asarray(ys, dtype=float), 3)
        window = self._windows[self._s_interior.searchsorted(s_hints, "right")].ravel()
        (sx, sy, tx, ty, nx, ny, cx, cy, angle0, curvature, radius, sign,
         lo, hi, s_start, is_arc) = self._seg_table[:, window]

        rel_x = xs - sx
        rel_y = ys - sy
        v_x = xs - cx
        v_y = ys - cy
        arc = is_arc > 0.0
        s_local = np.where(
            arc,
            wrap_angle(np.arctan2(v_y, v_x) - angle0) / curvature,
            rel_x * tx + rel_y * ty,
        )
        d = np.where(arc, radius - sign * np.hypot(v_x, v_y), rel_x * nx + rel_y * ny)
        overshoot = np.maximum(0.0, np.maximum(lo - s_local, s_local - hi))
        cost = overshoot + 1e-3 * np.abs(d)
        best = cost.reshape(-1, 3).argmin(axis=1)
        best += 3 * np.arange(best.size)
        return s_start[best] + s_local[best], d[best]

    def _candidate_segments(self, s_hint: Optional[float]) -> List[TrackSegment]:
        if s_hint is None:
            return self.segments
        idx = int(self.segment_index_at(s_hint))
        lo = max(0, idx - 1)
        hi = min(len(self.segments), idx + 2)
        return self.segments[lo:hi]

    def locate_points(
        self,
        points_xy: np.ndarray,
        s_window: Tuple[float, float],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frenet-project many world points, restricted to an s-window.

        Used by the renderer, which only needs road coordinates for ground
        points within the camera's look-ahead range.

        Parameters
        ----------
        points_xy:
            ``(..., 2)`` world coordinates.
        s_window:
            ``(s_min, s_max)`` arc-length window of interest.

        Returns
        -------
        (s, d, valid):
            Arrays of the points' arc lengths, lateral offsets, and a
            boolean mask marking points that fell inside some candidate
            segment (or its extrapolation at the track ends).

        The first window segment claiming a point wins.  Each later
        segment is evaluated only on the points still unclaimed (the
        projection is elementwise, so a gathered point gets the same
        bits), and the loop stops once every point is claimed.
        """
        pts = np.asarray(points_xy)
        if pts.dtype not in (np.float32, np.float64):
            pts = pts.astype(np.float64)
        shape = pts.shape[:-1]
        s_out = np.full(shape, np.nan, dtype=pts.dtype)
        d_out = np.full(shape, np.nan, dtype=pts.dtype)
        valid = np.zeros(shape, dtype=bool)
        # The unclaimed points, and their flat indices into the outputs
        # once a segment has claimed some (None while all are unclaimed).
        pending = pts.reshape(-1, 2)
        todo = None

        s_min, s_max = s_window
        for i, seg in enumerate(self.segments):
            if seg.s_end < s_min or seg.s_start > s_max:
                continue
            s_local, d = seg.locate(pending)
            inside = (s_local >= 0.0) & (s_local < seg.length)
            if i == 0:
                inside |= s_local < 0.0
            if i == len(self.segments) - 1:
                inside |= s_local >= seg.length
            take = inside if todo is None else todo[inside]
            s_out.reshape(-1)[take] = seg.s_start + s_local[inside]
            d_out.reshape(-1)[take] = d[inside]
            valid.reshape(-1)[take] = True
            if inside.all():
                break
            outside = ~inside
            todo = np.flatnonzero(outside) if todo is None else todo[outside]
            pending = pending[outside]
        return s_out, d_out, valid

    def start_pose(self, d: float = 0.0) -> Pose2D:
        """World pose at the beginning of the track, offset *d* laterally."""
        return self.pose_at(0.0, d)
