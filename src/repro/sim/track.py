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

#: Distance (m) by which every footprint corner must lie behind one of
#: a segment's claim half-planes before :meth:`Track.locate_points`
#: skips the segment.  It must exceed the gap between a computed claim
#: and the exact geometry: float32 world points lie within ~1e-4 m (a
#: few ulp at 1 km) of the float64 pose image of the footprint, and
#: float32 rounding in the locate formulas moves a claim boundary by a
#: few ulp of ``2*pi`` in angle (~1e-4 m at 200 m from an arc centre).
#: At 1e-2 m, two orders above both, a skipped segment could not have
#: claimed any point.
_CULL_MARGIN = 1e-2


def _wrap_sweep(delta):
    """:func:`~repro.sim.geometry.wrap_angle`, bit for bit, without ``fmod``.

    Requires ``a = delta + pi`` in ``[-2*pi, 4*pi)``, which holds for
    an arc's ``arctan2(...) - start_angle`` (both angles lie in
    ``[-pi, pi]``).  There ``np.mod(a, 2*pi)`` equals the branch below:
    ``fmod`` is exact on ``[0, 2*pi)``; on ``[2*pi, 4*pi)`` Sterbenz's
    lemma makes ``a - 2*pi`` exact, as ``fmod`` is; below 0 numpy's
    ``mod`` itself rounds ``a + 2*pi``; and a zero's sign is lost once
    ``pi`` is subtracted.  ``fmod`` is the bulk of an arc pass.
    """
    a = np.asarray(delta + np.pi)
    # In place; nothing the subtraction leaves is below 0.
    np.subtract(a, 2.0 * np.pi, out=a, where=a >= 2.0 * np.pi)
    np.add(a, 2.0 * np.pi, out=a, where=a < 0.0)
    a -= np.pi
    np.copyto(a, np.pi, where=a == -np.pi)
    return a


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
        dtype = pts.dtype.type
        # One contiguous column per coordinate: the formulas below then
        # stream instead of reading strided (N, 2) columns.
        if not self._is_arc:
            x = pts[..., 0] - dtype(self.start.x)
            y = pts[..., 1] - dtype(self.start.y)
            tx, ty = self.start.forward().astype(dtype)
            nx, ny = self.start.left().astype(dtype)
            # Explicit mul/add instead of `rel @ t`: BLAS picks different
            # accumulation kernels for (2,) and (M, 2) operands, so matmul
            # is not shape-invariant at the last ulp — elementwise ufuncs
            # are, which keeps scalar and stacked projections bit-identical.
            return x * tx + y * ty, x * nx + y * ny
        x = pts[..., 0] - dtype(self._center[0])
        y = pts[..., 1] - dtype(self._center[1])
        r = np.hypot(x, y)
        d = dtype(1.0 / self.curvature) - dtype(np.sign(self.curvature)) * r
        sweep = _wrap_sweep(np.arctan2(y, x) - dtype(self._start_angle))
        s_local = sweep / dtype(self.curvature)
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


def _claim_half_planes(index: int, seg: TrackSegment, last: int) -> List[List[float]]:
    """Two half-planes ``q . n >= c``, as ``[n_x, n_y, c]``, holding every
    point segment *index* can claim.

    The start line has ``n`` the start tangent through the start point;
    the end line has ``n`` the reversed end tangent through the end
    point.  For a straight that is exactly ``0 <= s_local < length``.
    For an arc of sweep ``|curvature| * length <= pi`` the claimed sector
    lies inside both (``(q - centre) . t`` equals ``(q - p) . t`` for
    the on-arc point ``p`` of tangent ``t``); a wider sweep's claims
    spill past its end line, so neither line is used.  The first
    segment extrapolates backwards and the last forwards, so their
    start and end lines are not used either.  A first arc also loses
    its end line: it claims every sweep in ``(-pi, theta)``, and the
    sweeps below ``theta - pi`` lie past its end line.  (A last arc's
    forward claims, sweeps in ``[0, pi]``, stay ahead of its start
    line.)  An unused line gets ``c = -inf``, which no point lies
    behind.
    """
    end = seg.end_pose()
    holds = not seg.is_arc or abs(seg.curvature) * seg.length <= np.pi
    end_on = index != last and not (index == 0 and seg.is_arc)
    lines = []
    for pose, sign, on in ((seg.start, 1.0, index != 0), (end, -1.0, end_on)):
        normal = sign * pose.forward()
        offset = float(normal @ pose.position()) if holds and on else -np.inf
        lines.append([normal[0], normal[1], offset])
    return lines


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
        #: The :func:`_claim_half_planes` of every segment, start and end
        #: line adjacent: ``(2, 2 * n_segments)`` normals and offsets.
        lines = np.array(
            [
                line
                for i, seg in enumerate(self.segments)
                for line in _claim_half_planes(i, seg, last)
            ]
        )
        self._line_normals = lines[:, :2].T.copy()
        self._line_offsets = lines[:, 2].copy()
        #: Interior bounds: ``searchsorted(..., "right")`` on them is
        #: :meth:`hint_slots`, the segment index, clamping included.
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
        return self.hint_slots(np.asarray(s, dtype=float))

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

    def hint_slots(self, s_hints) -> np.ndarray:
        """The slot of each hint's :meth:`frenet_batch` window, its segment
        index: two hints in one slot project a point to the same bits."""
        return self._s_interior.searchsorted(s_hints, "right")

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
        window = self._windows[self.hint_slots(s_hints)].ravel()
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
        footprint: np.ndarray,
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
        footprint:
            ``(k, 2)`` world corners of a convex region holding every
            point (up to float32 rounding).  A window segment is skipped
            when every corner lies more than :data:`_CULL_MARGIN` behind
            one of its :func:`_claim_half_planes`: it would claim no
            point, so the result is the same bits as without skipping.

        Returns
        -------
        (s, d, valid):
            Arrays of the points' arc lengths, lateral offsets, and a
            boolean mask marking points that fell inside some candidate
            segment (or its extrapolation at the track ends).

        The first window segment claiming a point wins.  Each later
        segment is evaluated only on the points still unclaimed (the
        projection is elementwise, so a gathered point gets the same
        bits), and the loop stops once every point is claimed.  When the
        first evaluated segment claims them all, its pass is the result.
        """
        pts = np.asarray(points_xy)
        if pts.dtype not in (np.float32, np.float64):
            pts = pts.astype(np.float64)
        shape = pts.shape[:-1]
        corners = np.asarray(footprint, dtype=float)
        behind = corners @ self._line_normals - self._line_offsets < -_CULL_MARGIN
        culled = behind.all(axis=0).reshape(-1, 2).any(axis=1)
        # The unclaimed points, and their flat indices into the outputs
        # once a segment has claimed some (None while all are unclaimed).
        pending = pts.reshape(-1, 2)
        todo = None
        s_out = d_out = valid = None

        s_min, s_max = s_window
        for i, seg in enumerate(self.segments):
            if seg.s_end < s_min or seg.s_start > s_max or culled[i]:
                continue
            s_local, d = seg.locate(pending)
            inside = (s_local >= 0.0) & (s_local < seg.length)
            if i == 0:
                inside |= s_local < 0.0
            if i == len(self.segments) - 1:
                inside |= s_local >= seg.length
            if todo is None:
                if inside.all():
                    s_local = seg.s_start + s_local
                    return s_local.reshape(shape), d.reshape(shape), np.ones(shape, bool)
                s_out, d_out, valid = _unclaimed(shape, pts.dtype)
            take = inside if todo is None else todo[inside]
            s_out.reshape(-1)[take] = seg.s_start + s_local[inside]
            d_out.reshape(-1)[take] = d[inside]
            valid.reshape(-1)[take] = True
            if inside.all():
                break
            outside = ~inside
            todo = np.flatnonzero(outside) if todo is None else todo[outside]
            pending = pending[outside]
        if s_out is None:
            return _unclaimed(shape, pts.dtype)
        return s_out, d_out, valid


def _unclaimed(shape: Tuple[int, ...], dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`Track.locate_points` outputs with no point claimed yet."""
    return (
        np.full(shape, np.nan, dtype=dtype),
        np.full(shape, np.nan, dtype=dtype),
        np.zeros(shape, dtype=bool),
    )
