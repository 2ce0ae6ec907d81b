"""Projective road-scene renderer (the Webots camera substitute).

For every frame the renderer:

1. transforms the camera's precomputed ground-plane pixel map into the
   world using the vehicle pose,
2. Frenet-projects those ground points onto the track centerline to get
   per-pixel road coordinates ``(s, d)``,
3. evaluates the lane-marking appearance field (color, dash pattern,
   single/double lines, per-sector lane types) with footprint-based
   anti-aliasing,
4. applies the scene photometry (exposure, illuminant tint, headlight
   falloff) of the sector the vehicle is in,
5. for a RAW frame, adds sensor noise to the RGGB Bayer plane — the
   input the :mod:`repro.isp` pipeline expects.

The noise draw does not depend on the frame: each renderer consumes its
``camera-noise`` stream in whole-frame blocks, so a frame large enough
(:data:`AHEAD_PIXELS`) has its next block drawn on a worker thread
while the closed loop processes the current one, the way a camera
exposes the next frame while the ISP works on this one.  A forked
process-pool worker draws inline: its sibling workers leave no core
idle for a draw thread.

One leading-axis kernel renders both outputs.  A RAW frame evaluates
every pixel at the one Bayer channel it samples, so no radiance is
computed only to be thrown away by a mosaic; an RGB frame evaluates all
three channels of every pixel.  The chain is elementwise per sample, so
a RAW pixel is bit-identical to the same channel of the RGB frame.

A render may cover only a box of the frame (the closed loop senses
just the part perception reads when nothing else needs the rest): the
same elementwise chain over the ground samples inside the box, so every
pixel of it carries the whole frame's bits.

The output is *linear light*; the tone-mapping ISP stage is what
moves it to a display/perception-friendly domain, which is exactly why
skipping that stage hurts low-light situations in the reproduction.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.situation import LaneColor, LaneForm, Scene
from repro.sim.camera import CameraModel, GroundMap, PixelBox
from repro.sim.geometry import Pose2D, rotation_matrix
from repro.sim.photometry import ScenePhotometry, photometry_for
from repro.sim.sensor import add_sensor_noise, bayer_channel_index
from repro.sim.track import Track
from repro.utils.rng import derive_rng
from repro.utils.scratch import ScratchCache

__all__ = ["AHEAD_PIXELS", "RenderOptions", "RoadSceneRenderer", "render_raw_batch"]

# Lane-marking geometry (metres). Widths follow common road standards.
MARK_HALF_WIDTH = 0.075
DOUBLE_LINE_OFFSET = 0.19
DOUBLE_LINE_HALF_WIDTH = 0.055
DASH_LENGTH = 3.0
DASH_PERIOD = 7.5
#: Extra light returned by retroreflective lane paint under headlights.
RETROREFLECTIVE_GAIN = 0.6

#: Bumped whenever rendered appearance changes; cache keys of artifacts
#: derived from renders (classifier datasets, characterization tables)
#: include it so stale artifacts are regenerated automatically.
RENDERER_VERSION = 4

# Linear-light albedos (float32: the frame math never leaves float32).
WHITE_ALBEDO = np.array([0.85, 0.85, 0.85], dtype=np.float32)
YELLOW_ALBEDO = np.array([0.82, 0.62, 0.10], dtype=np.float32)
ROAD_ALBEDO = np.array([0.21, 0.21, 0.22], dtype=np.float32)
SHOULDER_ALBEDO = np.array([0.10, 0.20, 0.08], dtype=np.float32)
#: (road, shoulder, yellow, white) albedos of a 3-channel RGB sample.
_RGB_ALBEDOS = (ROAD_ALBEDO, SHOULDER_ALBEDO, YELLOW_ALBEDO, WHITE_ALBEDO)

#: Smallest frame, in pixels, whose next whole-frame noise block is drawn
#: ahead on the worker thread.  A handoff costs a submit/result round
#: trip (~45 µs) plus the wait for the worker to get the GIL and start;
#: in a B=1 sensing loop that outweighs the draw up to 192x96 (18,432
#: normals, ~0.25 ms) and not at 384x192 (~1 ms).  Measured crossover;
#: ``benchmarks/bench_sensing_stack.py`` re-derives it.
AHEAD_PIXELS = 2**15

_FORM_CODE = {LaneForm.CONTINUOUS: 0, LaneForm.DOTTED: 1, LaneForm.DOUBLE: 2}
_COLOR_CODE = {LaneColor.WHITE: 0, LaneColor.YELLOW: 1}


@dataclass(frozen=True)
class RenderOptions:
    """Rendering tweaks that are not situation-dependent.

    Attributes
    ----------
    lane_width:
        Lane width in metres (paper Sec. IV-A: 3.25 m).
    texture_amplitude:
        Amplitude of the position-stable asphalt texture.
    adjacent_lane_width:
        Width of the asphalt strip left of the left marking (the
        oncoming lane); grass begins beyond it.
    right_shoulder:
        Width of the asphalt shoulder right of the right marking.
    noise:
        Whether the RAW output carries sensor noise.
    """

    lane_width: float = 3.25
    texture_amplitude: float = 0.015
    adjacent_lane_width: float = 3.25
    right_shoulder: float = 0.6
    noise: bool = True


# The draw-ahead worker: one process-wide thread, started on first use.
# It runs nothing but ``standard_normal`` draws, in submission order, so
# a renderer's k-th pending block is its stream's k-th whole-frame draw.
_AHEAD: Optional[ThreadPoolExecutor] = None
# False in a forked child: pool workers fill every core, so a draw
# thread there only adds its handoff and contends with a sibling.
_DRAW_AHEAD = True


def _draw_ahead(rng: np.random.Generator, shape: Tuple[int, int]) -> Future:
    """Submit one float32 ``standard_normal(shape)`` draw of *rng*."""
    global _AHEAD
    if _AHEAD is None:
        _AHEAD = ThreadPoolExecutor(max_workers=1, thread_name_prefix="camera-noise")
    return _AHEAD.submit(rng.standard_normal, shape, dtype=np.float32)


def _settle_ahead() -> None:
    """Wait until every submitted draw is done (a no-op queued behind them).

    Runs before a fork, so no generator is mid-draw in the child.
    """
    if _AHEAD is not None:
        _AHEAD.submit(int).result()


def _forget_ahead() -> None:
    """In a forked child: the worker thread did not survive the fork, and
    the child draws inline from now on."""
    global _AHEAD, _DRAW_AHEAD
    _AHEAD, _DRAW_AHEAD = None, False


os.register_at_fork(before=_settle_ahead, after_in_child=_forget_ahead)


class RoadSceneRenderer:
    """Render RGB / RAW road frames for a vehicle pose on a track."""

    def __init__(
        self,
        camera: CameraModel,
        track: Track,
        options: Optional[RenderOptions] = None,
        seed: int = 0,
    ):
        self.camera = camera
        self.track = track
        self.options = options or RenderOptions()
        self.seed = seed
        self._noise_rng = derive_rng(seed, "camera-noise")
        # The next whole-frame block of that stream, drawn ahead.
        self._ahead: Optional[Future] = None
        # Pose-independent sample tables of the whole frame, shared by
        # every renderer of this camera; per-segment appearance tables
        # depend on the track and are built here once.
        self._ground = _ground_samples(camera)
        self._segment_tables = self._build_segment_tables()
        # Reusable per-frame temporaries (world points); bounded.
        self._scratch = ScratchCache(max_entries=16)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def render_rgb(
        self, pose: Pose2D, scene: Optional[Scene] = None
    ) -> np.ndarray:
        """Render the linear-light RGB frame seen from *pose*.

        When *scene* is ``None`` the scene condition of the sector the
        vehicle currently occupies is used (dynamic-track behaviour).
        """
        s_vehicle, photometry = self._situate(pose, scene)
        return self._render([pose], [s_vehicle], photometry, raw=False)[0]

    def render_raw(
        self, pose: Pose2D, scene: Optional[Scene] = None
    ) -> np.ndarray:
        """Render the RGGB Bayer RAW frame (what the ISP consumes)."""
        s_vehicle, photometry = self._situate(pose, scene)
        raw = self._render([pose], [s_vehicle], photometry)[0]
        return self._add_noise(raw, photometry)

    def scene_at(self, pose: Pose2D) -> Scene:
        """The scene condition of the sector containing *pose*."""
        s, _ = self.track.frenet(pose.x, pose.y)
        return self.track.situation_at(s).scene

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _situate(
        self, pose: Pose2D, scene: Optional[Scene], s_vehicle: Optional[float] = None
    ) -> Tuple[float, ScenePhotometry]:
        """The vehicle's arc length and the photometry it renders under.

        *s_vehicle*, when the caller already tracks it, replaces the
        hint-free Frenet lookup of *pose*.
        """
        if s_vehicle is None:
            s_vehicle, _ = self.track.frenet(pose.x, pose.y)
        if scene is None:
            scene = self.track.situation_at(s_vehicle).scene
        return s_vehicle, photometry_for(scene)

    def _add_noise(
        self,
        raw: np.ndarray,
        photometry: ScenePhotometry,
        box: Optional[PixelBox] = None,
    ) -> np.ndarray:
        """One whole-frame draw from this renderer's ``camera-noise``
        stream, if enabled; *raw* is the frame's crop to *box*.

        Takes the block drawn ahead (or draws it here) and, for a frame
        of at least :data:`AHEAD_PIXELS` outside a forked child, submits
        the next draw at once.
        """
        if not self.options.noise:
            return raw
        frame_shape = (self.camera.height, self.camera.width)
        normals = self._take_normals()
        if _DRAW_AHEAD and frame_shape[0] * frame_shape[1] >= AHEAD_PIXELS:
            self._ahead = _draw_ahead(self._noise_rng, frame_shape)
        return add_sensor_noise(
            raw,
            self._noise_rng,
            photometry.read_noise,
            photometry.shot_noise,
            frame_shape=frame_shape,
            origin=(0, 0) if box is None else box[:2],
            normals=normals,
        )

    def _take_normals(self) -> np.ndarray:
        """The stream's next whole-frame float32 block: the one drawn
        ahead (waiting for it if need be), else drawn here."""
        ahead, self._ahead = self._ahead, None
        if ahead is not None:
            return ahead.result()
        shape = (self.camera.height, self.camera.width)
        return self._noise_rng.standard_normal(shape, dtype=np.float32)

    def __getstate__(self) -> dict:
        # A pickled or copied renderer carries its pending block (settled
        # and copied: the block is consumed in place) and resumes its
        # stream exactly where this one does.
        state = dict(self.__dict__)
        state["_ahead"] = None if self._ahead is None else self._ahead.result().copy()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _ahead=None)
        if state["_ahead"] is not None:
            self._ahead = Future()
            self._ahead.set_result(state["_ahead"])

    def _build_segment_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment (s_start, lane-form code, lane-color code) arrays."""
        bounds = np.array([seg.s_start for seg in self.track.segments])
        forms = np.array(
            [_FORM_CODE[seg.situation.lane_form] for seg in self.track.segments]
        )
        colors = np.array(
            [_COLOR_CODE[seg.situation.lane_color] for seg in self.track.segments]
        )
        return bounds, forms, colors

    def _render(
        self,
        poses: Sequence[Pose2D],
        s_vehicles: Sequence[float],
        photometry: ScenePhotometry,
        raw: bool = True,
        box: Optional[PixelBox] = None,
    ) -> np.ndarray:
        """Render B noise-free frames sharing one photometry.

        Returns ``(B, H, W)`` RGGB planes when *raw*, else ``(B, H, W, 3)``
        linear RGB; with a *box*, only that crop ``(B, h, w[, 3])`` of
        every frame.  Ground samples carry a trailing channel axis: one
        entry (the pixel's Bayer channel) for RAW, three for RGB.  The
        pose matmul and ``locate_points`` with its per-lane s-window and
        footprint run per lane into rows of stacked buffers; everything
        after is elementwise/broadcast math, which numpy evaluates identically
        for any leading shape and any channel gather — that is what
        keeps a lane bit-identical to a B=1 render, a RAW pixel
        bit-identical to the same channel of the RGB frame, and a box
        bit-identical to the crop of the whole frame (its samples are a
        subset, and ``locate_points`` gives every point the same bits
        whatever the other points and the footprint holding them).
        """
        opts = self.options
        ground = self._ground if box is None else _ground_samples(self.camera, box)
        batch, n_pts = len(poses), ground.local.shape[0]
        road, shoulder, yellow, white = ground.raw_albedos if raw else _RGB_ALBEDOS
        illum, tint, sky = ground.photometry_constants(photometry, raw)

        # 1. ground pixels -> world -> road coordinates (per lane)
        world = self._scratch.get("world", (batch, n_pts, 2))
        s_pt = np.empty((batch, n_pts), dtype=np.float32)
        d_pt = np.empty((batch, n_pts), dtype=np.float32)
        on_track = np.empty((batch, n_pts), dtype=bool)
        for lane, (pose, s_vehicle) in enumerate(zip(poses, s_vehicles)):
            rot = rotation_matrix(pose.heading).astype(np.float32)
            np.matmul(ground.local, rot.T, out=world[lane])
            world[lane] += pose.position().astype(np.float32)
            window = (s_vehicle - 25.0, s_vehicle + self.camera.max_distance + 30.0)
            s_pt[lane], d_pt[lane], on_track[lane] = self.track.locate_points(
                world[lane], window, pose.transform_to_world(ground.footprint)
            )
        s_pt = np.where(on_track, s_pt, np.float32(0.0))
        d_pt = np.where(on_track, d_pt, np.float32(1e6))  # far off-road

        # 2. base albedo: asphalt / shoulder, with position-stable texture
        half = opts.lane_width / 2.0
        on_road = (d_pt >= -(half + opts.right_shoulder)) & (
            d_pt <= half + opts.adjacent_lane_width
        )
        albedo = np.where(on_road[..., None], road, shoulder)
        texture = np.float32(opts.texture_amplitude) * _position_hash(s_pt, d_pt)
        albedo *= np.float32(1.0) + texture[..., None]

        # 3. lane markings, evaluated only at the paint candidates (flat
        # sample indices); the right marking is always a dotted line
        paint = np.flatnonzero(self._paint_candidates(d_pt, half, ground))
        cols = paint % n_pts
        if raw:
            yellow, white = yellow[cols], white[cols]
        s_paint = s_pt.reshape(-1)[paint]
        lat_fp, fwd_fp = ground.lat_fp[cols], ground.fwd_fp[cols]
        seg_idx = (
            np.searchsorted(self._segment_tables[0], s_paint, side="right") - 1
        ).clip(0, len(self.track.segments) - 1)
        form_code = self._segment_tables[1][seg_idx]
        color_code = self._segment_tables[2][seg_idx]

        d_paint = d_pt.reshape(-1)[paint]
        left_cov = self._marking_coverage(
            d_paint - half, s_paint, form_code, lat_fp, fwd_fp
        )
        right_cov = _dashed(
            _line_coverage(d_paint + half, MARK_HALF_WIDTH, lat_fp), s_paint, fwd_fp
        )
        left_color = np.where(
            color_code[..., None] == _COLOR_CODE[LaneColor.YELLOW], yellow, white
        )
        flat_albedo = albedo.reshape(batch * n_pts, -1)
        painted = flat_albedo[paint]
        painted += left_cov[..., None] * (left_color - painted)
        painted += right_cov[..., None] * (white - painted)
        flat_albedo[paint] = painted

        # 4. photometry: exposure, headlight falloff, tint, ambient.
        # Lane paint is retroreflective (glass beads): under headlight
        # illumination the markings return extra light to the camera.
        # ``albedo`` is a fresh per-call temporary, so the radiance
        # chain runs in place on it.
        if illum is not None:
            marking_cov = np.maximum(left_cov, right_cov)
            retro = np.float32(1.0) + np.float32(RETROREFLECTIVE_GAIN) * marking_cov
            gain = np.broadcast_to(illum, (batch, n_pts)).copy()
            gain.reshape(-1)[paint] = illum[cols] * retro
            albedo *= gain[..., None]
        else:
            albedo *= np.float32(photometry.exposure)
        albedo *= tint
        albedo += np.float32(photometry.ambient)
        radiance = np.clip(albedo, 0.0, 1.0, out=albedo)

        # 5. scatter into the frames; (pre-clipped) sky everywhere else
        height, width = ground.shape
        frame = np.empty((batch, height * width, albedo.shape[-1]), np.float32)
        frame[:] = sky
        frame[:, ground.vidx] = radiance
        if raw:
            return frame.reshape(batch, height, width)
        return frame.reshape(batch, height, width, 3)

    @staticmethod
    def _paint_candidates(
        d_pt: np.ndarray, half: float, ground: "_GroundSamples"
    ) -> np.ndarray:
        """``(B, N)`` mask of the ground samples a lane line can reach.

        Every other sample has coverage exactly ``0.0`` for both
        markings, where the paint blend ``albedo += 0 * (c - albedo)``
        and the retroreflective factor ``1 + 0.6 * 0`` are the identity
        in float32, so step 3 of :meth:`_render` skips them bit-exactly.
        """
        return (np.abs(d_pt - half) < ground.left_reach) | (
            np.abs(d_pt + half) < ground.right_reach
        )

    @staticmethod
    def _marking_coverage(
        delta: np.ndarray,
        s: np.ndarray,
        form_code: np.ndarray,
        lat_fp: np.ndarray,
        fwd_fp: np.ndarray,
    ) -> np.ndarray:
        """Anti-aliased coverage of a marking centred at ``delta == 0``.

        *delta* is the lateral distance to the marking centerline;
        *form_code* selects continuous / dotted / double per point.  The
        double-line pair is skipped when no point is DOUBLE (the
        selection would discard it), and the dash term is evaluated
        only at DOTTED points (elsewhere it is an exact ``1.0`` factor).
        """
        lateral = _line_coverage(delta, MARK_HALF_WIDTH, lat_fp)
        is_double = form_code == _FORM_CODE[LaneForm.DOUBLE]
        if is_double.any():
            double = np.maximum(
                _line_coverage(delta - DOUBLE_LINE_OFFSET, DOUBLE_LINE_HALF_WIDTH, lat_fp),
                _line_coverage(delta + DOUBLE_LINE_OFFSET, DOUBLE_LINE_HALF_WIDTH, lat_fp),
            )
            lateral = np.where(is_double, double, lateral)
        return _dashed(lateral, s, fwd_fp, form_code == _FORM_CODE[LaneForm.DOTTED])


def _line_coverage(delta: np.ndarray, half_width: float, footprint: np.ndarray) -> np.ndarray:
    """Fraction of a pixel's lateral footprint covered by a painted line."""
    return np.clip((half_width - np.abs(delta)) / footprint + 0.5, 0.0, 1.0)


def _dash_coverage(s: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """Fraction of a pixel's forward footprint covered by a dash."""
    dash_pos = np.mod(s, DASH_PERIOD)
    return np.clip(
        (DASH_LENGTH / 2.0 - np.abs(dash_pos - DASH_LENGTH / 2.0)) / footprint + 0.5,
        0.0,
        1.0,
    )


def _dashed(
    lateral: np.ndarray,
    s: np.ndarray,
    footprint: np.ndarray,
    dotted: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multiply *lateral* in place by the dash coverage at *dotted* samples.

    ``dotted=None`` dashes every sample.  The dash factor is finite and
    non-negative, so a sample without lateral coverage stays exactly
    ``0.0``: only painted candidates are evaluated (``np.mod`` is slow).
    """
    hit = lateral != 0 if dotted is None else (lateral != 0) & dotted
    at = np.nonzero(hit)
    lateral[at] *= _dash_coverage(s[at], np.broadcast_to(footprint, s.shape)[at])
    return lateral


def _position_hash(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cheap position-stable pseudo-noise in [-1, 1] for asphalt texture."""
    q = np.sin(s * 12.9898 + d * 78.233) * 43758.5453
    return 2.0 * (q - np.floor(q)) - 1.0


@dataclass(frozen=True, eq=False)
class _GroundSamples:
    """Pose-independent tables of the ground samples of one frame extent.

    The extent is the whole frame or a box of it; ``vidx`` holds each
    sample's flat pixel index in the extent, and every per-sample table
    is in that order.  Built once per process by :func:`_ground_samples`
    and shared by every renderer of the camera, so the arrays are
    read-only.
    """

    #: ``(height, width)`` of the extent.
    shape: Tuple[int, int]
    vidx: np.ndarray
    #: ``(N, 2)`` vehicle-frame (forward, lateral) ground points.
    local: np.ndarray
    fwd: np.ndarray
    lat_fp: np.ndarray
    fwd_fp: np.ndarray
    #: Lateral reach of the left (double pair, the widest form) and the
    #: right marking, plus a full footprint: coverage already clips to
    #: 0 half a footprint out, so the margin is safe against rounding.
    left_reach: np.ndarray
    right_reach: np.ndarray
    #: Corners of the local ground wedge: forward distance and
    #: lateral/forward slope each between their extremes over ``local``
    #: (every ground point is ahead, forward > 0).  Every frame's ground
    #: points lie inside their pose image, which lets ``locate_points``
    #: skip the segments that cannot claim any of them.
    footprint: np.ndarray
    #: The Bayer channel each pixel (``bayer_sky``, ``(h*w, 1)``) and
    #: each ground sample (``bayer_ground``, ``(N, 1)``) samples, as a
    #: trailing axis of one: per-pixel channel constants then broadcast
    #: over (B, N, 1) exactly where the RGB path broadcasts (3,) ones.
    bayer_sky: np.ndarray
    bayer_ground: np.ndarray
    raw_albedos: Tuple[np.ndarray, ...]
    _photometry: Dict[tuple, tuple] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, shape, vidx, fwd, lateral, lat_fp, fwd_fp, bayer) -> "_GroundSamples":
        """Tables of the samples *vidx* with the given per-sample values."""
        local = np.stack([fwd, lateral], axis=-1)
        f, y = local.T.astype(float) if vidx.size else np.ones((2, 1))
        slope = y / f
        footprint = np.array(
            [[a, b * a] for a in (f.min(), f.max()) for b in (slope.min(), slope.max())]
        )
        bayer_sky = bayer.reshape(-1, 1)
        bayer_ground = bayer_sky[vidx]
        samples = cls(
            shape=shape,
            vidx=vidx,
            local=local,
            fwd=fwd,
            lat_fp=lat_fp,
            fwd_fp=fwd_fp,
            left_reach=np.float32(DOUBLE_LINE_OFFSET + DOUBLE_LINE_HALF_WIDTH) + lat_fp,
            right_reach=np.float32(MARK_HALF_WIDTH) + lat_fp,
            footprint=footprint,
            bayer_sky=bayer_sky,
            bayer_ground=bayer_ground,
            raw_albedos=tuple(a[bayer_ground] for a in _RGB_ALBEDOS),
        )
        for value in vars(samples).values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
        return samples

    def photometry_constants(self, photometry: ScenePhotometry, raw: bool):
        """Pose-independent ``(illum, tint, sky)``, built once per photometry.

        ``illum`` is the headlight profile over the ground samples
        (``None`` when uniformly lit).  ``tint`` and the clipped ``sky``
        are gathered at each pixel's Bayer channel for a RAW frame and
        stay ``(3,)`` for an RGB frame.
        """
        cached = self._photometry.get((photometry, raw))
        if cached is None:
            illum = None
            if np.isfinite(photometry.headlight_falloff):
                illum = np.float32(photometry.exposure) * (
                    np.float32(0.25)
                    + np.float32(0.75)
                    * np.exp(-self.fwd / np.float32(photometry.headlight_falloff))
                )
            tint = photometry.tint_array().astype(np.float32)
            sky = (photometry.sky_array() * max(photometry.exposure, 0.05)).astype(
                np.float32
            )
            if raw:
                tint, sky = tint[self.bayer_ground], sky[self.bayer_sky]
            cached = (illum, tint, np.clip(sky, 0.0, 1.0))
            for array in cached:
                if array is not None:
                    array.flags.writeable = False
            self._photometry[(photometry, raw)] = cached
        return cached


@lru_cache(maxsize=32)
def _ground_samples(camera: CameraModel, box: Optional[PixelBox] = None) -> _GroundSamples:
    """The ground samples of *camera*'s whole frame, or of its *box*.

    A box keeps the whole frame's samples that fall inside it, in the
    same order and with the same values, renumbered into the box.
    """
    if box is None:
        gm: GroundMap = camera.ground_map()
        vidx = np.nonzero(gm.on_ground.ravel())[0]
        return _GroundSamples.build(
            (camera.height, camera.width),
            vidx,
            gm.forward.ravel()[vidx].astype(np.float32),
            gm.lateral.ravel()[vidx].astype(np.float32),
            np.maximum(gm.lateral_footprint.ravel()[vidx], 1e-4).astype(np.float32),
            np.maximum(gm.forward_footprint.ravel()[vidx], 1e-4).astype(np.float32),
            bayer_channel_index(camera.height, camera.width).astype(np.uint8),
        )
    full = _ground_samples(camera)
    top, left, bottom, right = box
    rows, cols = np.divmod(full.vidx, camera.width)
    keep = (rows >= top) & (rows < bottom) & (cols >= left) & (cols < right)
    width = right - left
    bayer = full.bayer_sky.reshape(camera.height, camera.width)[top:bottom, left:right]
    return _GroundSamples.build(
        (bottom - top, width),
        (rows[keep] - top) * width + (cols[keep] - left),
        full.fwd[keep],
        full.local[keep, 1],
        full.lat_fp[keep],
        full.fwd_fp[keep],
        bayer,
    )


def render_raw_batch(
    renderers: Sequence[RoadSceneRenderer],
    poses: Sequence[Pose2D],
    scenes: Optional[Sequence[Optional[Scene]]] = None,
    s_vehicles: Optional[Sequence[float]] = None,
    box: Optional[PixelBox] = None,
) -> np.ndarray:
    """Render one RAW frame per lane in a single batched pass.

    All *renderers* must share the same track object, camera, and
    options (the batched driver groups lanes by exactly that key); the
    leading renderer's precomputed geometry then serves every lane.
    Lanes are sub-grouped by scene photometry so each group renders
    through one :meth:`RoadSceneRenderer._render` call.  Sensor
    noise stays strictly per-lane: each lane draws from its own
    ``camera-noise`` stream, one whole-frame draw per frame, exactly as
    in :meth:`RoadSceneRenderer.render_raw`.

    *s_vehicles* gives each lane's arc length when the caller already
    tracks it (otherwise each pose is located hint-free, as
    :meth:`RoadSceneRenderer.render_raw` does).  With a *box*
    ``(top, left, bottom, right)``, with an even top and left so the
    crop keeps the RGGB parity, only that crop of every frame is
    rendered and noised, bit for bit as in the whole frame.

    Returns the stacked ``(B, H, W)`` Bayer planes (``(B, h, w)`` crops
    with a *box*) in lane order.
    """
    lead = renderers[0]
    n_lanes = len(renderers)
    if scenes is None:
        scenes = [None] * n_lanes
    for r in renderers:
        if r.track is not lead.track or r.camera != lead.camera or r.options != lead.options:
            raise ValueError(
                "render_raw_batch lanes must share track, camera and options"
            )

    if s_vehicles is None:
        s_vehicles = [None] * n_lanes

    # Per-lane situate: same situation lookup as render_raw.
    situated = [
        r._situate(pose, scene, s)
        for r, pose, scene, s in zip(renderers, poses, scenes, s_vehicles)
    ]
    groups: dict = {}
    for lane, (_, photometry) in enumerate(situated):
        groups.setdefault(photometry, []).append(lane)

    cam = lead.camera
    top, left, bottom, right = box or (0, 0, cam.height, cam.width)
    out = np.empty((n_lanes, bottom - top, right - left), dtype=np.float32)
    for photometry, lanes in groups.items():
        raw = lead._render(
            [poses[i] for i in lanes],
            [situated[i][0] for i in lanes],
            photometry,
            box=box,
        )
        for j, i in enumerate(lanes):
            out[i] = renderers[i]._add_noise(raw[j], photometry, box)
    return out
