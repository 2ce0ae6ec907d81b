"""Stacked vs one-lane-per-call sensing kernels (the ``STACK_PIXELS`` table).

Render, ISP and BEV warp are frame-sized, memory-bound kernels: a
stack of lanes amortizes numpy dispatch while it stays in cache and
loses once it does not.  For 16 lanes at 48x24, 96x48, 192x96 and
384x192 this times each stage three ways — one stacked call, chunks of
at most :data:`repro.hil.batch.STACK_PIXELS` stacked pixels (what the
batched engine runs), and one call per lane — and records the
best-of-N milliseconds per 16 frames in ``extra_info``.  The stacked
warp is the many-column csr product ``operator @ (H*W, B*C)`` that
:meth:`BevGrid.warp_batch` replaced with one product per lane.

Only bit-equality of the arms is asserted, never a timing bar: the
table is what re-derives the crossover on another host or numpy.

A second row times B=1 ``render_raw`` at 384x192 half a metre into
every Fig. 7 sector and at mid-sector, with the frame footprint handed
to ``Track.locate_points`` (what the renderer does) and with a footprint
that culls no segment, and records the ``TrackSegment.locate`` passes
per frame of both arms.

A third row times the sensing chain the closed loop runs on an S7
cycle, on whole frames and on the camera's sensing box: render with
sensor noise, S7 ISP and the ROI 1 warp, in ms per frame at 384x192
and 48x24, one lane (B=1) and sixteen lanes chunked as the engine
chunks them (B=16).  The box must be the whole frame's bytes where the
grids read them; no timing bar is set.

A fourth row is the :data:`repro.sim.renderer.AHEAD_PIXELS` table: per
frame size, the whole-frame float32 ``standard_normal`` drawn inline
against a ``submit().result()`` round trip to the draw-ahead worker
(the draw included), and a B=1 loop of noisy whole-frame render, S7
ISP, ROI 1 warp and ~0.3 ms of GIL-holding Python per frame, with the
noise drawn inline and always drawn ahead.  A fifth row runs the same
loop on the 384x192 sensing box, drawn inline and drawn ahead as the
gate decides.  In both, the arms alternate round by round and must
give the same bytes; no timing bar is set.

A sixth row times the dynamic threshold on 96x128 BEVs of sixteen
Fig. 7 poses (384x192, S7 ISP, ROI 1, a grid wholly inside the frame):
an inline copy of the formulation it replaced (NaN medians with
per-row gathers and ``ndimage.convolve``, one call over the stack)
against :func:`dynamic_threshold` (sorted rows, integer neighbour
counts, one lane at a time), at B=1 and B=16; at B=16 also the new
kernel run once over the stack.  The arms alternate
round by round and must give the same mask bytes; no timing bar is
set.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np
from scipy import ndimage

from repro.hil.batch import STACK_PIXELS, _stack_chunks
from repro.isp.pipeline import IspPipeline
from repro.perception.bev import BevGrid, bev_grid, sensing_box
from repro.perception.roi import ROI_PRESETS, roi_preset
from repro.perception.threshold import (
    ThresholdParams,
    _row_median,
    brightness_channels,
    dynamic_threshold,
)
from repro.sim.camera import CameraModel
from repro.sim import renderer as rmod
from repro.sim.renderer import RenderOptions, RoadSceneRenderer, render_raw_batch
from repro.sim.track import TrackSegment
from repro.sim.world import fig7_track

FRAMES = ((48, 24), (96, 48), (192, 96), (384, 192))
LANES = 16
_ROUNDS = 5


def _best_ms(fn, rounds=_ROUNDS):
    """Run *fn* *rounds* times; return (last result, fastest ms)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, 1000.0 * best


def _arms(kernel, lanes, pixels):
    """``{arm: (stacked output, ms)}`` of *kernel* over *lanes* three ways."""
    indices = list(range(len(lanes)))

    def run(chunks):
        return lambda: np.concatenate(
            [kernel([lanes[i] for i in chunk]) for chunk in chunks]
        )

    return {
        "stacked": _best_ms(run([indices])),
        "chunked": _best_ms(run(_stack_chunks(indices, pixels))),
        "per_lane": _best_ms(run([[i] for i in indices])),
    }


def _stacked_warp(grid, frames):
    """The many-column csr product: all lanes' channels in one RHS."""
    top, left, bottom, right = grid.support
    frames = frames[:, top:bottom, left:right]
    batch, height, width, channels = frames.shape
    rhs = frames.reshape(batch, height * width, channels).transpose(1, 0, 2)
    out = grid._operator @ rhs.reshape(height * width, batch * channels)
    out = (
        out.reshape(grid.n_rows, grid.n_cols, batch, channels)
        .transpose(2, 0, 1, 3)
        .copy()
    )
    out[:, ~grid.inside] = 0.0
    return out


def test_sensing_stack_crossover(benchmark):
    track = fig7_track()
    poses = [track.pose_at(10.0 + 0.5 * k, 0.1 * (k % 5 - 2)) for k in range(LANES)]
    table = {}

    def measure():
        for width, height in FRAMES:
            camera = CameraModel(width=width, height=height)
            pixels = width * height
            renderers = [
                RoadSceneRenderer(camera, track, RenderOptions(noise=False), seed=i)
                for i in range(LANES)
            ]
            render = _arms(
                lambda lanes: render_raw_batch(renderers[: len(lanes)], lanes),
                poses,
                pixels,
            )
            pipeline = IspPipeline("S7")
            isp = _arms(
                lambda raws: pipeline.process_batch(np.stack(raws)),
                list(render["stacked"][0]),
                pixels,
            )
            rgbs = isp["stacked"][0]
            grid = BevGrid(camera, roi_preset("ROI 1"))
            warp = {
                "stacked": _best_ms(lambda: _stacked_warp(grid, rgbs)),
                "per_lane": _best_ms(lambda: grid.warp_batch(rgbs)),
            }
            for stage, arms in (("render", render), ("isp", isp), ("warp", warp)):
                outputs = [out for out, _ in arms.values()]
                for other in outputs[1:]:
                    assert other.tobytes() == outputs[0].tobytes(), (
                        f"{stage} at {width}x{height}: arms differ"
                    )
                for arm, (_, ms) in arms.items():
                    table[f"{stage}_{width}x{height}_{arm}_ms"] = round(ms, 2)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["lanes"] = LANES
    benchmark.extra_info["stack_pixels"] = STACK_PIXELS
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info.update(table)
    print()
    for width, height in FRAMES:
        cells = [
            f"{stage} " + " / ".join(
                f"{table[key]:.2f}"
                for arm in ("stacked", "chunked", "per_lane")
                if (key := f"{stage}_{width}x{height}_{arm}_ms") in table
            )
            for stage in ("render", "isp", "warp")
        ]
        print(f"{width}x{height}: " + "; ".join(cells))


def _render_row(renderer, poses, footprint):
    """``(frames, locate passes per frame, mean best-of-N render_raw ms)``.

    ``footprint=False`` swaps the renderer's frame footprint for a box
    whose corners never all lie behind one claim line, so every window
    segment runs.
    """
    locate, ground = TrackSegment.locate, renderer._ground
    passes = [0]

    def counted(seg, pts):
        passes[0] += np.ndim(pts) > 1
        return locate(seg, pts)

    TrackSegment.locate = counted
    if not footprint:
        renderer._ground = dataclasses.replace(
            ground,
            footprint=np.array([[-1e9, -1e9], [-1e9, 1e9], [1e9, -1e9], [1e9, 1e9]]),
        )
    try:
        frames = [renderer.render_raw(pose) for pose in poses]
        per_frame = passes[0] / len(poses)
        ms = [_best_ms(lambda: renderer.render_raw(pose))[1] for pose in poses]
    finally:
        TrackSegment.locate, renderer._ground = locate, ground
    return frames, per_frame, float(np.mean(ms))


def test_render_raw_frenet_passes(benchmark):
    track = fig7_track()
    renderer = RoadSceneRenderer(
        CameraModel(width=384, height=192), track, RenderOptions(noise=False)
    )
    spots = {
        "sector_start": [track.pose_at(seg.s_start + 0.5) for seg in track.segments],
        "mid_sector": [
            track.pose_at(seg.s_start + 0.5 * seg.length) for seg in track.segments
        ],
    }
    table = {}

    def measure():
        for spot, poses in spots.items():
            culled, passes, ms = _render_row(renderer, poses, footprint=True)
            dense, dense_passes, dense_ms = _render_row(renderer, poses, footprint=False)
            for a, b in zip(culled, dense):
                assert a.tobytes() == b.tobytes(), f"{spot}: footprint changed a frame"
            table[f"render_raw_{spot}_passes"] = round(passes, 2)
            table[f"render_raw_{spot}_passes_no_cull"] = round(dense_passes, 2)
            table[f"render_raw_{spot}_ms"] = round(ms, 2)
            table[f"render_raw_{spot}_ms_no_cull"] = round(dense_ms, 2)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info.update(table)
    print()
    for spot in spots:
        print(
            f"{spot}: {table[f'render_raw_{spot}_passes']:.2f} passes, "
            f"{table[f'render_raw_{spot}_ms']:.2f} ms per frame "
            f"(no cull {table[f'render_raw_{spot}_passes_no_cull']:.2f}, "
            f"{table[f'render_raw_{spot}_ms_no_cull']:.2f} ms)"
        )


def _sense(camera, track, poses, box, lanes):
    """Render (noisy), S7 ISP and ROI 1 warp of *poses*, chunked as the
    engine chunks *lanes* lanes; ``(outputs, ms per frame)`` per stage."""
    top, left, bottom, right = box or (0, 0, camera.height, camera.width)
    chunks = _stack_chunks(list(range(lanes)), (bottom - top) * (right - left))
    pipeline = IspPipeline("S7")
    grid = bev_grid(camera, ROI_PRESETS["ROI 1"])

    # Every arm renders _ROUNDS times, so its last frames carry the
    # same noise draws as the other arm's.
    renderers = [RoadSceneRenderer(camera, track, seed=i) for i in range(lanes)]

    def render():
        return np.concatenate(
            [
                render_raw_batch(
                    [renderers[i] for i in chunk], [poses[i] for i in chunk], box=box
                )
                for chunk in chunks
            ]
        )

    raws, render_ms = _best_ms(render)
    rgbs, isp_ms = _best_ms(
        lambda: np.concatenate([pipeline.process_batch(raws[c[0] : c[-1] + 1]) for c in chunks])
    )
    bevs, warp_ms = _best_ms(lambda: np.concatenate([grid.warp_batch(rgb[None]) for rgb in rgbs]))
    return (raws, rgbs, bevs), {
        "render": render_ms / lanes,
        "isp": isp_ms / lanes,
        "warp": warp_ms / lanes,
    }


def test_sensing_box_vs_frame(benchmark):
    track = fig7_track()
    sectors = [track.pose_at(seg.s_start + 1.0 + 0.2 * k) for k, seg in enumerate(track.segments)]
    table = {}

    def measure():
        for width, height in ((384, 192), (48, 24)):
            camera = CameraModel(width=width, height=height)
            box = sensing_box(camera)
            top, left, bottom, right = box
            for lanes in (1, LANES):
                poses = (sectors * LANES)[:lanes]
                (raw, rgb, bev), whole_ms = _sense(camera, track, poses, None, lanes)
                (raw_box, rgb_box, bev_box), box_ms = _sense(camera, track, poses, box, lanes)
                assert raw_box.tobytes() == np.ascontiguousarray(
                    raw[:, top:bottom, left:right]
                ).tobytes(), f"render at {width}x{height}"
                for roi in ROI_PRESETS.values():
                    t, l, b, r = bev_grid(camera, roi).support
                    assert (
                        rgb_box[:, t - top : b - top, l - left : r - left].tobytes()
                        == rgb[:, t:b, l:r].tobytes()
                    ), f"S7 ISP at {width}x{height} over {roi.name}"
                assert bev_box.tobytes() == bev.tobytes(), f"warp at {width}x{height}"
                for stage in whole_ms:
                    key = f"{stage}_{width}x{height}_b{lanes}"
                    table[f"{key}_frame_ms"] = round(whole_ms[stage], 3)
                    table[f"{key}_box_ms"] = round(box_ms[stage], 3)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info.update(table)
    print()
    for width, height in ((384, 192), (48, 24)):
        for lanes in (1, LANES):
            cells = [
                f"{stage} {table[f'{stage}_{width}x{height}_b{lanes}_frame_ms']:.2f}"
                f" -> {table[f'{stage}_{width}x{height}_b{lanes}_box_ms']:.2f}"
                for stage in ("render", "isp", "warp")
            ]
            print(f"{width}x{height} B={lanes} ms/frame (frame -> box): " + "; ".join(cells))


def _between_frames():
    """~0.3 ms of small-array numpy calls: the GIL-holding Python work
    (control, plant steps, orchestration) between two frames."""
    x = np.zeros(4)
    for _ in range(300):
        x = x + 1.0
    return x


def _sense_loops(camera, track, poses, ahead_pixels, box=None):
    """B=1 noisy renders (of *box*, or whole frames), each followed by
    its S7 ISP, the ROI 1 warp and :func:`_between_frames`, with the
    noise drawn inline and drawn ahead from *ahead_pixels* pixels on.
    The two arms alternate round by round, so host drift hits both;
    ``{arm: (RAW frames, best-of-N ms per frame: render, whole loop)}``.
    """
    pipeline = IspPipeline("S7")
    grid = bev_grid(camera, ROI_PRESETS["ROI 1"])
    gates = {"inline": sys.maxsize, "ahead": ahead_pixels}
    renderers = {arm: RoadSceneRenderer(camera, track, seed=4) for arm in gates}
    raws = {arm: [] for arm in gates}
    best = {arm: [float("inf"), float("inf")] for arm in gates}
    default = rmod.AHEAD_PIXELS
    try:
        for _ in range(_ROUNDS):
            for arm, gate in gates.items():
                rmod._settle_ahead()
                rmod.AHEAD_PIXELS = gate
                t_render = 0.0
                t0 = time.perf_counter()
                for pose in poses:
                    t1 = time.perf_counter()
                    raw = render_raw_batch([renderers[arm]], [pose], box=box)
                    t_render += time.perf_counter() - t1
                    grid.warp_batch(pipeline.process_batch(raw))
                    _between_frames()
                    raws[arm].append(raw)
                t_loop = time.perf_counter() - t0
                best[arm] = [min(best[arm][0], t_render), min(best[arm][1], t_loop)]
    finally:
        rmod.AHEAD_PIXELS = default
    return {
        arm: (np.concatenate(raws[arm]), *(1000.0 * t / len(poses) for t in best[arm]))
        for arm in gates
    }


def _sector_poses(track, per_sector):
    return [
        track.pose_at(seg.s_start + 0.5 + 0.75 * k)
        for seg in track.segments
        for k in range(per_sector)
    ]


def test_noise_draw_ahead_crossover(benchmark):
    track = fig7_track()
    poses = _sector_poses(track, 2)
    table = {}

    def measure():
        rmod._settle_ahead()  # start the worker outside the timings
        for width, height in FRAMES:
            shape = (height, width)
            rng = np.random.default_rng(1)
            ahead = rmod._draw_ahead(rng, shape).result()
            inline = np.random.default_rng(1).standard_normal(shape, dtype=np.float32)
            assert ahead.tobytes() == inline.tobytes(), f"{width}x{height}"
            key = f"draw_{width}x{height}"
            table[f"{key}_inline_us"] = round(
                1000.0 * _best_ms(lambda: rng.standard_normal(shape, dtype=np.float32), 200)[1], 1
            )
            table[f"{key}_round_trip_us"] = round(
                1000.0 * _best_ms(lambda: rmod._draw_ahead(rng, shape).result(), 200)[1], 1
            )
            loops = _sense_loops(CameraModel(width=width, height=height), track, poses, 0)
            assert loops["ahead"][0].tobytes() == loops["inline"][0].tobytes(), key
            for arm, (_, _, loop_ms) in loops.items():
                table[f"{key}_loop_{arm}_ms"] = round(loop_ms, 3)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["ahead_pixels"] = rmod.AHEAD_PIXELS
    benchmark.extra_info.update(table)
    print()
    for width, height in FRAMES:
        key = f"draw_{width}x{height}"
        gate = "ahead" if width * height >= rmod.AHEAD_PIXELS else "inline"
        print(
            f"{width}x{height} ({gate}): draw inline {table[f'{key}_inline_us']:.1f} us, "
            f"round trip {table[f'{key}_round_trip_us']:.1f} us; B=1 loop ms per frame, "
            f"inline {table[f'{key}_loop_inline_ms']:.3f}, "
            f"ahead {table[f'{key}_loop_ahead_ms']:.3f}"
        )


def test_noise_drawn_ahead_box_loop(benchmark):
    track = fig7_track()
    camera = CameraModel(width=384, height=192)
    box = sensing_box(camera)
    poses = _sector_poses(track, 4)
    table = {}

    def measure():
        loops = _sense_loops(camera, track, poses, rmod.AHEAD_PIXELS, box)
        inline, inline_render, inline_loop = loops["inline"]
        ahead, ahead_render, ahead_loop = loops["ahead"]
        assert ahead.tobytes() == inline.tobytes(), "drawing ahead changed a frame"
        table.update(
            render_inline_ms=round(inline_render, 3),
            render_ahead_ms=round(ahead_render, 3),
            loop_inline_ms=round(inline_loop, 3),
            loop_ahead_ms=round(ahead_loop, 3),
        )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["frames"] = len(poses)
    benchmark.extra_info.update(table)
    print()
    print(
        "384x192 box, B=1, ms per frame (inline -> ahead): render "
        f"{table['render_inline_ms']:.2f} -> {table['render_ahead_ms']:.2f}; "
        f"whole loop {table['loop_inline_ms']:.2f} -> {table['loop_ahead_ms']:.2f}"
    )


def _nan_threshold(bev_rgb, params, valid):
    """The threshold as it was: NaN row medians (one sort, two per-row
    gathers) over the whole ``(B, H, W)`` stack, then
    ``ndimage.convolve`` for the neighbour count."""

    def nanmedian(stack, n):
        order = np.sort(stack, axis=-1)
        lo = np.maximum((n - 1) // 2, 0)
        hi = np.where(n > 0, n // 2, 0)
        return (
            np.take_along_axis(order, lo, axis=-1)
            + np.take_along_axis(order, hi, axis=-1)
        ) / 2

    def robust_mask(channel, z_threshold):
        masked = np.where(valid, channel, np.nan)
        n = channel.shape[-1] - np.count_nonzero(np.isnan(masked), axis=-1, keepdims=True)
        median = nanmedian(masked, n)
        mad = nanmedian(np.abs(masked - median), n)
        scale = np.maximum(1.4826 * np.nan_to_num(mad), params.min_scale)
        return ((channel - np.nan_to_num(median)) / scale > z_threshold) & valid

    white, yellow = brightness_channels(bev_rgb)
    mask = (robust_mask(white, params.z_white) & (white > params.min_brightness)) | (
        robust_mask(yellow, params.z_yellow)
        & (np.maximum(bev_rgb[..., 0], bev_rgb[..., 1]) > params.min_brightness)
    )
    if params.min_neighbours > 0 and mask.any():
        kernel = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        kernel = kernel if mask.ndim == 2 else kernel[None]
        neighbours = ndimage.convolve(mask.astype(np.uint8), kernel, mode="constant")
        mask &= neighbours >= params.min_neighbours
    return mask


def _sorted_stacked(bevs, params):
    """:func:`dynamic_threshold`'s kernel run once over the whole
    ``(B, H, W, 3)`` stack of a grid wholly inside the frame."""

    def robust_mask(channel, z_threshold):
        median = _row_median(channel)
        scale = np.maximum(1.4826 * _row_median(np.abs(channel - median)), params.min_scale)
        return (channel - median) / scale > z_threshold

    white, yellow = brightness_channels(bevs)
    mask = (robust_mask(white, params.z_white) & (white > params.min_brightness)) | (
        robust_mask(yellow, params.z_yellow)
        & (np.maximum(bevs[..., 0], bevs[..., 1]) > params.min_brightness)
    )
    padded = np.pad(mask.astype(np.uint8), ((0, 0), (1, 1), (1, 1)))
    rows = padded[..., :-2] + padded[..., 1:-1] + padded[..., 2:]
    neighbours = rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:] - padded[:, 1:-1, 1:-1]
    return mask & (neighbours >= params.min_neighbours)


def test_threshold_sorted_rows_per_lane(benchmark):
    track = fig7_track()
    camera = CameraModel(width=384, height=192)
    grid = bev_grid(camera, ROI_PRESETS["ROI 1"])
    renderer = RoadSceneRenderer(camera, track, seed=4)
    pipeline = IspPipeline("S7")
    poses = _sector_poses(track, 2)[:LANES]
    bevs = np.concatenate(
        [grid.warp_batch(pipeline.process_batch(renderer.render_raw(p)[None])) for p in poses]
    )
    params = ThresholdParams()
    table = {}

    def measure():
        for lanes, rounds in ((1, 50), (LANES, 10)):
            stack = bevs[0] if lanes == 1 else bevs
            arms = {
                "nan_stacked": lambda: _nan_threshold(stack, params, grid.inside),
                "sorted_per_lane": lambda: dynamic_threshold(stack, params, valid=grid.inside),
            }
            if lanes > 1:
                arms["sorted_stacked"] = lambda: _sorted_stacked(stack, params)
            best = dict.fromkeys(arms, float("inf"))
            masks = {}
            for _ in range(rounds):
                for arm, fn in arms.items():
                    masks[arm], ms = _best_ms(fn, 1)
                    best[arm] = min(best[arm], ms)
            assert masks["sorted_per_lane"].any()
            for arm, mask in masks.items():
                assert mask.tobytes() == masks["nan_stacked"].tobytes(), (
                    f"B={lanes}: {arm} differs"
                )
            for arm, ms in best.items():
                table[f"threshold_b{lanes}_{arm}_ms"] = round(ms, 3)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["grid_inside"] = bool(grid.inside.all())
    benchmark.extra_info.update(table)
    print()
    for lanes in (1, LANES):
        cells = [
            f"{arm} {table[key]:.3f}"
            for arm in ("nan_stacked", "sorted_stacked", "sorted_per_lane")
            if (key := f"threshold_b{lanes}_{arm}_ms") in table
        ]
        print(f"threshold 96x128 B={lanes}, ms per call: " + ", ".join(cells))
