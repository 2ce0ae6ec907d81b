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
"""

from __future__ import annotations

import time

import numpy as np

from repro.hil.batch import STACK_PIXELS, _stack_chunks
from repro.isp.pipeline import IspPipeline
from repro.perception.bev import BevGrid
from repro.perception.roi import roi_preset
from repro.sim.camera import CameraModel
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
    locate, frame_footprint = TrackSegment.locate, renderer._footprint
    passes = [0]

    def counted(seg, pts):
        passes[0] += np.ndim(pts) > 1
        return locate(seg, pts)

    TrackSegment.locate = counted
    if not footprint:
        renderer._footprint = np.array(
            [[-1e9, -1e9], [-1e9, 1e9], [1e9, -1e9], [1e9, 1e9]]
        )
    try:
        frames = [renderer.render_raw(pose) for pose in poses]
        per_frame = passes[0] / len(poses)
        ms = [_best_ms(lambda: renderer.render_raw(pose))[1] for pose in poses]
    finally:
        TrackSegment.locate, renderer._footprint = locate, frame_footprint
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
