"""Drawing each camera's next noise block ahead keeps every stream exact.

A noisy :class:`RoadSceneRenderer` of at least ``AHEAD_PIXELS`` pixels
holds the next whole-frame block of its ``camera-noise`` stream, drawn
on the process-wide worker thread while the current frame goes through
the rest of the loop.  The k-th block a renderer takes must be its
stream's k-th whole-frame draw, whatever happens between frames:
cycles that render nothing, repeated runs on one engine, a renderer
listed twice in one batch, a copy, or a fork with a draw in flight.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.situation import situation_by_index
from repro.hil.batch import BatchedHilEngine
from repro.hil.engine import HilConfig, HilEngine
from repro.sim import renderer as rmod
from repro.sim.camera import CameraModel
from repro.sim.renderer import AHEAD_PIXELS, RoadSceneRenderer, render_raw_batch
from repro.sim.sensor import add_sensor_noise
from repro.sim.world import static_situation_track
from tests.test_hil_batch import assert_results_equal

#: One frame size on each side of the gate.
AHEAD = (256, 128)
INLINE = (48, 24)


def _poses(track, n):
    return [track.pose_at(4.0 + 3.0 * k, 0.2 * (k % 3 - 1)) for k in range(n)]


def test_gate_splits_the_sizes():
    assert AHEAD[0] * AHEAD[1] >= AHEAD_PIXELS > INLINE[0] * INLINE[1]


class TestGivenNormals:
    @pytest.mark.parametrize("origin", [None, (2, 4)])
    def test_given_block_equals_the_inline_draw(self, origin):
        frame_shape = (12, 16)
        raw = np.random.default_rng(9).random((6, 8), dtype=np.float32)
        kwargs = {} if origin is None else dict(frame_shape=frame_shape, origin=origin)
        shape = frame_shape if origin else raw.shape
        want = add_sensor_noise(raw, np.random.default_rng(3), 0.02, 0.1, **kwargs)
        normals = np.random.default_rng(3).standard_normal(shape, dtype=np.float32)
        got = add_sensor_noise(raw, None, 0.02, 0.1, **kwargs, normals=normals)
        assert got.tobytes() == want.tobytes()

    def test_block_must_be_the_frame_in_the_raw_dtype(self):
        raw = np.zeros((6, 8), dtype=np.float32)
        frame = dict(frame_shape=(12, 16), origin=(2, 4))
        with pytest.raises(ValueError, match="normals"):
            add_sensor_noise(raw, None, 0.02, 0.1, **frame, normals=np.zeros((6, 8), np.float32))
        with pytest.raises(ValueError, match="normals"):
            add_sensor_noise(raw, None, 0.02, 0.1, **frame, normals=np.zeros((12, 16)))
        with pytest.raises(ValueError, match="normals"):
            add_sensor_noise(
                raw.astype(np.float64), None, 0.02, 0.1, normals=np.zeros((6, 8), np.float32)
            )


class TestStreamOrder:
    @pytest.mark.parametrize("size", [AHEAD, INLINE])
    def test_batched_twice_listed_and_copied_renderers_follow_the_stream(
        self, size, dynamic_track
    ):
        camera = CameraModel(width=size[0], height=size[1])
        poses = _poses(dynamic_track, 6)
        serial = RoadSceneRenderer(camera, dynamic_track, seed=5)
        want = [serial.render_raw(pose) for pose in poses]
        batched = RoadSceneRenderer(camera, dynamic_track, seed=5)
        got = list(render_raw_batch([batched] * 2, poses[:2]))
        assert (batched._ahead is not None) == (size == AHEAD)
        for clone in (copy.deepcopy(batched), pickle.loads(pickle.dumps(batched))):
            rest = render_raw_batch([clone] * 4, poses[2:])
            assert rest.tobytes() == np.stack(want[2:]).tobytes()
        got += list(render_raw_batch([batched] * 4, poses[2:]))
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), k

    def test_interleaved_renderers_under_rapid_switching(self, dynamic_track):
        """Eight renderers share the worker in a shuffled order, with the
        interpreter switching threads every microsecond: every renderer
        still gets its own stream's frames, in order."""
        camera = CameraModel(width=AHEAD[0], height=AHEAD[1])
        poses = _poses(dynamic_track, 4)
        serial = [RoadSceneRenderer(camera, dynamic_track, seed=s) for s in range(8)]
        want = [[r.render_raw(p) for p in poses] for r in serial]
        shared = [RoadSceneRenderer(camera, dynamic_track, seed=s) for s in range(8)]
        order = np.random.default_rng(0).permutation(np.repeat(np.arange(8), len(poses)))
        # A renderer may come twice in one batch: its k-th occurrence
        # overall renders the k-th pose.
        nth = [int((order[:j] == i).sum()) for j, i in enumerate(order)]
        got = [[] for _ in shared]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lanes in np.array_split(np.arange(len(order)), 8):
                frames = render_raw_batch(
                    [shared[order[j]] for j in lanes], [poses[nth[j]] for j in lanes]
                )
                for j, frame in zip(lanes, frames):
                    got[order[j]].append(frame)
        finally:
            sys.setswitchinterval(interval)
        for k in range(8):
            assert np.stack(got[k]).tobytes() == np.stack(want[k]).tobytes(), k

    def test_worker_draws_no_span(self, dynamic_track):
        """The worker only draws: it opens no profiling span."""
        from repro.utils import profiling

        camera = CameraModel(width=AHEAD[0], height=AHEAD[1])
        renderer = RoadSceneRenderer(camera, dynamic_track, seed=2)
        profiler = profiling.Profiler()
        with profiling.activated(profiler):
            for pose in _poses(dynamic_track, 3):
                renderer.render_raw(pose)
            rmod._settle_ahead()
        assert profiler.stats() == {}

    def test_dropped_cycles_and_repeated_runs_match_fresh_serial_runs(self):
        """Two lanes, two ``run()`` calls on the same engines, and ~30% of
        cycles dropped (no render): each run equals the same run of a
        fresh serial engine."""
        track = static_situation_track(situation_by_index(1), length=40.0)
        configs = [
            HilConfig(
                seed=seed,
                frame_width=AHEAD[0],
                frame_height=AHEAD[1],
                frame_drop_rate=0.3,
                initial_offset_m=offset,
            )
            for seed, offset in ((1, 0.2), (2, -0.1))
        ]
        batch = BatchedHilEngine([HilEngine(track, "case2", config=c) for c in configs])
        runs = [batch.run(), batch.run()]
        for lane, config in enumerate(configs):
            serial = HilEngine(track, "case2", config=config)
            for run in runs:
                assert_results_equal(run[lane], serial.run())


_FORK_SCRIPT = textwrap.dedent(
    """
    import hashlib, json, threading
    from repro.sim import renderer as rmod
    from repro.sim.camera import CameraModel
    from repro.sim.renderer import RoadSceneRenderer
    from repro.sim.world import fig7_track
    from repro.utils.parallel import parallel_map, shutdown_pool

    track = fig7_track()
    camera = CameraModel(width=384, height=192)
    poses = [track.pose_at(4.0 + 3.0 * k) for k in range(4)]
    RENDERER = RoadSceneRenderer(camera, track, seed=11)

    def digest(frame):
        return hashlib.sha256(frame.tobytes()).hexdigest()

    def next_frames(k):
        # The first frame takes the block the fork waited for; the child
        # draws the second inline, with no worker of its own.
        frames = [digest(RENDERER.render_raw(p)) + str(k) for p in poses[2:]]
        assert RENDERER._ahead is None and rmod._AHEAD is None
        return frames

    RENDERER.render_raw(poses[0])
    # Hold the worker, so the draw the next frame submits is still
    # queued when the pool forks; release it shortly after.
    gate = threading.Event()
    rmod._AHEAD.submit(gate.wait)
    RENDERER.render_raw(poses[1])
    assert not RENDERER._ahead.done()
    threading.Timer(0.5, gate.set).start()
    forked = parallel_map(next_frames, [0, 1], jobs=2)
    shutdown_pool()
    own = [digest(RENDERER.render_raw(p)) for p in poses[2:]]

    fresh = RoadSceneRenderer(camera, track, seed=11)
    serial = [digest(fresh.render_raw(p)) for p in poses][2:]
    print(json.dumps({"forked": forked, "own": own, "serial": serial}))
    """
)


def test_fork_with_a_draw_in_flight_continues_the_stream():
    """A fork-based pool started while a draw is queued: the fork waits
    for it, the children draw inline with no worker, and every child's
    next two frames are the serial continuation.  Run in its own process
    group so a hang is killed whole."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env.pop("REPRO_JOBS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a fork with a draw in flight hung")
    assert proc.returncode == 0, err
    got = json.loads(out.strip().splitlines()[-1])
    assert got["forked"] == [[d + str(k) for d in got["serial"]] for k in (0, 1)]
    assert got["own"] == got["serial"]
