"""Sensing only the box of the frame that perception reads is bit-exact.

On a cycle where perception is the only reader of the frame, the
closed loop renders, noises, ISPs and warps only the camera's
:func:`~repro.perception.bev.sensing_box`.  Each link of the exactness
argument (DESIGN.md section 5) is pinned here against the whole frame:
the box render is the crop of the whole render (noise on and off), a
configuration without whole-frame statistics maps the crop to the crop
of its output over every BEV support, a grid reads nothing outside its
support, and an engine run that senses boxes equals the same run forced
onto whole frames.  The spies check where each extent is used.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.knobs import KnobSetting
from repro.core.reconfiguration import OracleIdentifier, SituationIdentifier
from repro.core.situation import TABLE3_SITUATIONS, Scene, situation_by_index
from repro.faults.plan import FaultPlan
from repro.hil.batch import BatchedHilEngine
from repro.hil.engine import HilConfig, HilEngine, _CyclePre
from repro.isp.pipeline import IspPipeline
from repro.perception.bev import SENSING_HALO, bev_grid, sensing_box
from repro.perception.roi import ROI_PRESETS
from repro.sim import renderer as rmod
from repro.sim.camera import CameraModel
from repro.sim.geometry import Pose2D
from repro.sim.renderer import RenderOptions, RoadSceneRenderer, render_raw_batch
from repro.sim.world import fig7_track, static_situation_track
from tests.test_hil_batch import assert_results_equal

#: The closed-loop sizes, two odd ones, and one whose box is clamped at
#: the frame's left, bottom and right edges (the last two odd).
SIZES = [(384, 192), (96, 48), (48, 24), (47, 23), (31, 15)]


def _camera(size) -> CameraModel:
    return CameraModel(width=size[0], height=size[1])


def _tour_poses(track):
    """One pose a metre into every Fig. 7 sector, off-centre and skewed."""
    poses = []
    for k, seg in enumerate(track.segments):
        base = track.pose_at(seg.s_start + 1.0, 0.3 * (k % 3 - 1))
        poses.append(Pose2D(base.x, base.y, base.heading + 0.04 * (k % 2)))
    return poses


def _in_box(frames: np.ndarray, box) -> np.ndarray:
    top, left, bottom, right = box
    return frames[:, top:bottom, left:right]


class TestSensingBox:
    @pytest.mark.parametrize("size", SIZES)
    def test_box_holds_every_support_with_the_halo(self, size):
        camera = _camera(size)
        top, left, bottom, right = sensing_box(camera)
        assert top % 2 == 0 and left % 2 == 0
        for roi in ROI_PRESETS.values():
            t, l, b, r = bev_grid(camera, roi).support
            assert top <= max(0, t - SENSING_HALO) and left <= max(0, l - SENSING_HALO)
            assert bottom >= min(camera.height, b + SENSING_HALO)
            assert right >= min(camera.width, r + SENSING_HALO)

    def test_box_is_a_small_part_of_the_closed_loop_frame(self):
        top, left, bottom, right = sensing_box(_camera((384, 192)))
        assert (bottom - top) * (right - left) < 0.2 * 384 * 192

    def test_geometry_is_shared_and_read_only(self, dynamic_track):
        camera = _camera((96, 48))
        a = RoadSceneRenderer(camera, dynamic_track, seed=1)
        b = RoadSceneRenderer(camera, dynamic_track, seed=2)
        assert a._ground is b._ground
        assert rmod._ground_samples(camera, sensing_box(camera)) is rmod._ground_samples(
            camera, sensing_box(camera)
        )
        with pytest.raises(ValueError):
            a._ground.local[0, 0] = 1.0
        grid = bev_grid(camera, ROI_PRESETS["ROI 2"])
        assert grid is bev_grid(camera, ROI_PRESETS["ROI 2"])
        with pytest.raises(ValueError):
            grid._operator.data[0] = 1.0


class TestBoxRender:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("noise", [False, True])
    def test_box_render_is_the_crop_of_the_frame(self, size, noise, dynamic_track):
        """Every Fig. 7 sector under every scene; with noise on, the
        ``camera-noise`` stream ends where a whole-frame render leaves it
        and hands out the same next block."""
        camera = _camera(size)
        box = sensing_box(camera)
        poses = _tour_poses(dynamic_track)
        options = RenderOptions(noise=noise)
        for scene in Scene:
            whole = RoadSceneRenderer(camera, dynamic_track, options, seed=7)
            boxed = RoadSceneRenderer(camera, dynamic_track, options, seed=7)
            scenes = [scene] * len(poses)
            want = render_raw_batch([whole] * len(poses), poses, scenes)
            got = render_raw_batch([boxed] * len(poses), poses, scenes, box=box)
            assert got.tobytes() == np.ascontiguousarray(_in_box(want, box)).tobytes(), scene
            # Taking the next block settles a draw in flight on the
            # draw-ahead worker before the states are read.
            assert boxed._take_normals().tobytes() == whole._take_normals().tobytes()
            assert (
                boxed._noise_rng.bit_generator.state == whole._noise_rng.bit_generator.state
            )

    def test_given_arc_lengths_equal_the_lookup(self, dynamic_track):
        camera = _camera((96, 48))
        renderer = RoadSceneRenderer(camera, dynamic_track, RenderOptions(noise=False))
        poses = _tour_poses(dynamic_track)
        s_vehicles = [dynamic_track.frenet(p.x, p.y)[0] for p in poses]
        looked_up = render_raw_batch([renderer] * len(poses), poses)
        given = render_raw_batch([renderer] * len(poses), poses, s_vehicles=s_vehicles)
        assert given.tobytes() == looked_up.tobytes()


class TestBoxIsp:
    @staticmethod
    def _raws(camera, track):
        """Noisy renders of the tour plus a uniform random plane."""
        renderer = RoadSceneRenderer(camera, track, seed=3)
        poses = _tour_poses(track)
        raws = render_raw_batch([renderer] * len(poses), poses)
        noise = np.random.default_rng(5).random((1,) + raws.shape[1:], dtype=np.float32)
        return np.concatenate([raws, noise])

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("isp", ["S5", "S7"])
    def test_local_isp_of_the_crop_is_the_crop_over_every_support(
        self, size, isp, dynamic_track
    ):
        camera = _camera(size)
        top, left, _, _ = box = sensing_box(camera)
        raws = self._raws(camera, dynamic_track)
        pipeline = IspPipeline(isp)
        whole = pipeline.process_batch(raws)
        cropped = pipeline.process_batch(np.ascontiguousarray(_in_box(raws, box)))
        for roi in ROI_PRESETS.values():
            t, l, b, r = bev_grid(camera, roi).support
            want = whole[:, t:b, l:r]
            got = cropped[:, t - top : b - top, l - left : r - left]
            assert got.tobytes() == want.tobytes(), roi.name

    @pytest.mark.parametrize("isp", ["S4", "S8"])
    def test_a_frame_statistic_does_not_survive_the_crop(self, isp, dynamic_track):
        """CM alone (S4) and TM alone (S8) change the support's pixels,
        which is why such configurations sense the whole frame."""
        camera = _camera((96, 48))
        top, left, _, _ = box = sensing_box(camera)
        raws = self._raws(camera, dynamic_track)
        pipeline = IspPipeline(isp)
        whole = pipeline.process_batch(raws)
        cropped = pipeline.process_batch(np.ascontiguousarray(_in_box(raws, box)))
        t, l, b, r = bev_grid(camera, ROI_PRESETS["ROI 1"]).support
        assert not np.array_equal(
            cropped[:, t - top : b - top, l - left : r - left], whole[:, t:b, l:r]
        )


class TestBoxWarp:
    @pytest.mark.parametrize("size", SIZES)
    def test_nothing_outside_the_support_is_read(self, size):
        camera = _camera(size)
        box = sensing_box(camera)
        rng = np.random.default_rng(11)
        frame = rng.random((camera.height, camera.width, 3), dtype=np.float32)
        for roi in ROI_PRESETS.values():
            grid = bev_grid(camera, roi)
            t, l, b, r = grid.support
            masked = np.full_like(frame, np.nan)
            masked[t:b, l:r] = frame[t:b, l:r]
            want = grid.warp(frame)
            assert grid.warp(masked).tobytes() == want.tobytes(), roi.name
            crop = np.ascontiguousarray(_in_box(masked[None], box)[0])
            assert grid.warp(crop).tobytes() == want.tobytes(), roi.name
            assert grid.warp(crop[..., 1]).tobytes() == grid.warp(frame[..., 1]).tobytes()

    def test_other_shapes_are_refused(self):
        camera = _camera((96, 48))
        top, left, bottom, right = sensing_box(camera)
        grid = bev_grid(camera, ROI_PRESETS["ROI 1"])
        for shape in ((bottom - top, right - left - 2), (camera.height, camera.width - 1)):
            with pytest.raises(ValueError):
                grid.warp(np.zeros(shape + (3,), dtype=np.float32))


class _FrameReadingOracle(OracleIdentifier):
    """Oracle labels, but declared a pixel reader: forces whole frames on
    every cycle that invokes it."""

    reads_frame = True


def _table(isp: str):
    return {sit: KnobSetting(isp, "ROI 1", 50.0) for sit in TABLE3_SITUATIONS}


@pytest.fixture
def sensed(monkeypatch):
    """Spy: ``(active ISP, invoked, full frame?)`` per sensed cycle."""
    seen = []
    classify = HilEngine._cycle_classify

    def spy(engine, t_ms, pre, rgb):
        whole = rgb.shape[:2] == (engine.camera.height, engine.camera.width)
        if not whole:
            box = sensing_box(engine.camera)
            assert rgb.shape[:2] == (box[2] - box[0], box[3] - box[1])
        seen.append((pre.active_isp, bool(pre.invoked), whole))
        return classify(engine, t_ms, pre, rgb)

    monkeypatch.setattr(HilEngine, "_cycle_classify", spy)
    return seen


def _run(identifier=None, table=None, size=(96, 48), seconds=1.0, **config):
    track = static_situation_track(situation_by_index(1), length=60.0)
    cfg = HilConfig(
        frame_width=size[0], frame_height=size[1], max_sim_time_s=seconds, seed=4, **config
    )
    return HilEngine(track, "case4", table=table, identifier=identifier, config=cfg).run()


class TestEngineExtent:
    @pytest.mark.parametrize("size", [(96, 48), (384, 192)])
    def test_box_run_equals_the_whole_frame_run(self, size, sensed):
        boxed = _run(OracleIdentifier(seed=4), size=size, seconds=0.6)
        n_boxed = len(sensed)
        whole = _run(_FrameReadingOracle(seed=4), size=size, seconds=0.6)
        assert_results_equal(boxed, whole)
        assert not any(w for _, _, w in sensed[:n_boxed])
        # Invoking cycles of the pixel reader ran on whole frames.
        assert any(w for _, _, w in sensed[n_boxed:])

    def test_s7_cycles_sense_the_box(self, sensed):
        _run()
        assert sensed and all(isp == "S7" and not whole for isp, _, whole in sensed)

    @pytest.mark.parametrize("isp", ["S2", "S3"])
    def test_frame_statistic_cycles_sense_the_whole_frame(self, isp, sensed):
        _run(table=_table(isp))
        assert sensed and all(active == isp and whole for active, _, whole in sensed)

    def test_local_configurations_sense_the_box(self, sensed):
        _run(table=_table("S5"))
        assert sensed and not any(whole for _, _, whole in sensed)

    def test_frame_reading_classifier_cycles_sense_the_whole_frame(self, sensed):
        # Case 4 invokes its classifiers on every cycle of this run.
        _run(_FrameReadingOracle(seed=4))
        assert sensed and all(invoked and whole for _, invoked, whole in sensed)

    @pytest.mark.parametrize(
        "isp, invoked, reader, faults, senses_box",
        [
            ("S7", ("road",), False, None, True),
            ("S5", (), False, None, True),
            ("S7", (), True, None, True),
            ("S7", ("road",), True, None, False),
            ("S2", (), False, None, False),
            ("S4", (), False, None, False),
            ("S8", (), False, None, False),
            ("S7", (), False, "latency@60000:61000", False),
        ],
    )
    def test_decision(self, isp, invoked, reader, faults, senses_box):
        identifier = (_FrameReadingOracle if reader else OracleIdentifier)(seed=4)
        plan = None if faults is None else FaultPlan.parse(faults)
        track = static_situation_track(situation_by_index(1), length=60.0)
        config = HilConfig(frame_width=96, frame_height=48, fault_plan=plan)
        engine = HilEngine(track, "case4", identifier=identifier, config=config)
        pre = _CyclePre(None, 0.0, situation_by_index(1), isp, invoked, None, False)
        want = sensing_box(engine.camera) if senses_box else None
        assert BatchedHilEngine._sensed_box(engine, pre) == want

    def test_fault_plans_sense_the_whole_frame(self, sensed):
        # A window that never opens in this run still arms the injector.
        _run(fault_plan=FaultPlan.parse("blackout@60000:61000"))
        assert sensed and all(whole for _, _, whole in sensed)

    def test_duck_typed_identifiers_count_as_pixel_readers(self, sensed):
        class Plain:
            def identify(self, frame_rgb, which, true_situation):
                return OracleIdentifier().identify(frame_rgb, which, true_situation)

        assert SituationIdentifier.reads_frame
        _run(Plain())
        assert any(whole for _, invoked, whole in sensed if invoked)


_BLAS_PROBE = textwrap.dedent(
    """
    import sys
    from repro.cache.keys import _blas_core
    from repro.perception.bev import sensing_box
    from repro.sim.camera import CameraModel
    from repro.sim.renderer import RenderOptions, RoadSceneRenderer, render_raw_batch
    from repro.sim.world import fig7_track

    track = fig7_track()
    camera = CameraModel(width=96, height=48)
    top, left, bottom, right = box = sensing_box(camera)
    renderer = RoadSceneRenderer(camera, track, RenderOptions(noise=False))
    poses = [track.pose_at(seg.s_start + 1.5, 0.2) for seg in track.segments]
    whole = render_raw_batch([renderer] * len(poses), poses)[:, top:bottom, left:right]
    boxed = render_raw_batch([renderer] * len(poses), poses, box=box)
    print(_blas_core(), int(whole.tobytes() == boxed.tobytes()))
    """
)


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_box_render_is_the_crop_under_other_blas_cores(core):
    """The box's world transform is an sgemm over a row subset of the
    whole frame's ground points; every core must give those rows the
    same bits as the whole-frame product."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    reported, equal = out.stdout.split()
    if reported != core:
        pytest.skip(f"this OpenBLAS build runs {reported}, not {core}")
    assert equal == "1"
