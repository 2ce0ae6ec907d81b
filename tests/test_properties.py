"""Cross-cutting property-based tests on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.situation import situation_by_index
from repro.isp.pipeline import IspPipeline
from repro.perception.threshold import ThresholdParams, dynamic_threshold
from repro.platform.schedule import period_for_delay, pipeline_timing
from repro.sim.geometry import Pose2D
from repro.sim.track import SectorSpec, Track
from repro.utils.rng import derive_rng
from tests.test_perception import _reference_threshold

SIT = situation_by_index(1)


class TestThresholdProperties:
    @given(
        st.floats(min_value=0.15, max_value=0.6),   # road level
        st.floats(min_value=0.25, max_value=0.55),  # line contrast
        st.integers(min_value=4, max_value=58),     # line column
    )
    @settings(max_examples=40, deadline=None)
    def test_bright_line_on_uniform_road_is_detected(self, road, contrast, col):
        bev = np.full((48, 64, 3), road, dtype=np.float32)
        bev[:, col : col + 2] = min(road + contrast, 1.0)
        mask = dynamic_threshold(bev)
        assert mask[:, col : col + 2].mean() > 0.5
        off = np.ones(64, dtype=bool)
        off[max(col - 1, 0) : col + 3] = False
        assert mask[:, off].mean() < 0.05

    @given(st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_exposure_scaling_invariance(self, gain):
        """The robust threshold is (nearly) invariant to global gain as
        long as the absolute floor is respected."""
        rng = derive_rng(5, "thr")
        bev = np.full((48, 64, 3), 0.3, dtype=np.float32)
        bev += 0.01 * rng.standard_normal(bev.shape).astype(np.float32)
        bev[:, 20:22] = 0.8
        base = dynamic_threshold(np.clip(bev, 0, 1))
        scaled = dynamic_threshold(np.clip(bev * gain, 0, 1))
        agreement = (base == scaled).mean()
        assert agreement > 0.97

    @given(
        st.integers(min_value=1, max_value=24),    # height
        st.integers(min_value=1, max_value=40),    # width
        st.integers(min_value=0, max_value=8),     # tie levels (0: none)
        st.sampled_from(["none", "all", "partial"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sorted_rows_equal_nanmedian_reference(
        self, height, width, levels, valid_mode, seed
    ):
        """Every route of the threshold equals the ``np.nanmedian`` (and,
        without *valid*, the ``np.median``) formulation bit for bit."""
        rng = np.random.default_rng(seed)
        bev = rng.random((height, width, 3), dtype=np.float32)
        if levels:
            bev = np.round(bev * levels) / np.float32(levels)
        valid = {
            "none": None,
            "all": np.ones((height, width), dtype=bool),
            "partial": rng.random((height, width)) < 0.7,
        }[valid_mode]
        for params in (ThresholdParams(), ThresholdParams(min_neighbours=0)):
            got = dynamic_threshold(bev, params, valid=valid)
            everywhere = np.ones((height, width), dtype=bool)
            want = _reference_threshold(
                bev, params, everywhere if valid is None else valid
            )
            assert np.array_equal(got, want)
            if valid is None:
                assert np.array_equal(got, _reference_threshold(bev, params, None))

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_neighbour_count_equals_convolution(self, height, width, density, seed):
        from scipy import ndimage

        from repro.perception.threshold import _neighbour_count

        mask = np.random.default_rng(seed).random((height, width)) < density
        kernel = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        want = ndimage.convolve(mask.astype(np.uint8), kernel, mode="constant")
        assert np.array_equal(_neighbour_count(mask), want)

    def test_mask_subset_of_valid(self):
        rng = derive_rng(6, "thr2")
        bev = rng.random((32, 40, 3)).astype(np.float32)
        valid = np.zeros((32, 40), dtype=bool)
        valid[:, :20] = True
        mask = dynamic_threshold(bev, ThresholdParams(), valid=valid)
        assert not mask[~valid].any()


class TestIspProperties:
    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=9, deadline=None)
    def test_output_bounded_for_every_config(self, idx):
        rng = derive_rng(idx, "isp-prop")
        raw = rng.random((24, 24)).astype(np.float32)
        out = IspPipeline(f"S{idx}").process(raw)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.isfinite(out))

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_demosaic_preserves_flat_level(self, level):
        from repro.isp.stages import demosaic

        raw = np.full((16, 16), level, dtype=np.float32)
        out = demosaic(raw)
        np.testing.assert_allclose(out, level, atol=1e-5)


class TestScheduleProperties:
    @given(st.floats(min_value=0.1, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_period_covers_delay(self, delay):
        period = period_for_delay(delay)
        assert period >= delay - 1e-9
        assert period % 5.0 == pytest.approx(0.0, abs=1e-9)
        assert period - delay < 5.0 + 1e-9

    @given(
        st.sampled_from([f"S{i}" for i in range(9)]),
        st.sets(st.sampled_from(["road", "lane", "scene"])),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_timing_monotone_in_classifiers(self, isp, classifiers, dynamic):
        base = pipeline_timing(isp, (), dynamic_isp=dynamic)
        with_clf = pipeline_timing(isp, tuple(classifiers), dynamic_isp=dynamic)
        assert with_clf.delay_ms >= base.delay_ms
        assert with_clf.period_ms >= base.period_ms
        assert with_clf.delay_ms <= with_clf.period_ms


class TestTrackProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=20.0, max_value=80.0),
                st.floats(min_value=-1 / 45.0, max_value=1 / 45.0),
            ),
            min_size=1,
            max_size=5,
        ),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_frenet_round_trip_on_random_tracks(self, specs, frac, d):
        track = Track.from_sections(
            [SectorSpec(length, curv, SIT) for length, curv in specs],
            Pose2D(0.0, 0.0, 0.3),
        )
        s = frac * track.length
        pose = track.pose_at(s, d)
        s_found, d_found = track.frenet(pose.x, pose.y, s_hint=s)
        assert s_found == pytest.approx(s, abs=1e-5)
        assert d_found == pytest.approx(d, abs=1e-5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_curvature_matches_segment(self, frac):
        from repro.sim.world import fig7_track

        track = fig7_track()
        s = min(frac * track.length, track.length - 1e-6)
        seg = track.segments[int(track.segment_index_at(s))]
        assert track.curvature_at(s) == seg.curvature


class TestVehicleControllerProperties:
    @given(
        st.floats(min_value=-0.4, max_value=0.4),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    @settings(max_examples=30, deadline=None)
    def test_controller_output_saturated(self, y_l, eps):
        from repro.control.controller import LaneKeepingController
        from repro.control.lqr import design_lqr
        from repro.perception.pipeline import PerceptionResult
        from repro.sim.vehicle import VehicleParams

        gains = design_lqr(VehicleParams(), 13.9, 0.025, 0.0246)
        controller = LaneKeepingController(gains, steer_limit=0.55)
        measurement = PerceptionResult(
            y_l=y_l, epsilon_l=eps, curvature=0.0, valid=True,
            lines_used=2, n_pixels=50,
        )
        u = controller.step(measurement, 0.0, 0.0, 0.0)
        assert -0.55 <= u <= 0.55

    @given(st.floats(min_value=0.1, max_value=0.5))
    @settings(max_examples=10, deadline=None)
    def test_closed_loop_contraction(self, y0):
        """The designed closed loop contracts any initial y_L offset."""
        from repro.control.lqr import design_lqr
        from repro.sim.vehicle import VehicleParams

        gains = design_lqr(VehicleParams(), 13.9, 0.025, 0.0246)
        z = np.zeros(6)
        z[2] = y0
        for _ in range(800):
            z = gains.a_closed @ z
        assert abs(z[2]) < 1e-4 * max(y0, 0.1)
