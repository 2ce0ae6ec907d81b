"""Tests for the perception pipeline: BEV, threshold, windows, fit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.situation import situation_by_index
from repro.isp.pipeline import IspPipeline
from repro.perception.bev import BevGrid
from repro.perception.lane_fit import LaneFit, fit_lane_lines, fit_line_poly
from repro.perception.pipeline import PerceptionPipeline, PerceptionResult
from repro.perception.roi import ROI_PRESETS, RoiPreset, roi_preset
from repro.perception.sliding_window import (
    LanePixels,
    SlidingWindowParams,
    find_lane_pixels,
)
from repro.perception.threshold import ThresholdParams, dynamic_threshold
from repro.sim.geometry import Pose2D
from repro.sim.renderer import RoadSceneRenderer
from repro.sim.world import static_situation_track


def _reference_warp(grid, frame):
    """``(inside, bev)`` of the explicit bilinear formulation of the BEV.

    Each cell reads its four neighbouring pixels and sums them
    left-associated, ``((f00*w00 + f01*w01) + f10*w10) + f11*w11``, in
    float32; cells whose ground point projects outside the frame are 0.
    """
    cam = grid.camera
    x = np.broadcast_to(grid.x_axis[:, None], (grid.n_rows, grid.n_cols))
    y = grid.roi.center_offset(grid.x_axis[:, None]) + grid.lat_axis[None, :]
    u, v = cam.project(x, y)
    u = np.asarray(u, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    inside = (u >= 0) & (u <= cam.width - 1) & (v >= 0) & (v <= cam.height - 1)
    u = np.clip(u, 0, cam.width - 1.001)
    v = np.clip(v, 0, cam.height - 1.001)
    u0 = np.floor(u).astype(np.int32)
    v0 = np.floor(v).astype(np.int32)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    w00 = ((1 - fu) * (1 - fv)).astype(np.float32)
    w01 = (fu * (1 - fv)).astype(np.float32)
    w10 = ((1 - fu) * fv).astype(np.float32)
    w11 = (fu * fv).astype(np.float32)
    f = frame.astype(np.float32)
    f = f[..., None] if f.ndim == 2 else f
    out = (
        (f[v0, u0] * w00 + f[v0, u0 + 1] * w01) + f[v0 + 1, u0] * w10
    ) + f[v0 + 1, u0 + 1] * w11
    out[~inside] = 0.0
    return inside, out[..., 0] if frame.ndim == 2 else out


class TestRoiPresets:
    def test_table2_names_present(self):
        assert set(ROI_PRESETS) == {f"ROI {i}" for i in range(1, 6)}

    def test_straight_preset_is_uncurved(self):
        assert roi_preset("ROI 1").curvature == 0.0

    def test_turn_presets_signs(self):
        assert roi_preset("ROI 2").curvature < 0  # right turn
        assert roi_preset("ROI 4").curvature > 0  # left turn

    def test_wide_variants_are_wider(self):
        assert roi_preset("ROI 3").half_width > roi_preset("ROI 2").half_width
        assert roi_preset("ROI 5").half_width > roi_preset("ROI 4").half_width

    def test_center_offset_quadratic(self):
        preset = roi_preset("ROI 4")
        x = np.array([10.0])
        assert preset.center_offset(x)[0] == pytest.approx(
            0.5 * preset.curvature * 100.0
        )

    def test_image_trapezoid_shape(self, small_camera):
        corners = roi_preset("ROI 1").image_trapezoid(small_camera)
        assert corners.shape == (4, 2)
        # Far corners project higher in the image (smaller v).
        assert corners[2, 1] < corners[0, 1]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            roi_preset("ROI 9")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            RoiPreset("bad", 0.0, -1.0)


class TestBevGrid:
    def test_axes_cover_roi(self, small_camera):
        preset = roi_preset("ROI 1")
        grid = BevGrid(small_camera, preset)
        assert grid.x_axis[0] == pytest.approx(preset.x_near)
        assert grid.x_axis[-1] == pytest.approx(preset.x_far)
        assert grid.lat_axis[0] == pytest.approx(-preset.half_width)

    def test_warp_shapes(self, small_camera, day_renderer, day_track):
        grid = BevGrid(small_camera, roi_preset("ROI 1"), n_rows=32, n_cols=48)
        rgb = day_renderer.render_rgb(day_track.pose_at(30.0))
        bev = grid.warp(rgb)
        assert bev.shape == (32, 48, 3)
        gray = grid.warp(rgb[..., 0])
        assert gray.shape == (32, 48)

    def test_warp_rejects_wrong_size(self, small_camera):
        grid = BevGrid(small_camera, roi_preset("ROI 1"))
        with pytest.raises(ValueError):
            grid.warp(np.zeros((10, 10, 3), dtype=np.float32))

    def test_vehicle_lateral_includes_rectification(self, small_camera):
        preset = roi_preset("ROI 4")
        grid = BevGrid(small_camera, preset, n_rows=16, n_cols=16)
        x, y = grid.vehicle_lateral(np.array([15]), np.array([8]))
        expected = preset.center_offset(x) + grid.lat_axis[8]
        assert y[0] == pytest.approx(expected[0])

    def test_straight_marking_is_vertical_in_bev(self, small_camera):
        """With matching rectification the marking stays in one column."""
        track = static_situation_track(situation_by_index(1), length=200.0)
        renderer = RoadSceneRenderer(small_camera, track, seed=0)
        grid = BevGrid(small_camera, roi_preset("ROI 1"))
        rgb = renderer.render_rgb(track.pose_at(40.0, 0.0))
        bev = grid.warp(rgb)
        mask = dynamic_threshold(bev)
        rows, cols = np.nonzero(mask)
        left = cols[grid.lat_axis[cols] > 0.5]
        assert left.size > 10
        # Marking width + far-range anti-alias smear stays well under a
        # metre when the rectification matches the road.
        assert np.ptp(grid.lat_axis[left]) < 0.8

    def test_too_small_grid_rejected(self, small_camera):
        with pytest.raises(ValueError):
            BevGrid(small_camera, roi_preset("ROI 1"), n_rows=4, n_cols=4)

    def test_warp_matches_left_associated_bilinear_reference(
        self, small_camera, day_renderer, day_track
    ):
        """``warp`` equals the explicit four-tap bilinear sum, bit for bit.

        The taps are rebuilt here from ``camera.project``; the ROI is
        wide and long enough that some ground cells project outside the
        frame, and those must come out zero.
        """
        roi = RoiPreset("wide", 0.02, 12.0, x_near=2.0, x_far=30.0)
        grid = BevGrid(small_camera, roi, n_rows=32, n_cols=48)
        rgb = day_renderer.render_rgb(day_track.pose_at(30.0, 0.2))
        want_inside, want = _reference_warp(grid, rgb)
        assert 0 < (~want_inside).sum() < want_inside.size
        assert np.array_equal(grid.inside, want_inside)
        for frame, expected in ((rgb, want), (rgb[..., 1], want[..., 1])):
            got = grid.warp(frame)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert not got[~want_inside].any()


class TestDynamicThreshold:
    def _bev_with_line(self, col: int = 20, value=(0.9, 0.9, 0.9)):
        bev = np.full((48, 64, 3), 0.3, dtype=np.float32)
        bev[:, col : col + 2] = value
        return bev

    def test_detects_white_line(self):
        mask = dynamic_threshold(self._bev_with_line())
        assert mask[:, 20:22].mean() > 0.8
        assert mask[:, :18].mean() < 0.02

    def test_detects_yellow_line(self):
        mask = dynamic_threshold(self._bev_with_line(value=(0.85, 0.65, 0.1)))
        assert mask[:, 20:22].mean() > 0.8

    def test_rejects_green_vegetation(self):
        mask = dynamic_threshold(self._bev_with_line(value=(0.1, 0.5, 0.08)))
        assert mask.sum() == 0

    def test_dark_flat_frame_is_empty(self):
        bev = np.full((48, 64, 3), 0.02, dtype=np.float32)
        assert dynamic_threshold(bev).sum() == 0

    def test_bright_line_below_floor_is_rejected(self):
        bev = np.full((48, 64, 3), 0.01, dtype=np.float32)
        bev[:, 20:22] = 0.05  # relative outlier but absolutely dark
        assert dynamic_threshold(bev).sum() == 0

    def test_contiguity_filter_kills_salt_noise(self, rng):
        bev = np.full((48, 64, 3), 0.3, dtype=np.float32)
        # isolated bright single pixels
        for _ in range(30):
            r, c = rng.integers(0, 48), rng.integers(0, 64)
            bev[r, c] = 0.95
        mask = dynamic_threshold(bev, ThresholdParams(min_neighbours=3))
        assert mask.sum() <= 4

    def test_rejects_non_rgb(self):
        with pytest.raises(ValueError):
            dynamic_threshold(np.zeros((8, 8)))


class TestSlidingWindow:
    def _mask_with_lines(self, n_rows=96, n_cols=128, left=96, right=32):
        mask = np.zeros((n_rows, n_cols), dtype=bool)
        mask[:, left : left + 2] = True
        mask[:, right : right + 2] = True
        return mask

    def test_finds_both_lines(self):
        mask = self._mask_with_lines()
        res = 4.8 / 128  # ~ROI 1 resolution
        pixels = find_lane_pixels(mask, res)
        assert pixels.left_found and pixels.right_found
        assert pixels.n_left > 50 and pixels.n_right > 50

    def test_left_line_has_higher_columns(self):
        mask = self._mask_with_lines()
        pixels = find_lane_pixels(mask, 4.8 / 128)
        assert pixels.left_cols.mean() > pixels.right_cols.mean()

    def test_empty_mask_finds_nothing(self):
        pixels = find_lane_pixels(np.zeros((96, 128), dtype=bool), 4.8 / 128)
        assert not pixels.left_found and not pixels.right_found

    def test_single_line_is_assigned_by_position(self):
        mask = np.zeros((96, 128), dtype=bool)
        mask[:, 30:32] = True  # right side only
        pixels = find_lane_pixels(mask, 4.8 / 128)
        assert pixels.right_found and not pixels.left_found

    def test_weak_base_is_rejected(self):
        mask = np.zeros((96, 128), dtype=bool)
        mask[:3, 96] = True  # 3 pixels < min_base_strength
        pixels = find_lane_pixels(mask, 4.8 / 128)
        assert not pixels.left_found

    def test_windows_follow_drifting_line(self):
        """A line drifting several columns over the rows is captured."""
        mask = np.zeros((96, 128), dtype=bool)
        cols = (96 + np.linspace(0, 14, 96)).astype(int)
        for r, c in enumerate(cols):
            mask[r, c : c + 2] = True
        pixels = find_lane_pixels(mask, 4.8 / 128)
        assert pixels.n_left > 120

    def test_hint_overrides_expected_position(self):
        """With a base hint, an off-center line is still tracked."""
        mask = np.zeros((96, 128), dtype=bool)
        mask[40:60, 72:74] = True  # mid-range dash far from expected base
        res = 4.8 / 128
        no_hint = find_lane_pixels(mask, res)
        lat_hint = (72 - 63.5) * res
        hinted = find_lane_pixels(mask, res, base_hints=(lat_hint, None))
        assert hinted.n_left >= no_hint.n_left
        assert hinted.left_found

    def test_rejects_1d_mask(self):
        with pytest.raises(ValueError):
            find_lane_pixels(np.zeros(10, dtype=bool), 0.05)

    def test_double_lock_guard(self):
        """Both searches near one strong line: only one may claim it."""
        mask = np.zeros((96, 128), dtype=bool)
        mask[:, 63:65] = True  # single line in the middle
        pixels = find_lane_pixels(
            mask, 4.8 / 128, SlidingWindowParams(base_search_window=3.0)
        )
        assert pixels.left_found != pixels.right_found


class TestLaneFit:
    def test_quadratic_recovery(self):
        x = np.linspace(5, 20, 120)
        lat = 0.004 * x**2 - 0.02 * x + 1.6
        coef = fit_line_poly(x, lat)
        # The ridge shrinks the quadratic term a little; the fitted
        # curve must still match closely where it is evaluated.
        fitted = np.polyval(coef, 5.5)
        assert fitted == pytest.approx(0.004 * 5.5**2 - 0.02 * 5.5 + 1.6, abs=0.05)

    def test_too_few_pixels_rejected(self):
        assert fit_line_poly(np.arange(3.0), np.arange(3.0)) is None

    def test_short_span_falls_back_to_linear(self):
        x = np.linspace(8.0, 10.0, 30)
        lat = 0.5 * x + 0.1
        coef = fit_line_poly(x, lat)
        assert coef[0] == 0.0
        assert coef[1] == pytest.approx(0.5, abs=1e-6)

    def test_two_line_center(self):
        x_axis = np.linspace(5, 20, 96)
        lat_axis = np.linspace(-3, 3, 128)
        rows = np.tile(np.arange(96), 2)
        left_cols = np.full(96, np.argmin(np.abs(lat_axis - 1.6)))
        right_cols = np.full(96, np.argmin(np.abs(lat_axis + 1.6)))
        pixels = LanePixels(
            left_rows=np.arange(96),
            left_cols=left_cols,
            right_rows=np.arange(96),
            right_cols=right_cols,
            left_found=True,
            right_found=True,
        )
        fit = fit_lane_lines(pixels, x_axis, lat_axis)
        assert fit.valid and fit.lines_used == 2
        assert fit.center_lateral(10.0) == pytest.approx(0.0, abs=0.1)

    def _single_line_pixels(self, lat_axis):
        left_col = np.argmin(np.abs(lat_axis - 1.625))
        return LanePixels(
            left_rows=np.arange(96),
            left_cols=np.full(96, left_col),
            right_rows=np.empty(0, dtype=int),
            right_cols=np.empty(0, dtype=int),
            left_found=True,
            right_found=False,
        )

    def test_single_line_invalid_by_default(self):
        """Paper-faithful: losing one boundary is a perception failure."""
        x_axis = np.linspace(5, 20, 96)
        lat_axis = np.linspace(-3, 3, 128)
        fit = fit_lane_lines(
            self._single_line_pixels(lat_axis), x_axis, lat_axis, lane_width=3.25
        )
        assert fit.lines_used == 1
        assert not fit.valid

    def test_single_line_fallback_offsets_half_lane(self):
        x_axis = np.linspace(5, 20, 96)
        lat_axis = np.linspace(-3, 3, 128)
        fit = fit_lane_lines(
            self._single_line_pixels(lat_axis),
            x_axis,
            lat_axis,
            lane_width=3.25,
            require_both_lines=False,
        )
        assert fit.lines_used == 1
        assert fit.center_lateral(10.0) == pytest.approx(0.0, abs=0.1)

    def test_no_pixels_invalid(self):
        empty = LanePixels(
            np.empty(0, dtype=int),
            np.empty(0, dtype=int),
            np.empty(0, dtype=int),
            np.empty(0, dtype=int),
            False,
            False,
        )
        fit = fit_lane_lines(empty, np.linspace(5, 20, 96), np.linspace(-3, 3, 128))
        assert not fit.valid
        with pytest.raises(ValueError):
            fit.center_lateral(5.0)

    @given(
        st.floats(min_value=-0.005, max_value=0.005),
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fit_evaluates_close_on_clean_data(self, a, b, c):
        x = np.linspace(5, 20, 150)
        lat = a * x**2 + b * x + c
        coef = fit_line_poly(x, lat)
        assert np.polyval(coef, 7.0) == pytest.approx(
            a * 49 + b * 7 + c, abs=0.08
        )


class TestPerceptionPipeline:
    def test_end_to_end_measurement(self, small_camera):
        track = static_situation_track(situation_by_index(1), length=200.0)
        renderer = RoadSceneRenderer(small_camera, track, seed=1)
        pipeline = PerceptionPipeline(small_camera, "ROI 1")
        pose = track.pose_at(40.0, 0.2)
        raw = renderer.render_raw(pose)
        rgb = IspPipeline("S0").process(raw)
        result = pipeline.process(rgb)
        assert result.valid
        # Vehicle 0.2 m left of center: positive y_L of similar size.
        assert result.y_l == pytest.approx(0.2, abs=0.15)

    def test_invalid_result_is_neutral(self):
        result = PerceptionResult.invalid()
        assert not result.valid
        assert result.y_l == 0.0 and result.lines_used == 0

    def test_set_roi_switches_preset(self, small_camera):
        pipeline = PerceptionPipeline(small_camera, "ROI 1")
        pipeline.set_roi("ROI 4")
        assert pipeline.roi.name == "ROI 4"

    def test_roi_switch_resets_tracking_hints(self, small_camera):
        pipeline = PerceptionPipeline(small_camera, "ROI 1", temporal_tracking=True)
        pipeline._hints = (1.0, -1.0)
        pipeline.set_roi("ROI 2")
        assert pipeline._hints is None

    def test_roi_switch_reuses_cached_bev_grid(self, small_camera):
        # Closed-loop runs flip ROI every reconfiguration; the per-ROI
        # BEV grids must be built once and reused, not reconstructed
        # (grid construction is the expensive part of the PR stage).
        pipeline = PerceptionPipeline(small_camera, "ROI 1")
        grid1 = pipeline._grid()
        pipeline.set_roi("ROI 4")
        grid4 = pipeline._grid()
        assert grid4 is not grid1
        pipeline.set_roi("ROI 1")
        assert pipeline._grid() is grid1
        pipeline.set_roi("ROI 4")
        assert pipeline._grid() is grid4

    def test_measurement_sign_convention(self, small_camera):
        """Vehicle right of center -> negative y_l."""
        track = static_situation_track(situation_by_index(1), length=200.0)
        renderer = RoadSceneRenderer(small_camera, track, seed=1)
        pipeline = PerceptionPipeline(small_camera, "ROI 1")
        pose = track.pose_at(40.0, -0.3)
        rgb = IspPipeline("S0").process(renderer.render_raw(pose))
        result = pipeline.process(rgb)
        assert result.valid
        assert result.y_l < -0.1

    def test_curvature_estimate_on_turn(self, small_camera):
        track = static_situation_track(situation_by_index(8))  # right turn
        renderer = RoadSceneRenderer(small_camera, track, seed=1)
        pipeline = PerceptionPipeline(small_camera, "ROI 2")
        pose = track.pose_at(40.0, 0.0)
        rgb = IspPipeline("S0").process(renderer.render_raw(pose))
        result = pipeline.process(rgb)
        assert result.valid
        from repro.sim.world import DEFAULT_TURN_RADIUS

        assert result.curvature == pytest.approx(
            -1 / DEFAULT_TURN_RADIUS, abs=0.006
        )


def _reference_threshold(bev_rgb, params, valid):
    """:func:`dynamic_threshold` with ``np.nanmedian`` row statistics
    (``np.median`` ones when *valid* is ``None``)."""
    import warnings

    from scipy import ndimage

    from repro.perception.threshold import brightness_channels

    def robust_mask(channel, z_threshold):
        if valid is None:
            median = np.median(channel, axis=-1, keepdims=True)
            mad = np.median(np.abs(channel - median), axis=-1, keepdims=True)
            scale = np.maximum(1.4826 * mad, params.min_scale)
            return (channel - median) / scale > z_threshold
        masked = np.where(valid, channel, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            median = np.nanmedian(masked, axis=-1, keepdims=True)
            mad = np.nanmedian(np.abs(masked - median), axis=-1, keepdims=True)
        scale = np.maximum(1.4826 * np.nan_to_num(mad), params.min_scale)
        return ((channel - np.nan_to_num(median)) / scale > z_threshold) & valid

    white, yellow = brightness_channels(bev_rgb)
    mask = (robust_mask(white, params.z_white) & (white > params.min_brightness)) | (
        robust_mask(yellow, params.z_yellow)
        & (np.maximum(bev_rgb[..., 0], bev_rgb[..., 1]) > params.min_brightness)
    )
    if params.min_neighbours > 0:
        kernel = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        neighbours = ndimage.convolve(mask.astype(np.uint8), kernel, mode="constant")
        mask &= neighbours >= params.min_neighbours
    return mask


class TestBatchedKernels:
    """Bitwise equality of the stacked perception kernels vs serial."""

    def _frames(self, small_camera, day_track, n=4):
        renderer = RoadSceneRenderer(small_camera, day_track, seed=0)
        return np.stack(
            [
                renderer.render_rgb(day_track.pose_at(10.0 + 12.0 * i, 0.1 * i))
                for i in range(n)
            ]
        )

    def test_warp_batch_bitwise(self, small_camera, day_track):
        frames = self._frames(small_camera, day_track)
        for roi in ("ROI 1", "ROI 2"):
            grid = BevGrid(small_camera, roi_preset(roi), n_rows=32, n_cols=48)
            batched = grid.warp_batch(frames)
            for i, frame in enumerate(frames):
                assert np.array_equal(batched[i], grid.warp(frame))

    def test_warp_batch_of_sixteen_is_per_lane(self, small_camera, day_track):
        """Sixteen lanes: one csr product each equals the lone warp, the
        explicit bilinear reference, and the many-column product over
        all lanes at once (csr sums each column tap by tap)."""
        frames = self._frames(small_camera, day_track, n=16)
        roi = RoiPreset("wide", 0.02, 12.0, x_near=2.0, x_far=30.0)
        grid = BevGrid(small_camera, roi, n_rows=32, n_cols=48)
        batched = grid.warp_batch(frames)
        assert batched.shape == (16, 32, 48, 3)
        top, left, bottom, right = grid.support
        hw = (bottom - top) * (right - left)
        support = frames[:, top:bottom, left:right].reshape(16, hw, 3)
        many = grid._operator @ support.transpose(1, 0, 2).reshape(hw, 48)
        many = many.reshape(32, 48, 16, 3).transpose(2, 0, 1, 3)
        for i, frame in enumerate(frames):
            inside, want = _reference_warp(grid, frame)
            assert np.array_equal(batched[i], want)
            assert np.array_equal(batched[i], grid.warp(frame))
            assert np.array_equal(batched[i][inside], many[i][inside])

    def test_warp_batch_single_channel(self, small_camera, day_track):
        frames = self._frames(small_camera, day_track)[..., 0]
        grid = BevGrid(small_camera, roi_preset("ROI 1"), n_rows=32, n_cols=48)
        batched = grid.warp_batch(frames)
        assert batched.shape == (4, 32, 48)
        for i, frame in enumerate(frames):
            assert np.array_equal(batched[i], grid.warp(frame))

    def test_nanmedian_cols_matches_numpy(self, rng):
        from repro.perception.threshold import _nanmedian_cols

        for width in (7, 8, 31):
            stack = rng.normal(size=(3, 5, width))
            stack[rng.random(stack.shape) < 0.3] = np.nan
            stack[0, 0] = np.nan  # an all-NaN row
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = np.nanmedian(stack, axis=-1, keepdims=True)
            got = _nanmedian_cols(stack)
            assert np.array_equal(
                np.nan_to_num(got, nan=-1e9), np.nan_to_num(expected, nan=-1e9)
            )

    def test_serial_threshold_matches_nanmedian_reference(
        self, small_camera, day_track, rng
    ):
        """Serial masks equal the ``np.nanmedian`` formulation exactly."""
        frames = self._frames(small_camera, day_track)
        grid = BevGrid(small_camera, roi_preset("ROI 2"), n_rows=32, n_cols=48)
        valid = grid.inside.copy()
        valid[3] = False  # an all-NaN row
        valid[5, ::3] = False  # a row with extra NaNs
        bevs = list(grid.warp_batch(frames))
        noisy = rng.random((32, 48, 3), dtype=np.float32)
        noisy[:, 20:22] = 0.95
        for bev in bevs + [noisy]:
            for params in (ThresholdParams(), ThresholdParams(min_neighbours=0)):
                want = _reference_threshold(bev, params, valid)
                assert np.array_equal(dynamic_threshold(bev, params, valid=valid), want)
                stacked = dynamic_threshold(bev[None], params, valid=valid)
                assert stacked.shape == (1,) + want.shape
                assert np.array_equal(stacked[0], want)

    def test_dynamic_threshold_batch_bitwise(self, small_camera, day_track):
        frames = self._frames(small_camera, day_track)
        grid = BevGrid(small_camera, roi_preset("ROI 1"), n_rows=32, n_cols=48)
        bev = grid.warp_batch(frames)
        batched = dynamic_threshold(bev, valid=grid.inside)
        for i in range(len(frames)):
            serial = dynamic_threshold(bev[i], valid=grid.inside)
            assert np.array_equal(batched[i], serial)

    def test_sixteen_lane_threshold_stack_is_per_lane(
        self, small_camera, day_track, rng
    ):
        """A 16-lane stack at 96x128 equals its per-lane calls and the
        ``np.nanmedian`` reference, on the sorted-row and NaN routes."""
        frames = self._frames(small_camera, day_track, n=8)
        grid = BevGrid(small_camera, roi_preset("ROI 1"), n_rows=96, n_cols=128)
        noise = rng.random((8, 96, 128, 3), dtype=np.float32)
        bevs = np.concatenate([grid.warp_batch(frames), noise])
        everywhere = np.ones((96, 128), dtype=bool)
        partial = everywhere.copy()
        partial[:, :10] = False
        partial[40] = False
        for valid in (None, everywhere, grid.inside, partial):
            stacked = dynamic_threshold(bevs, valid=valid)
            assert stacked.shape == (16, 96, 128)
            assert stacked[:8].any()
            want = everywhere if valid is None else valid
            for lane, bev in zip(stacked, bevs):
                assert np.array_equal(lane, dynamic_threshold(bev, valid=valid))
                assert np.array_equal(
                    lane, _reference_threshold(bev, ThresholdParams(), want)
                )

    def test_pipeline_process_batch_bitwise(self, small_camera, day_track):
        from repro.perception.pipeline import process_batch

        frames = self._frames(small_camera, day_track)
        pipes = [PerceptionPipeline(small_camera) for _ in range(len(frames))]
        batched = process_batch(pipes, list(frames))
        for pipe, frame, got in zip(pipes, frames, batched):
            want = pipe.process(frame)
            assert got.valid == want.valid
            if want.valid:
                assert got.y_l == want.y_l


class TestThresholdKernel:
    """The sorted-row median route and the integer neighbour count equal
    the formulations they replace, bit for bit."""

    PARAMS = (
        ThresholdParams(),
        ThresholdParams(min_neighbours=0),
        ThresholdParams(min_neighbours=1, min_scale=0.05),
    )

    @staticmethod
    def _bevs(rng, height, width):
        """Noise, tied values (four levels) and flat rows (MAD 0, so
        ``min_scale`` sets the scale), each with a white and a yellow
        paint column."""
        noise = rng.random((height, width, 3), dtype=np.float32)
        tied = np.round(noise * 4) / np.float32(4)
        flat = noise.copy()
        flat[::2] = 0.3
        bevs = [noise, tied, flat]
        for bev in bevs:
            bev[:, width // 3] = 0.95
            bev[:, 2 * width // 3] = (0.9, 0.8, 0.1)
        return bevs

    def test_brightness_channels_equal_clip_reference(self, rng):
        """``np.maximum(x, 0.0)`` in place of ``np.clip(x, 0.0, None)``
        keeps every byte: signed zeros, NaN, infinities, negatives and
        subnormals in every channel combination, and random BEVs."""
        from itertools import product

        from repro.perception.threshold import brightness_channels

        def reference(bev):
            r, g, b = bev[..., 0], bev[..., 1], bev[..., 2]
            white = np.minimum(np.minimum(r, g), b)
            yellow = np.clip(
                np.minimum(r, g) - 1.6 * b - 2.0 * np.clip(g - r, 0.0, None),
                0.0,
                None,
            )
            return white, yellow

        for dtype in (np.float32, np.float64):
            tiny = np.finfo(dtype).smallest_subnormal
            values = (-0.0, 0.0, np.nan, np.inf, -np.inf, -1.0, tiny, -tiny)
            special = np.array(list(product(values, repeat=3)), dtype=dtype)
            bevs = [
                special.reshape(8, 64, 3),
                rng.random((2, 96, 128, 3)).astype(dtype),
                (rng.standard_normal((96, 128, 3)) * 0.5).astype(dtype),
            ]
            for bev in bevs:
                with np.errstate(invalid="ignore", over="ignore"):
                    got = brightness_channels(bev)
                    want = reference(bev)
                for channel, expected in zip(got, want):
                    assert channel.dtype == dtype
                    assert channel.tobytes() == expected.tobytes()
                yellow = got[1]
                assert not np.signbit(yellow[~np.isnan(yellow)]).any()

    def test_row_median_equals_numpy(self, rng):
        import warnings

        from repro.perception.threshold import _nanmedian_cols, _row_median

        for height, width in ((5, 7), (6, 8), (12, 31), (96, 128)):
            for bev in self._bevs(rng, height, width):
                rows = bev[..., 0]
                got = _row_median(rows)
                assert got.dtype == rows.dtype
                assert got.tobytes() == np.median(rows, axis=-1, keepdims=True).tobytes()
                assert got.tobytes() == _nanmedian_cols(rows).tobytes()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    want = np.nanmedian(rows, axis=-1, keepdims=True)
                assert got.tobytes() == want.tobytes()

    def test_sorted_route_equals_median_references(self, rng):
        """``valid`` None, all-True and partial against ``np.median`` and
        ``np.nanmedian``, at odd and even widths."""
        for height, width in ((5, 7), (6, 8), (12, 31), (96, 128)):
            everywhere = np.ones((height, width), dtype=bool)
            partial = rng.random((height, width)) < 0.8
            partial[1] = False  # an all-NaN row
            hits = 0
            for bev in self._bevs(rng, height, width):
                for params in self.PARAMS:
                    got = dynamic_threshold(bev, params)
                    hits += int(got.any())
                    assert np.array_equal(got, _reference_threshold(bev, params, None))
                    assert np.array_equal(
                        got, _reference_threshold(bev, params, everywhere)
                    )
                    assert np.array_equal(
                        dynamic_threshold(bev, params, valid=everywhere), got
                    )
                    assert np.array_equal(
                        dynamic_threshold(bev, params, valid=partial),
                        _reference_threshold(bev, params, partial),
                    )
            assert hits > 0

    def test_flat_frame_uses_min_scale(self):
        """A flat row has MAD 0: only ``min_scale`` separates paint."""
        bev = np.full((8, 16, 3), 0.3, dtype=np.float32)
        bev[:, 5:7] = 0.3 + 4.0 * 0.012 * 1.01
        params = ThresholdParams(min_neighbours=0)
        got = dynamic_threshold(bev, params)
        assert got[:, 5:7].all() and got.sum() == 16
        assert np.array_equal(got, _reference_threshold(bev, params, None))
        bev[:, 5:7] = 0.3 + 4.0 * 0.012 * 0.99
        assert not dynamic_threshold(bev, params).any()

    def test_neighbour_count_equals_convolve(self, rng):
        from scipy import ndimage

        from repro.perception.threshold import _neighbour_count

        kernel = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (3, 5), (17, 23), (96, 128)):
            for density in (0.0, 0.3, 0.7, 1.0):
                mask = rng.random(shape) < density
                got = _neighbour_count(mask)
                want = ndimage.convolve(mask.astype(np.uint8), kernel, mode="constant")
                assert got.dtype == np.uint8
                assert np.array_equal(got, want), (shape, density)
