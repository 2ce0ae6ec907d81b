"""Tests for the camera model, sensor and road-scene renderer."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.situation import Scene, situation_by_index
from repro.sim import renderer as rmod
from repro.sim.camera import CameraModel
from repro.sim.geometry import Pose2D, rotation_matrix
from repro.sim.photometry import SCENE_PHOTOMETRY, photometry_for
from repro.sim.renderer import RenderOptions, RoadSceneRenderer, render_raw_batch
from repro.sim.sensor import add_sensor_noise, bayer_channel_masks, mosaic
from repro.sim.track import TrackSegment
from repro.sim.world import static_situation_track


class TestCameraModel:
    def test_ground_map_shapes(self, small_camera):
        gm = small_camera.ground_map()
        assert gm.forward.shape == (small_camera.height, small_camera.width)
        assert gm.on_ground.dtype == bool

    def test_ground_points_are_in_front(self, small_camera):
        gm = small_camera.ground_map()
        assert np.all(gm.forward[gm.on_ground] >= small_camera.min_distance)
        assert np.all(gm.forward[gm.on_ground] <= small_camera.max_distance)

    def test_no_ground_above_horizon(self, small_camera):
        gm = small_camera.ground_map()
        horizon = small_camera.horizon_row()
        assert not gm.on_ground[: max(horizon, 0)].any()

    def test_projection_round_trip(self, small_camera):
        gm = small_camera.ground_map()
        rows, cols = np.nonzero(gm.on_ground)
        take = slice(0, None, 97)
        fwd = gm.forward[rows[take], cols[take]]
        lat = gm.lateral[rows[take], cols[take]]
        u, v = small_camera.project(fwd, lat)
        np.testing.assert_allclose(u, cols[take], atol=0.1)
        np.testing.assert_allclose(v, rows[take], atol=0.1)

    def test_center_pixel_looks_straight(self, small_camera):
        gm = small_camera.ground_map()
        col = small_camera.width // 2
        rows = np.nonzero(gm.on_ground[:, col])[0]
        lat = gm.lateral[rows, col]
        fwd = gm.forward[rows, col]
        # The column sits half a pixel off the optical center, so the
        # lateral offset grows linearly with distance; bound the angle.
        assert np.all(np.abs(lat) < 0.01 * fwd + 0.02)

    def test_scaled_keeps_field_of_view(self):
        cam = CameraModel(width=512, height=256)
        half = cam.scaled(256, 128)
        # Same ray direction at the image corner -> same ground point.
        gm_full = cam.ground_map()
        gm_half = half.ground_map()
        assert gm_full.forward[255, 0] == pytest.approx(
            gm_half.forward[127, 0], rel=0.05
        )

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(width=0, height=10)


class TestSensor:
    def test_bayer_masks_partition(self):
        r, g, b = bayer_channel_masks(6, 8)
        total = r.astype(int) + g.astype(int) + b.astype(int)
        assert np.all(total == 1)
        assert g.sum() == 2 * r.sum() == 2 * b.sum()

    def test_mosaic_picks_correct_channels(self):
        rgb = np.zeros((4, 4, 3), dtype=np.float32)
        rgb[..., 0] = 1.0
        rgb[..., 1] = 2.0
        rgb[..., 2] = 3.0
        raw = mosaic(rgb)
        assert raw[0, 0] == 1.0  # R
        assert raw[0, 1] == 2.0  # G
        assert raw[1, 0] == 2.0  # G
        assert raw[1, 1] == 3.0  # B

    def test_mosaic_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            mosaic(np.zeros((4, 4)))

    def test_noise_zero_levels_is_identity(self, rng):
        raw = rng.random((8, 8)).astype(np.float32)
        out = add_sensor_noise(raw, np.random.default_rng(0), 0.0, 0.0)
        np.testing.assert_allclose(out, raw)

    def test_noise_clips_to_unit_interval(self):
        raw = np.ones((16, 16), dtype=np.float32)
        out = add_sensor_noise(raw, np.random.default_rng(0), 0.5, 0.5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_noise_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            add_sensor_noise(np.zeros((2, 2)), np.random.default_rng(0), -0.1, 0.0)

    @pytest.mark.parametrize(
        "raw",
        [
            np.linspace(-0.2, 1.3, 96, dtype=np.float32).reshape(8, 12),
            np.linspace(-0.2, 1.3, 96).reshape(8, 12),
            np.arange(-4, 8).reshape(3, 4),
        ],
        ids=["float32", "float64", "int"],
    )
    def test_noise_epilogue_is_the_reference_expression(self, raw):
        """The in-place epilogue keeps the bits of the plain expression."""
        read, shot = 0.013, 0.041
        signal = np.clip(raw, 0.0, None)
        sigma = np.sqrt(read**2 + (shot**2) * signal)
        dtype = raw.dtype if raw.dtype in (np.float32, np.float64) else np.float64
        draw = np.random.default_rng(4).standard_normal(raw.shape, dtype=dtype)
        want = np.clip(signal + sigma * draw, 0.0, 1.0)
        got = add_sensor_noise(raw, np.random.default_rng(4), read, shot)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(st.floats(min_value=0.0, max_value=0.05))
    @settings(max_examples=20, deadline=None)
    def test_noise_scale_bounded(self, level):
        raw = np.full((32, 32), 0.5, dtype=np.float32)
        out = add_sensor_noise(raw, np.random.default_rng(1), level, 0.0)
        # 6-sigma bound on the deviation of the mean.
        assert abs(float(out.mean()) - 0.5) < max(6 * level / 32, 1e-6)


class TestPhotometry:
    def test_all_scenes_registered(self):
        for scene in Scene:
            assert photometry_for(scene) is SCENE_PHOTOMETRY[scene]

    def test_day_is_brightest(self):
        day = photometry_for(Scene.DAY).exposure
        for scene in (Scene.NIGHT, Scene.DARK, Scene.DAWN, Scene.DUSK):
            assert photometry_for(scene).exposure < day

    def test_dark_noisier_than_day(self):
        assert (
            photometry_for(Scene.DARK).read_noise
            > photometry_for(Scene.DAY).read_noise
        )


class TestRenderer:
    def test_rgb_shape_and_range(self, day_renderer, day_track, small_camera):
        rgb = day_renderer.render_rgb(day_track.pose_at(30.0))
        assert rgb.shape == (small_camera.height, small_camera.width, 3)
        assert rgb.dtype == np.float32
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_raw_is_bayer_plane(self, day_renderer, day_track, small_camera):
        raw = day_renderer.render_raw(day_track.pose_at(30.0))
        assert raw.shape == (small_camera.height, small_camera.width)

    def test_lane_markings_visible(self, day_renderer, day_track, small_camera):
        """The left (continuous) marking must produce bright pixels on
        the left half of the lower image."""
        rgb = day_renderer.render_rgb(day_track.pose_at(30.0))
        lower = rgb[small_camera.height // 2 :, : small_camera.width // 2]
        road_level = np.median(lower)
        assert lower.max() > road_level + 0.2

    def test_night_darker_than_day(self, day_renderer, day_track):
        pose = day_track.pose_at(30.0)
        day = day_renderer.render_rgb(pose, Scene.DAY)
        night = day_renderer.render_rgb(pose, Scene.NIGHT)
        assert night.mean() < day.mean() * 0.6

    def test_scene_from_track_sector(self, small_camera, dynamic_track):
        renderer = RoadSceneRenderer(small_camera, dynamic_track, seed=0)
        # Sector 9 of the Fig. 7 track is dark.
        pose = dynamic_track.pose_at(850.0)
        assert renderer.scene_at(pose) == Scene.DARK

    def test_noise_disabled_is_deterministic(self, small_camera, day_track):
        options = RenderOptions(noise=False)
        r1 = RoadSceneRenderer(small_camera, day_track, options=options, seed=0)
        r2 = RoadSceneRenderer(small_camera, day_track, options=options, seed=99)
        pose = day_track.pose_at(25.0)
        np.testing.assert_array_equal(r1.render_raw(pose), r2.render_raw(pose))

    def test_dotted_lane_has_gaps(self, small_camera):
        """A dotted marking must disappear in dash gaps along s."""
        situation = situation_by_index(2)  # straight, white dotted
        track = static_situation_track(situation, length=300.0)
        renderer = RoadSceneRenderer(
            small_camera, track, options=RenderOptions(noise=False), seed=0
        )
        # Left half max brightness at many longitudinal offsets: with a
        # dotted left lane it must vary strongly (dash vs gap).
        maxima = []
        for s in np.arange(30.0, 70.0, 1.5):
            rgb = renderer.render_rgb(track.pose_at(float(s)), Scene.DAY)
            strip = rgb[small_camera.height * 2 // 3 :, : small_camera.width // 2]
            maxima.append(float(strip.max()))
        maxima = np.array(maxima)
        assert maxima.max() - maxima.min() > 0.2

    def test_yellow_lane_is_yellow(self, small_camera):
        situation = situation_by_index(3)  # yellow continuous
        track = static_situation_track(situation, length=200.0)
        renderer = RoadSceneRenderer(
            small_camera, track, options=RenderOptions(noise=False), seed=0
        )
        rgb = renderer.render_rgb(track.pose_at(30.0), Scene.DAY)
        lower_left = rgb[small_camera.height // 2 :, : small_camera.width // 2]
        # Find the brightest pixel: it should be the marking, with R >> B.
        idx = np.unravel_index(
            np.argmax(lower_left[..., 0] + lower_left[..., 1]), lower_left.shape[:2]
        )
        pixel = lower_left[idx]
        assert pixel[0] > 2.0 * pixel[2]


class TestRenderIdentity:
    """RAW renders evaluate each pixel at its Bayer channel only.

    That must be exactly the channel :func:`mosaic` keeps from the RGB
    frame, and a batched lane must equal its serial twin bit for bit.
    """

    #: continuous, dotted, yellow, yellow double (straight), a right-turn
    #: double and a left-turn dotted situation.
    SITUATIONS = (1, 2, 3, 4, 10, 20)

    @pytest.mark.parametrize("size", [(160, 80), (47, 23)])
    @pytest.mark.parametrize("index", SITUATIONS)
    def test_raw_is_mosaic_of_rgb(self, index, size):
        track = static_situation_track(situation_by_index(index), length=120.0)
        renderer = RoadSceneRenderer(
            CameraModel(width=size[0], height=size[1]),
            track,
            options=RenderOptions(noise=False),
        )
        for s in (12.0, 31.5, 57.25):
            pose = track.pose_at(s, 0.2)
            for scene in Scene:
                raw = renderer.render_raw(pose, scene)
                expected = mosaic(renderer.render_rgb(pose, scene))
                assert raw.dtype == expected.dtype
                assert raw.tobytes() == expected.tobytes(), (index, s, scene)

    @pytest.mark.parametrize("forms", [(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)])
    def test_coverage_shortcuts_match_full_selection(self, forms):
        """Skipping absent marking forms leaves every coverage bit alone."""
        rng = np.random.default_rng(7)
        n = 4096
        delta = rng.uniform(-0.6, 0.6, n).astype(np.float32)
        s = rng.uniform(0.0, 60.0, n).astype(np.float32)
        lat_fp = rng.uniform(1e-3, 0.2, n).astype(np.float32)
        fwd_fp = rng.uniform(1e-3, 2.0, n).astype(np.float32)
        form = rng.choice(forms, n)
        # Reference: evaluate every form everywhere, then select.
        single = rmod._line_coverage(delta, rmod.MARK_HALF_WIDTH, lat_fp)
        double = np.maximum(
            rmod._line_coverage(
                delta - rmod.DOUBLE_LINE_OFFSET, rmod.DOUBLE_LINE_HALF_WIDTH, lat_fp
            ),
            rmod._line_coverage(
                delta + rmod.DOUBLE_LINE_OFFSET, rmod.DOUBLE_LINE_HALF_WIDTH, lat_fp
            ),
        )
        lateral = np.where(form == 2, double, single)
        full = lateral * np.where(form == 1, rmod._dash_coverage(s, fwd_fp), 1.0)
        got = RoadSceneRenderer._marking_coverage(delta, s, form, lat_fp, fwd_fp)
        assert got.dtype == full.dtype == np.float32
        assert got.tobytes() == full.tobytes()

    def test_batch_lanes_match_serial_twins(self, small_camera, dynamic_track):
        seeds = (3, 4, 5, 6, 7)
        batched = [RoadSceneRenderer(small_camera, dynamic_track, seed=s) for s in seeds]
        serial = [RoadSceneRenderer(small_camera, dynamic_track, seed=s) for s in seeds]
        # Explicit mixed scenes, then the track's own sectors (five
        # different arc lengths of the Fig. 7 track).
        for frame, scenes in enumerate((list(Scene), [None] * len(seeds))):
            poses = [
                dynamic_track.pose_at(40.0 + 190.0 * lane + 3.0 * frame, 0.1)
                for lane in range(len(seeds))
            ]
            stacked = render_raw_batch(batched, poses, scenes)
            for lane, (renderer, pose, scene) in enumerate(zip(serial, poses, scenes)):
                alone = renderer.render_raw(pose, scene)
                assert stacked[lane].tobytes() == alone.tobytes(), (frame, lane)


#: A footprint whose corners never all lie behind one claim line: every
#: window segment runs, as before the renderer culled by its footprint.
_NO_CULL = np.array([[-1e9, -1e9], [-1e9, 1e9], [1e9, -1e9], [1e9, 1e9]])


def _dense_render(renderer, poses, s_vehicles, photometry, raw):
    """Reference render with lane paint (step 3) over every ground sample.

    The renderer evaluates paint only at :meth:`_paint_candidates`; this
    is the dense pass it replaced, steps 1-5 spelled out.
    """
    cam, opts = renderer.camera, renderer.options
    ground = renderer._ground
    batch, n_pts = len(poses), ground.local.shape[0]
    road, shoulder, yellow, white = (
        ground.raw_albedos if raw else rmod._RGB_ALBEDOS
    )
    illum, tint, sky = ground.photometry_constants(photometry, raw)
    s_pt = np.empty((batch, n_pts), dtype=np.float32)
    d_pt = np.empty((batch, n_pts), dtype=np.float32)
    on_track = np.empty((batch, n_pts), dtype=bool)
    for lane, (pose, s_vehicle) in enumerate(zip(poses, s_vehicles)):
        rot = rotation_matrix(pose.heading).astype(np.float32)
        world = np.empty((n_pts, 2), dtype=np.float32)
        np.matmul(ground.local, rot.T, out=world)
        world += pose.position().astype(np.float32)
        window = (s_vehicle - 25.0, s_vehicle + cam.max_distance + 30.0)
        s_pt[lane], d_pt[lane], on_track[lane] = renderer.track.locate_points(
            world, window, _NO_CULL
        )
    s_pt = np.where(on_track, s_pt, np.float32(0.0))
    d_pt = np.where(on_track, d_pt, np.float32(1e6))

    half = opts.lane_width / 2.0
    on_road = (d_pt >= -(half + opts.right_shoulder)) & (
        d_pt <= half + opts.adjacent_lane_width
    )
    albedo = np.where(on_road[..., None], road, shoulder)
    texture = np.float32(opts.texture_amplitude) * rmod._position_hash(s_pt, d_pt)
    albedo *= np.float32(1.0) + texture[..., None]

    bounds, forms, colors = renderer._segment_tables
    seg_idx = (np.searchsorted(bounds, s_pt, side="right") - 1).clip(
        0, len(renderer.track.segments) - 1
    )
    left_cov = RoadSceneRenderer._marking_coverage(
        d_pt - half, s_pt, forms[seg_idx], ground.lat_fp, ground.fwd_fp
    )
    right_cov = rmod._dashed(
        rmod._line_coverage(d_pt + half, rmod.MARK_HALF_WIDTH, ground.lat_fp),
        s_pt,
        ground.fwd_fp,
    )
    left_color = np.where(colors[seg_idx][..., None] == 1, yellow, white)
    albedo += left_cov[..., None] * (left_color - albedo)
    albedo += right_cov[..., None] * (white - albedo)

    if illum is not None:
        marking_cov = np.maximum(left_cov, right_cov)
        retro = np.float32(1.0) + np.float32(rmod.RETROREFLECTIVE_GAIN) * marking_cov
        albedo *= (illum * retro)[..., None]
    else:
        albedo *= np.float32(photometry.exposure)
    albedo *= tint
    albedo += np.float32(photometry.ambient)
    radiance = np.clip(albedo, 0.0, 1.0, out=albedo)

    frame = np.empty((batch, cam.height * cam.width, albedo.shape[-1]), np.float32)
    frame[:] = sky
    frame[:, ground.vidx] = radiance
    return frame.reshape((batch, cam.height, cam.width) + (() if raw else (3,)))


class TestSparseLanePaint:
    """Lane paint evaluated at candidates only equals the dense pass."""

    @staticmethod
    def _poses(track):
        """Around every Fig. 7 segment start: -0.5, 0 and +0.3 m, lateral
        +-1.2 m, heading +-0.3 rad."""
        poses = []
        for seg in track.segments:
            for ds in (-0.5, 0.0, 0.3):
                for d in (-1.2, 1.2):
                    base = track.pose_at(max(seg.s_start + ds, 0.0), d)
                    for dh in (-0.3, 0.3):
                        poses.append(Pose2D(base.x, base.y, base.heading + dh))
        return poses

    @pytest.mark.parametrize("size", [(160, 80), (47, 23)])
    def test_matches_dense_pass(self, size, dynamic_track):
        renderer = RoadSceneRenderer(
            CameraModel(width=size[0], height=size[1]), dynamic_track
        )
        poses = self._poses(dynamic_track)
        s_vehicles = [dynamic_track.frenet(p.x, p.y)[0] for p in poses]
        scenes = list(Scene)
        # Every pose under one scene, cycling through all of them; lanes
        # go in threes (B=3) and alone (B=1).
        for start in range(0, len(poses), 3):
            photometry = photometry_for(scenes[(start // 3) % len(scenes)])
            lanes = slice(start, start + 3)
            for raw in (True, False):
                want = _dense_render(
                    renderer, poses[lanes], s_vehicles[lanes], photometry, raw
                )
                got = renderer._render(poses[lanes], s_vehicles[lanes], photometry, raw)
                assert got.tobytes() == want.tobytes(), (start, raw)
                alone = renderer._render(
                    poses[start : start + 1], s_vehicles[start : start + 1],
                    photometry, raw,
                )
                assert alone.tobytes() == want[:1].tobytes(), (start, raw)

    def test_candidates_are_a_strict_subset_on_a_straight(
        self, small_camera, day_track, monkeypatch
    ):
        renderer = RoadSceneRenderer(small_camera, day_track)
        seen = []
        candidates = renderer._paint_candidates

        def spy(d_pt, half, ground):
            mask = candidates(d_pt, half, ground)
            seen.append(mask)
            return mask

        monkeypatch.setattr(renderer, "_paint_candidates", spy)
        renderer.render_rgb(day_track.pose_at(40.0, 0.1))
        [mask] = seen
        assert mask.shape == (1, renderer._ground.vidx.size)
        assert 0 < mask.sum() < 0.25 * mask.size


class TestFootprintCull:
    """The renderer hands ``locate_points`` its frame footprint."""

    def test_sector_starts_run_one_full_pass(self, dynamic_track, monkeypatch):
        """Half a metre into every sector after the first, the window
        still holds the previous segment.  With a footprint that culls
        nothing it runs over every ground point and claims none; with the
        frame's footprint it is skipped and the frame is the same bytes."""
        renderer = RoadSceneRenderer(
            CameraModel(width=96, height=48), dynamic_track, RenderOptions(noise=False)
        )
        n_ground = renderer._ground.vidx.size
        full_passes = []
        locate = TrackSegment.locate

        def spy(seg, pts):
            full_passes.append(len(np.atleast_2d(pts)) == n_ground)
            return locate(seg, pts)

        monkeypatch.setattr(TrackSegment, "locate", spy)
        poses = [
            dynamic_track.pose_at(seg.s_start + 0.5) for seg in dynamic_track.segments[1:]
        ]
        culled = [renderer.render_raw(pose) for pose in poses]
        culled_passes = sum(full_passes)
        full_passes.clear()

        monkeypatch.setattr(
            renderer, "_ground", dataclasses.replace(renderer._ground, footprint=_NO_CULL)
        )
        dense = [renderer.render_raw(pose) for pose in poses]
        assert culled_passes == len(poses)
        assert sum(full_passes) == 2 * len(poses)
        for a, b in zip(culled, dense):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("size", [(384, 192), (96, 48), (47, 23)])
    def test_footprint_is_a_tight_wedge_holding_the_ground_points(self, size):
        """Every ground point lies inside the four corners (or on an
        edge), whose area is within 5% of the points' own convex hull,
        for the whole frame and the sensing box."""
        from scipy.spatial import ConvexHull

        from repro.perception.bev import sensing_box

        camera = CameraModel(width=size[0], height=size[1])
        for box in (None, sensing_box(camera)):
            ground = rmod._ground_samples(camera, box)
            assert ground.footprint.shape == (4, 2)
            wedge = ConvexHull(ground.footprint)
            corners = ground.footprint[wedge.vertices]
            pts = ground.local.astype(float)
            for a, b in zip(corners, np.roll(corners, -1, axis=0)):
                edge, rel = b - a, pts - a
                cross = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
                assert cross.min() >= -1e-9 * np.abs(pts).max() ** 2, (box, a, b)
            assert wedge.volume <= 1.05 * ConvexHull(pts).volume, box

    def test_arc_entries_keep_the_previous_straight_culled(self, dynamic_track, monkeypatch):
        """5, 10 and 20 m into the Fig. 7 arcs of sectors 2 and 4 at
        384x192: the local ground *box* rotated into the arc reaches back
        behind the previous straight's end line, so that straight ran a
        full pass claiming nothing; the wedge keeps it culled, in the whole
        frame and in the sensing box, with the same frame bytes."""
        from repro.perception.bev import sensing_box

        camera = CameraModel(width=384, height=192)
        renderer = RoadSceneRenderer(camera, dynamic_track, RenderOptions(noise=False))
        segments = dynamic_track.segments
        passes = []
        locate = TrackSegment.locate

        def spy(seg, pts):
            passes.append(segments.index(seg))
            return locate(seg, pts)

        monkeypatch.setattr(TrackSegment, "locate", spy)

        def bounding_box(ground):
            f, y = ground.local.T
            return np.array([[a, b] for a in (f.min(), f.max()) for b in (y.min(), y.max())])

        for box in (None, sensing_box(camera)):
            ground = rmod._ground_samples(camera, box)
            loose = dataclasses.replace(ground, footprint=bounding_box(ground))
            for sector in (1, 3):
                for ahead in (5.0, 10.0, 20.0):
                    s = segments[sector].s_start + ahead
                    args = ([dynamic_track.pose_at(s)], [s], photometry_for(Scene.DAY))
                    passes.clear()
                    tight = renderer._render(*args, box=box)
                    assert sector - 1 not in passes, (box, sector, ahead)
                    passes.clear()
                    with monkeypatch.context() as m:
                        m.setattr(rmod, "_ground_samples", lambda *_: loose)
                        m.setattr(renderer, "_ground", loose)
                        want = renderer._render(*args, box=box)
                    if box is None:
                        assert sector - 1 in passes, (sector, ahead)
                    assert tight.tobytes() == want.tobytes(), (box, sector, ahead)
