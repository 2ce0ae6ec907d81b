"""Tests for planar geometry and the track substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.situation import situation_by_index
from repro.sim.camera import CameraModel
from repro.sim.geometry import Pose2D, rotation_matrix, wrap_angle
from repro.sim.scenario import parse_scenario
from repro.sim.track import SectorSpec, Track, TrackSegment, _wrap_sweep
from repro.sim.world import (
    DEFAULT_TURN_RADIUS,
    fig7_sector_situations,
    fig7_track,
    layout_curvature,
    static_situation_track,
)

SIT = situation_by_index(1)


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_wraps_large_positive(self):
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)

    def test_wraps_large_negative(self):
        assert wrap_angle(-3 * np.pi) == pytest.approx(np.pi)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_result_in_interval(self, angle):
        wrapped = wrap_angle(angle)
        assert -np.pi < wrapped <= np.pi

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_wrap_preserves_direction(self, angle):
        wrapped = wrap_angle(angle)
        assert np.cos(wrapped) == pytest.approx(np.cos(angle), abs=1e-9)
        assert np.sin(wrapped) == pytest.approx(np.sin(angle), abs=1e-9)

    def test_vectorized(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi, -2 * np.pi]))
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-12)


class TestWrapSweep:
    """The fmod-free arc wrap is ``wrap_angle`` bit for bit on every
    angle difference an arc pass can produce, ``[-2*pi, 2*pi]``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_and_neighbours(self, dtype):
        base = np.array(
            [-2 * np.pi, -np.pi, -0.0, 0.0, np.pi, 2 * np.pi], dtype=dtype
        )
        angles = np.concatenate(
            [base, np.nextafter(base, dtype(np.inf)), np.nextafter(base, dtype(-np.inf))]
        )
        want = wrap_angle(angles)
        assert want.dtype == dtype
        assert _wrap_sweep(angles).tobytes() == want.tobytes()
        for angle in angles:  # alone, each value picks its own branch
            assert _wrap_sweep(angle[None]).tobytes() == wrap_angle(angle[None]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_sweep(self, dtype):
        angles = np.linspace(-2 * np.pi, 2 * np.pi, 1_000_001).astype(dtype)
        assert _wrap_sweep(angles).tobytes() == wrap_angle(angles).tobytes()

    def test_scalar_point(self):
        """The scalar ``Track.frenet`` path hands it 0-d values."""
        for angle in (-5.0, -np.pi, 0.0, 1.0, np.pi, 5.0):
            assert float(_wrap_sweep(np.float64(angle))) == wrap_angle(angle)


class TestPose2D:
    def test_forward_left_orthogonal(self):
        pose = Pose2D(1.0, 2.0, 0.7)
        assert pose.forward() @ pose.left() == pytest.approx(0.0, abs=1e-12)

    def test_transform_round_trip(self):
        pose = Pose2D(3.0, -1.0, 1.2)
        pts = np.array([[1.0, 2.0], [-0.5, 0.25]])
        back = pose.transform_to_local(pose.transform_to_world(pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_advanced_moves_forward(self):
        pose = Pose2D(0.0, 0.0, 0.0).advanced(2.0, 1.0)
        assert (pose.x, pose.y) == pytest.approx((2.0, 1.0))

    def test_rotation_matrix_orthonormal(self):
        rot = rotation_matrix(0.3)
        np.testing.assert_allclose(rot @ rot.T, np.eye(2), atol=1e-12)


class TestTrackSegment:
    def test_straight_locate(self):
        seg = TrackSegment(Pose2D(0, 0, 0), 100.0, 0.0, SIT, 0.0)
        s, d = seg.locate(np.array([[10.0, 2.0]]))
        assert s[0] == pytest.approx(10.0)
        assert d[0] == pytest.approx(2.0)

    def test_arc_locate_on_centerline(self):
        seg = TrackSegment(Pose2D(0, 0, 0), 50.0, 1.0 / 40.0, SIT, 0.0)
        pose = seg.pose_at(30.0)
        s, d = seg.locate(pose.position()[None])
        assert s[0] == pytest.approx(30.0, abs=1e-9)
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_arc_positive_curvature_turns_left(self):
        seg = TrackSegment(Pose2D(0, 0, 0), 50.0, 1.0 / 40.0, SIT, 0.0)
        end = seg.end_pose()
        assert end.heading > 0  # heading increased = left turn
        assert end.y > 0

    def test_arc_lateral_sign(self):
        # A point left of the travel direction has positive d.
        seg = TrackSegment(Pose2D(0, 0, 0), 50.0, -1.0 / 60.0, SIT, 0.0)
        pose = seg.pose_at(20.0)
        left_point = pose.position() + 1.0 * pose.left()
        _, d = seg.locate(left_point[None])
        assert d[0] == pytest.approx(1.0, abs=1e-9)

    def test_end_pose_continuity(self):
        seg = TrackSegment(Pose2D(1, 2, 0.3), 80.0, 1 / 70.0, SIT, 0.0)
        end_a = seg.pose_at(80.0)
        end_b = seg.end_pose()
        assert end_a.as_tuple() == pytest.approx(end_b.as_tuple())

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            TrackSegment(Pose2D(0, 0, 0), 0.0, 0.0, SIT, 0.0)

    @given(
        st.floats(min_value=-1 / 30.0, max_value=1 / 30.0),
        st.floats(min_value=1.0, max_value=70.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_locate_inverts_pose_at(self, curvature, s_local, d):
        seg = TrackSegment(Pose2D(0, 0, 0.2), 80.0, curvature, SIT, 0.0)
        pose = seg.pose_at(s_local)
        point = pose.position() + d * pose.left()
        s_found, d_found = seg.locate(point[None])
        assert s_found[0] == pytest.approx(s_local, abs=1e-6)
        assert d_found[0] == pytest.approx(d, abs=1e-6)


class TestTrack:
    def test_from_sections_chains_lengths(self):
        track = Track.from_sections(
            [SectorSpec(50.0, 0.0, SIT), SectorSpec(30.0, 1 / 60.0, SIT)]
        )
        assert track.length == pytest.approx(80.0)

    def test_segments_are_continuous(self, dynamic_track):
        for first, second in zip(dynamic_track.segments, dynamic_track.segments[1:]):
            end = first.end_pose()
            start = second.start
            assert end.as_tuple() == pytest.approx(start.as_tuple(), abs=1e-9)

    def test_curvature_at_vectorized(self, dynamic_track):
        s = np.array([10.0, 150.0])
        kappa = dynamic_track.curvature_at(s)
        assert kappa[0] == 0.0
        assert kappa[1] == pytest.approx(-1.0 / DEFAULT_TURN_RADIUS)

    def test_situation_at_sector_boundaries(self, dynamic_track):
        situations = fig7_sector_situations()
        for seg, expected in zip(dynamic_track.segments, situations):
            mid = (seg.s_start + seg.s_end) / 2
            assert dynamic_track.situation_at(mid) == expected

    def test_frenet_round_trip(self, dynamic_track):
        pose = dynamic_track.pose_at(321.0, 0.8)
        s, d = dynamic_track.frenet(pose.x, pose.y, s_hint=320.0)
        assert s == pytest.approx(321.0, abs=1e-6)
        assert d == pytest.approx(0.8, abs=1e-6)

    def test_locate_points_marks_window(self, dynamic_track):
        pose = dynamic_track.pose_at(50.0)
        pts = np.array([pose.position(), [1e6, 1e6]])
        s, d, valid = dynamic_track.locate_points(pts, (0.0, 120.0), _box(pts))
        assert valid[0]
        assert s[0] == pytest.approx(50.0, abs=1e-6)

    def test_pose_at_lateral_offset(self, dynamic_track):
        center = dynamic_track.pose_at(40.0)
        left = dynamic_track.pose_at(40.0, 1.5)
        assert np.hypot(left.x - center.x, left.y - center.y) == pytest.approx(1.5)

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            Track([])


class TestWorld:
    def test_fig7_has_nine_sectors(self, dynamic_track):
        assert len(dynamic_track.segments) == 9

    def test_fig7_scene_transition_night_to_dark(self, dynamic_track):
        scenes = [seg.situation.scene.value for seg in dynamic_track.segments]
        assert scenes[-2:] == ["night", "dark"]

    def test_layout_curvature_signs(self):
        from repro.core.situation import RoadLayout

        assert layout_curvature(RoadLayout.STRAIGHT) == 0.0
        assert layout_curvature(RoadLayout.LEFT) > 0
        assert layout_curvature(RoadLayout.RIGHT) < 0

    def test_static_track_caps_arc_length(self):
        situation = situation_by_index(8)  # right turn
        track = static_situation_track(situation, length=1000.0, lead_in=35.0)
        assert track.length <= 35.0 + 0.75 * np.pi * DEFAULT_TURN_RADIUS + 1e-9

    def test_turn_track_has_straight_lead_in(self):
        situation = situation_by_index(8)
        track = static_situation_track(situation, lead_in=35.0)
        assert track.segments[0].curvature == 0.0
        from repro.core.situation import RoadLayout

        assert track.segments[0].situation.layout is RoadLayout.STRAIGHT
        assert track.segments[0].situation.scene == situation.scene
        assert track.segments[1].curvature != 0.0

    def test_static_track_straight_keeps_length(self):
        track = static_situation_track(SIT, length=500.0)
        assert track.length == pytest.approx(500.0)

    def test_static_track_is_shared_and_cannot_grow(self):
        """Equal arguments return the one memoised track, whose segments
        are a tuple, so no caller can extend the shared copy."""
        track = static_situation_track(situation_by_index(8), length=40.0)
        assert static_situation_track(situation_by_index(8), length=40.0) is track
        assert static_situation_track(situation_by_index(8), length=41.0) is not track
        assert isinstance(track.segments, tuple)


class TestFrenetBatch:
    def _mixed_track(self):
        return Track.from_sections(
            [
                SectorSpec(30.0, 0.0, SIT),
                SectorSpec(25.0, 0.02, SIT),
                SectorSpec(20.0, -0.03, SIT),
                SectorSpec(30.0, 0.0, SIT),
                SectorSpec(15.0, 0.01, SIT),
            ]
        )

    def test_bitwise_matches_scalar_frenet(self):
        """Every stacked projection equals frenet() on that point alone."""
        track = self._mixed_track()
        rng = np.random.default_rng(9)
        n = 400
        ss = rng.uniform(0.0, track.length, n)
        xs = np.empty(n)
        ys = np.empty(n)
        for i, s in enumerate(ss):
            pose = track.pose_at(s, rng.normal() * 1.5)
            xs[i], ys[i] = pose.x, pose.y
        hints = np.clip(ss + rng.normal(0.0, 2.0, n), 0.0, track.length)
        bs, bd = track.frenet_batch(xs, ys, hints)
        for i in range(n):
            s_ref, d_ref = track.frenet(xs[i], ys[i], s_hint=hints[i])
            assert s_ref == bs[i]
            assert d_ref == bd[i]

    def test_hints_in_one_slot_project_alike(self):
        """A projection depends on its hint only through ``hint_slots``:
        any other hint in the same slot, the slot's start bound and the
        off-track ends included, gives the same ``(s, d)`` bits."""
        track = self._mixed_track()
        rng = np.random.default_rng(4)
        n = 400
        ss = rng.uniform(0.0, track.length, n)
        xs = np.empty(n)
        ys = np.empty(n)
        for i, s in enumerate(ss):
            pose = track.pose_at(s, rng.normal() * 1.5)
            xs[i], ys[i] = pose.x, pose.y
        hints = ss + rng.normal(0.0, 3.0, n)
        slots = track.hint_slots(hints)
        lo = np.array([seg.s_start for seg in track.segments])[slots]
        hi = np.array([seg.s_end for seg in track.segments])[slots]
        lo[slots == 0] = -10.0
        hi[slots == len(track.segments) - 1] = track.length + 10.0
        others = rng.uniform(lo, hi)
        others[::4] = lo[::4]
        assert np.array_equal(track.hint_slots(others), slots)
        s_a, d_a = track.frenet_batch(xs, ys, hints)
        s_b, d_b = track.frenet_batch(xs, ys, others)
        assert s_a.tobytes() == s_b.tobytes()
        assert d_a.tobytes() == d_b.tobytes()

    def test_hints_off_the_track_clamp_like_scalar(self):
        """Hints before the start or past the end pick the end windows."""
        track = self._mixed_track()
        hints = np.array([-50.0, -1e-9, 0.0, track.length, track.length + 3.0])
        points = [track.pose_at(min(max(h, 0.0), track.length), 0.4) for h in hints]
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        bs, bd = track.frenet_batch(xs, ys, hints)
        for i in range(hints.size):
            s_ref, d_ref = track.frenet(xs[i], ys[i], s_hint=hints[i])
            assert s_ref == bs[i]
            assert d_ref == bd[i]

    def test_single_segment_track(self):
        track = Track.from_sections([SectorSpec(50.0, 0.0, SIT)])
        xs = np.array([5.0, 20.0, 49.0])
        ys = np.array([0.5, -1.0, 0.0])
        hints = np.array([5.0, 20.0, 49.0])
        bs, bd = track.frenet_batch(xs, ys, hints)
        for i in range(3):
            s_ref, d_ref = track.frenet(xs[i], ys[i], s_hint=hints[i])
            assert s_ref == bs[i]
            assert d_ref == bd[i]

    def test_extrapolation_beyond_track_ends(self):
        """Points off both track ends project like the scalar path."""
        track = self._mixed_track()
        xs = np.array([-3.0, 0.0])
        ys = np.array([0.2, 0.0])
        hints = np.array([0.0, track.length])
        end = track.pose_at(track.length).position() + np.array([1.0, 0.0])
        xs[1], ys[1] = end[0], end[1]
        bs, bd = track.frenet_batch(xs, ys, hints)
        for i in range(2):
            s_ref, d_ref = track.frenet(xs[i], ys[i], s_hint=hints[i])
            assert s_ref == bs[i]
            assert d_ref == bd[i]


def _claims(track, seg_index, pts):
    """Whether segment *seg_index* claims each point (overshoot rules in)."""
    seg = track.segments[seg_index]
    s_local, _ = seg.locate(pts)
    inside = (s_local >= 0.0) & (s_local < seg.length)
    if seg_index == 0:
        inside |= s_local < 0.0
    if seg_index == len(track.segments) - 1:
        inside |= s_local >= seg.length
    return inside


def _locate_all_segments(track, pts, s_window):
    """Reference: every window segment evaluated on every point, the
    first claimant winning."""
    shape = pts.shape[:-1]
    s_out = np.full(shape, np.nan, dtype=pts.dtype)
    d_out = np.full(shape, np.nan, dtype=pts.dtype)
    valid = np.zeros(shape, dtype=bool)
    for i, seg in enumerate(track.segments):
        if seg.s_end < s_window[0] or seg.s_start > s_window[1]:
            continue
        s_local, d = seg.locate(pts)
        take = _claims(track, i, pts) & ~valid
        s_out[take] = seg.s_start + s_local[take]
        d_out[take] = d[take]
        valid |= take
    return s_out, d_out, valid


def _box(pts):
    """World corners of the axis-aligned box around a point cloud."""
    flat = np.asarray(pts, dtype=float).reshape(-1, 2)
    (x0, y0), (x1, y1) = flat.min(axis=0), flat.max(axis=0)
    return np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])


#: A footprint whose corners never all lie behind one claim line: it culls nothing.
_NO_CULL = np.array([[-1e9, -1e9], [-1e9, 1e9], [1e9, -1e9], [1e9, 1e9]])


def _assert_matches(track, pts, window, footprint=None):
    """``locate_points`` with *footprint* (default: the cloud's bounding
    box) equals the dense reference byte for byte."""
    if footprint is None:
        footprint = _box(pts)
    got = track.locate_points(pts, window, footprint)
    want = _locate_all_segments(track, pts, window)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return got


class TestLocatePointsClaimOrder:
    """``locate_points`` skips claimed points, the first claimant winning."""

    @staticmethod
    def _cloud(track, s, rng, n=400, spread=(3.0, 6.0)):
        centre = track.pose_at(s)
        local = rng.uniform(-1.0, 1.0, (n, 2)) * np.array(spread)
        rot = rotation_matrix(centre.heading)
        return centre.position() + local @ rot.T

    def test_earlier_segment_wins_where_two_claim(self):
        """A 270-degree hairpin between two straights: the closing
        straight crosses the opening one, so points round the hairpin
        fall inside several segments' ranges at once."""
        radius = 5.0
        track = Track.from_sections(
            [
                SectorSpec(20.0, 0.0, SIT),
                SectorSpec(1.5 * np.pi * radius, 1.0 / radius, SIT),
                SectorSpec(20.0, 0.0, SIT),
            ]
        )
        rng = np.random.default_rng(5)
        pts = self._cloud(track, 20.0 + 0.75 * np.pi * radius, rng, spread=(9.0, 9.0))
        claims = [_claims(track, k, pts) for k in range(3)]
        s, d, valid = _assert_matches(track, pts, (0.0, track.length))
        # The closing straight crosses the opening one and runs past the
        # hairpin: both earlier segments share points with it.
        for earlier in (0, 1):
            both = claims[earlier] & claims[2]
            assert both.any(), earlier
            seg = track.segments[earlier]
            s_local, d_local = seg.locate(pts[both])
            assert np.array_equal(s[both], seg.s_start + s_local)
            assert np.array_equal(d[both], d_local)
        # The opening straight and the hairpin claim every point, so the
        # closing straight is never evaluated.
        assert valid.all()

    def test_first_and_last_segment_overshoot(self, dynamic_track):
        rng = np.random.default_rng(6)
        first, last = dynamic_track.segments[0], dynamic_track.segments[-1]
        before = first.start.position() - 8.0 * first.start.forward()
        beyond = last.end_pose()
        beyond = beyond.position() + 8.0 * beyond.forward()
        length = dynamic_track.length
        for centre, window, overshoot in (
            (before, (-30.0, 30.0), lambda s: s < 0.0),
            (beyond, (length - 30.0, length + 30.0), lambda s: s > length),
        ):
            pts = centre + rng.normal(0.0, 1.0, (50, 2))
            s, _, valid = _assert_matches(dynamic_track, pts, window)
            assert valid.all() and overshoot(s).all()

    def test_window_without_segments(self, dynamic_track):
        pts = self._cloud(dynamic_track, 50.0, np.random.default_rng(7))
        s, d, valid = _assert_matches(dynamic_track, pts, (1e6, 2e6))
        assert np.isnan(s).all() and np.isnan(d).all() and not valid.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_points(self, dynamic_track, dtype):
        rng = np.random.default_rng(8)
        pts = np.stack(
            [self._cloud(dynamic_track, s, rng, n=300) for s in (40.0, 160.0, 300.0)]
        ).astype(dtype)
        assert pts.shape == (3, 300, 2)
        s, _, valid = _assert_matches(dynamic_track, pts, (20.0, 330.0))
        assert s.dtype == dtype and valid.shape == (3, 300) and valid.any()


def _hairpin_track(radius=5.0):
    """Two straights around a 270-degree hairpin (sweep > pi)."""
    return Track.from_sections(
        [
            SectorSpec(20.0, 0.0, SIT),
            SectorSpec(1.5 * np.pi * radius, 1.0 / radius, SIT),
            SectorSpec(20.0, 0.0, SIT),
        ]
    )


class TestLocatePointsFootprint:
    """Skipping segments outside the footprint never changes a claim."""

    @staticmethod
    def _ground_cloud(track, s, heading, dtype):
        """The float32 world points and footprint of a 384x192 frame."""
        ground = CameraModel(width=384, height=192).ground_map()
        local = np.stack(
            [ground.forward[ground.on_ground], ground.lateral[ground.on_ground]],
            axis=-1,
        ).astype(np.float32)
        (f0, l0), (f1, l1) = local.min(axis=0), local.max(axis=0)
        corners = np.array([[f0, l0], [f0, l1], [f1, l0], [f1, l1]], dtype=float)
        base = track.pose_at(s)
        pose = Pose2D(base.x, base.y, base.heading + heading)
        rot = rotation_matrix(pose.heading).astype(np.float32)
        world = local @ rot.T + pose.position().astype(np.float32)
        return world.astype(dtype), pose.transform_to_world(corners)

    @staticmethod
    def _sliver(track, s, dtype, rng, n=400):
        """Points from 5 cm before to 5 mm past arc length *s*, +-2 m
        across, and the corners of that rotated box."""
        pose = track.pose_at(s)
        lo, hi = np.array([-0.05, -2.0]), np.array([0.005, 2.0])
        local = rng.uniform(lo, hi, (n, 2))
        corners = np.array([lo, [lo[0], hi[1]], [hi[0], lo[1]], hi])
        return pose.transform_to_world(local).astype(dtype), pose.transform_to_world(corners)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ground_clouds_at_segment_starts(self, dynamic_track, dtype, monkeypatch):
        calls = []
        locate = TrackSegment.locate
        monkeypatch.setattr(
            TrackSegment, "locate", lambda seg, pts: calls.append(seg) or locate(seg, pts)
        )
        passes = {"no cull": 0, "footprint": 0}
        for seg in dynamic_track.segments:
            for ds in (-2.0, 0.0, 2.0):
                s = max(seg.s_start + ds, 0.0)
                window = (s - 25.0, s + 120.0)
                for heading in (-0.3, 0.0, 0.3):
                    pts, footprint = self._ground_cloud(dynamic_track, s, heading, dtype)
                    _assert_matches(dynamic_track, pts, window, footprint)
                    for key, corners in (("no cull", _NO_CULL), ("footprint", footprint)):
                        calls.clear()
                        dynamic_track.locate_points(pts, window, corners)
                        passes[key] += len(calls)
        # The cull fired: the footprint runs fewer passes.
        assert passes["footprint"] < passes["no cull"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_points_just_past_a_segment_start(self, dynamic_track, dtype):
        """Corners within the margin of a start line keep the segment."""
        rng = np.random.default_rng(11)
        for seg in dynamic_track.segments[1:]:
            pts, footprint = self._sliver(dynamic_track, seg.s_start, dtype, rng)
            window = (seg.s_start - 25.0, seg.s_start + 25.0)
            s, _, valid = _assert_matches(dynamic_track, pts, window, footprint)
            assert valid.all() and (s >= seg.s_start).any()

    @pytest.mark.parametrize("spec", ["L20:40 S200", "R20:40 S200"])
    def test_track_starting_with_a_turn(self, spec):
        """A first arc claims every sweep in ``(-pi, theta)``, so part of
        its claim lies past its end line: frames just past its end keep
        it, and it claims some far ground points there."""
        track = parse_scenario(spec)
        arc = track.segments[0]
        for ds in (0.0, 5.0, 12.0, 25.0):
            s = arc.s_end + ds
            for heading in (-0.3, 0.0, 0.3):
                pts, footprint = self._ground_cloud(track, s, heading, np.float32)
                got, _, valid = _assert_matches(track, pts, (s - 25.0, s + 120.0), footprint)
                assert (valid & (got < arc.s_end)).any()

    def test_sweep_beyond_pi_is_never_culled(self):
        """Early on the hairpin a footprint lies wholly past its end
        line, yet the hairpin claims it; the window starts past the
        opening straight, so no other segment would."""
        track = _hairpin_track()
        hairpin = track.segments[1]
        rng = np.random.default_rng(12)
        window = (hairpin.s_start + 0.5, track.length)
        for frac in (0.05, 0.1, 0.2, 0.4):
            centre = track.pose_at(hairpin.s_start + frac * hairpin.length)
            pts = centre.position() + rng.uniform(-1.5, 1.5, (300, 2))
            s, _, valid = _assert_matches(track, pts, window)
            on_hairpin = (s >= hairpin.s_start) & (s < hairpin.s_end)
            assert valid.all() and on_hairpin.mean() > 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_track_end_overshoot(self, dynamic_track, dtype):
        """Clouds wholly before the first start and past the last end
        stay with the first and last segment."""
        rng = np.random.default_rng(13)
        first, last = dynamic_track.segments[0], dynamic_track.segments[-1]
        end = last.end_pose()
        for centre, window in (
            (first.start.position() - 8.0 * first.start.forward(), (-30.0, 30.0)),
            (end.position() + 8.0 * end.forward(), (last.s_start, last.s_end + 30.0)),
        ):
            pts = (centre + rng.normal(0.0, 1.0, (50, 2))).astype(dtype)
            _, _, valid = _assert_matches(dynamic_track, pts, window)
            assert valid.all()

    def test_one_segment_track(self):
        track = Track.from_sections([SectorSpec(50.0, 0.0, SIT)])
        rng = np.random.default_rng(14)
        for x in (-10.0, 25.0, 60.0):
            pts = np.array([x, 0.0]) + rng.normal(0.0, 1.0, (50, 2))
            s, _, valid = _assert_matches(track, pts, (-100.0, 200.0))
            assert valid.all() and np.allclose(s, pts[:, 0])
