"""Integration tests for the closed-loop HiL engine.

These use a reduced camera (192x96) and short tracks; behaviour at the
default fidelity is exercised by the benchmarks.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.situation import Scene, situation_by_index
from repro.hil.engine import HilConfig, HilEngine
from repro.hil.record import CycleRecord, HilResult
from repro.sim.geometry import Pose2D
from repro.sim.track import SectorSpec, Track
from repro.sim.world import fig7_track, static_situation_track
from repro.utils.cache import ENTRY_MAGIC, read_entry
from tests.golden_corpus import CORPUS, GOLDEN_DIR

FAST = dict(frame_width=192, frame_height=96)
TRACE_FIELDS = ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed")


def _run(case: str, sit_index: int = 1, length: float = 80.0, **kwargs):
    track = static_situation_track(situation_by_index(sit_index), length=length)
    config = HilConfig(seed=7, **FAST, **kwargs)
    return HilEngine(track, case, config=config).run(), track


class TestHilEngine:
    def test_straight_day_case1_regulates(self):
        result, _ = _run("case1")
        assert result.completed and not result.crashed
        # Starts 0.2 m off-center and must end close to the centerline.
        assert abs(result.lateral_offset[-1]) < 0.15
        assert result.mae(skip_time_s=2.0) < 0.10

    def test_cycles_recorded_at_case_period(self):
        result, _ = _run("case1")
        times = [c.time_ms for c in result.cycles]
        diffs = np.diff(times)
        assert np.all(diffs == 25.0)  # case 1: h = 25 ms

    def test_case3_runs_slower_cycles(self):
        result, _ = _run("case3")
        diffs = np.diff([c.time_ms for c in result.cycles])
        assert np.all(diffs == 40.0)  # case 3: h = 40 ms

    def test_case2_invokes_only_road(self):
        result, _ = _run("case2")
        invoked = {c.invoked for c in result.cycles}
        assert invoked == {("road",)}

    def test_variable_scheme_one_classifier_per_cycle(self):
        result, _ = _run("variable", length=120.0)
        assert all(len(c.invoked) == 1 for c in result.cycles)
        names = {c.invoked[0] for c in result.cycles}
        assert names == {"road", "lane", "scene"}

    def test_case4_switches_isp_per_scene(self):
        """On the dark situation, case 4 must settle on the S2 knob."""
        result, _ = _run("case4", sit_index=7)
        assert result.cycles[-1].active_isp == "S2"

    def test_case1_never_reconfigures(self):
        result, _ = _run("case1", sit_index=8)
        assert {c.active_isp for c in result.cycles} == {"S0"}
        assert {c.roi for c in result.cycles} == {"ROI 1"}

    def test_speed_knob_on_turn(self):
        result, _ = _run("case2", sit_index=8, length=120.0)
        assert result.cycles[-1].speed_kmph == 30.0
        # The vehicle must actually slow down towards the knob value.
        assert result.speed[-1] == pytest.approx(30.0 / 3.6, abs=0.3)

    def test_crash_detection_cuts_run(self):
        """Starting outside the lane with an outward heading crashes."""
        track = static_situation_track(situation_by_index(1), length=120.0)
        config = HilConfig(
            seed=7, initial_offset_m=1.9, initial_heading_err=0.15, **FAST
        )
        result = HilEngine(track, "case1", config=config).run()
        assert result.crashed
        assert result.crash_s is not None

    def test_result_arrays_consistent(self):
        result, _ = _run("case1")
        n = result.time_s.size
        for arr in (result.s, result.lateral_offset, result.y_l_true, result.steering):
            assert arr.size == n
        assert np.all(np.diff(result.s) > -1e-6)  # monotone progress

    def test_seed_reproducibility(self):
        a, _ = _run("case1")
        b, _ = _run("case1")
        np.testing.assert_array_equal(a.y_l_true, b.y_l_true)

    def test_max_time_cutoff(self):
        track = static_situation_track(situation_by_index(1), length=500.0)
        config = HilConfig(seed=7, max_sim_time_s=1.0, **FAST)
        result = HilEngine(track, "case1", config=config).run()
        assert not result.completed
        assert result.duration_s() <= 1.0 + 1e-9

    def test_profiling_does_not_change_the_trace(self):
        """Acceptance: bit-identical traces with profiling on and off."""
        base, _ = _run("case4", length=60.0)
        profiled, _ = _run("case4", length=60.0, profile=True)
        assert base.profile is None
        assert profiled.profile is not None
        for attr in ("time_s", "s", "lateral_offset", "y_l_true", "steering",
                     "speed"):
            np.testing.assert_array_equal(
                getattr(base, attr), getattr(profiled, attr)
            )
        assert [c.__dict__ for c in base.cycles] == [
            c.__dict__ for c in profiled.cycles
        ]

    def test_profile_stats_cover_every_cycle(self):
        result, _ = _run("case4", length=60.0, profile=True)
        n = len(result.cycles)
        for label in ("hil.render", "hil.isp", "hil.pr", "hil.control"):
            assert result.profile[label].count == n
        # ISP sub-stages are profiled too (nested spans).
        assert any(label.startswith("isp.") for label in result.profile)
        assert "hil.isp" in result.profile_table()
        # Off by default: the disabled path reports nothing.
        assert _run("case4", length=60.0)[0].profile_table() == ""

    def test_profile_spans_every_plant_step_and_decision(self):
        result, _ = _run("case4", length=60.0, profile=True)
        assert result.profile["hil.plant"].count == len(result.time_s)
        assert result.profile["hil.decide"].count == len(result.cycles)

    def test_profile_spans_every_recorded_plant_step_of_a_crash(self):
        """The ticks a crashing interval steps past the crash are not
        recorded, and the ``hil.plant`` span does not count them."""
        result, _ = _run(
            "case1", initial_offset_m=1.9, initial_heading_err=0.15, profile=True
        )
        assert result.crashed
        # The crash lands mid-interval (case 1 steps 5 ticks per cycle).
        assert len(result.time_s) % 5 != 0
        assert result.profile["hil.plant"].count == len(result.time_s)

    def test_profile_splits_perception_into_substages(self):
        result, _ = _run("case4", length=60.0, profile=True)
        pr = result.profile["hil.pr"].count
        for label in ("pr.warp", "pr.threshold", "pr.window", "pr.fit"):
            assert result.profile[label].count == pr


class TestIspApplyLag:
    """End-to-end regression for the ISP apply-lag phase contract."""

    @staticmethod
    def _day_to_dark_track() -> Track:
        day = situation_by_index(1)    # straight, white continuous, day
        dark = situation_by_index(7)   # straight, white continuous, dark
        return Track.from_sections(
            [SectorSpec(60.0, 0.0, day), SectorSpec(60.0, 0.0, dark)],
            Pose2D(0.0, 0.0, 0.0),
        )

    @pytest.mark.parametrize("lag", [0, 1, 2])
    def test_switch_lands_exactly_lag_cycles_after_decision(self, lag):
        track = self._day_to_dark_track()
        config = HilConfig(seed=7, isp_apply_lag=lag, **FAST)
        result = HilEngine(track, "case4", config=config).run()
        cycles = result.cycles
        # The oracle (accuracy 1.0) identifies the dark scene on the
        # first cycle sampled past the sector boundary: that cycle's
        # decide() is where the ISP switch is decided.
        decided = next(
            i
            for i, c in enumerate(cycles)
            if track.situation_at(c.s).scene is Scene.DARK and "scene" in c.invoked
        )
        applied = next(i for i, c in enumerate(cycles) if c.active_isp == "S2")
        assert cycles[decided - 1].active_isp != "S2"
        assert applied == decided + lag


class TestSectorQoC:
    def test_sector_aggregation_on_dynamic_track(self):
        track = fig7_track()
        config = HilConfig(seed=7, max_sim_time_s=12.0, **FAST)
        result = HilEngine(track, "case3", config=config).run()
        sectors = result.sector_qoc(track)
        assert len(sectors) == 9
        assert sectors[0].reached
        assert sectors[0].mae is not None
        # The 12 s budget cannot finish the 890 m track.
        assert not sectors[-1].reached

    def test_crash_marks_sector_failed(self):
        track = fig7_track()
        config = HilConfig(
            seed=7, initial_offset_m=1.9, initial_heading_err=0.15, **FAST
        )
        result = HilEngine(track, "case1", config=config).run()
        sectors = result.sector_qoc(track)
        assert result.crashed
        assert sectors[0].failed

    def test_mae_skip_window(self):
        result, _ = _run("case1")
        assert result.mae(skip_time_s=2.0) <= result.mae(skip_time_s=0.0) + 1e-9


class TestHilResultHelpers:
    def test_empty_skip_falls_back(self):
        result = HilResult(
            time_s=np.array([0.1, 0.2]),
            s=np.array([1.0, 2.0]),
            lateral_offset=np.array([0.1, 0.2]),
            y_l_true=np.array([0.1, -0.1]),
            steering=np.zeros(2),
            speed=np.zeros(2),
        )
        assert result.mae(skip_time_s=10.0) == pytest.approx(0.1)

    def test_max_offset(self):
        result = HilResult(
            time_s=np.array([0.1]),
            s=np.array([1.0]),
            lateral_offset=np.array([-0.7]),
            y_l_true=np.array([0.0]),
            steering=np.zeros(1),
            speed=np.zeros(1),
        )
        assert result.max_offset() == pytest.approx(0.7)

    @staticmethod
    def _empty_result() -> HilResult:
        return HilResult(
            time_s=np.array([]),
            s=np.array([]),
            lateral_offset=np.array([]),
            y_l_true=np.array([]),
            steering=np.array([]),
            speed=np.array([]),
        )

    def test_empty_trace_max_offset_is_zero(self):
        assert self._empty_result().max_offset() == 0.0

    def test_empty_trace_mae_raises(self):
        with pytest.raises(ValueError, match="empty trace"):
            self._empty_result().mae()

    def test_empty_trace_duration_is_zero(self):
        assert self._empty_result().duration_s() == 0.0

    def test_sector_qoc_matches_qoc_helper(self):
        """Per-sector MAE must agree with metrics.qoc.mae on the slice."""
        from repro.metrics.qoc import mae as qoc_mae

        track = static_situation_track(situation_by_index(1), length=80.0)
        config = HilConfig(seed=7, **FAST)
        result = HilEngine(track, "case1", config=config).run()
        sector = result.sector_qoc(track)[0]
        sel = (result.s >= sector.s_start) & (result.s < sector.s_end)
        assert sector.mae == pytest.approx(qoc_mae(result.y_l_true[sel]))


class TestTraceSerialization:
    def test_save_load_round_trip(self, tmp_path):
        result, _ = _run("case2", length=60.0)
        path = tmp_path / "trace.npz"
        result.save(str(path))
        loaded = HilResult.load(str(path))
        np.testing.assert_array_equal(loaded.y_l_true, result.y_l_true)
        np.testing.assert_array_equal(loaded.s, result.s)
        assert loaded.crashed == result.crashed
        assert loaded.completed == result.completed
        assert len(loaded.cycles) == len(result.cycles)
        assert loaded.cycles[0].invoked == result.cycles[0].invoked
        assert loaded.mae(2.0) == pytest.approx(result.mae(2.0))

    def test_save_appends_npz_suffix_and_reports_it(self, tmp_path):
        """save() applies the historical .npz suffix to suffix-less
        paths and returns the path of the file actually written."""
        result, _ = _run("case2", length=60.0)
        returned = result.save(str(tmp_path / "trace"))
        assert returned == tmp_path / "trace.npz"
        assert returned.exists()
        assert not (tmp_path / "trace").exists()
        loaded = HilResult.load(str(returned))
        np.testing.assert_array_equal(loaded.s, result.s)

    def test_save_is_atomic_under_a_mid_write_crash(self, tmp_path, monkeypatch):
        """A crash during serialization must leave no file at the
        target path and no temp debris — and must not clobber a
        previous good save."""
        import repro.utils.cache as cache_module

        result, _ = _run("case2", length=60.0)
        target = tmp_path / "trace.npz"
        result.save(str(target))
        good_bytes = target.read_bytes()
        real_fdopen = cache_module.os.fdopen

        class ExplodingHandle:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, payload):
                self.handle.write(payload[:16])
                raise RuntimeError("disk full")

        monkeypatch.setattr(
            cache_module.os, "fdopen",
            lambda fd, mode: ExplodingHandle(real_fdopen(fd, mode)),
        )
        with pytest.raises(RuntimeError, match="disk full"):
            result.save(str(target))
        assert target.read_bytes() == good_bytes
        assert list(tmp_path.iterdir()) == [target]

    def test_round_trip_pins_every_field(self, tmp_path):
        """Exact round-trip of crash_s=None, per-cycle faults, and
        degraded=True — the fields a crashy mitigated run exercises."""
        from repro.faults import resolve_fault_plan
        from repro.core.reconfiguration import MitigationConfig

        result, _ = _run(
            "case3",
            length=60.0,
            fault_plan=resolve_fault_plan("classifier-outage"),
            mitigation=MitigationConfig(),
        )
        assert result.crash_s is None
        assert any(c.faults for c in result.cycles)
        assert any(c.degraded for c in result.cycles)
        loaded = HilResult.load(str(result.save(str(tmp_path / "t.npz"))))

        for name in ("time_s", "s", "lateral_offset", "y_l_true",
                     "steering", "speed"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(result, name)
            )
        assert loaded.crashed == result.crashed
        assert loaded.crash_s is None
        assert loaded.completed == result.completed
        assert loaded.cycles == result.cycles
        assert loaded.manifest == result.manifest
        # profile is ephemeral observability data, never persisted.
        assert loaded.profile is None

    def test_saved_result_has_exactly_two_members(self, tmp_path):
        """A saved result is one flat entry: a JSON record header and
        exactly two float64 arrays, the trace and the float cycle block."""
        result, _ = _run("case2", length=60.0)
        path = result.save(str(tmp_path / "two.npz"))
        assert path.read_bytes()[: len(ENTRY_MAGIC)] == ENTRY_MAGIC
        record, arrays = read_entry(path)
        assert sorted(arrays) == ["cycles", "trace"]
        assert arrays["trace"].dtype == np.float64
        assert arrays["trace"].size == 6 * result.time_s.size
        assert arrays["cycles"].dtype == np.float64
        assert arrays["cycles"].shape == (len(record["float_fields"]), len(result.cycles))
        assert set(record["float_fields"]) >= {"time_ms", "s", "steering"}
        assert set(record["cycles"]) >= {"active_isp", "roi", "invoked", "faults"}

    def test_every_cycle_field_round_trips_with_its_type(self, tmp_path):
        """Float columns go through the raw block, all others through
        JSON; both give back each value's Python type and bits."""
        base = dict(
            time_ms=0.0, s=-0.0, active_isp="S7", roi="ROI 2", speed_kmph=50,
            period_ms=40.0, delay_ms=36.5, invoked=("isp", "road"),
            measurement_valid=True, y_l_measured=float("nan"), steering=-0.0,
            degraded=False, faults=("banding",),
        )
        cycles = [
            CycleRecord(**base),
            CycleRecord(**{**base, "speed_kmph": 30.0, "y_l_measured": 1e-300,
                           "time_ms": float("inf"), "faults": ()}),
        ]
        result = HilResult(*(np.arange(3.0) for _ in TRACE_FIELDS), cycles=cycles)
        loaded = HilResult.load(result.save(str(tmp_path / "types.npz")))
        for before, after in zip(cycles, loaded.cycles):
            for name, value in dataclasses.asdict(before).items():
                got = getattr(after, name)
                assert type(got) is type(getattr(before, name)), name
                if isinstance(value, float):
                    assert np.float64(got).tobytes() == np.float64(value).tobytes(), name
                else:
                    assert got == getattr(before, name), name

    def test_loaded_arrays_are_writable(self, tmp_path):
        result, _ = _run("case2", length=60.0)
        loaded = HilResult.load(result.save(str(tmp_path / "w.npz")))
        for name in TRACE_FIELDS:
            array = getattr(loaded, name)
            assert array.flags.writeable, name
            array[:1] = 0.0
        np.testing.assert_array_equal(loaded.s[1:], result.s[1:])

    def test_extra_json_shadowing_a_record_key_raises(self, tmp_path):
        result, _ = _run("case2", length=60.0)
        for key in ("cycles", "lengths", "manifest", "float_fields"):
            with pytest.raises(ValueError, match="shadows"):
                result.save(str(tmp_path / "x.npz"), extra_json={key: "[]"})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_committed_golden_loads_through_the_legacy_branch(self, name, tmp_path):
        """The goldens predate the two-member layout; they load byte-equal
        and survive a re-save in the current layout unchanged."""
        golden = GOLDEN_DIR / f"{name}.npz"
        with np.load(golden) as data:
            assert "record_json" not in data.files
            raw = {k: data[k] for k in data.files}
        loaded = HilResult.load(str(golden))
        for field in TRACE_FIELDS:
            assert getattr(loaded, field).tobytes() == raw[field].tobytes()
        assert [dataclasses.asdict(c) for c in loaded.cycles] == [
            {**c, "invoked": tuple(c["invoked"]), "faults": tuple(c["faults"])}
            for c in json.loads(str(raw["cycles_json"]))
        ]
        assert loaded.manifest == json.loads(str(raw["manifest_json"]))
        assert (loaded.crashed, loaded.completed) == (raw["crashed"], raw["completed"])

        again = HilResult.load(str(loaded.save(str(tmp_path / "again.npz"))))
        for field in TRACE_FIELDS:
            assert getattr(again, field).tobytes() == raw[field].tobytes()
        assert again.cycles == loaded.cycles
        assert again.manifest == loaded.manifest
        assert (again.crashed, again.crash_s, again.completed) == (
            loaded.crashed, loaded.crash_s, loaded.completed,
        )

    def test_legacy_file_without_fault_fields_defaults_them(self, tmp_path):
        """Traces saved before the fault subsystem lack degraded/faults."""
        cycle = {
            "time_ms": 0.0, "s": 0.0, "active_isp": "S0", "roi": "ROI 1",
            "speed_kmph": 50.0, "period_ms": 40.0, "delay_ms": 36.0,
            "invoked": ["isp"], "measurement_valid": True,
            "y_l_measured": 0.1, "steering": 0.0,
        }
        path = tmp_path / "old.npz"
        np.savez(
            path,
            **{field: np.arange(3.0) for field in TRACE_FIELDS},
            crashed=np.array(True),
            crash_s=np.array(2.5),
            completed=np.array(False),
            cycles_json=np.array(json.dumps([cycle])),
        )
        loaded = HilResult.load(str(path))
        assert loaded.cycles[0].degraded is False
        assert loaded.cycles[0].faults == ()
        assert loaded.cycles[0].invoked == ("isp",)
        assert (loaded.crashed, loaded.crash_s, loaded.manifest) == (True, 2.5, None)

    def test_save_persists_the_run_manifest(self, tmp_path):
        result, _ = _run("case2", length=60.0)
        assert result.manifest is not None
        assert result.manifest["package_version"]
        assert "camera-noise" in result.manifest["rng_streams"]
        loaded = HilResult.load(str(result.save(str(tmp_path / "m.npz"))))
        assert loaded.manifest == result.manifest
