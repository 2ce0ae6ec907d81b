"""Property-based fuzz tests for the rollout cache key and entry layer.

The rollout cache (:mod:`repro.cache`) promises that a key document
hashes to one stable address and that a stored result loads back
bit-identical.  These tests drive both with randomized-but-seeded
payloads — NaN/inf floats, empty arrays, unicode cycle and manifest
text — and assert the round trip is exact.

Float equality here means bitwise for finite and infinite values; NaN
positions are compared as a mask.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    RolloutCache,
    rollout_key,
    rollout_key_document,
)
from repro.hil.record import CycleRecord, HilResult

# -- strategies -------------------------------------------------------------

#: float64 payloads including NaN, +/-inf and signed zeros.
payload_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)

#: Array payloads: empty through small 1-D float64.
float_arrays = st.lists(payload_floats, min_size=0, max_size=8).map(
    lambda values: np.asarray(values, dtype=np.float64)
)

#: Unicode as it appears in cycle records and manifests.
unicode_text = st.text(min_size=0, max_size=20)

def assert_floats_equal(expected, actual, label):
    """Bitwise equality for finite/inf entries, masked equality for NaN."""
    expected = np.asarray(expected, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    assert expected.shape == actual.shape, f"{label}: shape differs"
    exp_nan = np.isnan(expected)
    act_nan = np.isnan(actual)
    assert (exp_nan == act_nan).all(), f"{label}: NaN positions differ"
    assert expected[~exp_nan].tobytes() == actual[~act_nan].tobytes(), (
        f"{label}: non-NaN bits differ"
    )


def make_result(arrays, cycle_text, crashed, crash_s, manifest_text):
    """A synthetic :class:`HilResult` from fuzzed parts."""
    time_s, s, offset, y_l, steering, speed = arrays
    cycles = [
        CycleRecord(
            time_ms=0.0,
            s=0.0,
            active_isp=cycle_text,
            roi=cycle_text[::-1],
            speed_kmph=50.0,
            period_ms=40.0,
            delay_ms=36.0,
            invoked=(cycle_text,) if cycle_text else (),
            measurement_valid=True,
            y_l_measured=0.25,
            steering=-0.125,
            faults=(cycle_text,) if cycle_text else (),
        )
    ]
    return HilResult(
        time_s=time_s,
        s=s,
        lateral_offset=offset,
        y_l_true=y_l,
        steering=steering,
        speed=speed,
        cycles=cycles,
        crashed=crashed,
        crash_s=crash_s,
        completed=not crashed,
        manifest={"config_hash": "f" * 24, "note": manifest_text},
    )


result_strategy = st.builds(
    make_result,
    st.tuples(*[float_arrays] * 6),
    unicode_text,
    st.booleans(),
    st.none() | st.floats(allow_nan=False, allow_infinity=False),
    unicode_text,
)


# -- cache key + store properties -------------------------------------------


def _make_document(situation_index, case, seed, width, height):
    from repro.core.situation import situation_by_index
    from repro.hil.engine import HilConfig
    from repro.sim import static_situation_track

    track = static_situation_track(
        situation_by_index(situation_index), length=40.0
    )
    config = HilConfig(seed=seed, frame_width=width, frame_height=height)
    return rollout_key_document(track=track, case=case, config=config)


class TestCacheKeyProperties:
    @given(
        st.integers(min_value=1, max_value=21),
        st.sampled_from(["case1", "case2", "case3", "case4"]),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=16, max_value=128),
        st.integers(min_value=16, max_value=128),
    )
    @settings(max_examples=25, deadline=None)
    def test_documents_are_pure_json_and_hash_stably(
        self, situation_index, case, seed, width, height
    ):
        document = _make_document(situation_index, case, seed, width, height)
        assert document is not None
        # The exact invariant `cache --verify` relies on: the document
        # survives a JSON round trip and re-hashes to the same address.
        round_tripped = json.loads(json.dumps(document, sort_keys=True))
        assert rollout_key(round_tripped) == rollout_key(document)

    @given(
        st.integers(min_value=1, max_value=21),
        st.sampled_from(["case1", "case2", "case3", "case4"]),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_case_spellings_canonicalize_to_one_key(
        self, situation_index, case, seed
    ):
        from repro.core.cases import case_config

        by_name = _make_document(situation_index, case, seed, 96, 48)
        by_instance_doc = _make_document(
            situation_index, case_config(case), seed, 96, 48
        )
        assert rollout_key(by_name) == rollout_key(by_instance_doc)

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_distinct_seeds_get_distinct_keys(self, seed_a, seed_b):
        doc_a = _make_document(1, "case1", seed_a, 96, 48)
        doc_b = _make_document(1, "case1", seed_b, 96, 48)
        if seed_a == seed_b:
            assert rollout_key(doc_a) == rollout_key(doc_b)
        else:
            assert rollout_key(doc_a) != rollout_key(doc_b)

    def test_uncacheable_inputs_return_none(self):
        from repro.core.reconfiguration import OracleIdentifier
        from repro.core.situation import situation_by_index
        from repro.hil.engine import HilConfig
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=40.0)
        assert rollout_key_document(
            track=track, case="case1", config=HilConfig(profile=True)
        ) is None
        assert rollout_key_document(
            track=track, case="case1", identifier=OracleIdentifier()
        ) is None
        assert rollout_key_document(track=track, case=object()) is None


class TestStoreRoundTripFuzz:
    @given(result_strategy, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_store_round_trip_is_bitwise(self, tmp_path_factory, result, nonce):
        store = RolloutCache(tmp_path_factory.mktemp("fuzz-store"), enabled=True)
        document = {"schema": 1, "kernel": "fuzz", "nonce": nonce}
        store.store(document, result)
        loaded = store.load(document)
        assert loaded is not None
        for field in ("time_s", "s", "lateral_offset", "y_l_true",
                      "steering", "speed"):
            assert_floats_equal(
                getattr(result, field), getattr(loaded, field), field
            )
        assert loaded.cycles == result.cycles
        assert loaded.manifest == result.manifest
        checked, problems = store.verify()
        assert checked >= 1 and problems == []


# -- key coverage: equal keys roll equal bits --------------------------------


def _coverage_base():
    """The key-coverage inputs: case 4 on a 48x24 camera over 10 m, a
    straight then a left arc, each with its own table entry."""
    from repro.core.cases import case_config
    from repro.core.knobs import KnobSetting
    from repro.core.situation import situation_by_index
    from repro.hil.engine import HilConfig
    from repro.sim.track import SectorSpec, Track

    straight, left = situation_by_index(1), situation_by_index(15)
    return dict(
        track=Track.from_sections(
            [SectorSpec(5.0, 0.0, straight), SectorSpec(5.0, 0.02, left)]
        ),
        case=case_config("case4"),
        table={
            straight: KnobSetting("S6", "ROI 1", 50.0),
            left: KnobSetting("S2", "ROI 5", 30.0),
        },
        config=HilConfig(frame_width=48, frame_height=24, end_margin_m=1.0, seed=3),
    )


def _small_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _fault_plans():
    from repro.faults.plan import FaultPlan

    # Every kind, on one window; wrong_label and timeout share every field.
    specs = (
        "blackout@0:300", "banding@0:300", "isp_corruption@0:300",
        "latency@0:300", "wrong_label@0:300,classifier=road",
        "timeout@0:300,classifier=road", "outage@0:300,classifier=road",
        "dropout@0:300",
    )
    return [FaultPlan.parse(spec) for spec in specs]


def _config_values():
    from repro.core.reconfiguration import MitigationConfig
    from repro.platform import POWER_MODES

    return {
        "frame_width": st.sampled_from([40, 64]),
        "frame_height": st.sampled_from([20, 32]),
        "sim_step_ms": st.sampled_from([2.5, 10.0]),
        "initial_offset_m": _small_floats(-0.5, 0.5),
        "initial_heading_err": _small_floats(-0.05, 0.05),
        "crash_offset_m": _small_floats(0.1, 3.0),
        "end_margin_m": _small_floats(0.0, 3.0),
        "max_sim_time_s": _small_floats(0.05, 1.0),
        "invocation_window_ms": _small_floats(20.0, 600.0),
        "isp_apply_lag": st.integers(0, 3),
        "power_mode": st.sampled_from(sorted(POWER_MODES)),
        "sensor_noise": st.booleans(),
        "imu_noise": st.booleans(),
        "frame_drop_rate": _small_floats(0.0, 0.5),
        "use_feedforward": st.booleans(),
        "use_lqg": st.booleans(),
        "seed": st.integers(0, 2**16),
        "profile": st.booleans(),
        "fault_plan": st.sampled_from(_fault_plans()),
        "mitigation": st.builds(
            MitigationConfig,
            stale_after_ms=_small_floats(100.0, 900.0),
            retry_limit=st.integers(0, 3),
        ),
    }


def _case_values():
    from repro.core.cases import CASES

    return {
        "name": st.sampled_from(sorted(CASES)),
        "classifiers": st.sampled_from([(), ("road",), ("road", "lane"), ("lane", "scene")]),
        "adapt_roi_coarse": st.booleans(),
        "adapt_roi_fine": st.booleans(),
        "adapt_speed": st.booleans(),
        "adapt_isp": st.booleans(),
        "invocation": st.sampled_from(["every", "variable", "event"]),
    }


def _segment_values():
    from repro.core.situation import TABLE3_SITUATIONS
    from repro.sim.geometry import Pose2D

    return {
        "start": st.builds(
            Pose2D, _small_floats(-1.0, 1.0), _small_floats(-1.0, 1.0),
            _small_floats(-0.1, 0.1),
        ),
        "length": _small_floats(3.0, 8.0),
        "curvature": _small_floats(-0.03, 0.03),
        "situation": st.sampled_from(TABLE3_SITUATIONS),
    }


def _knob_values():
    from repro.isp.configs import ISP_CONFIGS
    from repro.perception.roi import ROI_PRESETS

    return {
        "isp": st.sampled_from(sorted(ISP_CONFIGS)),
        "roi": st.sampled_from(sorted(ROI_PRESETS)),
        "speed_kmph": st.sampled_from([30.0, 40.0, 50.0]),
    }


def _perturbed(base, part, index, name, value):
    """*base* with one field of one input part set to *value*."""
    import dataclasses

    from repro.sim.track import Track, TrackSegment

    if part == "config":
        return {**base, "config": dataclasses.replace(base["config"], **{name: value})}
    if part == "case":
        return {**base, "case": dataclasses.replace(base["case"], **{name: value})}
    if part == "segment":
        segments = list(base["track"].segments)
        seg = segments[index]
        fields = dict(
            start=seg.start, length=seg.length, curvature=seg.curvature,
            situation=seg.situation, s_start=seg.s_start,
        )
        segments[index] = TrackSegment(**{**fields, name: value})
        return {**base, "track": Track(segments)}
    situation = list(base["table"])[index]
    table = dict(base["table"])
    table[situation] = dataclasses.replace(table[situation], **{name: value})
    return {**base, "table": table}


def _perturbations():
    """``(part, index, field)`` of every input the key must cover."""
    return (
        [("config", 0, name) for name in sorted(_config_values())]
        + [("case", 0, name) for name in sorted(_case_values())]
        + [("segment", i, name) for i in (0, 1) for name in sorted(_segment_values())]
        + [("table", i, name) for i in (0, 1) for name in sorted(_knob_values())]
    )


def _rollout_bits(result):
    """Everything a rollout simulated, as comparable bytes and values."""
    return (
        b"".join(getattr(result, name).tobytes() for name in
                 ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed")),
        repr(result.cycles),
        (result.crashed, result.crash_s, result.completed),
    )


class TestKeyCoverage:
    """Every input a rollout reads is in its key: for each field of the
    :class:`HilConfig`, the case, the track's segments and the table's
    knob settings, inputs that differ only in that field either key
    differently or roll bit-identically.  Rollouts run only for inputs
    that share a key, so a field missing from the key document shows as
    two different rollouts under one key."""

    def test_every_input_field_is_perturbed(self):
        import dataclasses

        from repro.core.cases import CaseConfig
        from repro.hil.engine import HilConfig

        base = _coverage_base()
        assert set(_config_values()) == {f.name for f in dataclasses.fields(HilConfig)}
        assert set(_case_values()) == {f.name for f in dataclasses.fields(CaseConfig)}
        assert set(_segment_values()) == set(base["track"].to_config()[0])
        knobs = next(iter(base["table"].values()))
        assert set(_knob_values()) == set(knobs.to_config())

    @pytest.mark.parametrize(
        "part,index,name", _perturbations(), ids=lambda v: str(v)
    )
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_a_perturbed_field_moves_the_key_or_not_the_rollout(
        self, part, index, name, data
    ):
        from repro.cache import rollout_keys
        from repro.hil.batch import run_batch

        strategy = {
            "config": _config_values, "case": _case_values,
            "segment": _segment_values, "table": _knob_values,
        }[part]()[name]
        base = _coverage_base()
        values = data.draw(st.lists(strategy, min_size=2, max_size=4, unique_by=repr))
        lanes = [base] + [_perturbed(base, part, index, name, v) for v in values]
        keys = rollout_keys(
            tracks=[lane["track"] for lane in lanes],
            cases=[lane["case"] for lane in lanes],
            tables=[lane["table"] for lane in lanes],
            configs=[lane["config"] for lane in lanes],
        )
        by_key = {}
        for lane, key in zip(lanes, keys):
            if key is not None:
                by_key.setdefault(key.key, []).append(lane)
        for shared in by_key.values():
            if len(shared) < 2:
                continue
            results = run_batch(
                [lane["config"] for lane in shared],
                track=[lane["track"] for lane in shared],
                case=[lane["case"] for lane in shared],
                table=[lane["table"] for lane in shared],
            )
            first = _rollout_bits(results[0])
            for result in results[1:]:
                assert _rollout_bits(result) == first
