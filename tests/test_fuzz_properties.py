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
