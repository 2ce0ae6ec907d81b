"""Tests for the design-time characterization flow (reduced scale)."""

from __future__ import annotations

import pytest

from repro.core.characterization import (
    CharacterizationConfig,
    characterize,
    characterize_situation,
    prescreen_isp,
    roi_candidates,
    _collect_outcomes,
    _knob_grid,
    _rollout_config,
    _select_isp_candidates,
)
from repro.cache import RolloutCache
from repro.core.situation import situation_by_index
from repro.hil.batch import run_batch
from repro.sim.world import static_situation_track
from repro.utils.parallel import TaskFailure

#: Tiny sweep: 2 ISP candidates max, one speed, short track.
TINY = CharacterizationConfig(
    isp_names=("S0", "S7"),
    speeds_kmph=(50.0,),
    track_length=70.0,
    prescreen_frames=10,
    max_isp_candidates=2,
    seed=5,
)

#: Same sweep at reduced camera fidelity: fast enough to run the whole
#: characterization twice (serial and parallel) inside tier-1.
TINY_FAST = CharacterizationConfig(
    isp_names=("S0", "S7"),
    speeds_kmph=(50.0,),
    track_length=70.0,
    prescreen_frames=6,
    max_isp_candidates=2,
    frame_width=192,
    frame_height=96,
    seed=5,
)


class TestRoiCandidates:
    def test_straight(self):
        assert roi_candidates(situation_by_index(1)) == ["ROI 1"]

    def test_right_turn(self):
        assert roi_candidates(situation_by_index(8)) == ["ROI 2", "ROI 3"]

    def test_left_turn(self):
        assert roi_candidates(situation_by_index(15)) == ["ROI 4", "ROI 5"]


class TestPrescreen:
    def test_returns_all_candidates(self):
        results = prescreen_isp(situation_by_index(1), TINY)
        assert [isp for isp, _ in results] == ["S0", "S7"]
        assert all(0.0 <= bad <= 1.0 for _, bad in results)

    def test_candidate_selection_prefers_cheap(self):
        # S7 (3.1 ms) detectable -> must be first candidate (cheapest).
        chosen = _select_isp_candidates([("S0", 0.0), ("S7", 0.0)], TINY)
        assert chosen[0] == "S7"

    def test_candidate_selection_falls_back_when_none_detectable(self):
        chosen = _select_isp_candidates([("S0", 0.9), ("S7", 0.8)], TINY)
        assert chosen == ["S7"]


class TestCharacterizeSituation:
    @pytest.fixture(scope="class")
    def evaluations(self):
        return characterize_situation(situation_by_index(1), TINY)

    def test_crashes_ranked_last(self, evaluations):
        crashed_flags = [e.crashed for e in evaluations]
        # once a crashed entry appears, everything after is crashed too
        if True in crashed_flags:
            first_crash = crashed_flags.index(True)
            assert all(crashed_flags[first_crash:])

    def test_non_crashing_config_exists(self, evaluations):
        assert not evaluations[0].crashed

    def test_tie_break_prefers_fast_design(self, evaluations):
        """Among QoC ties the winner has the fastest design point."""
        best = evaluations[0]
        band = min(e.mae for e in evaluations if not e.crashed)
        band = band * 1.15 + 0.002
        tied = [e for e in evaluations if not e.crashed and e.mae <= band]
        assert best.period_ms == min(e.period_ms for e in tied)

    def test_timing_attached(self, evaluations):
        best = evaluations[0]
        assert best.period_ms >= best.delay_ms > 0


class TestCharacterizeTable:
    def test_cached_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        situations = [situation_by_index(1)]
        first = characterize(situations, TINY, use_cache=True)
        second = characterize(situations, TINY, use_cache=True)
        assert first == second
        assert situations[0] in first


class TestParallelDeterminism:
    """The sweep's central contract: workers never change the result."""

    def test_characterize_jobs2_bit_identical_to_serial(self, tmp_path, monkeypatch):
        situations = [situation_by_index(1)]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = characterize(situations, TINY_FAST, use_cache=True, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pool"))
        pooled = characterize(situations, TINY_FAST, use_cache=True, jobs=2)
        assert pooled == serial

    def test_prescreen_jobs2_matches_serial(self):
        situation = situation_by_index(1)
        serial = prescreen_isp(situation, TINY_FAST, jobs=1)
        pooled = prescreen_isp(situation, TINY_FAST, jobs=2)
        assert pooled == serial


def _same_outcome(a, b):
    """Fresh-trace equality of two rollouts (wall clock aside)."""
    for name in ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.cycles == b.cycles
    assert (a.crashed, a.completed) == (b.crashed, b.completed)
    volatile = ("wall_clock",)
    assert {k: v for k, v in a.manifest.items() if k not in volatile} == {
        k: v for k, v in b.manifest.items() if k not in volatile
    }


class TestBatchComposition:
    """``batch=1`` (chunks of one) and batched chunks give one sweep."""

    @pytest.mark.parametrize("index", [1, 8], ids=["straight", "curved"])
    def test_characterize_batch1_equals_auto(self, index):
        situations = [situation_by_index(index)]
        one = characterize(situations, TINY_FAST, use_cache=False, batch=1)
        auto = characterize(situations, TINY_FAST, use_cache=False, batch="auto")
        assert one == auto

    def test_prescreen_batch1_equals_batch4(self):
        situation = situation_by_index(8)
        assert prescreen_isp(situation, TINY_FAST, batch=1) == prescreen_isp(
            situation, TINY_FAST, batch=4
        )

    def test_knob_tasks_chunks_of_one_equal_chunks_of_two(self, tmp_path):
        situation = situation_by_index(8)
        grid = _knob_grid(situation, ["S7"], TINY_FAST)
        assert len(grid) == 2
        lanes = dict(
            track=static_situation_track(situation, length=TINY_FAST.track_length),
            case="case4",
            table=[{situation: knobs} for knobs in grid],
        )
        configs = [_rollout_config(TINY_FAST)] * len(grid)
        stores = [RolloutCache(tmp_path / name, enabled=True) for name in ("one", "two")]
        one = run_batch(configs, batch=1, cache=stores[0], **lanes)
        two = run_batch(configs, batch=2, cache=stores[1], **lanes)
        assert len(one) == len(two) == len(grid)
        for store in stores:
            # Every lane was keyed, missed and simulated fresh.
            assert (store.stats.misses, store.stats.stores) == (len(grid), len(grid))
        for a, b in zip(one, two):
            _same_outcome(a, b)


class TestFailureCollection:
    def test_all_failed_raises(self):
        situation = situation_by_index(1)
        failures = [TaskFailure(index=0, item=None, error="boom")]
        with pytest.raises(RuntimeError, match="every knob evaluation failed"):
            _collect_outcomes(failures, situation)

    def test_partial_failure_keeps_survivors(self):
        situation = situation_by_index(1)
        survivor = object()
        kept = _collect_outcomes(
            [TaskFailure(index=0, item=None, error="boom"), survivor], situation
        )
        assert kept == [survivor]
