"""Batch-composition tests for the lock-step rollout engine.

Lane traces are invariant to batch composition.  A serial
``HilEngine.run`` is :class:`repro.hil.batch.BatchedHilEngine` with one
lane, so every test here pits lanes of a larger batch (or one of its
facades) against the same configs run alone and asserts the full
traces are *exactly* equal — for lanes that crash mid-batch, finish
early, carry fault plans, or share one CNN identifier.  The independent reference is the golden
corpus (``tests/test_golden_traces.py``); plant intervals that cross
track segment boundaries, which no golden exercises, are pinned by
digests here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import api
from repro.classifiers.dataset import LANE_CLASSES, ROAD_CLASSES, SCENE_CLASSES
from repro.classifiers.models import SituationClassifier, build_tiny_resnet
from repro.classifiers.runtime import CnnIdentifier
from repro.core.situation import situation_by_index
from repro.faults.plan import ClassifierTimeout, ClassifierWrongLabel, FaultPlan
from repro.hil import batch as batch_mod
from repro.hil.batch import BatchedHilEngine, run_batch
from repro.hil.engine import HilConfig, HilEngine
from repro.isp.pipeline import IspPipeline
from repro.sim.track import SectorSpec, Track
from repro.sim.world import fig7_track, static_situation_track
from repro.utils.parallel import TaskFailure, shutdown_pool

#: Reduced fidelity keeps each rollout fast; the BEV grid stays at its
#: native 96x128 so perception runs its full reductions.
FAST = dict(frame_width=48, frame_height=24)


def _track(sit_index: int = 1, length: float = 60.0):
    return static_situation_track(situation_by_index(sit_index), length=length)


def assert_results_equal(a, b):
    """Exact (bitwise) equality of two HilResult traces."""
    for name in ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"):
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert lhs.shape == rhs.shape, name
        assert np.array_equal(lhs, rhs), name
    assert a.cycles == b.cycles
    assert a.crashed == b.crashed
    assert a.crash_s == b.crash_s
    assert a.completed == b.completed


def _digest(results) -> str:
    """SHA-256 over every result's trace arrays, cycle records and flags."""
    digest = hashlib.sha256()
    for result in results:
        for name in ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"):
            values = np.ascontiguousarray(getattr(result, name), dtype=np.float64)
            digest.update(b"%s:%d:" % (name.encode(), values.size))
            digest.update(values.tobytes())
        digest.update(repr([c.__dict__ for c in result.cycles]).encode())
        digest.update(b"crashed=%d completed=%d;" % (result.crashed, result.completed))
    return digest.hexdigest()


def _serial(track, case, config, identifier=None):
    return HilEngine(track, case, identifier=identifier, config=config).run()


def _untrained_cnn() -> CnnIdentifier:
    """Tiny untrained ResNets for all three classifiers, input (3, 24, 48).

    Their labels are arbitrary but deterministic, which is all a
    batch-composition test needs; no training runs.
    """
    classes = {"road": ROAD_CLASSES, "lane": LANE_CLASSES, "scene": SCENE_CLASSES}
    return CnnIdentifier(
        {
            name: SituationClassifier(
                name, build_tiny_resnet(len(labels), seed=k), labels, (3, 24, 48)
            )
            for k, (name, labels) in enumerate(classes.items())
        }
    )


class TestBitIdentity:
    def test_mixed_lanes_match_serial(self):
        """Different seeds and offsets in one batch, each lane exact."""
        track = _track()
        configs = [
            HilConfig(seed=s, initial_offset_m=off, **FAST)
            for s, off in ((1, 0.2), (2, -0.3), (3, 0.0), (4, 0.35))
        ]
        batched = run_batch(configs, track=track, case="case2")
        for cfg, result in zip(configs, batched):
            assert_results_equal(result, _serial(track, "case2", cfg))

    def test_single_lane_batch_is_exact(self):
        """A batch of one exercises every singleton fallback path."""
        track = _track(sit_index=8, length=80.0)
        config = HilConfig(seed=11, **FAST)
        [batched] = run_batch([config], track=track, case="case3")
        assert_results_equal(batched, _serial(track, "case3", config))

    def test_mid_batch_crash_lane(self):
        """A lane crashing early must not perturb the survivors."""
        track = _track(length=80.0)
        crasher = HilConfig(
            seed=7, initial_offset_m=1.9, initial_heading_err=0.15, **FAST
        )
        survivor = HilConfig(seed=7, initial_offset_m=0.2, **FAST)
        batched = run_batch([crasher, survivor, survivor], track=track, case="case1")
        assert batched[0].crashed and batched[0].crash_s is not None
        for cfg, result in zip((crasher, survivor, survivor), batched):
            assert_results_equal(result, _serial(track, "case1", cfg))

    def test_early_finishing_lane(self):
        """Per-lane tracks of different lengths retire lanes one by one."""
        short = _track(length=40.0)
        long = _track(length=100.0)
        config = HilConfig(seed=5, **FAST)
        batched = run_batch(
            [config, config], track=[short, long], case="case2"
        )
        assert batched[0].completed
        assert batched[0].duration_s() < batched[1].duration_s()
        assert_results_equal(batched[0], _serial(short, "case2", config))
        assert_results_equal(batched[1], _serial(long, "case2", config))

    def test_partial_fault_plans(self):
        """Faulted lanes take serial fallbacks; clean lanes stay batched."""
        track = _track(length=60.0)
        faulted = HilConfig(
            seed=3,
            fault_plan=FaultPlan.parse("blackout@200:600; dropout@800:1200"),
            **FAST,
        )
        clean = HilConfig(seed=3, **FAST)
        batched = run_batch([faulted, clean], track=track, case="case2")
        assert any(c.faults for c in batched[0].cycles)
        assert not any(c.faults for c in batched[1].cycles)
        assert_results_equal(batched[0], _serial(track, "case2", faulted))
        assert_results_equal(batched[1], _serial(track, "case2", clean))

    def test_profiling_lane_traces_unchanged(self):
        """Profiling alters observability only, never the trace."""
        track = _track(length=60.0)
        profiled = HilConfig(seed=2, profile=True, **FAST)
        plain = HilConfig(seed=2, **FAST)
        batched = run_batch([profiled, plain], track=track, case="case2")
        assert batched[0].profile  # spans were collected
        assert_results_equal(batched[0], _serial(track, "case2", plain))
        assert_results_equal(batched[1], _serial(track, "case2", plain))

    def test_profiled_batch_spans_every_sensed_isp_cycle(self):
        """The stacked ISP call reports one ``hil.isp`` item per lane-cycle."""
        track = _track(length=60.0)
        configs = [HilConfig(seed=s, profile=True, **FAST) for s in (2, 3, 4)]
        batched = run_batch(configs, track=track, case="case2")
        # No frame drops: every lane-cycle renders and runs the ISP.
        sensed = sum(len(result.cycles) for result in batched)
        stats = batched[0].profile
        assert stats["hil.isp"].count == sensed
        assert stats["hil.render"].count == sensed
        for label in ("pr.warp", "pr.threshold", "pr.window", "pr.fit"):
            assert stats[label].count == stats["hil.pr"].count

    def test_profiled_batch_spans_every_plant_step_and_decision(self):
        """``hil.plant`` weighs each tick by its lanes; ``hil.decide``
        counts one decision per lane-cycle."""
        track = _track(length=60.0)
        configs = [HilConfig(seed=s, profile=True, **FAST) for s in (2, 3, 4)]
        batched = run_batch(configs, track=track, case="case2")
        stats = batched[0].profile
        assert stats["hil.plant"].count == sum(len(r.time_s) for r in batched)
        assert stats["hil.decide"].count == sum(len(r.cycles) for r in batched)

    def test_isp_fault_lanes_share_the_batched_call(self):
        """ISP taps run per lane inside the stacked ISP call."""
        track = _track(length=60.0)
        plans = (
            "isp_corruption@100:500,stage=GM,strength=0.3",
            "isp_corruption@300:900,stage=output,strength=0.2",
            "",
        )
        configs = [
            HilConfig(seed=3, profile=True, fault_plan=FaultPlan.parse(plan), **FAST)
            for plan in plans
        ]
        batched = run_batch(configs, track=track, case="case2")
        for plan, cfg, result in zip(plans, configs, batched):
            assert any(c.faults for c in result.cycles) == bool(plan)
            # S0 runs every stage, so the GM tap fires too.
            assert {c.active_isp for c in result.cycles} == {"S0"}
            assert_results_equal(result, _serial(track, "case2", cfg))
        sensed = sum(len(result.cycles) for result in batched)
        assert batched[0].profile["hil.isp"].count == sensed


class TestIntervalsAcrossSegmentBoundaries:
    """Plant intervals whose ticks cross a track segment boundary.

    A tick past a boundary is projected with a hint in the next
    segment's window, unlike the interval's earlier ticks.  The digests
    were recorded with the tick-by-tick plant loop, before the engine
    advanced whole intervals.
    """

    @staticmethod
    def _count_projections(monkeypatch) -> list:
        """Count :meth:`Track.frenet_batch` calls into a one-item list."""
        calls = [0]
        frenet_batch = Track.frenet_batch

        def spy(track, xs, ys, s_hints):
            calls[0] += 1
            return frenet_batch(track, xs, ys, s_hints)

        monkeypatch.setattr(Track, "frenet_batch", spy)
        return calls

    def test_fig7_tour_across_every_segment_boundary(self, monkeypatch):
        """Serial case-4 runs starting 3 m before each of the eight
        segment boundaries of the Fig. 7 track."""
        calls = self._count_projections(monkeypatch)
        track = fig7_track()
        config = HilConfig(seed=3, frame_width=96, frame_height=48, max_sim_time_s=2.0)
        results = [
            HilEngine(track, "case4", config=config).run(start_s=segment.s_start - 3.0)
            for segment in track.segments[1:]
        ]
        assert _digest(results) == (
            "0da531ef86c968ee26c790a37205e426c93f820273d29e8ae1b70eced1f812f4"
        )
        # A serial run advances one interval per cycle, with one
        # projection call each (poses and look-ahead points); its start
        # pose takes one more, and so does each of the eight intervals
        # whose ticks cross a boundary.
        assert calls[0] == sum(len(r.cycles) for r in results) + 8 + 8

    def test_mixed_period_batch_on_short_sectors(self, monkeypatch):
        """Three lanes with 75, 55 and 40 ms control periods on 1-1.25 m
        sectors: most intervals cross a boundary, and the middle lane
        crashes mid-interval."""
        sectors = [
            SectorSpec((1.0, 1.25)[k % 2], (0.0, 0.01, -0.01)[k % 3], situation_by_index(1))
            for k in range(36)
        ]
        track = Track.from_sections(sectors)
        configs = [
            HilConfig(seed=5, power_mode="10W", **FAST),
            HilConfig(
                seed=5, power_mode="15W", initial_offset_m=1.2,
                initial_heading_err=0.12, **FAST,
            ),
            HilConfig(seed=5, power_mode="30W", **FAST),
        ]
        calls = self._count_projections(monkeypatch)
        results = run_batch(configs, track=track, case="case3")
        assert [r.crashed for r in results] == [False, True, False]
        # The cohort advances once per round of cycles; most of its
        # intervals take a second projection pass.
        intervals = max(len(r.cycles) for r in results)
        assert calls[0] > 1.5 * intervals
        assert _digest(results) == (
            "fce731de891c39c4c8952f04b973d4480d2610c3a5375238783b53a9783db890"
        )

    def test_run_over_sectors_shorter_than_a_tick(self):
        """300 sectors of 3 cm, shorter than a 5 ms tick's travel: a
        cycle's ``s``, projected from its pose with the last tick's ``s``
        as hint, often differs from that ``s``."""
        sectors = (
            [SectorSpec(10.0, 0.0, situation_by_index(1))]
            + [
                SectorSpec(0.03, (0.02, -0.02)[k % 2], situation_by_index(1))
                for k in range(300)
            ]
            + [SectorSpec(20.0, 0.0, situation_by_index(1))]
        )
        track = Track.from_sections(sectors)
        result = _serial(track, "case1", HilConfig(seed=5, **FAST))
        assert result.completed
        tick_s = {round(t * 1000.0): s for t, s in zip(result.time_s, result.s)}
        moved = sum(c.s != tick_s[c.time_ms] for c in result.cycles[1:])
        assert moved == 26
        assert _digest([result]) == (
            "6a4caa72b452b2375af0118a6fa26665f414f0591cece140db8e796fe1309675"
        )


class TestChunkedSensing:
    def test_full_fidelity_lanes_render_and_isp_one_per_call(self, monkeypatch):
        """At 384x192 a frame outgrows ``STACK_PIXELS``: render and ISP run
        one lane per call, faulted lanes included, each lane exact."""
        calls = {"render": [], "isp": []}
        render = batch_mod.render_raw_batch
        process_batch = IspPipeline.process_batch

        def render_spy(renderers, poses, **kwargs):
            calls["render"].append(len(renderers))
            return render(renderers, poses, **kwargs)

        def isp_spy(pipeline, raw, taps=None):
            calls["isp"].append(raw.shape[0])
            return process_batch(pipeline, raw, taps=taps)

        monkeypatch.setattr(batch_mod, "render_raw_batch", render_spy)
        monkeypatch.setattr(IspPipeline, "process_batch", isp_spy)
        track = _track(length=60.0)
        full = dict(frame_width=384, frame_height=192, max_sim_time_s=0.1)
        plans = ("", "isp_corruption@0:80,stage=GM,strength=0.3; banding@0:80", "")
        configs = [
            HilConfig(
                seed=3 + lane, profile=True, fault_plan=FaultPlan.parse(plan), **full
            )
            for lane, plan in enumerate(plans)
        ]
        batched = run_batch(configs, track=track, case="case2")
        sensed = sum(len(result.cycles) for result in batched)
        assert calls["render"] == [1] * sensed
        assert calls["isp"] == [1] * sensed
        stats = batched[0].profile
        assert stats["hil.render"].count == stats["hil.isp"].count == sensed
        assert any(c.faults for c in batched[1].cycles)
        for cfg, result in zip(configs, batched):
            assert_results_equal(result, _serial(track, "case2", cfg))


class TestSharedCnnIdentifier:
    """Lanes sharing one :class:`CnnIdentifier` instance in the loop."""

    def test_lanes_match_serial_with_classifier_faults(self):
        """A shared CNN classifies every lane exactly as a run alone does,
        with wrong-label and timeout faults firing on the middle lane."""
        track = _track(length=60.0)
        identifier = _untrained_cnn()
        # Fault presets start at 1500 ms; these fire from the first cycle.
        faults = FaultPlan(
            (
                ClassifierWrongLabel(0.0, float("inf"), probability=0.5),
                ClassifierTimeout(0.0, float("inf"), probability=0.3),
            )
        )
        fast = dict(frame_width=96, frame_height=48, max_sim_time_s=1.0)
        configs = [
            HilConfig(seed=1, **fast),
            HilConfig(seed=2, fault_plan=faults, **fast),
            HilConfig(seed=3, **fast),
        ]
        batched = run_batch(configs, track=track, case="case4", identifier=identifier)
        assert any(c.faults for c in batched[1].cycles)
        assert not any(c.faults for c in batched[0].cycles + batched[2].cycles)
        for cfg, result in zip(configs, batched):
            assert result.cycles and any(c.invoked for c in result.cycles)
            assert_results_equal(result, _serial(track, "case4", cfg, identifier))

    def test_incompatible_frame_raises_in_any_batch(self):
        """A 104x48 frame downsamples to (3, 24, 52), not the net's
        (3, 24, 48): the lane raises whether it runs alone or shares
        its identifier with another lane."""
        track = _track(length=60.0)
        identifier = _untrained_cnn()
        config = HilConfig(frame_width=104, frame_height=48, max_sim_time_s=1.0)
        for n_lanes in (1, 2):
            with pytest.raises(ValueError, match="input shape"):
                run_batch(
                    [config] * n_lanes,
                    track=track,
                    case="case4",
                    identifier=identifier,
                )


    def test_pooled_chunk_that_raises_fills_its_slots_with_task_failures(self):
        """Across a pool, the raising lane's chunk becomes a
        ``TaskFailure`` and the other chunk's lane still runs."""
        track = _track(length=60.0)
        identifier = _untrained_cnn()
        bad = HilConfig(frame_width=104, frame_height=48, max_sim_time_s=1.0)
        good = HilConfig(frame_width=96, frame_height=48, max_sim_time_s=1.0)
        try:
            failed, ran = run_batch(
                [bad, good], track=track, case="case4", identifier=identifier,
                jobs=2, batch=1,
            )
        finally:
            shutdown_pool()
        assert isinstance(failed, TaskFailure) and "input shape" in failed.error
        assert_results_equal(ran, _serial(track, "case4", good, identifier))


class TestFacades:
    def test_api_simulate_seed_sequence(self):
        seeds = [21, 22, 23]
        batched = api.simulate(
            situation=1, case="case2", length_m=60.0, seed=seeds,
            frame=(48, 24), batch=len(seeds),
        )
        assert isinstance(batched, list) and len(batched) == len(seeds)
        for s, result in zip(seeds, batched):
            serial = api.simulate(
                situation=1, case="case2", length_m=60.0, seed=s, frame=(48, 24)
            )
            assert_results_equal(result, serial)

    def test_api_simulate_chunking_invariance(self):
        """Any batch size yields the same seed-ordered results."""
        seeds = [31, 32, 33]
        kwargs = dict(
            situation=1, case="case2", length_m=50.0, seed=seeds, frame=(48, 24)
        )
        whole = api.simulate(batch=3, **kwargs)
        chunked = api.simulate(batch=2, **kwargs)
        for a, b in zip(whole, chunked):
            assert_results_equal(a, b)

    def test_run_batch_validates_lane_counts(self):
        track = _track()
        with pytest.raises(ValueError, match="tracks"):
            run_batch(
                [HilConfig(seed=1, **FAST)], track=[track, track], case="case1"
            )
        with pytest.raises(ValueError):
            BatchedHilEngine([])
