"""Tests for repro.telemetry: events, metrics, manifests, traces.

The load-bearing guarantees pinned here:

- the recorder is a shared no-op singleton when disabled, and enabling
  it leaves simulated traces bit-identical;
- event names are schema-validated at emit time;
- two runs of the same experiment produce the same manifest hash and
  byte-identical event streams;
- trace writes are atomic and ``diff_traces`` ignores the volatile
  wall-clock manifest fields.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry import (
    CYCLE_END,
    CYCLE_START,
    EVENT_SCHEMA,
    IDENTIFIER_INVOKED,
    KNOBS_RECONFIGURED,
    MetricsRegistry,
    TelemetryRecorder,
    activated,
    build_manifest,
    diff_traces,
    get_active,
    load_trace,
    write_trace,
)
from repro.utils import profiling
from repro.utils.rng import collect_streams, derive_rng

REPO_ROOT = Path(__file__).resolve().parent.parent

FAST = dict(frame=(192, 96), length_m=40.0, situation=1, case="case3", seed=3)


def _simulate(**overrides):
    from repro.api import simulate

    return simulate(**{**FAST, **overrides})


class TestRecorder:
    def test_no_recorder_is_active_by_default(self):
        assert get_active() is None

    def test_emit_validates_event_names(self):
        rec = TelemetryRecorder()
        with pytest.raises(ValueError, match="unknown telemetry event"):
            rec.emit("cycle.startt", time_ms=0.0)

    def test_emit_validates_required_fields(self):
        rec = TelemetryRecorder()
        with pytest.raises(ValueError, match="missing required fields"):
            rec.emit(CYCLE_START, time_ms=0.0)  # no s/active_isp/invoked

    def test_emit_appends_schema_stamped_records(self):
        rec = TelemetryRecorder()
        rec.emit(
            CYCLE_START, time_ms=0.0, s=0.0, active_isp="S0", invoked=[]
        )
        (record,) = rec.events
        assert record["event"] == CYCLE_START
        assert isinstance(record["schema"], int) and record["schema"] >= 1
        assert set(EVENT_SCHEMA[CYCLE_START]) <= set(record)
        assert rec.events_of(CYCLE_START) == [record]
        assert rec.events_of(CYCLE_END) == []

    def test_activated_restores_the_previous_recorder(self):
        outer = TelemetryRecorder()
        inner = TelemetryRecorder()
        with activated(outer):
            assert get_active() is outer
            with activated(inner):
                assert get_active() is inner
            assert get_active() is outer
        assert get_active() is None

    def test_activated_none_is_a_passthrough(self):
        with activated(None) as rec:
            assert rec is None
            assert get_active() is None


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        m = MetricsRegistry()
        m.count("runs")
        m.count("runs", 2)
        m.gauge("speed", 30.0)
        m.gauge("speed", 50.0)
        m.observe("mae", 0.5)
        m.observe("mae", 1.5)
        assert m.counters() == {"runs": 3}
        assert m.gauges() == {"speed": 50.0}
        assert m.histogram("mae") == [0.5, 1.5]

    def test_snapshot_merge_round_trip(self):
        a = MetricsRegistry()
        a.count("tasks")
        a.observe("v", 1.0)
        b = MetricsRegistry()
        b.count("tasks", 4)
        b.gauge("last", 2.0)
        b.merge(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"] == {"tasks": 5}
        assert snap["gauges"] == {"last": 2.0}
        assert snap["histograms"] == {"v": [1.0]}

    def test_absorb_profiler_stage_stats(self):
        profiler = profiling.Profiler()
        profiler.record("hil.isp", 0.002)
        profiler.record("hil.isp", 0.004)
        m = MetricsRegistry()
        m.absorb_profiler(profiler.stats())
        assert m.counters()["stage.hil.isp.calls"] == 2
        assert m.histogram("stage.hil.isp.mean_ms") == [pytest.approx(3.0)]


class TestManifest:
    def test_equal_configs_hash_identically(self):
        from repro.hil.engine import HilConfig

        a = build_manifest(config=HilConfig(seed=1))
        b = build_manifest(config=HilConfig(seed=1))
        c = build_manifest(config=HilConfig(seed=2))
        assert a["config_hash"] == b["config_hash"]
        assert a["config_hash"] != c["config_hash"]

    def test_records_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        manifest = build_manifest()
        assert manifest["env"]["REPRO_PROFILE"] == "1"
        assert manifest["env"]["REPRO_JOBS"] is None

    def test_rng_streams_sorted_and_deduplicated(self):
        manifest = build_manifest(rng_streams=["b", "a", "b"])
        assert manifest["rng_streams"] == ["a", "b"]

    def test_collect_streams_observes_derivations(self):
        with collect_streams() as seen:
            derive_rng(0, "imu")
            with collect_streams() as inner:
                derive_rng(0, "trajectory")
        assert seen == ["imu", "trajectory"]
        assert inner == ["trajectory"]
        # The listener is removed on exit: later derivations unseen.
        derive_rng(0, "camera-noise")
        assert seen == ["imu", "trajectory"]


class TestTracePersistence:
    def _manifest(self):
        return build_manifest(rng_streams=["imu"], started_at=1.0, finished_at=2.0)

    def _events(self):
        rec = TelemetryRecorder()
        rec.emit(CYCLE_START, time_ms=0.0, s=0.0, active_isp="S0", invoked=["road"])
        rec.emit(IDENTIFIER_INVOKED, time_ms=0.0, classifiers=["road"])
        return rec.events

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        returned = write_trace(path, self._manifest(), self._events())
        assert returned == path
        trace = load_trace(path)
        assert trace.manifest == self._manifest()
        assert trace.events == self._events()
        assert [e["event"] for e in trace.events_of(CYCLE_START)] == [CYCLE_START]

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        import repro.telemetry.trace as trace_module

        path = tmp_path / "run.jsonl"

        def exploding_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(trace_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="rename failed"):
            write_trace(path, self._manifest(), self._events())
        assert list(tmp_path.iterdir()) == []

    def test_diff_ignores_wall_clock(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", self._manifest(), self._events())
        manifest_b = build_manifest(
            rng_streams=["imu"], started_at=99.0, finished_at=100.0
        )
        b = write_trace(tmp_path / "b.jsonl", manifest_b, self._events())
        assert diff_traces(load_trace(a), load_trace(b)) == []

    def test_diff_reports_manifest_and_event_divergence(self, tmp_path):
        events_b = self._events()
        events_b[0] = dict(events_b[0], active_isp="S2")
        a = load_trace(
            write_trace(tmp_path / "a.jsonl", self._manifest(), self._events())
        )
        b = load_trace(
            write_trace(
                tmp_path / "b.jsonl",
                build_manifest(rng_streams=["other"]),
                events_b[:1],
            )
        )
        differences = diff_traces(a, b)
        assert any(d.startswith("manifest.rng_streams") for d in differences)
        assert any(d.startswith("event count") for d in differences)
        assert any(d.startswith("event 0:") for d in differences)

    def test_diff_caps_rendered_events(self):
        from repro.telemetry import RunTrace

        make = lambda isp: [
            {"event": CYCLE_START, "schema": 1, "time_ms": float(i),
             "s": 0.0, "active_isp": isp, "invoked": []}
            for i in range(5)
        ]
        differences = diff_traces(
            RunTrace(events=make("S0")), RunTrace(events=make("S2")), limit=2
        )
        assert differences[-1] == "... and 3 more differing events"


class TestClosedLoopTelemetry:
    def test_enabling_telemetry_keeps_the_trace_bit_identical(self):
        baseline = _simulate()
        with activated(TelemetryRecorder()):
            observed = _simulate()
        for name in ("time_s", "lateral_offset", "steering"):
            np.testing.assert_array_equal(
                getattr(baseline, name), getattr(observed, name)
            )

    def test_env_enabled_telemetry_matches_disabled_run(self, tmp_path):
        baseline = _simulate()
        digest = hashlib.sha256(
            baseline.time_s.tobytes()
            + baseline.lateral_offset.tobytes()
            + baseline.steering.tobytes()
        ).hexdigest()
        script = (
            "import hashlib\n"
            "from repro.api import simulate\n"
            f"r = simulate(**{FAST!r})\n"
            "print(hashlib.sha256(r.time_s.tobytes()"
            " + r.lateral_offset.tobytes()"
            " + r.steering.tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, REPRO_TELEMETRY="1")
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == digest

    def test_same_experiment_yields_byte_identical_event_streams(self, tmp_path):
        for name in ("a", "b"):
            with activated(TelemetryRecorder()) as rec:
                result = _simulate()
            write_trace(tmp_path / f"{name}.jsonl", result.manifest, rec.events)
        lines_a = (tmp_path / "a.jsonl").read_text().splitlines()
        lines_b = (tmp_path / "b.jsonl").read_text().splitlines()
        manifest_a = json.loads(lines_a[0])["manifest"]
        manifest_b = json.loads(lines_b[0])["manifest"]
        assert manifest_a["config_hash"] == manifest_b["config_hash"]
        # Same manifest hash => byte-identical events (manifest line
        # alone carries the volatile wall clock).
        assert lines_a[1:] == lines_b[1:]
        assert diff_traces(
            load_trace(tmp_path / "a.jsonl"), load_trace(tmp_path / "b.jsonl")
        ) == []

    def test_cycle_events_cover_every_cycle(self):
        with activated(TelemetryRecorder()) as rec:
            result = _simulate()
        starts = rec.events_of(CYCLE_START)
        ends = rec.events_of(CYCLE_END)
        assert len(starts) == len(result.cycles)
        assert len(ends) == len(result.cycles)
        assert [e["time_ms"] for e in ends] == [
            c.time_ms for c in result.cycles
        ]
        assert [e["steering"] for e in ends] == [
            c.steering for c in result.cycles
        ]
        # The first decide always reconfigures (no previous knobs).
        assert rec.events_of(KNOBS_RECONFIGURED)

    def test_manifest_attached_to_the_result(self):
        result = _simulate()
        assert result.manifest is not None
        assert result.manifest["rng_streams"] == [
            "camera-noise", "frame-drop", "oracle-identifier"
        ]
        assert result.manifest["wall_clock"]["started_at"] is not None

    def test_profiler_stats_absorbed_into_metrics(self):
        with activated(TelemetryRecorder()) as rec:
            _simulate(profile=True)
        counters = rec.metrics.counters()
        assert counters["stage.hil.render.calls"] > 0
        assert rec.metrics.histogram("stage.hil.render.mean_ms")

    def test_outer_profiler_runs_are_absorbed_once_each(self):
        """Runs sharing one recorder and one outer profiler each absorb
        their own stage counts, not the outer profiler's running total."""
        outer = profiling.Profiler()
        with activated(TelemetryRecorder()) as rec, profiling.activated(outer):
            first = _simulate()
            second = _simulate(seed=4)
        sensed = len(first.cycles) + len(second.cycles)
        assert outer.stats()["hil.render"].count == sensed
        assert rec.metrics.counters()["stage.hil.render.calls"] == sensed
        assert first.profile["hil.render"].count == len(first.cycles)
        assert second.profile["hil.render"].count == len(second.cycles)

    def test_simulate_telemetry_keyword_writes_a_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = _simulate(telemetry=path)
        trace = load_trace(path)
        assert trace.manifest == result.manifest
        assert len(trace.events_of(CYCLE_END)) == len(result.cycles)
        # The scoped recorder is gone afterwards.
        assert get_active() is None
