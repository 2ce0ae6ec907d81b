"""Tests for the extension components: Monte-Carlo sensitivity,
event-triggered invocation, LQG-in-the-loop, CLI and report plumbing."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.cases import case_config
from repro.core.scheduler import EventTriggeredScheme
from repro.core.sensitivity import (
    MonteCarloSample,
    SensitivityConfig,
    SensitivityReport,
    _main_effect,
    knob_sensitivity,
)
from repro.core.situation import situation_by_index


class TestMainEffect:
    def test_fully_explained_variance(self):
        values = np.array([1.0, 1.0, 5.0, 5.0])
        groups = ["a", "a", "b", "b"]
        assert _main_effect(values, groups) == pytest.approx(1.0)

    def test_no_effect(self):
        values = np.array([1.0, 5.0, 1.0, 5.0])
        groups = ["a", "a", "b", "b"]
        assert _main_effect(values, groups) == pytest.approx(0.0)

    def test_constant_values_zero(self):
        assert _main_effect(np.ones(4), ["a", "b", "a", "b"]) == 0.0

    def test_partial_effect_bounded(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 50), rng.normal(1, 1, 50)])
        groups = ["a"] * 50 + ["b"] * 50
        effect = _main_effect(values, groups)
        assert 0.0 < effect < 1.0


class TestKnobSensitivity:
    def test_small_study_runs(self):
        config = SensitivityConfig(
            n_samples=4,
            isp_names=("S0", "S7"),
            roi_names=("ROI 1",),
            speeds_kmph=(50.0,),
            track_length=60.0,
        )
        report = knob_sensitivity(situation_by_index(1), config)
        assert len(report.samples) == 4
        assert set(report.main_effect) == {"isp", "roi", "speed"}
        assert len(report.ranked_knobs()) == 3

    def test_main_effect_ignores_the_hash_seed(self):
        # Seed 10 draws three distinct ISP and ROI names, so each main
        # effect sums three terms, whose order shows in the last ulp.
        script = textwrap.dedent(
            """
            from repro.core.sensitivity import SensitivityConfig, knob_sensitivity
            from repro.core.situation import situation_by_index

            config = SensitivityConfig(n_samples=3, track_length=30.0, seed=10)
            print(repr(knob_sensitivity(situation_by_index(1), config).main_effect))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_crash_penalty(self):
        sample = MonteCarloSample(
            knobs=None, mae=0.02, crashed=True  # type: ignore[arg-type]
        )
        assert sample.effective_mae == 1.0


class TestEventTriggeredScheme:
    def test_road_by_default(self):
        scheme = EventTriggeredScheme(max_staleness_ms=1e9)
        scheme.classifiers_for_cycle(0.0)  # first cycle may refresh
        scheme.classifiers_for_cycle(25.0)
        assert scheme.classifiers_for_cycle(50.0) == ("road",)

    def test_burst_on_believed_change(self):
        scheme = EventTriggeredScheme(max_staleness_ms=1e9)
        for t in (0.0, 25.0, 50.0):
            scheme.classifiers_for_cycle(t)
        scheme.observe(believed_changed=True, measurement_valid=True)
        assert scheme.classifiers_for_cycle(75.0) == ("lane",)
        assert scheme.classifiers_for_cycle(100.0) == ("scene",)
        assert scheme.classifiers_for_cycle(125.0) == ("road",)

    def test_burst_on_miss_streak(self):
        scheme = EventTriggeredScheme(max_staleness_ms=1e9, miss_threshold=2)
        for t in (0.0, 25.0):
            scheme.classifiers_for_cycle(t)
        scheme.observe(False, False)
        assert scheme.classifiers_for_cycle(50.0) == ("road",)
        scheme.observe(False, False)  # second consecutive miss
        assert scheme.classifiers_for_cycle(75.0) == ("lane",)

    def test_staleness_fallback(self):
        scheme = EventTriggeredScheme(max_staleness_ms=100.0)
        scheme.classifiers_for_cycle(0.0)  # refresh at t=0
        scheme.classifiers_for_cycle(25.0)
        assert scheme.classifiers_for_cycle(150.0) == ("lane",)

    def test_single_classifier_budget(self):
        assert EventTriggeredScheme().max_concurrent() == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EventTriggeredScheme(max_staleness_ms=0.0)
        with pytest.raises(ValueError):
            EventTriggeredScheme(miss_threshold=0)


class TestAdaptiveCase:
    def test_adaptive_case_registered(self):
        case = case_config("adaptive")
        assert case.invocation == "event"
        assert case.variable_invocation
        assert case.classifier_budget() == ("road",)

    def test_invalid_invocation_rejected(self):
        from repro.core.cases import CaseConfig

        with pytest.raises(ValueError):
            CaseConfig(
                name="bad",
                classifiers=("road",),
                adapt_roi_coarse=True,
                adapt_roi_fine=True,
                adapt_speed=True,
                adapt_isp=True,
                invocation="sometimes",
            )


class TestLqgInLoop:
    def test_lqg_engine_runs_and_is_stable(self):
        from repro.hil import HilConfig, HilEngine
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=80.0)
        config = HilConfig(
            seed=7, frame_width=192, frame_height=96, use_lqg=True
        )
        result = HilEngine(track, "case3", config=config).run()
        assert not result.crashed
        assert result.mae(skip_time_s=2.0) < 0.15


class TestCli:
    def test_parser_builds(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "--situation", "2", "--case", "case1"])
        assert args.situation == 2

    def test_run_command_executes(self, capsys):
        from repro.__main__ import main

        code = main(
            ["run", "--situation", "1", "--case", "case1", "--length", "60"]
        )
        out = capsys.readouterr().out
        assert "MAE" in out
        assert code in (0, 1)

    def test_sensitivity_command(self, capsys):
        from repro.__main__ import main

        code = main(["sensitivity", "--situation", "1", "--samples", "2"])
        assert code == 0
        assert "variance share" in capsys.readouterr().out
