"""Tests for the Xavier platform timing model."""

from __future__ import annotations

import pytest

from repro.platform.mapping import LkasTaskGraph, default_task_graph
from repro.platform.profiles import (
    PROFILE_DB,
    classifier_runtime_ms,
    control_runtime_ms,
    isp_runtime_ms,
    pr_runtime_ms,
)
from repro.platform.resources import XAVIER, Resource
from repro.platform.schedule import (
    SIM_STEP_MS,
    period_for_delay,
    pipeline_timing,
    sensing_fps,
)


class TestResources:
    def test_xavier_description(self):
        assert XAVIER.cpu_cores == 8
        assert XAVIER.gpu_cuda_cores == 512
        assert XAVIER.power_budget_w == 30.0

    def test_power_validation(self):
        assert XAVIER.validate_power(25.0)
        assert not XAVIER.validate_power(45.0)
        with pytest.raises(ValueError):
            XAVIER.validate_power(-1.0)


class TestProfiles:
    def test_table2_isp_runtimes(self):
        assert isp_runtime_ms("S0") == 21.5
        assert isp_runtime_ms("S1") == 18.9
        assert isp_runtime_ms("S5") == 3.1

    def test_pr_and_control_runtimes(self):
        assert pr_runtime_ms() == 3.0
        assert control_runtime_ms() == pytest.approx(0.0025)

    def test_classifier_runtime(self):
        for name in ("road", "lane", "scene"):
            assert classifier_runtime_ms(name) == 5.5

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError):
            isp_runtime_ms("S99")
        with pytest.raises(ValueError):
            classifier_runtime_ms("weather")

    def test_isp_on_gpu_pr_on_cpu(self):
        assert PROFILE_DB["isp/S0"].resource is Resource.GPU
        assert PROFILE_DB["pr"].resource is Resource.CPU


class TestTaskGraph:
    def test_latency_is_sum(self):
        graph = default_task_graph("S0", ("road",))
        expected = 21.5 + 5.5 + 3.0 + 0.0025
        assert graph.latency_ms() == pytest.approx(expected)

    def test_resource_busy_split(self):
        graph = default_task_graph("S0", ("road", "lane"))
        assert graph.resource_busy_ms(Resource.GPU) == pytest.approx(21.5 + 11.0)
        assert graph.resource_busy_ms(Resource.CPU) == pytest.approx(3.0025)

    def test_pipelined_fps_bottleneck(self):
        graph = default_task_graph("S0")
        assert graph.pipelined_fps() == pytest.approx(1000.0 / 21.5)

    def test_sequential_fps_matches_paper_fig1(self):
        """The classical sliding-window point: ~40 FPS."""
        graph = default_task_graph("S0", include_control=False)
        assert graph.sequential_fps() == pytest.approx(40.8, abs=0.1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            LkasTaskGraph([])


class TestSchedule:
    def test_period_ceils_to_sim_step(self):
        assert period_for_delay(24.6) == 25.0
        assert period_for_delay(30.1) == 35.0
        assert period_for_delay(25.0) == 25.0

    def test_period_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            period_for_delay(0.0)

    @pytest.mark.parametrize(
        "isp,classifiers,dynamic,tau,h",
        [
            ("S0", (), False, 24.6, 25.0),               # case 1
            ("S0", ("road",), False, 30.1, 35.0),        # case 2
            ("S0", ("road", "lane"), False, 35.6, 40.0),  # case 3
            ("S3", ("road", "lane", "scene"), True, 23.1, 25.0),  # Table III #1
            ("S8", ("road", "lane", "scene"), True, 23.0, 25.0),  # Table III #6
            ("S2", ("road", "lane", "scene"), True, 40.7, 45.0),  # Table III #20
        ],
    )
    def test_paper_timing_reproduction(self, isp, classifiers, dynamic, tau, h):
        timing = pipeline_timing(isp, classifiers, dynamic_isp=dynamic)
        assert timing.delay_ms == pytest.approx(tau, abs=0.05)
        assert timing.period_ms == pytest.approx(h)

    def test_classifier_spellings_share_one_timing(self):
        """Memoised on a tuple of the classifiers: a list and a tuple of
        the same names give the one (frozen) timing."""
        by_tuple = pipeline_timing("S3", ("road", "lane"), dynamic_isp=True)
        assert pipeline_timing("S3", ["road", "lane"], dynamic_isp=True) is by_tuple
        assert pipeline_timing("S3", ("road",), dynamic_isp=True) != by_tuple

    def test_delay_below_period(self):
        timing = pipeline_timing("S0", ("road", "lane", "scene"))
        assert timing.delay_ms <= timing.period_ms

    def test_sensing_fps_excludes_control(self):
        assert sensing_fps("S0") == pytest.approx(1000.0 / 24.5, abs=0.1)

    def test_sim_step_is_paper_value(self):
        assert SIM_STEP_MS == 5.0
