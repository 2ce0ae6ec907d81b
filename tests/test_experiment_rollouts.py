"""The experiments' rollouts equal plain serial engine runs.

Fig. 6, Fig. 8, the ablations, the sensitivity study and the fault
tolerance study all roll through :func:`repro.hil.batch.run_batch`.
Each is run here at small frames and short tracks, with one and with
two ``$REPRO_JOBS`` workers, and checked number for number against a
reference loop of ``HilEngine(...).run()`` written out below.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cases import case_config
from repro.core.knobs import KnobSetting
from repro.core.reconfiguration import MitigationConfig
from repro.core.sensitivity import SensitivityConfig, knob_sensitivity
from repro.core.situation import situation_by_index
from repro.experiments.ablations import run_feedforward_ablation
from repro.experiments.fault_tolerance import FaultScenario, run_fault_tolerance
from repro.experiments.fig6 import CASES_FIG6, run_fig6
from repro.experiments.fig8 import run_fig8
from repro.faults.plan import resolve_fault_plan
from repro.hil.engine import HilConfig, HilEngine
from repro.sim.world import fig7_track, static_situation_track
from repro.utils.parallel import shutdown_pool
from repro.utils.rng import derive_rng

SMALL = HilConfig(frame_width=48, frame_height=24)
#: Fig. 8's turns need a frame this large to be driven through at all.
MEDIUM = HilConfig(frame_width=192, frame_height=96)
SEEDS = (3, 4)


@pytest.fixture(params=["1", "2"], ids=["jobs1", "jobs2"])
def jobs(request, monkeypatch):
    """Run the test with this many ``$REPRO_JOBS`` workers."""
    monkeypatch.setenv("REPRO_JOBS", request.param)
    yield int(request.param)
    shutdown_pool()


def _mae(run) -> float:
    return run.mae(skip_time_s=2.0)


@pytest.fixture(scope="module")
def short_fig7():
    return fig7_track(straight_length=12.0, turn_length=12.0)


def test_fig6_equals_serial_runs(jobs):
    track = static_situation_track(situation_by_index(8), length=30.0)
    results = run_fig6(indices=[8], track_length=30.0, seeds=SEEDS, config=SMALL)
    assert [r.case for r in results] == list(CASES_FIG6)
    for r in results:
        runs = [
            HilEngine(track, r.case, config=replace(SMALL, seed=seed)).run()
            for seed in SEEDS
        ]
        assert r.mae == float(np.mean([_mae(run) for run in runs]))
        assert r.crashed == any(run.crashed for run in runs)


def test_fig8_equals_serial_runs(jobs, short_fig7):
    results = run_fig8(
        cases=("case3", "case4"), track=short_fig7, config=MEDIUM, sector_skip_m=3.0
    )
    for case, got in results.items():
        runs = [HilEngine(short_fig7, case, config=replace(MEDIUM, seed=3)).run()]
        assert got.result.lateral_offset.tobytes() == runs[0].lateral_offset.tobytes()
        sectors = [run.sector_qoc(short_fig7, skip_distance_m=3.0) for run in runs]
        assert any(s.mae is not None for s in got.sectors)
        for merged, *per_seed in zip(got.sectors, *sectors):
            maes = [s.mae for s in per_seed if s.mae is not None]
            assert merged.mae == (float(np.mean(maes)) if maes else None)
            assert merged.completed == all(s.completed for s in per_seed)


def test_fig8_averages_every_seed_of_a_given_config(short_fig7):
    """A given config runs each seed, not its own seed once per seed."""
    kwargs = dict(cases=("case3",), track=short_fig7, config=MEDIUM, sector_skip_m=3.0)
    both = run_fig8(seeds=SEEDS, **kwargs)["case3"].sectors
    single = [run_fig8(seeds=(seed,), **kwargs)["case3"].sectors for seed in SEEDS]
    assert [s.mae for s in single[0]] != [s.mae for s in single[1]]
    for merged, a, b in zip(both, *single):
        assert merged.mae == float(np.mean([a.mae, b.mae]))


def test_ablation_equals_serial_runs(jobs):
    track = static_situation_track(situation_by_index(1), length=30.0)
    points = run_feedforward_ablation(track=track)
    assert [p.setting for p in points] == ["feedforward=off", "feedforward=on"]
    for point, use_ff in zip(points, (False, True)):
        run = HilEngine(track, "case3", config=HilConfig(seed=3, use_feedforward=use_ff)).run()
        assert (point.mae, point.crashed) == (_mae(run), run.crashed)


def test_sensitivity_equals_serial_runs(jobs):
    situation = situation_by_index(8)
    config = SensitivityConfig(n_samples=3, track_length=30.0)
    report = knob_sensitivity(situation, config)
    rng = derive_rng(config.seed, "sensitivity")
    track = static_situation_track(situation, length=config.track_length)
    for sample in report.samples:
        knobs = KnobSetting(
            isp=config.isp_names[rng.integers(len(config.isp_names))],
            roi=config.roi_names[rng.integers(len(config.roi_names))],
            speed_kmph=float(config.speeds_kmph[rng.integers(len(config.speeds_kmph))]),
        )
        run = HilEngine(
            track,
            case_config("case4"),
            table={situation: knobs},
            config=HilConfig(seed=config.seed),
        ).run()
        assert (sample.knobs, sample.mae, sample.crashed) == (knobs, _mae(run), run.crashed)


def test_fault_tolerance_equals_serial_runs(jobs):
    scenarios = (
        FaultScenario(name="stress", faults="stress", situation_index=1, track_length_m=40.0),
        FaultScenario(
            name="flaky", faults="timeout@1500:inf,probability=0.7", track_length_m=40.0
        ),
    )
    results = run_fault_tolerance(scenarios, config=SMALL)
    for scenario, result in zip(scenarios, results):
        track = static_situation_track(
            situation_by_index(scenario.situation_index), length=scenario.track_length_m
        )
        for arm, mitigated in ((result.baseline, False), (result.mitigated, True)):
            config = replace(
                SMALL,
                seed=scenario.seed,
                fault_plan=resolve_fault_plan(scenario.faults),
                mitigation=MitigationConfig() if mitigated else SMALL.mitigation,
            )
            run = HilEngine(track, scenario.case, config=config).run()
            assert arm.mitigated == mitigated
            assert (arm.mae, arm.crashed) == (_mae(run), run.crashed)
            assert arm.degraded_fraction == run.degraded_fraction()
            assert arm.fault_kinds == run.fault_kinds() != ()
