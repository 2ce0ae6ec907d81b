"""Batched lock-step rollouts vs the serial sweep (perf artifact).

Evaluates one reduced-fidelity characterization slice — a
same-situation knob grid of 16 rollouts at 48x24 camera fidelity —
four ways through the one rollout driver
(:func:`repro.hil.batch.run_batch`): chunks of one lane
(``batch=1``, the serial sweep), and lock-step lane chunks of 4, 16,
and auto.  Each arm's wall clock, its speedup over serial, and the
batch composition go to ``extra_info``; every arm must agree
bit-identically with the serial sweep, and the auto batch must clear
3x over the serial single-process sweep (the headroom the batched
plant/render/ISP/perception kernels buy by amortizing numpy dispatch
across lanes).

Timings are best-of-2 per arm: the suite shares one CPU with whatever
else the host runs, and ``min`` is the standard robust estimator for
wall-clock under external load.
"""

from __future__ import annotations

import time

from repro.core.characterization import (
    CharacterizationConfig,
    _knob_grid,
    _rollout_config,
    roi_candidates,
)
from repro.core.situation import TABLE3_SITUATIONS
from repro.hil.batch import run_batch
from repro.sim.world import static_situation_track

#: Reduced-fidelity slice: short track, four ISP candidates, both ROI
#: presets of a curved layout, both speeds -> 16 closed-loop rollouts
#: at 48x24 camera fidelity (the BEV stays at its native 96x128, so
#: perception and plant stepping keep their full weight).
CONFIG = CharacterizationConfig(
    isp_names=("S0", "S2", "S5", "S7"),
    speeds_kmph=(30.0, 50.0),
    track_length=60.0,
    seed=11,
    frame_width=48,
    frame_height=24,
)

_ROUNDS = 2


def _slice():
    """The slice's rollouts: their configs and the ``run_batch`` lanes."""
    situation = next(
        s for s in TABLE3_SITUATIONS if len(roi_candidates(s)) > 1
    )
    grid = _knob_grid(situation, CONFIG.isp_names, CONFIG)
    lanes = dict(
        track=static_situation_track(situation, length=CONFIG.track_length),
        case="case4",
        table=[{situation: knobs} for knobs in grid],
    )
    return [_rollout_config(CONFIG)] * len(grid), lanes


def _sweep(configs, lanes, batch):
    """The slice in one process, *batch* lanes per chunk: each rollout's
    MAE, crash flag and lateral-offset trace bytes."""
    return [
        (run.mae(skip_time_s=2.0), run.crashed, run.lateral_offset.tobytes())
        for run in run_batch(configs, jobs=1, batch=batch, **lanes)
    ]


def _best_of(fn, rounds=_ROUNDS):
    """Run *fn* *rounds* times; return (last result, fastest wall-clock)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_batched_rollouts_speedup(benchmark):
    configs, lanes = _slice()

    serial, serial_s = _best_of(lambda: _sweep(configs, lanes, 1))

    arms = {}
    for label, batch in (("batch4", 4), ("batch16", 16), ("batch_auto", "auto")):
        results, wall_s = _best_of(lambda b=batch: _sweep(configs, lanes, b))
        assert results == serial, f"{label} diverged from the serial sweep"
        arms[label] = wall_s

    benchmark.extra_info["n_tasks"] = len(configs)
    benchmark.extra_info["frame"] = [CONFIG.frame_width, CONFIG.frame_height]
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    for label, wall_s in arms.items():
        benchmark.extra_info[f"{label}_s"] = round(wall_s, 3)
        benchmark.extra_info[f"{label}_speedup"] = round(serial_s / wall_s, 2)

    print(f"\nserial sweep       : {serial_s:7.2f} s  (x1.00)")
    for label, wall_s in arms.items():
        print(
            f"{label:<19}: {wall_s:7.2f} s  (x{serial_s / wall_s:.2f})"
        )

    auto_speedup = serial_s / arms["batch_auto"]
    assert auto_speedup >= 3.0, (
        f"batch=auto speedup {auto_speedup:.2f}x below the 3x bar"
    )

    # The benchmark's reported time is the batched sweep.
    benchmark.pedantic(
        lambda: _sweep(configs, lanes, "auto"), rounds=1, iterations=1
    )
