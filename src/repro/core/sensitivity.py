"""Monte-Carlo knob-sensitivity analysis (paper Sec. III-B, first step).

Before characterizing per situation, the paper runs "Monte-Carlo
simulations of the entire system" to determine *which* system parameters
are sensitive to the operating situation — the analysis that promoted
the ISP configuration, the PR ROI and the vehicle speed to "configurable
knobs" while leaving everything else fixed.

This module reproduces that study: it samples random knob assignments
per situation, runs the closed loop, and decomposes the observed QoC
variance by knob dimension (a main-effect / variance-ratio analysis).
A knob whose main effect explains a large share of the QoC variance is
*sensitive* and worth reconfiguring at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cases import case_config
from repro.core.knobs import KnobSetting
from repro.core.situation import Situation, situation_by_index
from repro.utils.parallel import require_all, resolve_jobs
from repro.utils.rng import derive_rng

__all__ = [
    "SensitivityConfig",
    "MonteCarloSample",
    "SensitivityReport",
    "knob_sensitivity",
]

#: Crash runs enter the variance analysis at this MAE (metres): large
#: enough to dominate, finite so variance stays defined.
_CRASH_PENALTY_MAE = 1.0


@dataclass(frozen=True)
class SensitivityConfig:
    """Monte-Carlo study parameters (reduced defaults; paper-scale via
    more samples)."""

    n_samples: int = 24
    isp_names: Sequence[str] = ("S0", "S2", "S3", "S5", "S7", "S8")
    roi_names: Sequence[str] = ("ROI 1", "ROI 2", "ROI 3", "ROI 4", "ROI 5")
    speeds_kmph: Sequence[float] = (30.0, 50.0)
    track_length: float = 90.0
    seed: int = 17

    def to_config(self) -> Dict[str, object]:
        """JSON-friendly form for cache hashing."""
        from repro.sim.renderer import RENDERER_VERSION

        return {
            "n_samples": self.n_samples,
            "isp": list(self.isp_names),
            "roi": list(self.roi_names),
            "speeds": list(self.speeds_kmph),
            "track_length": self.track_length,
            "seed": self.seed,
            "renderer_version": RENDERER_VERSION,
        }


@dataclass
class MonteCarloSample:
    """One random knob assignment and its closed-loop outcome."""

    knobs: KnobSetting
    mae: float
    crashed: bool

    @property
    def effective_mae(self) -> float:
        """MAE with the crash penalty applied."""
        return _CRASH_PENALTY_MAE if self.crashed else self.mae


@dataclass
class SensitivityReport:
    """Variance decomposition of the Monte-Carlo QoC outcomes.

    ``main_effect[knob]`` is the share of total QoC variance explained
    by that knob dimension alone (between-group variance over total
    variance); values near 1 mean the knob dominates.
    """

    situation: Situation
    samples: List[MonteCarloSample] = field(default_factory=list)
    main_effect: Dict[str, float] = field(default_factory=dict)

    def ranked_knobs(self) -> List[str]:
        """Knob dimensions ordered from most to least sensitive."""
        return sorted(self.main_effect, key=self.main_effect.get, reverse=True)


def _main_effect(values: np.ndarray, groups: Sequence) -> float:
    """Between-group share of variance (eta squared)."""
    total_var = float(np.var(values))
    if total_var <= 1e-18:
        return 0.0
    grand_mean = float(values.mean())
    between = 0.0
    # First-appearance order: a set's order follows the string hash
    # seed, and a different summation order moves the last ulp.
    for level in dict.fromkeys(groups):
        sel = np.array([g == level for g in groups])
        if not sel.any():
            continue
        between += sel.sum() * (float(values[sel].mean()) - grand_mean) ** 2
    return float(between / values.size / total_var)


def knob_sensitivity(
    situation: Optional[Situation] = None,
    config: SensitivityConfig = SensitivityConfig(),
) -> SensitivityReport:
    """Run the Monte-Carlo study for one situation.

    Every sample draws an independent (ISP, ROI, speed) assignment,
    runs the closed loop under the case-4 classifier budget (the
    configuration the knobs would be reconfigured in), and records the
    QoC.  The report decomposes the QoC variance per knob dimension.
    The rollouts go through :func:`repro.hil.batch.run_batch` with
    ``$REPRO_JOBS`` workers.
    """
    from repro.hil.batch import run_batch
    from repro.hil.engine import HilConfig
    from repro.sim.world import static_situation_track

    situation = situation or situation_by_index(1)
    rng = derive_rng(config.seed, "sensitivity")
    # Every knob draw comes first: the rollouts never touch this stream.
    draws = [
        KnobSetting(
            isp=config.isp_names[rng.integers(len(config.isp_names))],
            roi=config.roi_names[rng.integers(len(config.roi_names))],
            speed_kmph=float(
                config.speeds_kmph[rng.integers(len(config.speeds_kmph))]
            ),
        )
        for _ in range(config.n_samples)
    ]
    runs = require_all(
        run_batch(
            [HilConfig(seed=config.seed)] * len(draws),
            track=static_situation_track(situation, length=config.track_length),
            case=case_config("case4"),
            table=[{situation: knobs} for knobs in draws],
            jobs=resolve_jobs(None),
        ),
        "sensitivity",
    )
    samples = [
        MonteCarloSample(
            knobs=knobs, mae=result.mae(skip_time_s=2.0), crashed=result.crashed
        )
        for knobs, result in zip(draws, runs)
    ]

    values = np.array([s.effective_mae for s in samples])
    report = SensitivityReport(situation=situation, samples=samples)
    report.main_effect = {
        "isp": _main_effect(values, [s.knobs.isp for s in samples]),
        "roi": _main_effect(values, [s.knobs.roi for s in samples]),
        "speed": _main_effect(values, [s.knobs.speed_kmph for s in samples]),
    }
    return report
