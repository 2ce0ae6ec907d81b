"""Ablations of the design choices DESIGN.md calls out.

- **ISP apply lag** (Sec. III-D): the paper argues the one-cycle delay
  of the ISP knob is harmless; sweeping the lag quantifies it.
- **Invocation window** (footnote 8): the 300 ms window of the variable
  scheme against shorter/longer windows.
- **ISP stage contribution**: per-scene detection accuracy when single
  stages are dropped (the knob-sensitivity story of Sec. III-B).
- **Curvature feed-forward**: the production-LKAS extension that the
  base reproduction keeps off (paper controller consumes y_L only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.situation import situation_by_index
from repro.experiments.common import format_table
from repro.hil.batch import run_batch
from repro.hil.engine import HilConfig
from repro.perception.evaluation import evaluate_sequence
from repro.sim.track import Track
from repro.sim.world import fig7_track
from repro.utils.parallel import require_all

__all__ = [
    "run_isp_lag_ablation",
    "run_invocation_window_ablation",
    "run_isp_stage_ablation",
    "run_feedforward_ablation",
    "format_ablation",
]


@dataclass
class AblationPoint:
    """One swept setting and its outcome."""

    setting: str
    mae: float
    crashed: bool


def _points(
    settings: Sequence[str],
    configs: Sequence[HilConfig],
    case: str,
    track: Track,
    jobs: Optional[int],
) -> List[AblationPoint]:
    """One closed-loop point per labelled config, in order, through
    the rollout driver across *jobs* workers."""
    runs = require_all(
        run_batch(configs, track=track, case=case, jobs=jobs), "ablation"
    )
    return [
        AblationPoint(setting=setting, mae=run.mae(skip_time_s=2.0), crashed=run.crashed)
        for setting, run in zip(settings, runs)
    ]


def compact_track() -> Track:
    """A shortened Fig. 7-style track for the ablation sweeps.

    Same nine sectors and transitions, ~half the arc length — the
    ablations compare configurations against each other, so the shared
    track only needs to exercise every switching type.
    """
    return fig7_track(straight_length=60.0, turn_length=50.0)


def run_isp_lag_ablation(
    lags: Sequence[int] = (0, 1, 6),
    seed: int = 3,
    track: Optional[Track] = None,
    jobs: Optional[int] = None,
) -> List[AblationPoint]:
    """Case 4 on the dynamic track with different ISP apply lags."""
    return _points(
        [f"lag={lag} cycles" for lag in lags],
        [HilConfig(seed=seed, isp_apply_lag=lag) for lag in lags],
        "case4",
        track or compact_track(),
        jobs,
    )


def run_invocation_window_ablation(
    windows_ms: Sequence[float] = (150.0, 300.0, 900.0),
    seed: int = 3,
    track: Optional[Track] = None,
    jobs: Optional[int] = None,
) -> List[AblationPoint]:
    """The variable scheme with different road-classifier windows."""
    return _points(
        [f"window={window:.0f} ms" for window in windows_ms],
        [HilConfig(seed=seed, invocation_window_ms=window) for window in windows_ms],
        "variable",
        track or compact_track(),
        jobs,
    )


def run_feedforward_ablation(
    seed: int = 3,
    track: Optional[Track] = None,
    jobs: Optional[int] = None,
) -> List[AblationPoint]:
    """Curvature feed-forward on/off for the robust baseline (case 3)."""
    return _points(
        [f"feedforward={'on' if use_ff else 'off'}" for use_ff in (False, True)],
        [HilConfig(seed=seed, use_feedforward=use_ff) for use_ff in (False, True)],
        "case3",
        track or compact_track(),
        jobs,
    )


def run_isp_stage_ablation(
    scene_indices: Sequence[int] = (1, 5, 7),
    n_frames: int = 40,
    seed: int = 5,
) -> Dict[str, Dict[str, float]]:
    """Detection bad-frame rate per scene for single-stage-drop configs.

    Uses the Table II configurations that drop exactly one stage
    (S1: -DN, S2: -CM, S3: -GM, S4: -TM) against the full S0, revealing
    which stage matters in which scene — the situation-sensitivity that
    motivates the scene classifier.
    """
    configs = {"S0": "full", "S1": "-DN", "S2": "-CM", "S3": "-GM", "S4": "-TM"}
    out: Dict[str, Dict[str, float]] = {}
    for index in scene_indices:
        situation = situation_by_index(index)
        row = {}
        for isp, label in configs.items():
            stats = evaluate_sequence(
                situation, isp, "ROI 1", n_frames=n_frames, seed=seed
            )
            row[label] = stats.bad_frame_rate()
        out[situation.scene.value] = row
    return out


def format_ablation(title: str, points: Sequence[AblationPoint]) -> str:
    """Render an ablation sweep as a text table."""
    rows = [
        [p.setting, "CRASH" if p.crashed else f"{p.mae * 100:.2f} cm"]
        for p in points
    ]
    return format_table(["setting", "track MAE"], rows, title=title)
