"""Fig. 6 — static per-situation robustness and QoC of cases 1-4.

Each situation is evaluated separately (no dynamic switching): one
closed-loop run per (situation, case), recording MAE and failure.  As
in the paper, all values are normalized to case 3 (the robust baseline)
per situation; a failure is a lane departure (crash).

Paper shape expectations: case 1 degrades/fails on turn situations
(worst on dotted and left-turn ones), case 2 recovers the coarse-layout
part, case 3 never fails, and case 4 trades a little day-straight
accuracy for the fastest sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.core.situation import Situation, situation_by_index
from repro.experiments.common import format_table, full_scale
from repro.hil.batch import run_batch
from repro.hil.engine import HilConfig
from repro.sim.world import static_situation_track
from repro.utils.parallel import require_all, resolve_jobs

__all__ = ["SituationCaseResult", "run_fig6", "format_fig6", "CASES_FIG6"]

CASES_FIG6 = ("case1", "case2", "case3", "case4")


@dataclass
class SituationCaseResult:
    """One bar of Fig. 6."""

    index: int
    situation: Situation
    case: str
    mae: float
    crashed: bool
    normalized: float = float("nan")


def _default_indices() -> List[int]:
    if full_scale():
        return list(range(1, 22))
    return [1, 5, 8, 13, 15, 20]


def run_fig6(
    indices: Optional[Sequence[int]] = None,
    track_length: float = 140.0,
    seeds: Sequence[int] = (3,),
    config: Optional[HilConfig] = None,
) -> List[SituationCaseResult]:
    """Run the static case matrix and normalize to case 3.

    With multiple *seeds* the MAE is averaged and a crash in any seed
    marks the (situation, case) as failed — matching how the paper
    treats robustness (one lane departure disqualifies a design).  A
    given *config* runs once per seed, with its seed replaced.  The
    rollouts go through :func:`repro.hil.batch.run_batch` with
    ``$REPRO_JOBS`` workers.
    """
    import numpy as np

    indices = list(indices) if indices is not None else _default_indices()
    base = config or HilConfig()
    situations = [situation_by_index(index) for index in indices]
    lanes = []  # (track, case, seed) per rollout, situation-major
    for situation in situations:
        track = static_situation_track(situation, length=track_length)
        lanes += [(track, case, seed) for case in CASES_FIG6 for seed in seeds]
    runs = iter(
        require_all(
            run_batch(
                [replace(base, seed=seed) for _, _, seed in lanes],
                track=[track for track, _, _ in lanes],
                case=[case for _, case, _ in lanes],
                jobs=resolve_jobs(None),
            ),
            "fig6",
        )
    )
    results: List[SituationCaseResult] = []
    for index, situation in zip(indices, situations):
        per_case: Dict[str, SituationCaseResult] = {}
        for case in CASES_FIG6:
            seed_runs = [next(runs) for _ in seeds]
            per_case[case] = SituationCaseResult(
                index=index,
                situation=situation,
                case=case,
                mae=float(np.mean([run.mae(skip_time_s=2.0) for run in seed_runs])),
                crashed=any(run.crashed for run in seed_runs),
            )
        reference = per_case["case3"].mae
        for case in CASES_FIG6:
            if reference > 0:
                per_case[case].normalized = per_case[case].mae / reference
            results.append(per_case[case])
    return results


def format_fig6(results: Sequence[SituationCaseResult]) -> str:
    """One row per situation, normalized MAE per case ('X' = failure)."""
    by_index: Dict[int, Dict[str, SituationCaseResult]] = {}
    for r in results:
        by_index.setdefault(r.index, {})[r.case] = r
    rows = []
    for index in sorted(by_index):
        group = by_index[index]
        cells = []
        for case in CASES_FIG6:
            r = group.get(case)
            if r is None:
                cells.append("-")
            elif r.crashed:
                cells.append("FAIL")
            else:
                cells.append(f"{r.normalized:.2f}")
        rows.append(
            [str(index), group[CASES_FIG6[0]].situation.describe(), *cells]
        )
    return format_table(
        ["#", "situation", *CASES_FIG6],
        rows,
        title="Fig. 6 — static QoC normalized to case 3 (FAIL = crash)",
    )
