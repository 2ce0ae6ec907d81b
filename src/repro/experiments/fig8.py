"""Fig. 8 — dynamic switching between situations on the Fig. 7 track.

Runs every design case (1-4 plus the variable-invocation scheme) over
the nine-sector track, reporting per-sector MAE normalized to case 3,
crash locations, and the paper's headline aggregate comparisons:

- case 3 vs cases 1/2 (robustness costs QoC: paper 55 % / 22 % worse),
- case 4 vs case 3 (ISP approximation recovers ~30 %),
- variable scheme vs cases 3/4 (paper: 32 % / 3 % better than 3 / 4).

Sectors a case never reaches (after a crash) are reported as
unreached; aggregates follow the paper's footnote 7 and only average
sectors completed without failure by the cases being compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import format_table
from repro.hil.batch import run_batch
from repro.hil.engine import HilConfig
from repro.hil.record import HilResult, SectorQoC
from repro.sim.track import Track
from repro.sim.world import fig7_track
from repro.utils.parallel import require_all, resolve_jobs

__all__ = ["DynamicCaseResult", "run_fig8", "format_fig8", "aggregate_improvements"]

CASES_FIG8 = ("case1", "case2", "case3", "case4", "variable")

#: Paper's aggregate numbers for the dynamic study.
PAPER_AGGREGATES = {
    ("case3", "case1"): 0.55,   # case 3 is 55 % worse than case 1
    ("case3", "case2"): 0.22,   # ... and 22 % worse than case 2
    ("case4", "case3"): 0.30,   # case 4 improves 30 % over case 3
    ("variable", "case3"): 0.32,
    ("variable", "case4"): 0.03,
}


@dataclass
class DynamicCaseResult:
    """One case's full-track run."""

    case: str
    result: HilResult
    sectors: List[SectorQoC] = field(default_factory=list)

    @property
    def crashed(self) -> bool:
        """Whether this case's run ended in a lane departure."""
        return self.result.crashed


def run_fig8(
    cases: Sequence[str] = CASES_FIG8,
    track: Optional[Track] = None,
    seed: int = 3,
    seeds: Optional[Sequence[int]] = None,
    config: Optional[HilConfig] = None,
    sector_skip_m: float = 15.0,
    identifier=None,
) -> Dict[str, DynamicCaseResult]:
    """Run the dynamic-track study for the requested cases.

    With multiple *seeds* the per-sector MAEs are averaged; a sector is
    completed only if every seed completes it (and the representative
    ``result`` trace is the first seed's).  A given *config* runs once
    per seed, with its seed replaced.  *identifier* optionally replaces
    the ground-truth oracle, e.g. a
    :class:`~repro.classifiers.runtime.CnnIdentifier`.  The rollouts go
    through :func:`repro.hil.batch.run_batch` with ``$REPRO_JOBS``
    workers.
    """
    track = track or fig7_track()
    seed_list = list(seeds) if seeds is not None else [seed]
    base = config or HilConfig()
    runs = iter(
        require_all(
            run_batch(
                [replace(base, seed=s) for _ in cases for s in seed_list],
                track=track,
                case=[case for case in cases for _ in seed_list],
                identifier=identifier,
                jobs=resolve_jobs(None),
            ),
            "fig8",
        )
    )
    results: Dict[str, DynamicCaseResult] = {}
    for case in cases:
        per_seed = [next(runs) for _ in seed_list]
        results[case] = DynamicCaseResult(
            case=case,
            result=per_seed[0],
            sectors=_merge_sector_runs(
                [run.sector_qoc(track, skip_distance_m=sector_skip_m) for run in per_seed]
            ),
        )
    return results


def _merge_sector_runs(per_seed_sectors) -> List[SectorQoC]:
    """Average per-sector QoC across seeds (worst-case on completion)."""
    merged: List[SectorQoC] = []
    for group in zip(*per_seed_sectors):
        maes = [s.mae for s in group if s.mae is not None]
        merged.append(
            SectorQoC(
                sector=group[0].sector,
                s_start=group[0].s_start,
                s_end=group[0].s_end,
                mae=float(np.mean(maes)) if maes else None,
                reached=any(s.reached for s in group),
                completed=all(s.completed for s in group),
            )
        )
    return merged


def aggregate_improvements(
    results: Dict[str, DynamicCaseResult]
) -> Dict[tuple, float]:
    """Relative QoC differences over commonly-completed sectors.

    Returns ``(a, b) -> relative``, where positive values mean case *a*
    has a higher (worse) MAE than case *b* for the "worse" pairs, and
    the improvement fraction for the "improves" pairs — matching how
    the paper phrases each comparison.
    """
    out: Dict[tuple, float] = {}
    for pair in PAPER_AGGREGATES:
        a, b = pair
        if a not in results or b not in results:
            continue
        shared = [
            (sa.mae, sb.mae)
            for sa, sb in zip(results[a].sectors, results[b].sectors)
            if sa.completed and sb.completed and sa.mae is not None and sb.mae is not None
        ]
        if not shared:
            continue
        mae_a = float(np.mean([m for m, _ in shared]))
        mae_b = float(np.mean([m for _, m in shared]))
        if pair in (("case3", "case1"), ("case3", "case2")):
            out[pair] = mae_a / mae_b - 1.0  # how much worse a is
        else:
            out[pair] = 1.0 - mae_a / mae_b  # how much a improves on b
    return out


def format_fig8(results: Dict[str, DynamicCaseResult]) -> str:
    """Per-sector normalized MAE plus the aggregate comparisons."""
    reference = results.get("case3")
    n_sectors = len(reference.sectors) if reference else 0
    rows = []
    for sector_idx in range(1, n_sectors + 1):
        cells = []
        for case in CASES_FIG8:
            if case not in results:
                cells.append("-")
                continue
            sector = results[case].sectors[sector_idx - 1]
            ref = reference.sectors[sector_idx - 1]
            if sector.failed:
                cells.append("FAIL")
            elif not sector.reached:
                cells.append("n/r")
            elif sector.mae is None or ref.mae in (None, 0.0):
                cells.append("-")
            else:
                cells.append(f"{sector.mae / ref.mae:.2f}")
        rows.append([str(sector_idx), *cells])
    text = format_table(
        ["sector", *CASES_FIG8],
        rows,
        title="Fig. 8 — dynamic per-sector QoC normalized to case 3 "
        "(FAIL = crash, n/r = not reached)",
    )

    aggregates = aggregate_improvements(results)
    lines = ["", "aggregates (ours vs paper):"]
    for pair, value in aggregates.items():
        paper = PAPER_AGGREGATES[pair]
        if pair in (("case3", "case1"), ("case3", "case2")):
            lines.append(
                f"  {pair[0]} worse than {pair[1]}: {value * 100:+.0f}% "
                f"(paper: +{paper * 100:.0f}%)"
            )
        else:
            lines.append(
                f"  {pair[0]} improves on {pair[1]}: {value * 100:+.0f}% "
                f"(paper: +{paper * 100:.0f}%)"
            )
    return text + "\n".join(lines)
