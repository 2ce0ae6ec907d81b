"""Fault-tolerance study: graceful degradation under fault campaigns.

The Fig. 6 companion for :mod:`repro.faults`: each scenario drives one
design case through a deterministic fault campaign twice — mitigation
off, then on (staleness watchdog + bounded retries, see
:class:`repro.core.reconfiguration.MitigationConfig`) — and records
crash/QoC/degradation per arm.  The flagship scenario is a classifier
outage across a turn entry: the unmitigated design carries a stale
straight-road belief into the curve at full speed, while the mitigated
one holds a conservative speed until identification returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.common import format_table
from repro.faults.plan import FaultPlan, resolve_fault_plan
from repro.hil.batch import run_batch
from repro.hil.engine import HilConfig
from repro.hil.record import HilResult
from repro.utils.parallel import require_all, resolve_jobs

__all__ = [
    "FaultScenario",
    "FaultArmResult",
    "FaultScenarioResult",
    "DEFAULT_SCENARIOS",
    "run_fault_tolerance",
    "format_fault_tolerance",
]


@dataclass(frozen=True)
class FaultScenario:
    """One named (track, case, fault campaign) configuration."""

    name: str
    #: Fault plan spec: preset name or ``kind@start:end`` string.
    faults: str
    case: str = "case3"
    situation_index: int = 8
    track_length_m: float = 150.0
    #: Straight lead-in before a turn situation's curve (track default
    #: when ``None``); the outage scenarios stretch it so the blind
    #: window ends while a conservative vehicle is still on the straight.
    lead_in_m: Optional[float] = None
    seed: int = 3


#: The benchmark's scenario set (see each scenario's comment).
DEFAULT_SCENARIOS: Tuple[FaultScenario, ...] = (
    # Classifier outage across the turn entry: stale straight belief at
    # 50 kmph vs conservative hold until identification recovers.  The
    # long lead-in makes the blind window end before the slow vehicle
    # reaches the curve — the mitigation's time-buying effect.
    FaultScenario(
        name="blind-turn-outage",
        faults="outage@1500:12300",
        lead_in_m=120.0,
    ),
    # Flaky accelerator: invocations time out 70 % of the time; the
    # bounded retry recovers identification within the same windows.
    FaultScenario(
        name="flaky-classifiers",
        faults="timeout@1500:inf,probability=0.7",
    ),
    # Everything at once at survivable intensities, on an easy road.
    FaultScenario(
        name="stress-straight",
        faults="stress",
        situation_index=1,
    ),
)


@dataclass
class FaultArmResult:
    """One arm (mitigation off or on) of a scenario."""

    mitigated: bool
    crashed: bool
    mae: float
    degraded_fraction: float
    fault_kinds: Tuple[str, ...]

    def describe(self) -> str:
        """``"CRASH"`` or the MAE in centimetres."""
        return "CRASH" if self.crashed else f"{self.mae * 100:.2f} cm"


@dataclass
class FaultScenarioResult:
    """Both arms of one scenario."""

    scenario: FaultScenario
    plan: FaultPlan
    baseline: FaultArmResult
    mitigated: FaultArmResult

    @property
    def mitigation_wins(self) -> bool:
        """Mitigation strictly better: survives a baseline crash, or
        both survive and the mitigated MAE is lower."""
        if self.baseline.crashed:
            return not self.mitigated.crashed
        return not self.mitigated.crashed and self.mitigated.mae < self.baseline.mae


def _arm(result: HilResult, mitigated: bool) -> FaultArmResult:
    return FaultArmResult(
        mitigated=mitigated,
        crashed=result.crashed,
        mae=result.mae(skip_time_s=2.0),
        degraded_fraction=result.degraded_fraction(),
        fault_kinds=result.fault_kinds(),
    )


def _scenario_track(scenario: FaultScenario):
    from repro.core.situation import situation_by_index
    from repro.sim.world import static_situation_track

    situation = situation_by_index(scenario.situation_index)
    kwargs = {"length": scenario.track_length_m}
    if scenario.lead_in_m is not None:
        kwargs["lead_in"] = scenario.lead_in_m
    return static_situation_track(situation, **kwargs)


def run_fault_tolerance(
    scenarios: Optional[Sequence[FaultScenario]] = None,
    config: Optional[HilConfig] = None,
) -> List[FaultScenarioResult]:
    """Run every scenario with mitigation off and on.

    ``config`` overrides the base :class:`HilConfig` (tests shrink the
    frame); seed and fault plan always come from the scenario.  Both
    arms of every scenario go through :func:`repro.hil.batch.run_batch`
    in one call, with ``$REPRO_JOBS`` workers.
    """
    from repro.api import _build_config

    if scenarios is None:
        scenarios = DEFAULT_SCENARIOS
    plans = [resolve_fault_plan(scenario.faults) for scenario in scenarios]
    tracks = [_scenario_track(scenario) for scenario in scenarios]
    arms = [(k, mitigated) for k in range(len(scenarios)) for mitigated in (False, True)]
    # Both arms of every scenario in one driver call, each arm configured
    # exactly as ``repro.inject(faults=plan, mitigate=...)`` would be.
    runs = require_all(
        run_batch(
            [
                _build_config(config, scenarios[k].seed, None, False, plans[k], mitigated)
                for k, mitigated in arms
            ],
            track=[tracks[k] for k, _ in arms],
            case=[scenarios[k].case for k, _ in arms],
            jobs=resolve_jobs(None),
        ),
        "fault tolerance",
    )
    return [
        FaultScenarioResult(
            scenario=scenario,
            plan=plan,
            baseline=_arm(runs[2 * k], mitigated=False),
            mitigated=_arm(runs[2 * k + 1], mitigated=True),
        )
        for k, (scenario, plan) in enumerate(zip(scenarios, plans))
    ]


def format_fault_tolerance(results: Sequence[FaultScenarioResult]) -> str:
    """Fig. 6-style table: one row per scenario, one column per arm."""
    rows = []
    for r in results:
        rows.append(
            [
                r.scenario.name,
                r.scenario.case,
                ",".join(sorted({s.kind for s in r.plan.specs})),
                r.baseline.describe(),
                r.mitigated.describe(),
                f"{r.mitigated.degraded_fraction * 100:.0f} %",
                "yes" if r.mitigation_wins else "no",
            ]
        )
    return format_table(
        [
            "scenario",
            "case",
            "faults",
            "unmitigated",
            "mitigated",
            "degraded",
            "win",
        ],
        rows,
        title="Fault tolerance — QoC with graceful degradation off vs on "
        "(CRASH = lane departure)",
    )
