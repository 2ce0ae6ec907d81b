"""Stable top-level entry points (``import repro; repro.simulate(...)``).

This module is the supported programmatic surface of the package: four
keyword-only functions that cover the common workflows without touching
engine plumbing —

- :func:`simulate` — one closed-loop HiL run;
- :func:`characterize` — the design-time knob sweep (Table III);
- :func:`profile` — a run with per-stage wall-clock measurement plus
  the Table II modeled latencies for comparison;
- :func:`inject` — a run under a fault campaign with graceful
  degradation enabled (see :mod:`repro.faults`);
- :func:`load_trace` / :func:`diff_traces` — read and compare the
  JSONL telemetry traces ``simulate(telemetry=...)`` writes (see
  :mod:`repro.telemetry`).

Stability contract (see also ``docs/DESIGN.md``): every public function
here takes keyword-only arguments, new parameters are only ever added
with defaults that preserve existing behaviour, and returned objects
only grow fields.  Everything below :mod:`repro.api` (engine classes,
manager internals) may change between versions; scripts that stick to
this module keep working.  The ``API002`` lint rule enforces the
keyword-only + docstring convention mechanically.

Deprecation history: the ``window_ms`` alias of
``ReconfigurationManager``'s ``invocation_window_ms`` (deprecated in
1.1.0 with a ``DeprecationWarning`` shim) was removed in 1.3.0 —
passing it now raises ``TypeError``.

All heavy imports are deferred into the function bodies, so
``import repro`` stays cheap.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from pathlib import Path

    from repro.core.cases import CaseConfig
    from repro.core.characterization import CharacterizationConfig, KnobEvaluation
    from repro.core.knobs import KnobSetting
    from repro.core.reconfiguration import MitigationConfig, SituationIdentifier
    from repro.core.situation import Situation
    from repro.faults.plan import FaultPlan
    from repro.hil.engine import HilConfig
    from repro.hil.record import HilResult
    from repro.sim.track import Track
    from repro.telemetry.trace import RunTrace

__all__ = [
    "simulate",
    "characterize",
    "profile",
    "inject",
    "load_trace",
    "diff_traces",
    "ProfileReport",
]


def _coerce_situation(situation: Union[int, Situation]) -> Situation:
    """A :class:`Situation` from a Table III index or an instance."""
    from repro.core.situation import Situation, situation_by_index

    if isinstance(situation, Situation):
        return situation
    return situation_by_index(situation)


def _coerce_track(
    track: Optional[Track],
    situation: Union[int, Situation],
    length_m: float,
) -> Tuple[Track, Situation]:
    """The track to simulate on (an explicit one wins over *situation*)."""
    from repro.sim import static_situation_track

    resolved = _coerce_situation(situation)
    if track is not None:
        return track, resolved
    return static_situation_track(resolved, length=length_m), resolved


def _build_config(
    config: Optional[HilConfig],
    seed: Optional[int],
    frame: Optional[Tuple[int, int]],
    profile: bool,
    faults: Union[FaultPlan, str, None],
    mitigate: Union[bool, MitigationConfig],
) -> HilConfig:
    """Merge the convenience keywords over the base :class:`HilConfig`.

    Only explicitly-provided keywords override the base; ``None`` /
    ``False`` leave the base untouched, so ``config=`` composes with the
    shortcuts instead of fighting them.
    """
    from dataclasses import replace

    from repro.core.reconfiguration import MitigationConfig
    from repro.faults.plan import resolve_fault_plan
    from repro.hil.engine import HilConfig

    base = config if config is not None else HilConfig()
    overrides: Dict[str, object] = {}
    if seed is not None:
        overrides["seed"] = seed
    if frame is not None:
        width, height = frame
        overrides["frame_width"] = int(width)
        overrides["frame_height"] = int(height)
    if profile:
        overrides["profile"] = True
    if faults is not None:
        overrides["fault_plan"] = resolve_fault_plan(faults)
    if mitigate is True:
        overrides["mitigation"] = MitigationConfig()
    elif isinstance(mitigate, MitigationConfig):
        overrides["mitigation"] = mitigate
    if not overrides:
        return base
    return replace(base, **overrides)


def simulate(
    *,
    situation: Union[int, Situation] = 1,
    case: Union[str, CaseConfig] = "case3",
    track: Optional[Track] = None,
    length_m: float = 150.0,
    identifier: Union[SituationIdentifier, str, None] = None,
    table: Optional[Dict[Situation, KnobSetting]] = None,
    faults: Union[FaultPlan, str, None] = None,
    mitigate: Union[bool, MitigationConfig] = False,
    seed: Union[int, Sequence[int], None] = None,
    frame: Optional[Tuple[int, int]] = None,
    profile: bool = False,
    telemetry: Union[str, Path, None] = None,
    batch: Union[int, str, None] = None,
    cache: Union[str, Path, None] = None,
    config: Optional[HilConfig] = None,
) -> Union[HilResult, list[HilResult]]:
    """Run one closed-loop HiL simulation and return its trace.

    Parameters
    ----------
    situation:
        Table III situation index (1-21) or a :class:`Situation`; it
        defines the static track unless ``track`` is given.
    case:
        Design case name (``"case1"`` .. ``"case4"``, ``"variable"``,
        ``"adaptive"``) or a :class:`CaseConfig`.
    track:
        An explicit :class:`Track` (e.g. the Fig. 7 dynamic layout);
        overrides ``situation``/``length_m`` for the geometry while
        ``situation`` still seeds the initial belief via the track.
    length_m:
        Length of the generated static track in metres.
    identifier:
        Situation identifier: an instance, a registry spec such as
        ``"oracle:0.99"`` or ``"cnn"`` (see
        :mod:`repro.core.identifiers`), or ``None`` for the perfect
        oracle.
    table:
        Situation -> knob characterization table (``None`` uses the
        built-in default characterization).
    faults:
        Fault campaign: a :class:`~repro.faults.plan.FaultPlan`, a
        preset name (``"blackout"``, ``"stress"`` ...), or a spec
        string like ``"timeout@1500:inf,probability=0.5"``.
    mitigate:
        ``True`` enables graceful degradation with default policy; a
        :class:`MitigationConfig` customizes it; ``False`` leaves the
        base config's setting.
    seed:
        Run seed (any integer, numpy integers included); ``None`` keeps
        the base config's seed.  A *sequence* of integer seeds runs a
        lock-step Monte-Carlo batch and returns a ``list[HilResult]``
        in seed order; any other element type raises ``TypeError``.
        One run loop serves both: a single seed is a sequence of one,
        and every seed is simulated as its own lane through
        :class:`repro.hil.batch.BatchedHilEngine` (vectorized
        render/ISP/perception kernels, each lane bit-identical to a
        run of that seed alone).
    frame:
        ``(width, height)`` of the simulated camera frame.
    profile:
        Measure per-stage wall clock (attached to ``result.profile``).
    telemetry:
        Path of a JSONL telemetry trace to write: the run executes with
        a scoped :class:`~repro.telemetry.TelemetryRecorder` and its
        manifest + event stream are persisted atomically (see
        :mod:`repro.telemetry`).  ``None`` (the default) records
        nothing extra; the simulated trace is bit-identical either way.
        Incompatible with a seed sequence (the per-cycle event streams
        of lock-step lanes would interleave in one trace).
    batch:
        Lane count per lock-step chunk: explicit int > ``$REPRO_BATCH``
        > ``"auto"``/``None`` (see
        :func:`repro.utils.parallel.resolve_batch`).  A single seed is
        always a chunk of one.
    cache:
        Rollout result cache (see :mod:`repro.cache`): ``None``/
        ``"off"`` disable it, ``"auto"`` uses the default store under
        the cache dir, a path uses an explicit store root.  A hit
        returns a :class:`HilResult` bit-identical to the rerun it
        replaces (the stored manifest keeps the *original* run's
        wall-clock).  Profiled runs, ``telemetry=`` runs and
        non-spec-string identifiers always run live, and
        ``REPRO_NO_CACHE=1`` disables caching globally.  The lookup
        is per seed and precedes any simulation: every seed's key is
        loaded, only the misses are chunked into lock-step lanes (so
        partial hits only roll the misses, bit-identical because lanes
        are independent), and the fresh results are stored once they
        are all rolled (:func:`repro.hil.batch.run_batch`).
    config:
        Base :class:`HilConfig`; the keywords above override it field
        by field.
    """
    from repro.cache import resolve_cache
    from repro.hil.batch import run_batch
    from repro.telemetry import TelemetryRecorder, activated, write_trace

    resolved_track, _ = _coerce_track(track, situation, length_m)
    single = seed is None or isinstance(seed, numbers.Integral)
    seeds = [seed] if single else list(seed)
    if not single and telemetry is not None:
        raise ValueError(
            "telemetry= records one run's event stream; it cannot be "
            "combined with a seed sequence (run the seeds one at a time)"
        )
    configs = [
        _build_config(
            config, None if s is None else operator.index(s), frame, profile,
            faults, mitigate,
        )
        for s in seeds
    ]
    # A telemetry run bypasses the cache outright: recording the run is
    # its point.  (A profiled run has no key, so it always runs live.)
    store = resolve_cache(cache) if telemetry is None else None
    recorder = TelemetryRecorder() if telemetry is not None else None
    with activated(recorder):
        results = run_batch(
            configs,
            track=resolved_track,
            case=case,
            table=table,
            identifier=identifier,
            batch=batch,
            cache=store,
        )
    if recorder is not None:
        write_trace(telemetry, results[0].manifest, recorder.events)
    return results[0] if single else results


def characterize(
    *,
    situation: Union[int, Situation, None] = None,
    situations: Optional[Sequence[Union[int, Situation]]] = None,
    config: Optional[CharacterizationConfig] = None,
    use_cache: bool = True,
    verbose: bool = False,
    jobs: Optional[int] = None,
    batch: Union[int, str, None] = None,
    cache: Union[str, Path, None] = None,
) -> Union[Dict[Situation, KnobSetting], list[KnobEvaluation]]:
    """Design-time knob characterization (the Table III sweep).

    With ``situation`` (a single index or :class:`Situation`) the full
    ranked list of knob evaluations for that situation is returned —
    the per-row view the CLI prints.  Otherwise the situation -> best
    knob table is built for ``situations`` (default: all of Table III),
    reusing cached rollouts unless ``use_cache=False``.
    ``jobs`` fans independent evaluations across a process pool;
    ``batch`` sizes the lock-step lane chunk each worker advances
    through the batched rollout engine (explicit int > ``$REPRO_BATCH``
    > ``"auto"``).  Results are bit-identical for any ``(jobs, batch)``
    and for any cache state (hits load results byte-equal to reruns).
    ``cache`` overrides the store selection like ``simulate``'s
    keyword: ``"auto"`` (the ``use_cache=True`` default), ``"off"``,
    or an explicit store root.
    """
    from repro.core.characterization import (
        CharacterizationConfig,
        characterize as characterize_table,
        characterize_situation,
    )
    from repro.core.situation import TABLE3_SITUATIONS

    if situation is not None and situations is not None:
        raise ValueError("pass either situation= or situations=, not both")
    cfg = config if config is not None else CharacterizationConfig()
    if situation is not None:
        return characterize_situation(
            _coerce_situation(situation), cfg, jobs=jobs, batch=batch,
            cache=cache if cache is not None else ("auto" if use_cache else None),
        )
    resolved = (
        tuple(_coerce_situation(s) for s in situations)
        if situations is not None
        else TABLE3_SITUATIONS
    )
    return characterize_table(
        resolved, cfg, use_cache=use_cache, verbose=verbose, jobs=jobs,
        batch=batch, cache=cache,
    )


@dataclass
class ProfileReport:
    """Result of :func:`profile`: the run plus modeled latencies."""

    #: The closed-loop trace (``result.profile`` holds measured stats).
    result: HilResult
    #: Stage label -> Table II / Table IV modeled latency on Xavier.
    modeled_ms: Dict[str, float]

    def table(self) -> str:
        """Measured-vs-modeled stage table as text."""
        from repro.utils.profiling import format_stage_table

        return format_stage_table(
            self.result.profile or {}, modeled_ms=self.modeled_ms
        )


def _modeled_latencies(result: HilResult) -> Dict[str, float]:
    """Modeled per-stage latencies matching the run's actual knobs.

    Stages without a paper figure (the renderer is simulation
    scaffolding; per-ISP-stage splits are not profiled) are omitted, as
    is the ISP when the run switched configurations mid-trace (no
    single modeled number applies).
    """
    from repro.platform.profiles import (
        classifier_runtime_ms,
        control_runtime_ms,
        isp_runtime_ms,
        pr_runtime_ms,
    )

    modeled = {
        "hil.pr": pr_runtime_ms(),
        "hil.control": control_runtime_ms(),
    }
    isp_names = {c.active_isp for c in result.cycles}
    if len(isp_names) == 1:
        modeled["hil.isp"] = isp_runtime_ms(next(iter(isp_names)))
    clf_names = sorted({name for c in result.cycles for name in c.invoked})
    if clf_names:
        modeled["hil.classifier"] = sum(
            classifier_runtime_ms(name) for name in clf_names
        ) / len(clf_names)
    return modeled


def profile(
    *,
    situation: Union[int, Situation] = 1,
    case: Union[str, CaseConfig] = "case4",
    track: Optional[Track] = None,
    length_m: float = 60.0,
    identifier: Union[SituationIdentifier, str, None] = None,
    seed: Optional[int] = None,
    frame: Optional[Tuple[int, int]] = None,
    config: Optional[HilConfig] = None,
) -> ProfileReport:
    """Run a simulation with stage profiling and modeled-latency context.

    Same semantics as :func:`simulate` (profiling forced on); returns a
    :class:`ProfileReport` whose :meth:`~ProfileReport.table` renders
    the measured-vs-modeled comparison.  Profiling is observational
    only: the returned trace is bit-identical to an unprofiled run.
    """
    result = simulate(
        situation=situation,
        case=case,
        track=track,
        length_m=length_m,
        identifier=identifier,
        seed=seed,
        frame=frame,
        profile=True,
        config=config,
    )
    return ProfileReport(result=result, modeled_ms=_modeled_latencies(result))


def inject(
    *,
    faults: Union[FaultPlan, str],
    situation: Union[int, Situation] = 1,
    case: Union[str, CaseConfig] = "case3",
    track: Optional[Track] = None,
    length_m: float = 150.0,
    identifier: Union[SituationIdentifier, str, None] = None,
    table: Optional[Dict[Situation, KnobSetting]] = None,
    mitigate: Union[bool, MitigationConfig] = True,
    seed: Optional[int] = None,
    frame: Optional[Tuple[int, int]] = None,
    config: Optional[HilConfig] = None,
) -> HilResult:
    """Run a simulation under a fault campaign (mitigation on by default).

    ``faults`` is required: a :class:`~repro.faults.plan.FaultPlan`, a
    preset name (see ``FAULT_PLAN_PRESETS``), or a spec string such as
    ``"blackout@2000:2800;timeout@1500:inf,probability=0.5"``.  Pass
    ``mitigate=False`` for the unmitigated baseline; the returned
    trace's ``degraded_fraction()`` and ``fault_kinds()`` summarize the
    campaign's footprint.
    """
    return simulate(
        situation=situation,
        case=case,
        track=track,
        length_m=length_m,
        identifier=identifier,
        table=table,
        faults=faults,
        mitigate=mitigate,
        seed=seed,
        frame=frame,
        config=config,
    )


def load_trace(*, path: Union[str, Path]) -> RunTrace:
    """Load a JSONL telemetry trace written by ``simulate(telemetry=...)``.

    Returns a :class:`~repro.telemetry.RunTrace` carrying the run
    manifest (config hash, package version, RNG streams, env knobs)
    and the schema-versioned event stream in emit order.
    """
    from repro.telemetry import load_trace as _load_trace

    return _load_trace(path)


def diff_traces(
    *, a: Union[str, Path], b: Union[str, Path]
) -> list[str]:
    """Compare two telemetry trace files; an empty list means equivalent.

    Stable manifest fields and the full event streams are compared;
    the volatile wall-clock bounds are ignored, so two runs of the same
    seeded experiment diff empty.  Each returned string describes one
    difference (``python -m repro trace --diff`` prints them and exits
    2 when any exist).
    """
    from repro.telemetry import diff_traces as _diff_traces
    from repro.telemetry import load_trace as _load_trace

    return _diff_traces(_load_trace(a), _load_trace(b))
