"""Hardware- and situation-aware characterization (paper Sec. III-B).

For each situation the knob space (ISP configuration x ROI x vehicle
speed) is evaluated in closed-loop HiL simulation and the tuning with
the best QoC (lowest MAE, crashes disqualify) is recorded — the
reproduction of Table III.

A frame-level prescreen (:func:`repro.perception.evaluation.evaluate_sequence`)
first filters ISP configurations that cannot detect lanes in the
situation at all; the closed-loop budget is then spent on the
survivors: the cheapest detectable configuration (it buys the fastest
sampling period), the most accurate one, and the full pipeline S0.
ROI candidates are the layout-consistent presets.  This mirrors how the
paper prunes with Monte-Carlo sensitivity analysis before HiL runs.

Every evaluation (a prescreen sequence or a closed-loop run) is an
independent, self-seeded simulation, so the sweep fans out across a
process pool (:func:`repro.utils.parallel.parallel_map`): the flat work
list — situation x ISP candidate x ROI x speed — is mapped across
``jobs`` workers and reassembled in submission order, producing a table
bit-identical to the serial path for any worker count.  ``jobs=1``
(the default) never spawns a process.

On top of the process fan-out, ``batch`` composes: each work item
shipped to a worker is a *lane chunk* of up to ``batch`` same-situation
evaluations, advanced lock-step through the one rollout driver
(:func:`repro.hil.batch.run_batch`) or the batched prescreen
(:func:`repro.perception.evaluation.evaluate_sequence_batch`), so the
vectorized render/ISP/perception kernels amortize numpy dispatch across
the whole chunk.  Lane order inside a chunk and chunk order across the
sweep both follow submission order, and every lane is bit-identical to
its serial evaluation — the resulting table does not depend on
``(jobs, batch)``.  ``batch`` resolves explicit > ``$REPRO_BATCH`` >
auto (:func:`repro.utils.parallel.resolve_batch`); ``batch=1`` makes
every closed-loop chunk one lane of the same engine, and the prescreen
falls back to its serial reference kernel
(:func:`repro.perception.evaluation.evaluate_sequence`).

Every closed-loop rollout reads through the content-addressed rollout
store (:mod:`repro.cache`) when caching is on: the driver looks every
rollout up and writes every fresh one back in this (parent) process,
and only the misses go to the workers.  Prescreen bad-rate vectors are
small derived artifacts and use a plain ``ArtifactCache`` namespace
under the store root (``<root>/prescreen``), parent-side only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import RolloutCache, kernel_identity_tag, resolve_cache
from repro.core.cases import case_config
from repro.core.knobs import KnobSetting
from repro.core.situation import RoadLayout, Situation, TABLE3_SITUATIONS
from repro.isp.configs import ISP_CONFIGS
from repro.perception.evaluation import evaluate_sequence, evaluate_sequence_batch
from repro.platform.profiles import isp_runtime_ms
from repro.sim.camera import CameraModel
from repro.utils.cache import ArtifactCache
from repro.utils.parallel import (
    TaskFailure,
    parallel_map,
    resolve_batch,
    resolve_jobs,
)

__all__ = [
    "CharacterizationConfig",
    "KnobEvaluation",
    "roi_candidates",
    "prescreen_isp",
    "characterize_situation",
    "characterize",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CharacterizationConfig:
    """Sweep parameters."""

    isp_names: Tuple[str, ...] = tuple(ISP_CONFIGS)
    speeds_kmph: Tuple[float, ...] = (30.0, 50.0)
    track_length: float = 110.0
    prescreen_frames: int = 40
    prescreen_bad_limit: float = 0.25
    max_isp_candidates: int = 3
    #: Knob settings whose MAE is within this relative band of the best
    #: are considered QoC ties; the faster (smaller h, then tau) design
    #: point wins the tie, as nothing distinguishes them statistically.
    tie_tolerance: float = 0.15
    #: Frame size of the closed-loop runs (the HiL engine default; tests
    #: shrink it to keep tiny sweeps fast).
    frame_width: int = 384
    frame_height: int = 192
    seed: int = 11

    def to_config(self) -> Dict[str, object]:
        """JSON-friendly form for cache hashing."""
        from repro.sim.renderer import RENDERER_VERSION

        return {
            "isp": list(self.isp_names),
            "speeds": list(self.speeds_kmph),
            "track_length": self.track_length,
            "prescreen_frames": self.prescreen_frames,
            "prescreen_bad_limit": self.prescreen_bad_limit,
            "max_isp_candidates": self.max_isp_candidates,
            "tie_tolerance": self.tie_tolerance,
            "frame": [self.frame_width, self.frame_height],
            "seed": self.seed,
            "renderer_version": RENDERER_VERSION,
        }


@dataclass
class KnobEvaluation:
    """Closed-loop result of one knob setting in one situation."""

    knobs: KnobSetting
    mae: float
    crashed: bool
    period_ms: float
    delay_ms: float

    def sort_key(self) -> Tuple[int, float]:
        """Ordering key: crashes last, then ascending MAE."""
        return (1 if self.crashed else 0, self.mae)


def roi_candidates(situation: Situation) -> List[str]:
    """Layout-consistent ROI presets to sweep for a situation."""
    if situation.layout is RoadLayout.STRAIGHT:
        return ["ROI 1"]
    if situation.layout is RoadLayout.RIGHT:
        return ["ROI 2", "ROI 3"]
    return ["ROI 4", "ROI 5"]


# ---------------------------------------------------------------------------
# prescreen work specs + workers (module-level so a process pool can
# ship them), and the closed-loop grid the rollout driver evaluates


@dataclass(frozen=True)
class _PrescreenTask:
    """One frame-level detectability evaluation (situation x ISP)."""

    situation: Situation
    isp: str
    config: CharacterizationConfig


def _prescreen_worker(task: _PrescreenTask) -> float:
    """Bad-frame rate of one ISP configuration in one situation."""
    config = task.config
    roi = roi_candidates(task.situation)[-1]  # widest layout-consistent preset
    stats = evaluate_sequence(
        task.situation,
        task.isp,
        roi,
        n_frames=config.prescreen_frames,
        seed=config.seed,
        camera=CameraModel(width=config.frame_width, height=config.frame_height),
    )
    return stats.bad_frame_rate()


def _evaluate_result(knobs: KnobSetting, case, result) -> KnobEvaluation:
    """The :class:`KnobEvaluation` a rollout trace implies.

    Pure function of the (byte-exact) trace, so a cache hit scores
    identically to the run it replaced.
    """
    timing = knobs.timing(case.classifier_budget(), dynamic_isp=True)
    return KnobEvaluation(
        knobs=knobs,
        mae=result.mae(skip_time_s=2.0),
        crashed=result.crashed,
        period_ms=timing.period_ms,
        delay_ms=timing.delay_ms,
    )


@dataclass(frozen=True)
class _PrescreenChunk:
    """A lane chunk of same-situation prescreens (shared render)."""

    situation: Situation
    isps: Tuple[str, ...]
    config: CharacterizationConfig


def _prescreen_chunk_worker(chunk: _PrescreenChunk) -> Tuple[float, ...]:
    """Bad-frame rates of a lane chunk of ISP configs, lock-step."""
    config = chunk.config
    roi = roi_candidates(chunk.situation)[-1]  # widest layout-consistent preset
    stats = evaluate_sequence_batch(
        chunk.situation,
        list(chunk.isps),
        roi,
        n_frames=config.prescreen_frames,
        seed=config.seed,
        camera=CameraModel(width=config.frame_width, height=config.frame_height),
    )
    return tuple(s.bad_frame_rate() for s in stats)


def _chunked(items: Sequence, size: int) -> List[tuple]:
    """Split *items* into consecutive tuples of at most *size*."""
    return [tuple(items[i : i + size]) for i in range(0, len(items), size)]


def _knob_grid(
    situation: Situation,
    isp_candidates: Sequence[str],
    config: CharacterizationConfig,
) -> List[KnobSetting]:
    """The closed-loop knob settings for one situation, in sweep order."""
    return [
        KnobSetting(isp=isp, roi=roi, speed_kmph=speed)
        for isp in isp_candidates
        for roi in roi_candidates(situation)
        for speed in config.speeds_kmph
    ]


def _rollout_config(config: CharacterizationConfig):
    """The :class:`~repro.hil.engine.HilConfig` of every sweep rollout."""
    # Imported here: the HiL engine composes the whole system, and a
    # module-level import would make repro.core depend on repro.hil
    # circularly (hil's engine imports repro.core.reconfiguration).
    from repro.hil.engine import HilConfig

    return HilConfig(
        seed=config.seed,
        frame_width=config.frame_width,
        frame_height=config.frame_height,
    )


def _collect_outcomes(
    results: Sequence[Union[KnobEvaluation, TaskFailure]],
    situation: Situation,
) -> List[KnobEvaluation]:
    """Drop failed evaluations (already logged by the runner); require one."""
    outcomes = [r for r in results if not isinstance(r, TaskFailure)]
    if not outcomes:
        raise RuntimeError(
            f"every knob evaluation failed for situation "
            f"'{situation.describe()}'"
        )
    return outcomes


# ---------------------------------------------------------------------------
# sweep drivers


def _prescreen_keys(
    situations: Sequence[Situation], config: CharacterizationConfig
) -> Dict[Situation, Dict[str, object]]:
    """Cache key of each situation's prescreen bad-rate vector; the
    config and kernel parts are derived once for the whole sweep."""
    shared = {"config": config.to_config(), "kernel": kernel_identity_tag()}
    return {
        situation: {"situation": situation.to_config(), **shared}
        for situation in situations
    }


def _load_prescreen(
    cache: ArtifactCache, key: Dict[str, object], config: CharacterizationConfig
) -> Optional[List[Tuple[str, float]]]:
    """The cached (isp, bad_rate) list under a prescreen key, or ``None``."""
    cached = cache.load(key)
    if cached is None or "rates" not in cached:
        return None
    rates = cached["rates"]
    if len(rates) != len(config.isp_names):
        return None
    return [
        (isp, float(rate)) for isp, rate in zip(config.isp_names, rates)
    ]


def _store_prescreen(
    cache: ArtifactCache,
    key: Dict[str, object],
    prescreen: Sequence[Tuple[str, float]],
) -> None:
    """Persist a situation's prescreen bad-rate vector (parent only)."""
    cache.store(
        key, {"rates": np.array([rate for _, rate in prescreen], dtype=float)}
    )


def _prescreen_all(
    situations: Sequence[Situation],
    config: CharacterizationConfig,
    n_jobs: int,
    batch: Union[int, str, None],
    cache: ArtifactCache,
) -> Dict[Situation, List[Tuple[str, float]]]:
    """Prescreen every situation without a cached bad-rate vector.

    The pending situations form one flat grid (situation x ISP) so a
    multi-situation sweep saturates ``n_jobs`` workers.  Lane chunks
    never span situations (their lanes share one rendered sequence);
    ``batch=1`` runs the serial reference kernel per (situation, ISP).
    """
    prescreens: Dict[Situation, List[Tuple[str, float]]] = {}
    pending: List[Situation] = []
    keys = _prescreen_keys(situations, config)
    for situation in situations:
        cached = _load_prescreen(cache, keys[situation], config)
        if cached is not None:
            prescreens[situation] = cached
        else:
            pending.append(situation)
    if not pending:
        return prescreens
    n_isp = len(config.isp_names)
    lanes = resolve_batch(batch, n_isp * len(pending), n_jobs)
    if lanes <= 1:
        tasks = [
            _PrescreenTask(situation, isp, config)
            for situation in pending
            for isp in config.isp_names
        ]
        rates = parallel_map(_prescreen_worker, tasks, jobs=n_jobs, label="prescreen")
    else:
        chunks = [
            _PrescreenChunk(situation, isps, config)
            for situation in pending
            for isps in _chunked(config.isp_names, lanes)
        ]
        chunk_rates = parallel_map(
            _prescreen_chunk_worker, chunks, jobs=n_jobs, label="prescreen"
        )
        rates = []
        for chunk, result in zip(chunks, chunk_rates):
            if isinstance(result, TaskFailure):
                rates.extend([result] * len(chunk.isps))
            else:
                rates.extend(result)
    for i, situation in enumerate(pending):
        prescreen = [
            (isp, 1.0 if isinstance(rate, TaskFailure) else rate)
            for isp, rate in zip(config.isp_names, rates[i * n_isp : (i + 1) * n_isp])
        ]
        prescreens[situation] = prescreen
        _store_prescreen(cache, keys[situation], prescreen)
    return prescreens


def prescreen_isp(
    situation: Situation,
    config: CharacterizationConfig,
    jobs: Optional[int] = None,
    batch: Union[int, str, None] = None,
    use_cache: bool = False,
) -> List[Tuple[str, float]]:
    """Frame-level detectability of each ISP config: (name, bad_rate).

    A prescreen evaluation that crashes counts as fully undetectable
    (bad rate 1.0) so the sweep continues on the survivors.  ``batch``
    groups up to that many ISP configs per worker into one lock-step
    evaluation sharing the rendered sequence (bit-identical per lane;
    a failed chunk marks all its lanes undetectable).  ``use_cache``
    reuses the per-situation bad-rate vector from the artifact cache
    (float64 round-trips exactly, so cached and fresh prescreens select
    the same ISP candidates).
    """
    cache = ArtifactCache("prescreen", enabled=use_cache)
    return _prescreen_all([situation], config, resolve_jobs(jobs), batch, cache)[
        situation
    ]


def _select_isp_candidates(
    prescreen: Sequence[Tuple[str, float]], config: CharacterizationConfig
) -> List[str]:
    detectable = [
        (isp, bad) for isp, bad in prescreen if bad <= config.prescreen_bad_limit
    ]
    if not detectable:
        # Nothing passes: fall back to the least-bad configuration.
        detectable = [min(prescreen, key=lambda item: item[1])]
    candidates: List[str] = []
    cheapest = min(detectable, key=lambda item: isp_runtime_ms(item[0]))[0]
    candidates.append(cheapest)
    most_accurate = min(detectable, key=lambda item: item[1])[0]
    if most_accurate not in candidates:
        candidates.append(most_accurate)
    if "S0" in (isp for isp, _ in detectable) and "S0" not in candidates:
        candidates.append("S0")
    return candidates[: config.max_isp_candidates]


def _prescreen_cache(store: Optional[RolloutCache]) -> ArtifactCache:
    """The prescreen vectors' cache: ``<store root>/prescreen``, off
    without a store."""
    if store is None:
        return ArtifactCache("prescreen", enabled=False)
    return store.prescreens()


def _rankings(
    situations: Sequence[Situation],
    config: CharacterizationConfig,
    n_jobs: int,
    batch: Union[int, str, None],
    store: Optional[RolloutCache],
) -> Dict[Situation, List[KnobEvaluation]]:
    """Each situation's knob evaluations, sorted best first.

    The sweep is flattened across *all* situations — first the
    prescreen grid (situation x ISP), then the closed-loop grid
    (situation x ISP candidate x ROI x speed) in one driver call — so a
    multi-situation sweep saturates ``n_jobs`` workers even when single
    situations have few knob settings.  With a ``store``, the driver
    reads and writes rollouts through it, and the prescreen vectors are
    reused from ``<store root>/prescreen``.
    """
    from repro.hil.batch import run_batch
    from repro.sim.world import static_situation_track

    prescreens = _prescreen_all(
        situations, config, n_jobs, batch, _prescreen_cache(store)
    )
    case = case_config("case4")
    grids: Dict[Situation, List[KnobSetting]] = {}
    tracks: list = []
    tables: list = []
    for situation in situations:
        candidates = _select_isp_candidates(prescreens[situation], config)
        grids[situation] = _knob_grid(situation, candidates, config)
        # One track per situation: its lanes share the object, which
        # lets the driver chunk them together and group their renders.
        track = static_situation_track(situation, length=config.track_length)
        tracks += [track] * len(grids[situation])
        tables += [{situation: knobs} for knobs in grids[situation]]
    results = iter(
        run_batch(
            [_rollout_config(config)] * len(tables),
            track=tracks,
            case=case,
            table=tables,
            jobs=n_jobs,
            batch=batch,
            cache=store,
        )
    )
    rankings: Dict[Situation, List[KnobEvaluation]] = {}
    for situation, grid in grids.items():
        scored = [
            result if isinstance(result, TaskFailure)
            else _evaluate_result(knobs, case, result)
            for knobs, result in zip(grid, results)
        ]
        evaluations = sorted(
            _collect_outcomes(scored, situation), key=KnobEvaluation.sort_key
        )
        rankings[situation] = _tie_break_by_speed(evaluations, config.tie_tolerance)
    return rankings


def _tie_break_by_speed(
    evaluations: List[KnobEvaluation], tolerance: float
) -> List[KnobEvaluation]:
    """Re-rank QoC ties in favour of the faster design point.

    Closed-loop MAE carries simulation noise; settings within
    ``tolerance`` (relative, plus a 2 mm floor) of the best are
    indistinguishable, and among them the design with the smaller
    sampling period (then delay, then higher speed knob) is preferred —
    it is the one the QoC argument of the paper favours.
    """
    if not evaluations or evaluations[0].crashed:
        return evaluations
    best_mae = evaluations[0].mae
    band = best_mae * (1.0 + tolerance) + 0.002

    def rank(ev: KnobEvaluation):
        tied = (not ev.crashed) and ev.mae <= band
        if tied:
            return (0, ev.period_ms, ev.delay_ms, -ev.knobs.speed_kmph, ev.mae)
        return (1, *ev.sort_key(), 0.0, 0.0)

    return sorted(evaluations, key=rank)


def characterize_situation(
    situation: Situation,
    config: CharacterizationConfig = CharacterizationConfig(),
    jobs: Optional[int] = None,
    batch: Union[int, str, None] = None,
    cache: Union[str, Path, None] = None,
) -> List[KnobEvaluation]:
    """Run the sweep for one situation; results sorted best first.

    ``jobs`` fans the independent evaluations out across a process pool
    (see :mod:`repro.utils.parallel`), ``batch`` sizes the lock-step
    lane chunks each worker advances through the batched rollout
    engine; the returned ranking is bit-identical for any combination.
    ``cache`` selects the rollout store (``"auto"``/``"off"``/path as
    for :func:`repro.api.simulate`; default off): this (parent) process
    looks every rollout up in it and writes every fresh one back, only
    the misses reach the workers, and the ranking is the same for any
    cache state because hits are byte-equal to reruns.
    """
    return _rankings(
        [situation], config, resolve_jobs(jobs), batch, resolve_cache(cache)
    )[situation]


def characterize(
    situations: Sequence[Situation] = TABLE3_SITUATIONS,
    config: CharacterizationConfig = CharacterizationConfig(),
    use_cache: bool = True,
    verbose: bool = False,
    jobs: Optional[int] = None,
    batch: Union[int, str, None] = None,
    cache: Union[str, Path, None] = None,
) -> Dict[Situation, KnobSetting]:
    """Build the situation -> best-knob table (the Table III artifact).

    The sweep is flattened across *all* situations and fanned out with
    :func:`repro.utils.parallel.parallel_map`; ``batch`` additionally
    sizes the lock-step lane chunk each worker advances in one batched
    rollout.  The result is bit-identical to ``jobs=1, batch=1`` for
    any ``(jobs, batch)`` composition.

    With caching on (``use_cache=True``, the default) every closed-loop
    rollout reads through the content-addressed rollout store
    (:mod:`repro.cache`) — this parent process looks every entry up and
    writes every fresh result back, and only the misses reach the
    workers — and each situation's prescreen bad-rate vector is reused
    from ``<store root>/prescreen``.  A warm sweep
    therefore recomputes nothing, and returns the same table because
    cache hits are byte-equal to the reruns they replace.  ``cache``
    overrides the store selection (``"auto"``/``"off"``/explicit root);
    by default ``use_cache`` picks ``"auto"`` or ``"off"``.
    """
    if cache is None:
        cache = "auto" if use_cache else None
    rankings = _rankings(
        situations, config, resolve_jobs(jobs), batch, resolve_cache(cache)
    )
    table: Dict[Situation, KnobSetting] = {}
    for situation, evaluations in rankings.items():
        best = evaluations[0]
        if verbose:
            _log.info(
                "%-42s -> %s %s v=%.0f mae=%.2fcm crash=%s",
                situation.describe(),
                best.knobs.isp,
                best.knobs.roi,
                best.knobs.speed_kmph,
                best.mae * 100,
                best.crashed,
            )
        table[situation] = best.knobs
    return table
