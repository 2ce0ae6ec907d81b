"""Perception evaluation harness.

Evaluates a detector over sequences of rendered frames along realistic
trajectories (smooth lateral offset / heading-error excursions around
the lane center) and reports detection-accuracy statistics.  This is
the machinery behind the Fig. 1 accuracy axis, and the development tool
used to calibrate the sensing stack: closed-loop stability problems
almost always show up here first as heavy error tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.situation import Situation
from repro.isp.pipeline import IspPipeline
from repro.metrics.accuracy import DetectionSample
from repro.perception.pipeline import (
    PerceptionPipeline,
    PerceptionResult,
    process_batch,
)
from repro.sim.camera import CameraModel
from repro.sim.geometry import Pose2D
from repro.sim.renderer import RoadSceneRenderer
from repro.sim.track import Track
from repro.sim.world import static_situation_track
from repro.utils.rng import derive_rng

__all__ = [
    "SequenceStats",
    "evaluate_sequence",
    "evaluate_sequence_batch",
    "trajectory_poses",
]


@dataclass
class SequenceStats:
    """Error statistics of one evaluated frame sequence."""

    samples: List[DetectionSample]
    errors: np.ndarray
    n_invalid: int

    @property
    def n_frames(self) -> int:
        """Number of evaluated frames."""
        return len(self.samples)

    def bad_frame_rate(self, threshold: float = 0.3) -> float:
        """Fraction of frames invalid or with |error| above *threshold*."""
        bad = self.n_invalid + int((self.errors > threshold).sum())
        return bad / max(self.n_frames, 1)

    def accuracy(self, tolerance: float = 0.3) -> float:
        """Fig. 1 style detection accuracy."""
        return 1.0 - self.bad_frame_rate(tolerance)


def trajectory_poses(
    track: Track,
    n_frames: int,
    seed: int,
    s_start: float = 15.0,
    spacing_m: float = 0.35,
    offset_amplitude: float = 0.25,
) -> List[Pose2D]:
    """Poses along the lane with smooth pseudo-random excursions.

    The lateral offset and heading error follow slow sinusoids with
    randomized phases — the closed loop visits exactly this kind of
    neighbourhood of the lane center, so sequential evaluation with
    temporal tracking behaves like the real loop.
    """
    rng = derive_rng(seed, "trajectory")
    phase_d = rng.uniform(0, 2 * np.pi)
    phase_p = rng.uniform(0, 2 * np.pi)
    wavelength = rng.uniform(40.0, 80.0)
    poses = []
    for i in range(n_frames):
        s = s_start + i * spacing_m
        d = offset_amplitude * np.sin(2 * np.pi * s / wavelength + phase_d)
        psi = (
            offset_amplitude
            * (2 * np.pi / wavelength)
            * np.cos(2 * np.pi * s / wavelength + phase_p)
        )
        center = track.pose_at(s, float(d))
        poses.append(Pose2D(center.x, center.y, center.heading + float(psi)))
    return poses


def _evaluate_lanes(
    situation: Situation,
    isps: List[str],
    camera: CameraModel,
    n_frames: int,
    seed: int,
    lookahead: float,
    track_length: float,
    detect: Callable[[List[np.ndarray]], List[PerceptionResult]],
) -> List[SequenceStats]:
    """The frame loop shared by the serial and the batched evaluation.

    Each frame is rendered once and run through every lane's ISP;
    ``detect`` maps the lanes' ISP outputs to their perception results,
    and each lane is scored against the same Frenet ground truth.
    """
    track = static_situation_track(situation, length=track_length)
    track_length = track.length  # curved tracks may be capped
    renderer = RoadSceneRenderer(camera, track, seed=seed)
    isp_pipelines = [IspPipeline(isp) for isp in isps]

    spacing = (track_length - 40.0) / n_frames
    poses = trajectory_poses(track, n_frames, seed, spacing_m=spacing)
    samples: List[List[DetectionSample]] = [[] for _ in isps]
    errors: List[List[float]] = [[] for _ in isps]
    n_invalid = [0] * len(isps)
    for pose in poses:
        raw = renderer.render_raw(pose, situation.scene)
        results = detect([pipeline.process(raw) for pipeline in isp_pipelines])
        look = pose.position() + lookahead * pose.forward()
        _, y_true = track.frenet(look[0], look[1])
        for lane, result in enumerate(results):
            samples[lane].append(
                DetectionSample(
                    measured_y_l=result.y_l,
                    true_y_l=float(y_true),
                    valid=result.valid,
                )
            )
            if result.valid:
                errors[lane].append(abs(result.y_l - float(y_true)))
            else:
                n_invalid[lane] += 1
    return [
        SequenceStats(
            samples=samples[lane],
            errors=np.asarray(errors[lane]),
            n_invalid=n_invalid[lane],
        )
        for lane in range(len(isps))
    ]


def evaluate_sequence(
    situation: Situation,
    isp: str,
    roi: str,
    n_frames: int = 120,
    seed: int = 0,
    camera: Optional[CameraModel] = None,
    temporal_tracking: bool = True,
    lookahead: float = 5.5,
    track_length: float = 250.0,
    detector: Optional[Callable[[np.ndarray], PerceptionResult]] = None,
) -> SequenceStats:
    """Render a frame sequence for one situation and measure errors.

    Parameters
    ----------
    situation, isp, roi:
        The sensing configuration under evaluation.
    detector:
        Optional replacement for the sliding-window pipeline (e.g. the
        dense baseline); receives the ISP output frame.
    """
    camera = camera or CameraModel(width=384, height=192)
    if detector is None:
        detector = PerceptionPipeline(
            camera, roi, lookahead=lookahead, temporal_tracking=temporal_tracking
        ).process
    return _evaluate_lanes(
        situation, [isp], camera, n_frames, seed, lookahead, track_length,
        lambda rgbs: [detector(rgbs[0])],
    )[0]


def evaluate_sequence_batch(
    situation: Situation,
    isps: List[str],
    roi: str,
    n_frames: int = 120,
    seed: int = 0,
    camera: Optional[CameraModel] = None,
    temporal_tracking: bool = True,
    lookahead: float = 5.5,
    track_length: float = 250.0,
) -> List[SequenceStats]:
    """Evaluate several ISP configurations over one shared sequence.

    Every lane of a serial prescreen sweep renders the *same* frames:
    the renderer is seeded identically and walks the identical pose
    trajectory, so the raw sensor planes match bit for bit across
    lanes.  This batched variant therefore renders each frame once and
    shares it, runs each lane's own ISP on it, and pushes all lanes'
    frames through one batched BEV warp + threshold
    (:func:`repro.perception.pipeline.process_batch`).  Lane *i* of the
    result is bitwise equal to ``evaluate_sequence(situation, isps[i],
    roi, ...)`` with the same arguments.
    """
    camera = camera or CameraModel(width=384, height=192)
    pipelines = [
        PerceptionPipeline(
            camera, roi, lookahead=lookahead, temporal_tracking=temporal_tracking
        )
        for _ in isps
    ]
    return _evaluate_lanes(
        situation, isps, camera, n_frames, seed, lookahead, track_length,
        lambda rgbs: process_batch(pipelines, rgbs),
    )
