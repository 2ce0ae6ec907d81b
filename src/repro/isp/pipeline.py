"""Configurable ISP pipeline executor."""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.isp.configs import IspConfig, isp_config
from repro.isp.stages import (
    IspStage,
    _demosaic,
    color_map,
    denoise,
    gamut_map,
    tone_map,
)
from repro.utils.profiling import profile

__all__ = ["IspPipeline"]

#: Fixed execution order of the stages (Fig. 3a left to right).
_STAGE_ORDER = (
    IspStage.DEMOSAIC,
    IspStage.DENOISE,
    IspStage.COLOR_MAP,
    IspStage.GAMUT_MAP,
    IspStage.TONE_MAP,
)

#: One leading-axis kernel per stage: a single frame is a batch of one.
_STAGE_FN = {
    IspStage.DEMOSAIC: _demosaic,
    IspStage.DENOISE: denoise,
    IspStage.COLOR_MAP: color_map,
    IspStage.GAMUT_MAP: gamut_map,
    IspStage.TONE_MAP: tone_map,
}

#: Profiler labels, precomputed so the hot loop does no string work.
_STAGE_LABEL = {stage: f"isp.{stage.name.lower()}" for stage in _STAGE_ORDER}

Tap = Callable[[str, np.ndarray], np.ndarray]


class IspPipeline:
    """Runs the enabled stages of an :class:`IspConfig` in Fig. 3(a) order.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.isp import IspPipeline
    >>> raw = np.random.default_rng(0).random((16, 16), dtype=np.float32)
    >>> rgb = IspPipeline("S5").process(raw)
    >>> rgb.shape
    (16, 16, 3)
    """

    def __init__(self, config: Union[IspConfig, str]):
        if isinstance(config, str):
            config = isp_config(config)
        self.config = config

    @property
    def name(self) -> str:
        """The Table II name of the active configuration."""
        return self.config.name

    def process(self, raw: np.ndarray, tap: Optional[Tap] = None) -> np.ndarray:
        """Transform a RAW Bayer plane into an RGB frame.

        The output domain depends on the configuration: with tone map it
        is display-referred (gamma-encoded); without it stays linear.
        Downstream perception uses adaptive thresholds to cope with both,
        which is exactly the robustness interplay the paper studies.

        ``tap``, if given, is called as ``tap(stage_label, rgb)`` after
        each executed stage (labels are the Fig. 3a acronyms ``"DM"``
        .. ``"TM"``) and once more as ``tap("output", rgb)`` on the
        final frame, and must return the (possibly replaced) frame.
        This is the fault-injection seam of :mod:`repro.faults`: stage
        corruption attaches here instead of branching inside the
        stages.
        """
        if raw.ndim != 2:
            raise ValueError(f"expected a 2-D Bayer plane, got shape {raw.shape}")
        return self._run(raw[None], None if tap is None else (tap,))[0]

    def process_batch(
        self, raw: np.ndarray, taps: Optional[Sequence[Optional[Tap]]] = None
    ) -> np.ndarray:
        """Transform stacked RAW planes ``(B, H, W)`` into ``(B, H, W, 3)``.

        Per-lane statistics (white-balance gains, auto-exposure) reduce
        over each lane's own trailing axes, so every lane is
        bit-identical to :meth:`process` of that lane alone.  *taps*
        optionally gives one :meth:`process` tap (or ``None``) per lane.
        """
        if raw.ndim != 3:
            raise ValueError(f"expected (B, H, W) Bayer planes, got shape {raw.shape}")
        return self._run(raw, taps)

    def _run(
        self, raw: np.ndarray, taps: Optional[Sequence[Optional[Tap]]]
    ) -> np.ndarray:
        # One kernel call per enabled stage for the whole batch; spans
        # carry count=B so per-frame means compare across batch sizes.
        batch = raw.shape[0]
        rgb = raw
        for stage in _STAGE_ORDER:
            if self.config.has(stage):
                with profile(_STAGE_LABEL[stage], count=batch):
                    rgb = _STAGE_FN[stage](rgb)
                _apply_taps(stage.value, rgb, taps)
        _apply_taps("output", rgb, taps)
        # Every stage output is a fresh array owned by this call, so the
        # final clip runs in place.
        return np.clip(rgb, 0.0, 1.0, out=rgb)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        stages = "+".join(s.value for s in self.config.stages)
        return f"IspPipeline({self.config.name}: {stages})"


def _apply_taps(
    label: str, rgb: np.ndarray, taps: Optional[Sequence[Optional[Tap]]]
) -> None:
    """Replace each tapped lane of *rgb* by its tap's frame, in place."""
    if taps is None:
        return
    for lane, tap in enumerate(taps):
        if tap is not None:
            rgb[lane] = tap(label, rgb[lane])
