"""The five ISP stages of Fig. 3(a).

All stages operate on float32 images in linear light unless stated
otherwise.  The stage set matches [8], [12] (Buckler et al.'s
"Reconfiguring the imaging pipeline for computer vision"):

- **demosaic (DM)** — bilinear interpolation of the RGGB mosaic.
- **denoise (DN)** — small-kernel Gaussian smoothing.
- **color map (CM)** — gray-world white balance + color correction
  matrix; undoes illuminant casts (dawn/dusk/night sodium light).
- **gamut map (GM)** — soft saturation compression + clip into [0, 1].
- **tone map (TM)** — auto-exposure gain + sRGB-style gamma; this is the
  stage that rescues low-light frames for thresholding-based perception.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import ndimage

from repro.utils.scratch import ScratchCache

__all__ = [
    "FRAME_STATISTIC_STAGES",
    "IspStage",
    "demosaic",
    "denoise",
    "color_map",
    "gamut_map",
    "tone_map",
]

#: Reusable per-shape temporaries for the stage hot paths (balanced
#: and exposed frames).  Everything drawn from here is consumed before
#: the stage returns — stage *outputs* are always fresh arrays because
#: they escape to the caller.
_SCRATCH = ScratchCache(max_entries=24)


class IspStage(str, Enum):
    """Identifier of one ISP stage (paper's DM/DN/CM/GM/TM acronyms)."""

    DEMOSAIC = "DM"
    DENOISE = "DN"
    COLOR_MAP = "CM"
    GAMUT_MAP = "GM"
    TONE_MAP = "TM"


#: Stages whose output at a pixel depends on a statistic of the whole
#: frame: CM's gray-world channel means and TM's mean luma.  DM, DN and
#: GM read at most a few pixels around each pixel, so a configuration
#: without these stages maps a crop to the crop of its output, away
#: from the crop's edges.
FRAME_STATISTIC_STAGES = frozenset({IspStage.COLOR_MAP, IspStage.TONE_MAP})


# Neighbour taps ``(drow, dcol)`` of the bilinear demosaic, each in the
# row-major order of its 3x3 convolution kernel.
_CROSS = ((-1, 0), (0, -1), (0, 1), (1, 0))
_DIAGONAL = ((-1, -1), (-1, 1), (1, -1), (1, 1))
_ROW = ((0, -1), (0, 1))
_COLUMN = ((-1, 0), (1, 0))

#: The four RGGB parity classes: ``(row parity, column parity, own
#: channel, ((missing channel, taps, tap weight), ...))``.  The weights
#: are those of the G kernel ``[[0,1,0],[1,4,1],[0,1,0]]`` and the R/B
#: kernel ``[[1,2,1],[2,4,2],[1,2,1]]``; every pixel's sampled taps sum
#: to 4 in both.
_BAYER_SITES = (
    (0, 0, 0, ((1, _CROSS, 1.0), (2, _DIAGONAL, 1.0))),  # R
    (0, 1, 1, ((0, _ROW, 2.0), (2, _COLUMN, 2.0))),      # G on an R row
    (1, 0, 1, ((0, _COLUMN, 2.0), (2, _ROW, 2.0))),      # G on a B row
    (1, 1, 2, ((0, _DIAGONAL, 1.0), (1, _CROSS, 1.0))),  # B
)


def demosaic(raw: np.ndarray) -> np.ndarray:
    """Bilinear demosaic of an RGGB Bayer plane to ``(H, W, 3)`` RGB.

    One plane only: a stacked ``(B, H, W)`` batch has the shape of an
    RGB image, so batches go through :meth:`IspPipeline.process_batch`
    (the same kernel, :func:`_demosaic`).
    """
    if raw.ndim != 2:
        raise ValueError(f"expected a 2-D Bayer plane, got shape {raw.shape}")
    return _demosaic(raw)


def _demosaic(raw: np.ndarray) -> np.ndarray:
    """Bilinear demosaic of RGGB planes ``(..., H, W)`` to ``(..., H, W, 3)``.

    Each parity class copies its own channel and averages 2 or 4
    neighbours of a mirror-padded plane for the two it lacks.  This is
    bit for bit the normalised convolution ``conv(raw * mask, kernel)
    / conv(mask, kernel)`` with ``mode="mirror"``: a mirror about the
    edge pixel preserves Bayer parity, so the normaliser is exactly 4
    at every pixel (borders and odd sizes included), and the taps are
    summed in float64 in the convolution's tap order (masked taps add
    ``+0.0``), rounded to float32 and scaled by ``float32(0.25)``.
    """
    raw32 = np.asarray(raw, dtype=np.float32)
    *lead, height, width = raw32.shape
    if height < 2 or width < 2:
        raise ValueError(f"a Bayer plane needs at least 2x2 pixels, got {raw32.shape}")
    rgb = np.empty((*lead, height, width, 3), dtype=np.float32)
    # Double precision is the convolution's accumulator.  Planes go one
    # at a time so the padded plane stays in cache (a stacked 16-frame
    # 384x192 plane does not, and runs ~3x slower per frame).
    padded = np.empty((height + 2, width + 2), dtype=np.float64)  # reprolint: disable=PRF001
    inner = padded[1:-1, 1:-1]
    for plane, out in zip(
        raw32.reshape(-1, height, width), rgb.reshape(-1, height, width, 3)
    ):
        # Adding 0.0 maps -0.0 to the +0.0 a zero-started sum yields.
        np.add(plane, np.float32(0.0), out=inner)
        padded[0] = padded[2]
        padded[-1] = padded[-3]
        padded[:, 0] = padded[:, 2]
        padded[:, -1] = padded[:, -3]
        for row, col, own, fills in _BAYER_SITES:
            rows = slice(row, None, 2)
            cols = slice(col, None, 2)
            out[rows, cols, own] = inner[rows, cols]
            n_rows = len(range(row, height, 2))
            n_cols = len(range(col, width, 2))
            for channel, taps, weight in fills:
                first, *rest = (
                    padded[
                        1 + row + drow : 1 + row + drow + 2 * n_rows : 2,
                        1 + col + dcol : 1 + col + dcol + 2 * n_cols : 2,
                    ]
                    for drow, dcol in taps
                )
                acc = first.copy()
                for tap in rest:
                    acc += tap
                site = out[rows, cols, channel]
                np.multiply(acc, weight, out=site)
                site *= np.float32(0.25)
    return rgb


def denoise(rgb: np.ndarray, sigma: float = 0.8) -> np.ndarray:
    """Gaussian denoise with a small spatial kernel (per channel).

    Accepts ``(H, W, 3)`` or a stacked ``(..., H, W, 3)`` batch: a zero
    sigma on every leading axis skips it, so each frame's smoothing is
    the 2-D filter of that frame alone.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    sigmas = (0.0,) * (rgb.ndim - 3) + (sigma, sigma)
    out = np.empty_like(rgb)
    for channel in range(rgb.shape[-1]):
        ndimage.gaussian_filter(
            rgb[..., channel], sigma=sigmas, output=out[..., channel], mode="nearest"
        )
    return out


#: Mild color-correction matrix (saturation boost around the gray axis).
_CCM = np.array(
    [
        [1.25, -0.15, -0.10],
        [-0.10, 1.25, -0.15],
        [-0.10, -0.15, 1.25],
    ],
    dtype=np.float32,
)


def color_map(rgb: np.ndarray, confidence_knee: float = 0.08) -> np.ndarray:
    """Gray-world white balance followed by a color-correction matrix.

    The white balance divides each channel by its mean (relative to the
    overall mean), which removes global illuminant casts; the CCM then
    restores saturation lost by the sensor response.

    At low light the gray-world statistics are dominated by sensor
    noise, so — as production ISPs do — the correction is faded toward
    identity with a confidence factor proportional to the frame's mean
    level (fully off below ``confidence_knee`` of full scale).

    Accepts ``(H, W, 3)`` or a stacked ``(..., H, W, 3)`` batch; every
    statistic reduces over one frame's own pixels.  The confidence is
    computed in double precision and the gains in float32; the golden
    traces depend on both precisions.
    """
    frames = rgb.reshape((-1,) + rgb.shape[-3:])
    batch = frames.shape[0]
    means = frames.reshape(batch, -1, 3).mean(axis=1)
    overall = means.mean(axis=1)
    confidence = np.clip(
        # Double precision, as the golden traces were recorded.
        overall.astype(np.float64) / confidence_knee,  # reprolint: disable=PRF001
        0.0,
        1.0,
    ).astype(np.float32)
    gains = overall[:, None] / np.maximum(means, np.float32(1e-6))
    gains = np.clip(gains, 0.5, 2.0).astype(np.float32)
    eye = np.eye(3, dtype=np.float32)
    ccm = (
        confidence[:, None, None] * _CCM
        + (np.float32(1.0) - confidence)[:, None, None] * eye
    )
    scale = confidence[:, None] * gains + (np.float32(1.0) - confidence)[:, None]
    balanced = _SCRATCH.get("colormap-balanced", frames.shape, frames.dtype)
    np.multiply(frames, scale[:, None, None, :], out=balanced)
    out = np.empty_like(frames)
    for lane in range(batch):
        # (H, W, 3) @ (3, 3) per frame: a matmul over stacked frames
        # picks a different kernel, which is not bit-identical.
        np.matmul(balanced[lane], ccm[lane].T, out=out[lane])
    return out.reshape(rgb.shape)


def gamut_map(rgb: np.ndarray, knee: float = 0.85) -> np.ndarray:
    """Soft-compress out-of-gamut values, then clip into [0, 1].

    Values above *knee* are rolled off smoothly so saturated lane
    markings keep local contrast instead of flat-clipping.  Purely
    elementwise, so any leading batch axes flow through.  The roll-off
    runs only on the values above the knee (a gather and a scatter on
    the clipped copy), each element through the same float ops as the
    full-array form.
    """
    if not 0.0 < knee < 1.0:
        raise ValueError(f"knee must be in (0, 1), got {knee}")
    x = np.clip(rgb, 0.0, None, out=np.empty(rgb.shape, rgb.dtype))
    flat = x.reshape(-1)
    above = np.flatnonzero(flat > knee)
    span = 1.0 - knee
    compressed = flat[above]
    compressed -= knee
    compressed /= span
    np.tanh(compressed, out=compressed)
    compressed *= span
    compressed += knee
    flat[above] = compressed
    return x.astype(np.float32, copy=False)


def tone_map(
    rgb: np.ndarray,
    target_mean: float = 0.40,
    max_gain: float = 8.0,
    gamma: float = 2.2,
) -> np.ndarray:
    """Auto-exposure gain plus display gamma.

    The gain normalizes the frame's mean luminance towards
    *target_mean* (bounded by *max_gain*), then applies a ``1/gamma``
    power curve.  For a daylight frame the gain is ~1 and the stage only
    gamma-encodes; for night/dark frames the gain is what makes lane
    markings separable by thresholding.

    Accepts ``(H, W, 3)`` or a stacked ``(..., H, W, 3)`` batch with one
    gain per frame.  The luma projection runs per frame (gemv and gemm
    accumulate differently) and the gain is derived in double precision
    (the golden traces depend on both).
    """
    if target_mean <= 0 or max_gain < 1 or gamma <= 0:
        raise ValueError("invalid tone-map parameters")
    frames = rgb.reshape((-1,) + rgb.shape[-3:])
    batch = frames.shape[0]
    weights = np.array([0.299, 0.587, 0.114], dtype=np.float32)
    luma = np.empty(frames.shape[:3], dtype=np.float32)
    for lane in range(batch):
        np.matmul(frames[lane], weights, out=luma[lane])
    means = luma.reshape(batch, -1).mean(axis=1).astype(np.float64)  # reprolint: disable=PRF001
    gain = np.clip(target_mean / np.maximum(means, 1e-6), 1.0, max_gain).astype(
        np.float32
    )
    exposed = _SCRATCH.get("tonemap-exposed", frames.shape, frames.dtype)
    np.multiply(frames, gain[:, None, None, None], out=exposed)
    np.clip(exposed, 0.0, 1.0, out=exposed)
    return np.power(exposed, np.float32(1.0 / gamma)).reshape(rgb.shape)
