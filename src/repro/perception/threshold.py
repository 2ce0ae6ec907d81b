"""Dynamic thresholding of the bird's-eye view (paper Fig. 3b).

Lane markings are found as statistical outliers of the road surface:
the road dominates the BEV, so a robust location/scale estimate
(median / MAD) of each color channel makes paint stand out as a
positive deviation regardless of the ISP configuration's output domain
(linear or tone-mapped).  Two channels are thresholded and OR-ed:

- *whiteness* = min(R, G, B): high only for achromatic bright paint;
  road asphalt is mid-gray and vegetation is saturated green, so both
  stay low.
- *yellowness* = min(R, G) - B - 2 max(0, G - R): high for yellow paint
  (R >= G >> B), negative for green vegetation (G > R).

A final contiguity filter drops mask pixels with fewer than two
8-neighbours, which removes the salt noise that aggressive tone-map
gains produce in night/dark frames.

The absolute floor ``min_brightness`` is what low-light frames without
tone mapping fail: the whole BEV sits below the floor and the mask
comes back (nearly) empty — the mechanism behind the paper's
night/dark situations demanding tone-map-bearing ISP configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["ThresholdParams", "dynamic_threshold", "brightness_channels"]


@dataclass(frozen=True)
class ThresholdParams:
    """Tunables of the dynamic threshold.

    Attributes
    ----------
    z_white, z_yellow:
        Robust z-score thresholds for the two channels.
    min_brightness:
        Absolute floor on the whiteness channel: below it a pixel can
        never be a white marking, no matter how flat the frame is.
    min_scale:
        Lower bound on the robust scale to avoid amplifying a perfectly
        flat (e.g. black) image into spurious detections.
    min_neighbours:
        Minimum count of 8-neighbourhood mask pixels for a pixel to
        survive the contiguity filter (0 disables the filter).
    """

    z_white: float = 4.0
    z_yellow: float = 4.5
    min_brightness: float = 0.085
    min_scale: float = 0.012
    min_neighbours: int = 3


def brightness_channels(bev_rgb: np.ndarray) -> tuple:
    """Split a BEV RGB image into (whiteness, yellowness) channels.

    Accepts a single ``(H, W, 3)`` image or a stacked ``(B, H, W, 3)``
    batch; the math is purely elementwise either way.
    """
    if bev_rgb.ndim not in (3, 4) or bev_rgb.shape[-1] != 3:
        raise ValueError(f"expected (..., H, W, 3) BEV image, got {bev_rgb.shape}")
    r = bev_rgb[..., 0]
    g = bev_rgb[..., 1]
    b = bev_rgb[..., 2]
    white = np.minimum(np.minimum(r, g), b)
    # Yellow paint has R >= G >> B (blue well under 60 % of the others);
    # vegetation has G > R and road/grass boundary mixes have B only
    # mildly depressed, so both stay out of the mask.
    yellow = np.clip(
        np.minimum(r, g) - 1.6 * b - 2.0 * np.clip(g - r, 0.0, None), 0.0, None
    )
    return white, yellow


def _nanmedian_cols(stack: np.ndarray, n: "np.ndarray | None" = None) -> np.ndarray:
    """NaN-aware median over the last axis, ``keepdims`` style.

    Hand-vectorized replacement for ``np.nanmedian(stack, axis=-1,
    keepdims=True)`` on ``(H, W)`` channels and stacked ``(B, H, W)``
    batches alike: one ``np.sort`` (NaNs order last) plus two gathers,
    instead of numpy's masked-array machinery whose per-element
    constants dominate the threshold's profile.  Bit-identical because the median is either the middle
    order statistic exactly (``(a + a) / 2 == a``) or the same
    mean-of-two-middles numpy computes, in the input dtype.

    *n* optionally supplies the per-row count of non-NaN entries
    (``keepdims`` shaped) when the caller already knows it.
    """
    order = np.sort(stack, axis=-1)
    if n is None:
        n = stack.shape[-1] - np.count_nonzero(
            np.isnan(stack), axis=-1, keepdims=True
        )
    lo = np.maximum((n - 1) // 2, 0)
    hi = np.where(n > 0, n // 2, 0)
    # All-NaN rows have n == 0 and gather a NaN, matching np.nanmedian.
    return (
        np.take_along_axis(order, lo, axis=-1)
        + np.take_along_axis(order, hi, axis=-1)
    ) / 2


def _robust_mask(
    channel: np.ndarray,
    z_threshold: float,
    params: ThresholdParams,
    valid: "np.ndarray | None" = None,
) -> np.ndarray:
    # Per-row statistics: each BEV row is one ground distance, so this
    # adapts to radial illumination gradients (headlight falloff) that
    # would fool a single global threshold.  Cells outside the camera
    # frame (warp zeros) are excluded from the statistics.  The last
    # axis is the column axis for both a single (H, W) channel and a
    # stacked (B, H, W) batch, so one reduction serves both.
    if valid is not None:
        masked = np.where(valid, channel, np.nan)
        # |masked - median| keeps NaNs exactly where masked has them
        # (an all-NaN row stays all-NaN), so one count serves both
        # medians.
        n = channel.shape[-1] - np.count_nonzero(
            np.isnan(masked), axis=-1, keepdims=True
        )
        median = _nanmedian_cols(masked, n)
        mad = _nanmedian_cols(np.abs(masked - median), n)
        median = np.nan_to_num(median)
        mad = np.nan_to_num(mad)
    else:
        median = np.median(channel, axis=-1, keepdims=True)
        mad = np.median(np.abs(channel - median), axis=-1, keepdims=True)
    scale = np.maximum(1.4826 * mad, params.min_scale)
    mask = (channel - median) / scale > z_threshold
    if valid is not None:
        mask &= valid
    return mask


_NEIGHBOUR_KERNEL = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)


def dynamic_threshold(
    bev_rgb: np.ndarray,
    params: ThresholdParams = ThresholdParams(),
    valid: "np.ndarray | None" = None,
) -> np.ndarray:
    """Binarize a BEV RGB image into a lane-marking candidate mask.

    *valid* optionally marks BEV cells whose ground point projects
    inside the camera frame; cells outside are excluded from both the
    row statistics and the mask (wide windows clip at the image edges).

    Accepts a stacked ``(B, H, W, 3)`` batch as well (shared *valid*
    broadcasts over lanes); per-lane masks are bit-identical to calling
    this per frame — the row statistics reduce over each lane's own
    columns and the contiguity kernel never crosses the batch axis.  A
    lane whose mask is empty is unaffected by the other lanes keeping
    the contiguity convolution alive: zero neighbours never reach
    ``min_neighbours``.
    """
    white, yellow = brightness_channels(bev_rgb)
    mask_white = _robust_mask(white, params.z_white, params, valid) & (
        white > params.min_brightness
    )
    mask_yellow = _robust_mask(yellow, params.z_yellow, params, valid) & (
        np.maximum(bev_rgb[..., 0], bev_rgb[..., 1]) > params.min_brightness
    )
    mask = mask_white | mask_yellow
    if params.min_neighbours > 0 and mask.any():
        kernel = _NEIGHBOUR_KERNEL if mask.ndim == 2 else _NEIGHBOUR_KERNEL[None]
        neighbours = ndimage.convolve(
            mask.astype(np.uint8), kernel, mode="constant"
        )
        mask &= neighbours >= params.min_neighbours
    return mask
