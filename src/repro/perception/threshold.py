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

A final contiguity filter drops mask pixels with fewer than
``min_neighbours`` 8-neighbours (an integer count over a zero-padded
uint8 mask), which removes the salt noise that aggressive tone-map
gains produce in night/dark frames.

The absolute floor ``min_brightness`` is what low-light frames without
tone mapping fail: the whole BEV sits below the floor and the mask
comes back (nearly) empty — the mechanism behind the paper's
night/dark situations demanding tone-map-bearing ISP configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    yellow = np.maximum(
        np.minimum(r, g) - 1.6 * b - 2.0 * np.maximum(g - r, 0.0), 0.0
    )
    return white, yellow


def _row_median(rows: np.ndarray) -> np.ndarray:
    """Median over the last axis of NaN-free *rows*, ``keepdims`` style.

    One ``np.sort`` and the two fixed middle slices; every row has the
    same count, so no per-row gather is needed.  Equal to ``np.median``
    and to :func:`_nanmedian_cols` bit for bit: the median is an order
    statistic, and the mean of the two middles is the same ``(a + b) /
    2`` in the input dtype (``(a + a) / 2 == a`` at odd widths).
    """
    order = np.sort(rows, axis=-1)
    width = rows.shape[-1]
    lo, hi = (width - 1) // 2, width // 2
    return (order[..., lo : lo + 1] + order[..., hi : hi + 1]) / 2


def _nanmedian_cols(stack: np.ndarray, n: "np.ndarray | None" = None) -> np.ndarray:
    """NaN-aware median over the last axis, ``keepdims`` style.

    Hand-vectorized replacement for ``np.nanmedian(stack, axis=-1,
    keepdims=True)``: one ``np.sort`` (NaNs order last) plus two
    gathers, instead of numpy's masked-array machinery whose
    per-element constants dominate the threshold's profile.
    Bit-identical because the median is either the middle order
    statistic exactly (``(a + a) / 2 == a``) or the same
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
    # frame (warp zeros) are excluded from the statistics; that NaN
    # path runs only for a grid that lies partly outside the frame.
    if valid is None:
        median = _row_median(channel)
        mad = _row_median(np.abs(channel - median))
    else:
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
    scale = np.maximum(1.4826 * mad, params.min_scale)
    mask = (channel - median) / scale > z_threshold
    if valid is not None:
        mask &= valid
    return mask


def _neighbour_count(mask: np.ndarray) -> np.ndarray:
    """Count each ``(H, W)`` mask pixel's set 8-neighbours (uint8).

    The 3x3 box sum of the zero-padded mask, taken as a row of three
    shifted adds and then a column of three, minus the centre: the
    ``ndimage.convolve(mask, [[1, 1, 1], [1, 0, 1], [1, 1, 1]],
    mode="constant")`` count exactly, since every sum is a small
    integer (at most 9).
    """
    height, width = mask.shape
    padded = np.zeros((height + 2, width + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    rows = padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]
    return rows[:-2] + rows[1:-1] + rows[2:] - padded[1:-1, 1:-1]


def dynamic_threshold(
    bev_rgb: np.ndarray,
    params: ThresholdParams = ThresholdParams(),
    valid: "np.ndarray | None" = None,
) -> np.ndarray:
    """Binarize a BEV RGB image into a lane-marking candidate mask.

    *valid* optionally marks BEV cells whose ground point projects
    inside the camera frame; cells outside are excluded from both the
    row statistics and the mask (wide windows clip at the image edges).
    An all-True *valid* (a grid wholly inside the frame, as every grid
    the closed loop builds) is the same as none: each row is sorted
    once and its fixed middle slices give the median and the MAD.

    Accepts a stacked ``(B, H, W, 3)`` batch as well, with a *valid*
    that broadcasts over it; each lane is thresholded on its own, so a
    lane's channels stay in cache and its mask is bit for bit the call
    on that lane alone.
    """
    if valid is not None and valid.all():
        valid = None
    if bev_rgb.ndim == 4:
        if valid is not None:
            valid = np.broadcast_to(valid, bev_rgb.shape[:-1])
        mask = np.empty(bev_rgb.shape[:-1], dtype=bool)
        for j, lane in enumerate(bev_rgb):
            lane_valid = None if valid is None else valid[j]
            mask[j] = dynamic_threshold(lane, params, lane_valid)
        return mask
    white, yellow = brightness_channels(bev_rgb)
    mask_white = _robust_mask(white, params.z_white, params, valid) & (
        white > params.min_brightness
    )
    mask_yellow = _robust_mask(yellow, params.z_yellow, params, valid) & (
        np.maximum(bev_rgb[..., 0], bev_rgb[..., 1]) > params.min_brightness
    )
    mask = mask_white | mask_yellow
    if params.min_neighbours > 0 and mask.any():
        mask &= _neighbour_count(mask) >= params.min_neighbours
    return mask
