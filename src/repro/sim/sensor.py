"""Camera sensor model: Bayer mosaic and noise injection.

The paper's ISP consumes RAW frames in the Bayer domain (Fig. 3a).  This
module defines the RGGB layout the renderer evaluates its RAW frames in
(:func:`mosaic` is the reference subsampling of a linear RGB frame) and
the signal-dependent sensor noise on top, which :mod:`repro.isp` then
reconstructs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BAYER_PATTERN",
    "bayer_channel_index",
    "bayer_channel_masks",
    "mosaic",
    "add_sensor_noise",
    "blackout_frame",
    "band_frame",
]

#: RGGB: rows 0,2,... start R G, rows 1,3,... start G B.
BAYER_PATTERN = "RGGB"


def bayer_channel_index(height: int, width: int) -> np.ndarray:
    """RGB channel (0 R, 1 G, 2 B) each pixel of an RGGB mosaic samples.

    Row parity plus column parity: the same pixel-to-channel map
    :func:`mosaic` applies with its strided slices.
    """
    return np.arange(height)[:, None] % 2 + np.arange(width)[None, :] % 2


def bayer_channel_masks(height: int, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean masks (R, G, B) of an RGGB mosaic of the given size."""
    channel = bayer_channel_index(height, width)
    return channel == 0, channel == 1, channel == 2


def mosaic(rgb: np.ndarray) -> np.ndarray:
    """Subsample a linear ``(H, W, 3)`` RGB image to an RGGB Bayer plane."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB image, got shape {rgb.shape}")
    height, width = rgb.shape[:2]
    raw = np.empty((height, width), dtype=rgb.dtype)
    raw[0::2, 0::2] = rgb[0::2, 0::2, 0]  # R
    raw[0::2, 1::2] = rgb[0::2, 1::2, 1]  # G
    raw[1::2, 0::2] = rgb[1::2, 0::2, 1]  # G
    raw[1::2, 1::2] = rgb[1::2, 1::2, 2]  # B
    return raw


def add_sensor_noise(
    raw: np.ndarray,
    rng: np.random.Generator,
    read_noise: float,
    shot_noise: float,
    frame_shape: Optional[Tuple[int, int]] = None,
    origin: Tuple[int, int] = (0, 0),
    normals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Add read (Gaussian) and shot (signal-dependent) noise, clip to [0, 1].

    The shot-noise term scales with the square root of the signal, the
    standard approximation of Poisson photon noise in the continuous
    domain.

    *raw* may be a crop, at *origin*, of a frame of *frame_shape*: the
    standard normals are still drawn for the whole frame, so *rng*
    advances the same whatever part of the frame is sensed, and the
    crop gets the same noise as those pixels of the whole frame.

    *normals*, when given, is that whole-frame block already drawn
    (``rng.standard_normal(frame_shape, dtype)`` with the RAW dtype:
    float32 or float64 as *raw*, else float64); *rng* is then not drawn
    from.  The block is consumed: the noisy frame is written into it.
    """
    if read_noise < 0 or shot_noise < 0:
        raise ValueError("noise levels must be non-negative")
    shape = frame_shape or raw.shape
    dtype = raw.dtype if raw.dtype in (np.float32, np.float64) else np.float64
    if normals is None:
        normals = rng.standard_normal(shape, dtype=dtype)
    elif normals.shape != tuple(shape) or normals.dtype != dtype:
        raise ValueError(
            f"normals must be a {tuple(shape)} {np.dtype(dtype)} block, "
            f"got {normals.shape} {normals.dtype}"
        )
    signal = np.clip(raw, 0.0, None)
    # sigma = sqrt(read² + shot²·signal) and signal + sigma·z, in place:
    # the same commutative ops, so the same bits with fewer temporaries.
    sigma = signal * shot_noise**2
    sigma += read_noise**2
    np.sqrt(sigma, out=sigma)
    noisy = normals
    if frame_shape is not None:
        top, left = origin
        noisy = noisy[top : top + raw.shape[0], left : left + raw.shape[1]]
    noisy *= sigma
    noisy += signal
    return np.clip(noisy, 0.0, 1.0, out=noisy)


def blackout_frame(raw: np.ndarray) -> np.ndarray:
    """A fully dark frame of the same shape/dtype (sensor blackout fault).

    Models a sensor that stops integrating light (shutter stuck, power
    glitch, severe under-exposure): the readout still produces a frame,
    but it carries no scene information.
    """
    return np.zeros_like(raw)


def band_frame(
    raw: np.ndarray,
    rng: np.random.Generator,
    band_px: int = 8,
    strength: float = 0.85,
) -> np.ndarray:
    """Attenuate alternating horizontal row bands (readout banding fault).

    Models the row-banding artifact of a failing readout chain: every
    other band of ``band_px`` rows is attenuated by ``strength`` (1.0
    blanks the band entirely).  The band phase is drawn from *rng* per
    frame so the artifact crawls over the image the way real rolling
    banding does — pass a seeded generator for reproducible runs.
    """
    if band_px < 1:
        raise ValueError(f"band_px must be >= 1, got {band_px}")
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    phase = int(rng.integers(2))
    rows = np.arange(raw.shape[0])
    mask = ((rows // band_px) + phase) % 2 == 0
    banded = raw.copy()
    banded[mask] *= 1.0 - strength
    return banded
