"""Perspective transform: camera frame -> bird's-eye view (BEV).

A :class:`BevGrid` resamples the camera image onto a regular grid on
the ground plane.  The grid is *curvature rectified*: each row (one
longitudinal distance ``x``) is laterally centred on the ROI preset's
bent centerline, so when the preset's nominal curvature matches the
road, lane markings appear as near-vertical stripes — which is what the
sliding-window search expects.  A mismatched ROI (e.g. ROI 1 in a right
turn) makes markings drift sideways and leave the window, reproducing
the paper's robustness failures.

Because the camera mounting and the preset are fixed, the bilinear
taps are precomputed once into a sparse resampling operator; the
per-frame cost is a single sparse matmul.  Grids are built once per
process (:func:`bev_grid`), and :func:`sensing_box` is the part of the
frame that any preset's grid can read: the closed loop senses only
that box whenever nothing else needs the whole frame.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.perception.roi import ROI_PRESETS, RoiPreset
from repro.sim.camera import CameraModel, PixelBox

__all__ = ["BevGrid", "bev_grid", "sensing_box", "SENSING_HALO"]

#: Pixels of context the ISP's spatial stages read around a pixel:
#: demosaic's bilinear taps reach 1 px, denoise's Gaussian (sigma 0.8,
#: scipy's ``truncate=4``) reaches ``int(4 * 0.8 + 0.5) = 3`` px.  Inside
#: a crop padded by this halo, every pixel of the unpadded part comes
#: out of the ISP as it does in the whole frame.
SENSING_HALO = 4


class BevGrid:
    """Precomputed ground-plane resampler for one camera + ROI preset.

    Parameters
    ----------
    camera:
        The camera model (must match the frames passed to :meth:`warp`).
    roi:
        ROI preset defining the ground window.
    n_rows:
        Longitudinal resolution (row 0 = nearest distance).
    n_cols:
        Lateral resolution.
    """

    def __init__(
        self,
        camera: CameraModel,
        roi: RoiPreset,
        n_rows: int = 96,
        n_cols: int = 128,
    ):
        if n_rows < 8 or n_cols < 8:
            raise ValueError("BEV grid must be at least 8x8")
        self.camera = camera
        self.roi = roi
        self.n_rows = n_rows
        self.n_cols = n_cols

        self.x_axis = np.linspace(roi.x_near, roi.x_far, n_rows).astype(np.float32)
        self.lat_axis = np.linspace(
            -roi.half_width, roi.half_width, n_cols
        ).astype(np.float32)

        x_grid = self.x_axis[:, None]
        center = roi.center_offset(x_grid)
        y_grid = center + self.lat_axis[None, :]

        u, v = camera.project(np.broadcast_to(x_grid, (n_rows, n_cols)), y_grid)
        u = np.asarray(u, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        inside = (
            (u >= 0) & (u <= camera.width - 1) & (v >= 0) & (v <= camera.height - 1)
        )
        u = np.clip(u, 0, camera.width - 1.001)
        v = np.clip(v, 0, camera.height - 1.001)

        u0 = np.floor(u).astype(np.int32)
        v0 = np.floor(v).astype(np.int32)
        fu = (u - u0).ravel()
        fv = (v - v0).ravel()
        self._inside = inside
        # The frame pixels the taps read: rows v0..v0+1, columns u0..u0+1.
        top, left = int(v0.min()), int(u0.min())
        self.support: PixelBox = (top, left, int(v0.max()) + 2, int(u0.max()) + 2)
        # One csr row per BEV cell holding its four bilinear taps in
        # (00, 01, 10, 11) column order, as flat indices into the
        # support box.  The taps of a cell are strictly increasing, so
        # csr's sequential accumulation is the left-associated sum
        # ((f00*w00 + f01*w01) + f10*w10) + f11*w11.
        width = self.support[3] - left
        flat00 = ((v0 - top) * width + (u0 - left)).ravel()
        cols = np.stack(
            [flat00, flat00 + 1, flat00 + width, flat00 + width + 1], axis=1
        ).ravel()
        data = np.stack(
            [(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv],
            axis=1,
        ).astype(np.float32).ravel()
        n_cells = n_rows * n_cols
        indptr = np.arange(0, 4 * n_cells + 1, 4, dtype=np.int32)
        self._operator = sparse.csr_matrix(
            (data, cols, indptr),
            shape=(n_cells, (self.support[2] - top) * width),
        )
        # Grids are shared across pipelines (:func:`bev_grid`).
        op = self._operator
        for array in (self.x_axis, self.lat_axis, inside, op.data, op.indices, op.indptr):
            array.flags.writeable = False

    @property
    def inside(self) -> np.ndarray:
        """``(n_rows, n_cols)`` mask of cells whose ground point projects
        inside the camera frame (cells outside are zero after warping)."""
        return self._inside

    @property
    def lateral_resolution(self) -> float:
        """Metres per BEV column."""
        return float(self.lat_axis[1] - self.lat_axis[0])

    def warp(self, frame: np.ndarray) -> np.ndarray:
        """Resample *frame* onto the BEV grid with bilinear interpolation.

        Parameters
        ----------
        frame:
            ``(H, W)`` or ``(H, W, C)`` image matching the camera size,
            or its crop to the camera's :func:`sensing_box`.

        Returns
        -------
        ``(n_rows, n_cols)`` or ``(n_rows, n_cols, C)`` BEV image; cells
        whose ground point projects outside the frame are zero.
        """
        return self.warp_batch(frame[None])[0]

    def warp_batch(
        self, frames: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Resample stacked frames ``(B, H, W[, C])``, one csr product each.

        *frames* are whole camera frames or crops to the camera's
        :func:`sensing_box` (for this grid's BEV shape); either way the
        grid reads only its :attr:`support` box out of them.  Each lane
        is its own sparse matmul with its channels as the
        right-hand-side columns, written into *out* (allocated when
        ``None``; ``(B, n_rows, n_cols[, C])`` float32).  Every cell
        sums its four taps in a fixed order, column by column, so a
        lane's BEV is bit for bit independent of the other frames.
        """
        top, left = self._origin(frames.shape[1:3])
        t, l, b, r = self.support
        view = frames[:, t - top : b - top, l - left : r - left]
        if out is None:
            out = np.empty(
                (frames.shape[0], self.n_rows, self.n_cols) + frames.shape[3:],
                dtype=np.float32,
            )
        channels = 1 if frames.ndim == 3 else frames.shape[3]
        for lane, frame in enumerate(view):
            flat = np.ascontiguousarray(frame, dtype=np.float32).reshape(-1, channels)
            out[lane] = (self._operator @ flat).reshape(out.shape[1:])
        out[:, ~self._inside] = 0.0
        return out

    def _origin(self, shape: Tuple[int, int]) -> Tuple[int, int]:
        """Frame pixel at index ``(0, 0)`` of an input of *shape*."""
        cam = self.camera
        if shape == (cam.height, cam.width):
            return 0, 0
        top, left, bottom, right = sensing_box(cam, self.n_rows, self.n_cols)
        t, l, b, r = self.support
        if shape != (bottom - top, right - left) or not (
            top <= t and left <= l and b <= bottom and r <= right
        ):
            raise ValueError(
                f"frame shape {shape} is neither the camera frame "
                f"({cam.height}, {cam.width}) nor a sensing box holding "
                f"this grid's support {self.support}"
            )
        return top, left

    def vehicle_lateral(self, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map BEV ``(row, col)`` indices back to vehicle-frame ``(x, y)``.

        ``y`` includes the ROI's curvature rectification offset, i.e. it
        is the true lateral coordinate in the vehicle frame.
        """
        x = self.x_axis[np.asarray(rows, dtype=int)]
        lat = self.lat_axis[np.asarray(cols, dtype=int)]
        return x, self.roi.center_offset(x) + lat


@lru_cache(maxsize=64)
def bev_grid(camera: CameraModel, roi: RoiPreset, n_rows: int = 96, n_cols: int = 128) -> BevGrid:
    """The process-wide :class:`BevGrid` of one camera, preset and shape.

    A grid is pose-independent and read-only, so every pipeline with
    the same key shares one.
    """
    return BevGrid(camera, roi, n_rows, n_cols)


@lru_cache(maxsize=64)
def sensing_box(camera: CameraModel, n_rows: int = 96, n_cols: int = 128) -> PixelBox:
    """The frame box every ROI preset's BEV grid reads, ISP halo included.

    The union of the :attr:`BevGrid.support` boxes of all
    :data:`~repro.perception.roi.ROI_PRESETS` (the whole ROI knob
    domain), padded by :data:`SENSING_HALO`, with its origin rounded
    down to even rows and columns so a crop keeps the frame's RGGB
    parity, and clamped to the frame (where the ISP's mirror and
    nearest padding of a crop are those of the whole frame).  A crop
    to this box, sensed and run through an ISP configuration without
    whole-frame statistics, warps to the same bytes as the whole frame.
    """
    # Throwaway grids: a pipeline caches only the presets it switches to.
    supports = np.array(
        [BevGrid(camera, roi, n_rows, n_cols).support for roi in ROI_PRESETS.values()]
    )
    top, left = supports[:, :2].min(axis=0) - SENSING_HALO
    bottom, right = supports[:, 2:].max(axis=0) + SENSING_HALO
    return (
        max(0, int(top)) // 2 * 2,
        max(0, int(left)) // 2 * 2,
        min(camera.height, int(bottom)),
        min(camera.width, int(right)),
    )
