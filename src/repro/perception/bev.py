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
per-frame cost is a single sparse matmul.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.perception.roi import RoiPreset
from repro.sim.camera import CameraModel

__all__ = ["BevGrid"]


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
        # One csr row per BEV cell holding its four bilinear taps in
        # (00, 01, 10, 11) column order.  The taps of a cell are
        # strictly increasing flat indices, so csr's sequential
        # accumulation is the left-associated sum
        # ((f00*w00 + f01*w01) + f10*w10) + f11*w11.
        flat00 = (v0 * camera.width + u0).ravel()
        cols = np.stack(
            [flat00, flat00 + 1, flat00 + camera.width, flat00 + camera.width + 1],
            axis=1,
        ).ravel()
        data = np.stack(
            [(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv],
            axis=1,
        ).astype(np.float32).ravel()
        n_cells = n_rows * n_cols
        indptr = np.arange(0, 4 * n_cells + 1, 4, dtype=np.int32)
        self._operator = sparse.csr_matrix(
            (data, cols, indptr), shape=(n_cells, camera.height * camera.width)
        )

    @property
    def inside(self) -> np.ndarray:
        """``(n_rows, n_cols)`` mask of cells whose ground point projects
        inside the camera frame (cells outside are zero after warping)."""
        return self._inside

    @property
    def lateral_resolution(self) -> float:
        """Metres per BEV column."""
        return float(self.lat_axis[1] - self.lat_axis[0])

    @property
    def longitudinal_resolution(self) -> float:
        """Metres per BEV row."""
        return float(self.x_axis[1] - self.x_axis[0])

    def warp(self, frame: np.ndarray) -> np.ndarray:
        """Resample *frame* onto the BEV grid with bilinear interpolation.

        Parameters
        ----------
        frame:
            ``(H, W)`` or ``(H, W, C)`` image matching the camera size.

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

        Each lane is its own sparse matmul with its channels as the
        right-hand-side columns, written into *out* (allocated when
        ``None``; ``(B, n_rows, n_cols[, C])`` float32).  Every cell
        sums its four taps in a fixed order, column by column, so a
        lane's BEV is bit for bit independent of the other frames.
        """
        cam = self.camera
        if frames.shape[1:3] != (cam.height, cam.width):
            raise ValueError(
                f"frame shape {frames.shape[1:3]} does not match camera "
                f"({cam.height}, {cam.width})"
            )
        if out is None:
            out = np.empty(
                (frames.shape[0], self.n_rows, self.n_cols) + frames.shape[3:],
                dtype=np.float32,
            )
        channels = 1 if frames.ndim == 3 else frames.shape[3]
        hw = cam.height * cam.width
        for lane, frame in enumerate(frames):
            flat = frame.reshape(hw, channels).astype(np.float32, copy=False)
            out[lane] = (self._operator @ flat).reshape(out.shape[1:])
        out[:, ~self._inside] = 0.0
        return out

    def vehicle_lateral(self, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map BEV ``(row, col)`` indices back to vehicle-frame ``(x, y)``.

        ``y`` includes the ROI's curvature rectification offset, i.e. it
        is the true lateral coordinate in the vehicle frame.
        """
        x = self.x_axis[np.asarray(rows, dtype=int)]
        lat = self.lat_axis[np.asarray(cols, dtype=int)]
        return x, self.roi.center_offset(x) + lat
