"""Pinhole camera model with a precomputed ground-plane back-projection.

The camera is rigidly mounted on the vehicle: at height ``mount_height``
above the road, pitched down by ``pitch`` radians, looking along the
vehicle's forward axis.  Because the mounting is rigid, the map from
pixels to ground-plane points *in the vehicle frame* is constant and is
precomputed once; per-frame rendering then only has to transform those
points into the world and look up road coordinates.

Conventions
-----------
- Vehicle frame: x forward, y left (metres on the ground plane).
- Image frame: ``u`` column (0 at the left), ``v`` row (0 at the top).
- ``pitch`` is positive downwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["CameraModel", "GroundMap", "PixelBox"]

#: A box of camera-frame pixels ``(top, left, bottom, right)``, half-open.
PixelBox = Tuple[int, int, int, int]


@dataclass(frozen=True)
class GroundMap:
    """Precomputed pixel-to-ground geometry for a fixed camera.

    Attributes
    ----------
    forward, lateral:
        ``(H, W)`` arrays with the vehicle-frame coordinates of each
        pixel's ground intersection (NaN above the horizon).
    on_ground:
        ``(H, W)`` bool mask of pixels that hit the ground within
        ``max_distance``.
    lateral_footprint:
        ``(H, W)`` approximate lateral ground extent of one pixel in
        metres, used for anti-aliased lane-marking coverage.
    forward_footprint:
        Same for the longitudinal direction (dash-pattern anti-aliasing).
    """

    forward: np.ndarray
    lateral: np.ndarray
    on_ground: np.ndarray
    lateral_footprint: np.ndarray
    forward_footprint: np.ndarray


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics + rigid mounting of the forward-facing camera.

    The paper evaluates at 512x256; tests use smaller frames for speed.
    ``focal_px`` defaults to ``width / 2`` (a 90-degree horizontal FOV).
    """

    width: int = 512
    height: int = 256
    mount_height: float = 1.3
    pitch: float = np.deg2rad(4.0)
    focal_px: float = 0.0
    max_distance: float = 90.0
    min_distance: float = 1.5

    def __post_init__(self):
        check_positive("width", self.width)
        check_positive("height", self.height)
        check_positive("mount_height", self.mount_height)
        check_positive("max_distance", self.max_distance)
        if self.focal_px <= 0:
            object.__setattr__(self, "focal_px", self.width / 2.0)

    @property
    def cx(self) -> float:
        """Horizontal principal point (pixels)."""
        return (self.width - 1) / 2.0

    @property
    def cy(self) -> float:
        """Vertical principal point (pixels)."""
        return (self.height - 1) / 2.0

    def ground_map(self) -> GroundMap:
        """Back-project every pixel onto the ground plane (vehicle frame).

        Arrays are float32: the renderer is the per-frame hot path and
        single precision is ample for centimetre-scale ground geometry.
        """
        u = np.arange(self.width, dtype=np.float32)
        v = np.arange(self.height, dtype=np.float32)
        uu, vv = np.meshgrid(u, v)
        # Camera-frame ray directions (z optical axis, x right, y down).
        dx = (uu - self.cx) / self.focal_px
        dy = (vv - self.cy) / self.focal_px
        cos_p = np.float32(np.cos(self.pitch))
        sin_p = np.float32(np.sin(self.pitch))
        # Rotate by pitch into the vehicle frame (X fwd, Y left, Z up).
        dir_fwd = cos_p - dy * sin_p
        dir_up = -sin_p - dy * cos_p
        dir_left = -dx

        below_horizon = dir_up < -1e-9
        t = np.where(
            below_horizon,
            np.float32(self.mount_height) / np.maximum(-dir_up, np.float32(1e-12)),
            np.float32(np.nan),
        )
        forward = t * dir_fwd
        lateral = t * dir_left
        on_ground = (
            below_horizon
            & (forward >= self.min_distance)
            & (forward <= self.max_distance)
        )
        forward = np.where(on_ground, forward, np.float32(np.nan))
        lateral = np.where(on_ground, lateral, np.float32(np.nan))

        lat_fp = self._footprint(lateral, axis=1)
        fwd_fp = self._footprint(forward, axis=0)
        return GroundMap(forward, lateral, on_ground, lat_fp, fwd_fp)

    @staticmethod
    def _footprint(coords: np.ndarray, axis: int) -> np.ndarray:
        """Per-pixel ground extent estimated from neighbour differences."""
        diff = np.abs(np.diff(coords, axis=axis))
        pad = [(0, 0), (0, 0)]
        pad[axis] = (0, 1)
        fp = np.pad(diff, pad, mode="edge")
        return np.where(np.isfinite(fp), fp, 0.0)

    def project(self, forward: np.ndarray, lateral: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Project vehicle-frame ground points to pixel coordinates.

        Parameters
        ----------
        forward, lateral:
            Vehicle-frame ground coordinates in metres (broadcastable).

        Returns
        -------
        (u, v):
            Pixel coordinates (float; may fall outside the frame).
        """
        fwd = np.asarray(forward, dtype=float)
        lat = np.asarray(lateral, dtype=float)
        cos_p, sin_p = np.cos(self.pitch), np.sin(self.pitch)
        # Vehicle-frame point (fwd, lat, -h) relative to the camera, in
        # camera coordinates (x right, y down, z optical axis).
        x_c = -lat
        y_c = -fwd * sin_p + self.mount_height * cos_p
        z_c = fwd * cos_p + self.mount_height * sin_p
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.cx + self.focal_px * x_c / z_c
            v = self.cy + self.focal_px * y_c / z_c
        return u, v

    def horizon_row(self) -> int:
        """The image row of the horizon (ground visible strictly below)."""
        return int(np.ceil(self.cy - self.focal_px * np.tan(self.pitch)))

    def scaled(self, width: int, height: int) -> "CameraModel":
        """The same camera re-sampled to a different resolution."""
        return CameraModel(
            width=width,
            height=height,
            mount_height=self.mount_height,
            pitch=self.pitch,
            focal_px=self.focal_px * width / self.width,
            max_distance=self.max_distance,
            min_distance=self.min_distance,
        )
