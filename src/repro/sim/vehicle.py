"""Nonlinear dynamic bicycle vehicle model (the Webots BMW X5 substitute).

The lateral dynamics follow the classic linear-tire dynamic bicycle
model the paper cites ([13], Kosecka et al.), integrated with RK4 at the
simulation step (5 ms in the paper's Webots setup).  The steering
actuator is modelled per the paper's reference [18] as a first-order lag
with rate and angle limits, and the longitudinal speed tracks its target
with a bounded acceleration so the controller's speed knob changes are
not instantaneous teleports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.geometry import Pose2D, wrap_angle
from repro.utils.validation import check_positive

__all__ = ["VehicleParams", "VehicleState", "Vehicle"]


@dataclass(frozen=True)
class VehicleParams:
    """Physical parameters of a BMW-X5-class SUV.

    Attributes
    ----------
    mass:
        Vehicle mass in kg.
    inertia_z:
        Yaw moment of inertia in kg m^2.
    dist_front, dist_rear:
        CoG to front/rear axle distances in metres.
    cornering_front, cornering_rear:
        Tire cornering stiffnesses in N/rad (per axle).
    steer_lag:
        First-order steering-actuator time constant in seconds.
    steer_rate_limit:
        Maximum steering rate in rad/s.
    steer_limit:
        Maximum steering angle in rad.
    accel_limit:
        Longitudinal acceleration bound used when the speed knob changes.
    """

    mass: float = 2100.0
    inertia_z: float = 3900.0
    dist_front: float = 1.33
    dist_rear: float = 1.62
    cornering_front: float = 1.2e5
    cornering_rear: float = 1.4e5
    steer_lag: float = 0.06
    steer_rate_limit: float = 0.7
    steer_limit: float = 0.55
    accel_limit: float = 2.0

    def __post_init__(self):
        for name in (
            "mass",
            "inertia_z",
            "dist_front",
            "dist_rear",
            "cornering_front",
            "cornering_rear",
            "steer_lag",
            "steer_rate_limit",
            "steer_limit",
            "accel_limit",
        ):
            check_positive(name, getattr(self, name))

    @property
    def wheelbase(self) -> float:
        """Front-to-rear axle distance in metres."""
        return self.dist_front + self.dist_rear


@dataclass
class VehicleState:
    """Full simulation state of the vehicle.

    ``pose`` is the world pose of the CoG; ``lateral_velocity`` and
    ``yaw_rate`` are the body-frame lateral dynamics states; ``steer`` is
    the *actual* (post-actuator) steering angle; ``speed`` the current
    longitudinal speed in m/s.
    """

    pose: Pose2D
    lateral_velocity: float = 0.0
    yaw_rate: float = 0.0
    steer: float = 0.0
    speed: float = 50.0 / 3.6


class Vehicle:
    """Integrates the bicycle model at a fixed simulation step."""

    #: Below this speed the linear-tire model is singular; clamp.
    MIN_SPEED = 1.0

    def __init__(self, params: VehicleParams, state: VehicleState):
        self.params = params
        self.state = state
        self.target_speed = state.speed

    def set_target_speed(self, speed_mps: float) -> None:
        """Command a new longitudinal speed (tracked with bounded accel)."""
        if speed_mps < self.MIN_SPEED:
            raise ValueError(f"target speed must be >= {self.MIN_SPEED} m/s")
        self.target_speed = float(speed_mps)

    def step(self, dt: float, steer_command: float) -> VehicleState:
        """Advance the simulation by *dt* seconds under *steer_command*.

        Returns the new state (also stored on ``self.state``).
        """
        check_positive("dt", dt)
        p = self.params
        s = self.state

        # Longitudinal speed tracking with bounded acceleration.
        dv = np.clip(self.target_speed - s.speed, -p.accel_limit * dt, p.accel_limit * dt)
        speed = max(self.MIN_SPEED, s.speed + dv)

        # Steering actuator: saturation -> first-order lag -> rate limit.
        command = float(np.clip(steer_command, -p.steer_limit, p.steer_limit))
        alpha = 1.0 - np.exp(-dt / p.steer_lag)
        desired_delta = alpha * (command - s.steer)
        max_delta = p.steer_rate_limit * dt
        steer = s.steer + float(np.clip(desired_delta, -max_delta, max_delta))
        steer = float(np.clip(steer, -p.steer_limit, p.steer_limit))

        # RK4 on [x, y, heading, v_y, r] with steer and speed held.
        y0 = np.array(
            [s.pose.x, s.pose.y, s.pose.heading, s.lateral_velocity, s.yaw_rate]
        )
        k1 = self._derivatives(y0, steer, speed)
        k2 = self._derivatives(y0 + 0.5 * dt * k1, steer, speed)
        k3 = self._derivatives(y0 + 0.5 * dt * k2, steer, speed)
        k4 = self._derivatives(y0 + dt * k3, steer, speed)
        y1 = y0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        self.state = VehicleState(
            pose=Pose2D(float(y1[0]), float(y1[1]), wrap_angle(float(y1[2]))),
            lateral_velocity=float(y1[3]),
            yaw_rate=float(y1[4]),
            steer=steer,
            speed=float(speed),
        )
        return self.state

    def _derivatives(self, y: np.ndarray, steer: float, speed: float) -> np.ndarray:
        p = self.params
        _, _, heading, v_y, r = y
        v = max(speed, self.MIN_SPEED)
        cf, cr = p.cornering_front, p.cornering_rear
        lf, lr = p.dist_front, p.dist_rear

        dv_y = (
            -(cf + cr) / (p.mass * v) * v_y
            + ((cr * lr - cf * lf) / (p.mass * v) - v) * r
            + cf / p.mass * steer
        )
        dr = (
            (cr * lr - cf * lf) / (p.inertia_z * v) * v_y
            - (cf * lf**2 + cr * lr**2) / (p.inertia_z * v) * r
            + cf * lf / p.inertia_z * steer
        )
        dx = v * np.cos(heading) - v_y * np.sin(heading)
        dy = v * np.sin(heading) + v_y * np.cos(heading)
        return np.array([dx, dy, r, dv_y, dr])

    @staticmethod
    def step_batch(
        params: VehicleParams,
        dt: float,
        state: np.ndarray,
        speed: np.ndarray,
        steer: np.ndarray,
        target_speed: np.ndarray,
        command: np.ndarray,
    ):
        """Vectorized :meth:`step` over stacked independent vehicles.

        *state* is ``(K, 5)`` columns ``[x, y, heading, v_y, r]``;
        *speed*, *steer*, *target_speed*, *command* are ``(K,)``.  All
        vehicles share *params* and *dt*.  Returns the new
        ``(state, speed, steer)`` without touching any ``Vehicle``
        object.  Every operation of the scalar path is an elementwise
        ufunc, so each lane's update is bit-identical to calling
        :meth:`step` on that lane alone.
        """
        # np.minimum/np.maximum pairs instead of np.clip: same result
        # element for element, without np.clip's per-call dispatch cost
        # (which the serial reference path keeps).
        p = params
        a_lim = p.accel_limit * dt
        dv = np.minimum(np.maximum(target_speed - speed, -a_lim), a_lim)
        new_speed = np.maximum(Vehicle.MIN_SPEED, speed + dv)

        cmd = np.minimum(np.maximum(command, -p.steer_limit), p.steer_limit)
        alpha = 1.0 - np.exp(-dt / p.steer_lag)
        desired_delta = alpha * (cmd - steer)
        max_delta = p.steer_rate_limit * dt
        new_steer = steer + np.minimum(
            np.maximum(desired_delta, -max_delta), max_delta
        )
        new_steer = np.minimum(np.maximum(new_steer, -p.steer_limit), p.steer_limit)

        # Speed and steering are held over the step, so the linear-tire
        # coefficients of every RK4 stage are computed once — the same
        # subexpressions, in the same order, as in _derivatives.
        cf, cr = p.cornering_front, p.cornering_rear
        lf, lr = p.dist_front, p.dist_rear
        v = np.maximum(new_speed, Vehicle.MIN_SPEED)
        coeffs = (
            v,
            -(cf + cr) / (p.mass * v),
            (cr * lr - cf * lf) / (p.mass * v) - v,
            cf / p.mass * new_steer,
            (cr * lr - cf * lf) / (p.inertia_z * v),
            (cf * lf**2 + cr * lr**2) / (p.inertia_z * v),
            cf * lf / p.inertia_z * new_steer,
        )
        y0 = state
        k1 = Vehicle._derivatives_batch(y0, coeffs)
        k2 = Vehicle._derivatives_batch(y0 + 0.5 * dt * k1, coeffs)
        k3 = Vehicle._derivatives_batch(y0 + 0.5 * dt * k2, coeffs)
        k4 = Vehicle._derivatives_batch(y0 + dt * k3, coeffs)
        y1 = y0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        y1[:, 2] = wrap_angle(y1[:, 2])
        return y1, new_speed, new_steer

    @staticmethod
    def _derivatives_batch(y: np.ndarray, coeffs: tuple) -> np.ndarray:
        """:meth:`_derivatives` over stacked states, coefficients hoisted."""
        v, vy_vy, vy_r, vy_steer, r_vy, r_r, r_steer = coeffs
        heading = y[:, 2]
        v_y = y[:, 3]
        r = y[:, 4]
        cos = np.cos(heading)
        sin = np.sin(heading)
        out = np.empty_like(y)
        out[:, 0] = v * cos - v_y * sin
        out[:, 1] = v * sin + v_y * cos
        out[:, 2] = r
        out[:, 3] = vy_vy * v_y + vy_r * r + vy_steer
        out[:, 4] = r_vy * v_y - r_r * r + r_steer
        return out

    def clone(self) -> "Vehicle":
        """An independent copy (used by Monte-Carlo characterization)."""
        state = VehicleState(
            pose=self.state.pose,
            lateral_velocity=self.state.lateral_velocity,
            yaw_rate=self.state.yaw_rate,
            steer=self.state.steer,
            speed=self.state.speed,
        )
        twin = Vehicle(self.params, state)
        twin.target_speed = self.target_speed
        return twin
