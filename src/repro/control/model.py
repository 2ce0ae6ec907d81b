"""Continuous-time vision-based lateral control model.

The model follows Kosecka et al. [13] (the paper's control reference):
the dynamic bicycle model augmented with the look-ahead measurement
states the camera provides.

State vector ``x = [v_y, r, y_L, eps_L, delta]``:

- ``v_y``   — body-frame lateral velocity (m/s),
- ``r``     — yaw rate (rad/s),
- ``y_L``   — lateral deviation from the lane center at the look-ahead
              distance LL (m); the paper's control input,
- ``eps_L`` — heading error w.r.t. the road (rad),
- ``delta`` — actual front steering angle (rad): the steering actuator
              is a first-order lag [18], and at the paper's slower
              sampling periods (h = 35-45 ms) neglecting it costs the
              phase margin, so it belongs in the design model.

Input ``u = delta_cmd`` (commanded steering angle); disturbance
``w = kappa`` (road curvature at the look-ahead).

Dynamics::

    v_y'   = a11 v_y + a12 r + b1 delta
    r'     = a21 v_y + a22 r + b2 delta
    y_L'   = v_y + LL r + v eps_L - LL v kappa
    eps_L' = r - v kappa
    delta' = (u - delta) / T_s

with the usual linear-tire coefficients (see :func:`lateral_model`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.vehicle import VehicleParams
from repro.utils.validation import check_positive

__all__ = ["LateralModel", "lateral_model"]


@dataclass(frozen=True)
class LateralModel:
    """Continuous-time LTI lateral model at one operating speed.

    Attributes
    ----------
    a, b, e:
        State, input and disturbance matrices (``x' = a x + b u + e w``).
    speed:
        Longitudinal speed the model is linearized at (m/s).
    lookahead:
        Look-ahead distance LL (m).
    """

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    speed: float
    lookahead: float

    @property
    def n_states(self) -> int:
        """Number of continuous model states."""
        return self.a.shape[0]


def lateral_model(
    params: VehicleParams, speed: float, lookahead: float = 5.5
) -> LateralModel:
    """Build the 4-state lateral model for a given speed and look-ahead.

    Parameters
    ----------
    params:
        Physical vehicle parameters (shared with the simulation model,
        so the control design matches the plant by construction).
    speed:
        Longitudinal speed ``v`` in m/s (> 0).
    lookahead:
        Look-ahead distance LL in metres (paper: 5.5 m).
    """
    check_positive("speed", speed)
    check_positive("lookahead", lookahead)
    v = speed
    cf, cr = params.cornering_front, params.cornering_rear
    lf, lr = params.dist_front, params.dist_rear
    m, iz = params.mass, params.inertia_z
    ll = lookahead

    a11 = -(cf + cr) / (m * v)
    a12 = (cr * lr - cf * lf) / (m * v) - v
    a21 = (cr * lr - cf * lf) / (iz * v)
    a22 = -(cf * lf**2 + cr * lr**2) / (iz * v)
    lag = params.steer_lag

    a = np.array(
        [
            [a11, a12, 0.0, 0.0, cf / m],
            [a21, a22, 0.0, 0.0, cf * lf / iz],
            [1.0, ll, 0.0, v, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0 / lag],
        ]
    )
    b = np.array([[0.0], [0.0], [0.0], [0.0], [1.0 / lag]])
    e = np.array([[0.0], [0.0], [-ll * v], [-v], [0.0]])
    return LateralModel(a=a, b=b, e=e, speed=v, lookahead=ll)


def understeer_feedforward(params: VehicleParams, speed: float) -> float:
    """Steady-state steering per unit curvature: ``delta_ff = K * kappa``.

    The classic kinematic-plus-understeer-gradient feed-forward
    ``delta = kappa (L + K_us v^2)`` used by production LKAS stacks; the
    runtime controller multiplies it by the perception pipeline's
    curvature estimate.
    """
    check_positive("speed", speed)
    wheelbase = params.wheelbase
    k_us = (
        params.mass
        * (params.cornering_rear * params.dist_rear - params.cornering_front * params.dist_front)
        / (params.cornering_front * params.cornering_rear * wheelbase)
    )
    return wheelbase + k_us * speed**2
