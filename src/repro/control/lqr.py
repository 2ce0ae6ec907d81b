"""Discrete LQR design on the delay-augmented lateral model.

This is the paper's optimal linear quadratic regulator [14]: for each
``(v, h, tau)`` control-knob tuple a gain is designed on the exact
delay-augmented discretization, so slower sampling and longer delays
translate directly into softer achievable regulation — the mechanism
behind the paper's QoC-vs-robustness trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_discrete_are

from repro.control.discretize import DelayedDiscreteModel, discretize_with_delay
from repro.control.model import LateralModel, lateral_model, understeer_feedforward
from repro.sim.vehicle import VehicleParams

__all__ = ["LqrWeights", "ControllerGains", "design_lqr"]


@dataclass(frozen=True)
class LqrWeights:
    """Diagonal LQR weights for ``[v_y, r, y_L, eps_L, delta, u_prev]``.

    The defaults put the emphasis on the look-ahead deviation ``y_L``
    (the paper's QoC variable) with mild damping on yaw rate and
    heading error.
    """

    v_y: float = 0.0
    yaw_rate: float = 0.3
    y_l: float = 18.0
    eps_l: float = 25.0
    steer: float = 0.0
    u_prev: float = 0.05
    control: float = 30.0

    def q_matrix(self) -> np.ndarray:
        """Assemble the diagonal state-weight matrix Q."""
        return np.diag(
            [self.v_y, self.yaw_rate, self.y_l, self.eps_l, self.steer, self.u_prev]
        )

    def r_matrix(self) -> np.ndarray:
        """Assemble the 1x1 control-weight matrix R."""
        return np.array([[self.control]])


@dataclass
class ControllerGains:
    """A complete gain set for one ``(v, h, tau)`` design point."""

    k: np.ndarray
    k_ff: float
    speed: float
    period: float
    delay: float
    closed_loop_radius: float
    discrete: DelayedDiscreteModel = field(repr=False)
    model: LateralModel = field(repr=False)

    @property
    def a_closed(self) -> np.ndarray:
        """Closed-loop augmented matrix (used by the CQLF check)."""
        return self.discrete.a_aug - self.discrete.b_aug @ self.k


def design_lqr(
    params: VehicleParams,
    speed: float,
    period: float,
    delay: float,
    weights: LqrWeights = LqrWeights(),
    lookahead: float = 5.5,
) -> ControllerGains:
    """Design the situation-specific LQR for a control-knob tuple.

    Parameters
    ----------
    params:
        Vehicle physical parameters.
    speed:
        Longitudinal speed in m/s (the paper's 30 / 50 kmph knob).
    period, delay:
        The ``(h, tau)`` design annotation in **seconds**.
    weights:
        LQR weights; the defaults are used throughout the reproduction.
    lookahead:
        Look-ahead distance LL (m).

    Raises
    ------
    ValueError
        If the resulting closed loop is not Schur stable (which would
        indicate an infeasible design point).
    """
    model = lateral_model(params, speed, lookahead)
    discrete = discretize_with_delay(model, period, delay)
    q = weights.q_matrix()
    r = weights.r_matrix()
    p = solve_discrete_are(discrete.a_aug, discrete.b_aug, q, r)
    k = np.linalg.solve(
        r + discrete.b_aug.T @ p @ discrete.b_aug,
        discrete.b_aug.T @ p @ discrete.a_aug,
    )
    a_closed = discrete.a_aug - discrete.b_aug @ k
    radius = float(np.max(np.abs(np.linalg.eigvals(a_closed))))
    if radius >= 1.0:
        raise ValueError(
            f"LQR design unstable (spectral radius {radius:.4f}) for "
            f"v={speed}, h={period}, tau={delay}"
        )
    return ControllerGains(
        k=k,
        k_ff=understeer_feedforward(params, speed),
        speed=speed,
        period=period,
        delay=delay,
        closed_loop_radius=radius,
        discrete=discrete,
        model=model,
    )
