"""Gain scheduling over the control knobs ``(v, h, tau)``.

The paper designs one LQR per situation-specific knob tuple (Table III)
at design time; at runtime the reconfiguration manager swaps gain sets.
:class:`GainScheduler` memoizes the designs so a closed-loop run pays
the Riccati solve once per distinct tuple, and the designs themselves
are memoised per process on their exact inputs, so the fresh engines of
a sweep or a tour (one per lane or sector) share each solve.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import numpy as np

from repro.control.lqr import ControllerGains, LqrWeights, design_lqr
from repro.sim.vehicle import VehicleParams

__all__ = ["GainScheduler"]


@functools.lru_cache(maxsize=512, typed=True)
def _shared_design(
    params: VehicleParams,
    weights: LqrWeights,
    lookahead: float,
    speed: float,
    period: float,
    delay: float,
) -> ControllerGains:
    """:func:`design_lqr`, memoised per process on its exact arguments.

    Keyed by the exact values and their types, not
    :meth:`GainScheduler._key`'s rounded tuple, so every caller gets the
    bits its own arguments give.  The design is shared by every engine
    that asks, so its arrays are made read-only.
    """
    gains = design_lqr(
        params, speed, period, delay, weights=weights, lookahead=lookahead
    )
    for owner in (gains, gains.discrete, gains.model):
        for value in vars(owner).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
    return gains


class GainScheduler:
    """Caches :func:`design_lqr` results keyed by rounded knob tuples."""

    def __init__(
        self,
        params: VehicleParams,
        weights: LqrWeights = LqrWeights(),
        lookahead: float = 5.5,
    ):
        self.params = params
        self.weights = weights
        self.lookahead = lookahead
        self._cache: Dict[Tuple[int, int, int], ControllerGains] = {}

    @staticmethod
    def _key(speed: float, period: float, delay: float) -> Tuple[int, int, int]:
        # Round to 0.01 m/s and 0.1 ms: distinct design points in the
        # paper differ by far more than this.
        return (round(speed * 100), round(period * 1e4), round(delay * 1e4))

    def gains_for(self, speed: float, period: float, delay: float) -> ControllerGains:
        """The (cached) LQR design for a ``(v, h, tau)`` tuple (SI units)."""
        key = self._key(speed, period, delay)
        gains = self._cache.get(key)
        if gains is None:
            gains = _shared_design(
                self.params, self.weights, self.lookahead, speed, period, delay
            )
            self._cache[key] = gains
        return gains

    def cached_designs(self) -> List[ControllerGains]:
        """All designs created so far (input to the CQLF switching check)."""
        return list(self._cache.values())
