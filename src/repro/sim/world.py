"""World models: the Fig. 7 dynamic track and static situation tracks.

The Fig. 7 case study is a nine-sector circuit exercising dynamic road
layout changes, lane type & color changes, and a night-to-dark scene
transition at the 8 -> 9 boundary, exactly as described in Sec. IV-D:

=======  ===========================================
sector   situation
=======  ===========================================
1        straight, white continuous, day
2        right turn, white continuous, day
3        straight, yellow continuous, day
4        left turn, white continuous, day
5        straight, yellow double, day
6        left turn, white dotted, day  (both lanes dotted)
7        right turn, yellow continuous, day
8        straight, white continuous, night
9        straight, white continuous, dark
=======  ===========================================

Sector 2 is the first turn (case 1 crashes at the 1 -> 2 boundary in the
paper); sector 6 combines a turn with dotted lanes (case 2 crashes at
5 -> 6); sectors 4 and 6 are the left turns the variable-invocation
scheme struggles with.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from repro.core.situation import RoadLayout, Situation
from repro.sim.geometry import Pose2D
from repro.sim.track import SectorSpec, Track

__all__ = [
    "DEFAULT_TURN_RADIUS",
    "layout_curvature",
    "fig7_sector_situations",
    "fig7_track",
    "static_situation_track",
]

#: Turn radius used for left/right sectors (gentle highway-ramp scale).
DEFAULT_TURN_RADIUS = 50.0

#: Arc length of straight / turning sectors on the Fig. 7 track.
_STRAIGHT_LENGTH = 110.0
_TURN_LENGTH = 85.0


def layout_curvature(layout: RoadLayout, radius: float = DEFAULT_TURN_RADIUS) -> float:
    """Signed centerline curvature implied by a road layout."""
    if layout is RoadLayout.STRAIGHT:
        return 0.0
    sign = 1.0 if layout is RoadLayout.LEFT else -1.0
    return sign / radius


def fig7_sector_situations() -> List[Situation]:
    """The nine sector situations of the Fig. 7 case-study track."""
    from repro.core.situation import situation_by_index

    # Table III indices of the nine sectors (see module docstring).
    indices = [1, 8, 3, 15, 4, 20, 9, 5, 7]
    return [situation_by_index(i) for i in indices]


def fig7_track(
    turn_radius: float = DEFAULT_TURN_RADIUS,
    straight_length: float = _STRAIGHT_LENGTH,
    turn_length: float = _TURN_LENGTH,
) -> Track:
    """Build the nine-sector dynamic case-study track of Fig. 7."""
    sections = []
    for situation in fig7_sector_situations():
        curvature = layout_curvature(situation.layout, turn_radius)
        length = (
            straight_length
            if situation.layout is RoadLayout.STRAIGHT
            else turn_length
        )
        sections.append(SectorSpec(length, curvature, situation))
    return Track.from_sections(sections, Pose2D(0.0, 0.0, 0.0))


@functools.lru_cache(maxsize=256, typed=True)
def static_situation_track(
    situation: Situation,
    length: float = 250.0,
    turn_radius: float = DEFAULT_TURN_RADIUS,
    lead_in: float = 35.0,
) -> Track:
    """A track for static per-situation evaluation (Fig. 6).

    Memoised per process: the track is a pure function of the
    arguments, so equal arguments of equal types return the one shared
    :class:`Track` (its segments are a tuple, and nothing mutates a
    track).  A warm sweep therefore builds each situation's track once,
    and its lanes and the cache keys of repeated sweeps see the same
    object.

    Turn situations are entered from a straight *lead-in* stretch with
    the same lane/scene appearance (labelled with the straight layout so
    situation identification matches the geometry) — a vehicle cannot
    materialize mid-curve, and the turn entry is part of what a turn
    situation evaluates.

    Curved sectors are capped below a half circle: past that point the
    arc's Frenet projection becomes ambiguous (a world point maps to two
    arc lengths), which no realistic road needs.
    """
    curvature = layout_curvature(situation.layout, turn_radius)
    sections = []
    if situation.layout is not RoadLayout.STRAIGHT:
        length = min(length, 0.75 * np.pi * turn_radius)
        if lead_in > 0.0:
            entry_situation = Situation(
                RoadLayout.STRAIGHT,
                situation.lane_color,
                situation.lane_form,
                situation.scene,
            )
            sections.append(SectorSpec(lead_in, 0.0, entry_situation))
    sections.append(SectorSpec(length, curvature, situation))
    return Track.from_sections(sections, Pose2D(0.0, 0.0, 0.0))
