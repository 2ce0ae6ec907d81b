"""Schedule arithmetic: pipeline configuration -> ``(tau, h, FPS)``.

Reproduces the paper's design rules:

- ``tau`` = sum of the profiled runtimes along the sensing chain (ISP +
  invoked classifiers + PR + control) plus a small calibrated overhead,
  plus a reconfiguration overhead when ISP knobs are switched
  dynamically (case 4 and the variable scheme);
- ``h`` = ``tau`` ceiled to the Webots simulation step of 5 ms
  (footnote 5: "h and tau are ceiled to the nearest factor of the
  simulation step"), matching every ``(h, tau)`` pair in Tables III/V;
- FPS = 1000 / sensing latency (how Fig. 1 reports throughput).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.platform.mapping import default_task_graph
from repro.platform.profiles import (
    RECONFIG_OVERHEAD_MS,
    SENSING_OVERHEAD_MS,
)

__all__ = [
    "SIM_STEP_MS",
    "PipelineTiming",
    "pipeline_timing",
    "period_for_delay",
    "sensing_fps",
]

#: Webots simulation step (paper Sec. IV-A).
SIM_STEP_MS = 5.0


@dataclass(frozen=True)
class PipelineTiming:
    """The ``(tau, h)`` design annotation of one pipeline configuration."""

    delay_ms: float
    period_ms: float
    fps: float

    @property
    def delay_s(self) -> float:
        """Sensor-to-actuation delay in seconds."""
        return self.delay_ms / 1000.0

    @property
    def period_s(self) -> float:
        """Sampling period in seconds."""
        return self.period_ms / 1000.0


def period_for_delay(delay_ms: float, step_ms: float = SIM_STEP_MS) -> float:
    """Smallest multiple of the simulation step that covers ``tau``."""
    if delay_ms <= 0:
        raise ValueError(f"delay must be > 0, got {delay_ms}")
    return math.ceil(delay_ms / step_ms - 1e-9) * step_ms


def pipeline_timing(
    isp_config: str,
    classifiers: Sequence[str] = (),
    dynamic_isp: bool = False,
    step_ms: float = SIM_STEP_MS,
    power_mode: str = "30W",
) -> PipelineTiming:
    """Compute ``(tau, h, FPS)`` for one LKAS pipeline configuration.

    Parameters
    ----------
    isp_config:
        Table II ISP knob name.
    classifiers:
        Classifiers invoked every frame in this configuration.
    dynamic_isp:
        Whether ISP knobs are reconfigured at runtime (adds the
        reconfiguration overhead, as in the case 4 rows of Table III).
    power_mode:
        nvpmodel preset scaling the 30 W profiled runtimes.

    A pure function of its arguments over the fixed runtime profiles,
    so it is memoised per process (``classifiers`` as a tuple): the
    reconfiguration manager asks for it on every control cycle.
    """
    return _pipeline_timing(
        isp_config, tuple(classifiers), dynamic_isp, step_ms, power_mode
    )


@functools.lru_cache(maxsize=1024, typed=True)
def _pipeline_timing(
    isp_config: str,
    classifiers: Tuple[str, ...],
    dynamic_isp: bool,
    step_ms: float,
    power_mode: str,
) -> PipelineTiming:
    """:func:`pipeline_timing` on hashable arguments."""
    graph = default_task_graph(
        isp_config, classifiers, include_control=True, power_mode=power_mode
    )
    delay = graph.latency_ms() + SENSING_OVERHEAD_MS
    if dynamic_isp:
        delay += RECONFIG_OVERHEAD_MS
    period = period_for_delay(delay, step_ms)
    fps_graph = default_task_graph(
        isp_config, classifiers, include_control=False, power_mode=power_mode
    )
    return PipelineTiming(
        delay_ms=delay,
        period_ms=period,
        fps=fps_graph.sequential_fps(),
    )


def sensing_fps(
    isp_config: str,
    classifiers: Sequence[str] = (),
    power_mode: str = "30W",
) -> float:
    """Fig. 1 style FPS of a sensing configuration (no control task)."""
    graph = default_task_graph(
        isp_config, classifiers, include_control=False, power_mode=power_mode
    )
    return graph.sequential_fps()
