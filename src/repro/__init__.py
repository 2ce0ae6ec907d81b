"""repro: reproduction of "Hardware- and Situation-Aware Sensing for
Robust Closed-Loop Control Systems" (DATE 2021).

Subpackages
-----------
- :mod:`repro.sim` — track / renderer / vehicle substrate (Webots stand-in)
- :mod:`repro.isp` — RAW->RGB image signal processing pipeline (S0-S8)
- :mod:`repro.perception` — sliding-window lane detection + baselines
- :mod:`repro.control` — bicycle model, delay-aware LQR, switching checks
- :mod:`repro.platform` — NVIDIA AGX Xavier timing/schedule model
- :mod:`repro.nn` — minimal numpy neural-network framework
- :mod:`repro.classifiers` — road / lane / scene situation classifiers
- :mod:`repro.core` — situations, knobs, characterization, reconfiguration
- :mod:`repro.hil` — closed-loop hardware-in-the-loop engine
- :mod:`repro.metrics` — QoC (MAE) and detection-accuracy metrics
- :mod:`repro.experiments` — regeneration of every paper table/figure
- :mod:`repro.faults` — deterministic fault injection + mitigation
- :mod:`repro.telemetry` — structured run events, manifests, metrics
- :mod:`repro.api` — the stable keyword-only facade re-exported here

The facade functions (:func:`simulate`, :func:`characterize`,
:func:`profile`, :func:`inject`, :func:`load_trace`,
:func:`diff_traces`) are the supported programmatic entry points; see
:mod:`repro.api` for the stability contract.
"""

from repro.api import (
    ProfileReport,
    characterize,
    diff_traces,
    inject,
    load_trace,
    profile,
    simulate,
)
from repro.utils.version import __version__

__all__ = [
    "__version__",
    "simulate",
    "characterize",
    "profile",
    "inject",
    "load_trace",
    "diff_traces",
    "ProfileReport",
]
