"""Shared fixtures for the test suite.

Closed-loop and rendering tests use a small camera (160x80) to keep the
suite fast; geometry is resolution-independent by construction (the BEV
resampler works in ground metres), and the full-resolution behaviour is
covered by the benchmarks.  Every session keeps its artifact and
rollout caches in a directory of its own (``repro_cache_dir``), so a
warm ``~/.cache/repro`` can neither feed a test nor be written by one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.situation import situation_by_index
from repro.sim.camera import CameraModel
from repro.sim.renderer import RoadSceneRenderer
from repro.sim.world import fig7_track, static_situation_track


@pytest.fixture(scope="session", autouse=True)
def repro_cache_dir(tmp_path_factory):
    """Point ``$REPRO_CACHE_DIR`` at a per-session temporary directory."""
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root))
        yield root


@pytest.fixture(scope="session")
def small_camera() -> CameraModel:
    return CameraModel(width=160, height=80)


@pytest.fixture(scope="session")
def hil_camera() -> CameraModel:
    """The camera size used by closed-loop tests (kept small)."""
    return CameraModel(width=192, height=96)


@pytest.fixture(scope="session")
def day_track():
    return static_situation_track(situation_by_index(1), length=200.0)


@pytest.fixture(scope="session")
def dynamic_track():
    return fig7_track()


@pytest.fixture()
def day_renderer(small_camera, day_track):
    return RoadSceneRenderer(small_camera, day_track, seed=1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
