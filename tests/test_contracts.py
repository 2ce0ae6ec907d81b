"""Tests for the runtime contracts (repro.utils.contracts).

Covers ``@check_shapes`` / ``@check_finite`` / ``assert_finite``, the
per-call toggle, ``REPRO_CONTRACTS=0`` stripping the decorators at
import time, and the library boundaries that carry contracts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.utils.contracts import (
    ContractViolation,
    assert_finite,
    check_finite,
    check_shapes,
    set_contracts_enabled,
)

REPO_ROOT = Path(__file__).resolve().parents[1]



@pytest.fixture()
def contracts_on():
    previous = set_contracts_enabled(True)
    yield
    set_contracts_enabled(previous)


def test_check_shapes_accepts_and_rejects(contracts_on):
    @check_shapes(frame=("H", "W", 3))
    def f(frame):
        return frame.sum()

    f(np.zeros((4, 6, 3)))
    with pytest.raises(ContractViolation, match="dim 2"):
        f(np.zeros((4, 6, 4)))
    with pytest.raises(ContractViolation, match="rank 3"):
        f(np.zeros((4, 6)))


def test_check_shapes_symbolic_dims_must_agree(contracts_on):
    @check_shapes(a=("N", "N"))
    def f(a):
        return a

    f(np.eye(3))
    with pytest.raises(ContractViolation, match="'N'"):
        f(np.zeros((2, 3)))


def test_check_shapes_rank_only_and_result(contracts_on):
    @check_shapes(x=2, result=("N",))
    def rowsum(x):
        return x.sum(axis=1)

    assert rowsum(np.ones((2, 3))).shape == (2,)

    @check_shapes(result=(2,))
    def bad_result():
        return np.zeros(3)

    with pytest.raises(ContractViolation, match="result"):
        bad_result()


def test_check_shapes_unknown_parameter_is_a_typeerror():
    with pytest.raises(TypeError, match="no parameter"):
        @check_shapes(nope=("N",))
        def f(x):
            return x


def test_check_finite_args_and_result(contracts_on):
    @check_finite("samples", result=True)
    def passthrough(samples):
        return samples

    passthrough([1.0, 2.0])
    with pytest.raises(ContractViolation, match="samples"):
        passthrough([1.0, float("nan")])

    @check_finite(result=True)
    def make_inf():
        return np.array([np.inf])

    with pytest.raises(ContractViolation, match="result"):
        make_inf()


def test_assert_finite_reports_name_and_count():
    with pytest.raises(ContractViolation, match="lateral.*2 non-finite"):
        assert_finite([np.nan, 1.0, np.inf], "lateral")
    assert_finite([], "empty is fine")
    assert issubclass(ContractViolation, ValueError)


def test_contracts_toggle_off(contracts_on):
    @check_finite("x")
    def f(x):
        return x

    set_contracts_enabled(False)
    assert f(float("nan")) != f(float("nan"))  # NaN passes straight through
    set_contracts_enabled(True)
    with pytest.raises(ContractViolation):
        f(float("nan"))


def test_contracts_compiled_out_with_env_zero():
    script = textwrap.dedent(
        """
        from repro.utils.contracts import check_finite, check_shapes

        def f(x):
            return x

        assert check_finite("x")(f) is f
        assert check_shapes(x=("N",))(f) is f
        print("stripped")
        """
    )
    env = dict(os.environ, REPRO_CONTRACTS="0")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stripped" in proc.stdout


def test_library_boundaries_are_contract_checked(contracts_on):
    from repro.metrics.qoc import mae
    from repro.nn.model import Sequential
    from repro.nn.layers import ReLU

    with pytest.raises(ContractViolation):
        mae([0.1, float("nan")])
    with pytest.raises(ContractViolation):
        Sequential(ReLU()).forward(np.array([[np.nan]]))


def test_perception_frame_shape_contract(contracts_on):
    from repro.perception.pipeline import PerceptionPipeline
    from repro.sim.camera import CameraModel

    pipeline = PerceptionPipeline(CameraModel(width=64, height=32))
    with pytest.raises(ContractViolation, match="rank 3"):
        pipeline.process(np.zeros((32, 64)))
