"""Tests for the IMU model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.geometry import Pose2D
from repro.sim.imu import ImuModel, ImuSpec
from repro.sim.vehicle import VehicleState


class TestImuModel:
    def _state(self) -> VehicleState:
        return VehicleState(
            pose=Pose2D(0, 0, 0), lateral_velocity=0.5, yaw_rate=0.1, steer=0.05
        )

    def test_zero_noise_is_exact(self):
        spec = ImuSpec(0.0, 0.0, 0.0, 0.0)
        imu = ImuModel(spec)
        v_y, r, steer = imu.sample(self._state(), 0.005)
        assert (v_y, r, steer) == (0.5, 0.1, 0.05)

    def test_noise_statistics(self):
        imu = ImuModel(ImuSpec(yaw_rate_bias_walk=0.0), seed=1)
        state = self._state()
        samples = np.array([imu.sample(state, 0.005) for _ in range(800)])
        assert samples[:, 0].mean() == pytest.approx(0.5, abs=0.01)
        assert samples[:, 0].std() == pytest.approx(
            ImuSpec().lateral_velocity_noise, rel=0.2
        )

    def test_bias_walks(self):
        imu = ImuModel(ImuSpec(yaw_rate_noise=0.0, yaw_rate_bias_walk=0.01), seed=2)
        state = self._state()
        first = imu.sample(state, 1.0)[1]
        for _ in range(200):
            last = imu.sample(state, 1.0)[1]
        assert last != pytest.approx(first, abs=1e-9)

    def test_reset_clears_bias(self):
        imu = ImuModel(ImuSpec(yaw_rate_noise=0.0, yaw_rate_bias_walk=0.05), seed=3)
        for _ in range(50):
            imu.sample(self._state(), 1.0)
        imu.reset()
        assert imu._yaw_bias == 0.0

    def test_negative_spec_rejected(self):
        with pytest.raises(ValueError):
            ImuSpec(lateral_velocity_noise=-1.0)

    def test_engine_with_imu_noise_stays_stable(self):
        from repro.core.situation import situation_by_index
        from repro.hil import HilConfig, HilEngine
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=80.0)
        config = HilConfig(
            seed=7, frame_width=192, frame_height=96, imu_noise=True
        )
        result = HilEngine(track, "case1", config=config).run()
        assert not result.crashed

