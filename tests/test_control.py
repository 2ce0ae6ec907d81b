"""Tests for the control substrate: model, discretization, LQR, CQLF."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.control.controller import LaneKeepingController
from repro.control.discretize import discretize_with_delay
from repro.control.gains import GainScheduler
from repro.control.lqg import KalmanLaneEstimator, design_kalman_gain
from repro.control.lqr import LqrWeights, design_lqr
from repro.control.model import lateral_model, understeer_feedforward
from repro.control.switching import cqlf_margin, find_cqlf, verify_cqlf
from repro.perception.pipeline import PerceptionResult
from repro.sim.vehicle import VehicleParams

PARAMS = VehicleParams()


def _measurement(y_l: float, eps: float = 0.0, valid: bool = True) -> PerceptionResult:
    return PerceptionResult(
        y_l=y_l, epsilon_l=eps, curvature=0.0, valid=valid, lines_used=2, n_pixels=100
    )


class TestLateralModel:
    def test_dimensions(self):
        model = lateral_model(PARAMS, 13.9)
        assert model.a.shape == (5, 5)
        assert model.b.shape == (5, 1)
        assert model.e.shape == (5, 1)

    def test_lateral_dynamics_stable_alone(self):
        """The v_y/r subsystem of a passive car is stable."""
        model = lateral_model(PARAMS, 13.9)
        eigvals = np.linalg.eigvals(model.a[:2, :2])
        assert np.all(eigvals.real < 0)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            lateral_model(PARAMS, 0.0)

    def test_y_l_integrates_heading(self):
        model = lateral_model(PARAMS, 10.0, lookahead=5.5)
        # eps_L enters y_L' with gain v.
        assert model.a[2, 3] == pytest.approx(10.0)

    def test_understeer_feedforward_positive(self):
        assert understeer_feedforward(PARAMS, 13.9) > PARAMS.wheelbase


class TestDiscretization:
    def test_ad_matches_expm(self):
        model = lateral_model(PARAMS, 13.9)
        disc = discretize_with_delay(model, 0.025, 0.020)
        np.testing.assert_allclose(disc.a_d, expm(model.a * 0.025), atol=1e-9)

    def test_b0_plus_b1_is_full_zoh(self):
        model = lateral_model(PARAMS, 13.9)
        disc = discretize_with_delay(model, 0.025, 0.015)
        full = discretize_with_delay(model, 0.025, 0.0)
        np.testing.assert_allclose(disc.b_0 + disc.b_1, full.b_0, atol=1e-9)

    def test_zero_delay_has_no_b1(self):
        model = lateral_model(PARAMS, 13.9)
        disc = discretize_with_delay(model, 0.025, 0.0)
        np.testing.assert_allclose(disc.b_1, 0.0, atol=1e-12)

    def test_full_delay_has_no_b0(self):
        model = lateral_model(PARAMS, 13.9)
        disc = discretize_with_delay(model, 0.025, 0.025)
        np.testing.assert_allclose(disc.b_0, 0.0, atol=1e-12)

    def test_augmented_shapes(self):
        model = lateral_model(PARAMS, 13.9)
        disc = discretize_with_delay(model, 0.03, 0.02)
        assert disc.a_aug.shape == (6, 6)
        assert disc.b_aug.shape == (6, 1)

    def test_delay_beyond_period_rejected(self):
        model = lateral_model(PARAMS, 13.9)
        with pytest.raises(ValueError):
            discretize_with_delay(model, 0.02, 0.03)

    @given(
        st.floats(min_value=8.0, max_value=14.0),
        st.floats(min_value=0.015, max_value=0.045),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_discretization_always_well_posed(self, speed, period, delay_frac):
        model = lateral_model(PARAMS, speed)
        disc = discretize_with_delay(model, period, delay_frac * period)
        assert np.all(np.isfinite(disc.a_aug))


class TestLqr:
    @pytest.mark.parametrize(
        "speed_kmph,h_ms,tau_ms",
        [(50, 25, 24.6), (50, 35, 30.1), (50, 40, 35.6), (30, 25, 23.1), (30, 45, 40.7)],
    )
    def test_paper_design_points_are_stable(self, speed_kmph, h_ms, tau_ms):
        gains = design_lqr(PARAMS, speed_kmph / 3.6, h_ms / 1000, tau_ms / 1000)
        assert gains.closed_loop_radius < 1.0

    def test_closed_loop_regulates_offset(self):
        """Simulated augmented loop drives y_L to zero."""
        gains = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        a_cl = gains.a_closed
        z = np.zeros(6)
        z[2] = 0.5  # initial y_L
        for _ in range(400):
            z = a_cl @ z
        assert abs(z[2]) < 1e-3

    def test_longer_delay_weakens_regulation(self):
        """At a fixed period, a longer sensor-to-actuation delay leaves
        a slower (larger-radius) achievable closed loop."""
        short = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.005)
        long = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        assert long.closed_loop_radius > short.closed_loop_radius

    def test_sampling_period_settle_times_same_scale(self):
        """Deterministic settle times are on the same timescale across
        the paper's (h, tau) design points — the QoC gap between them
        comes from disturbance/noise response, not nominal regulation."""
        fast = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        slow = design_lqr(PARAMS, 50 / 3.6, 0.045, 0.0407)

        def settle_time(gains):
            z = np.zeros(6)
            z[2] = 0.5
            for step in range(2000):
                z = gains.a_closed @ z
                if abs(z[2]) < 0.01:
                    return step * gains.period
            return np.inf

        assert settle_time(slow) == pytest.approx(settle_time(fast), abs=0.15)

    def test_weights_shapes(self):
        w = LqrWeights()
        assert w.q_matrix().shape == (6, 6)
        assert w.r_matrix().shape == (1, 1)


class TestGainScheduler:
    def test_caching(self):
        sched = GainScheduler(PARAMS)
        a = sched.gains_for(13.9, 0.025, 0.0246)
        b = sched.gains_for(13.9, 0.025, 0.0246)
        assert a is b
        assert len(sched.cached_designs()) == 1

    def test_distinct_tuples_distinct_designs(self):
        sched = GainScheduler(PARAMS)
        a = sched.gains_for(13.9, 0.025, 0.0246)
        b = sched.gains_for(8.33, 0.025, 0.0231)
        assert a is not b

    def test_fresh_engines_share_one_design_per_knob_tuple(self, monkeypatch):
        """The designs are memoised per process on their exact inputs:
        a second fresh engine on the same knobs solves nothing, rolls
        byte-equal, and each engine still lists its own designs."""
        import repro.control.gains as gains_module
        from repro.core.knobs import KnobSetting
        from repro.core.situation import situation_by_index
        from repro.hil.engine import HilConfig, HilEngine
        from repro.sim import static_situation_track

        calls = []

        def counting_design(*args, **kwargs):
            calls.append(args)
            return design_lqr(*args, **kwargs)

        monkeypatch.setattr(gains_module, "design_lqr", counting_design)
        gains_module._shared_design.cache_clear()
        situation = situation_by_index(1)
        track = static_situation_track(situation, length=20.0)
        config = HilConfig(frame_width=48, frame_height=24, seed=4)
        table = {situation: KnobSetting("S6", "ROI 1", 50.0)}
        try:
            runs = []
            for _ in range(2):
                engine = HilEngine(track, "case4", table=table, config=config)
                runs.append((engine.run(), engine.gain_scheduler.cached_designs()))
                if len(runs) == 1:
                    solved = len(calls)
            assert solved >= 1 and len(calls) == solved
            (first, first_designs), (second, second_designs) = runs
            for name in ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"):
                assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
            assert [id(g) for g in first_designs] == [id(g) for g in second_designs]
            assert all(not g.k.flags.writeable for g in first_designs)
        finally:
            gains_module._shared_design.cache_clear()


class TestController:
    def _gains(self):
        return design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)

    def test_steers_against_offset(self):
        controller = LaneKeepingController(self._gains())
        u = controller.step(_measurement(0.5), 0.0, 0.0, 0.0)
        assert u < 0  # left of center -> steer right

    def test_saturation(self):
        controller = LaneKeepingController(
            self._gains(), steer_limit=0.1, jump_gate_m=100.0
        )
        u = controller.step(_measurement(5.0), 0.0, 0.0, 0.0)
        assert u == pytest.approx(-0.1)

    def test_invalid_measurement_holds_last(self):
        controller = LaneKeepingController(self._gains())
        controller.step(_measurement(0.5), 0.0, 0.0, 0.0)
        held = controller.state.held_y_l
        controller.step(_measurement(0.0, valid=False), 0.0, 0.0, 0.0)
        assert controller.state.held_y_l == held
        assert controller.state.missed_frames == 1

    def test_jump_gate_rejects_implausible_jump(self):
        controller = LaneKeepingController(self._gains(), jump_gate_m=0.75)
        controller.step(_measurement(0.0), 0.0, 0.0, 0.0)
        controller.step(_measurement(2.5), 0.0, 0.0, 0.0)
        assert controller.state.held_y_l == pytest.approx(0.0)

    def test_jump_gate_reopens_after_misses(self):
        controller = LaneKeepingController(
            self._gains(), jump_gate_m=0.75, gate_max_misses=2
        )
        controller.step(_measurement(0.0), 0.0, 0.0, 0.0)
        for _ in range(3):
            controller.step(_measurement(2.5), 0.0, 0.0, 0.0)
        assert controller.state.held_y_l == pytest.approx(2.5)

    def test_feedforward_adds_curvature_term(self):
        gains = self._gains()
        with_ff = LaneKeepingController(gains, use_feedforward=True)
        without_ff = LaneKeepingController(gains, use_feedforward=False)
        meas = PerceptionResult(
            y_l=0.0, epsilon_l=0.0, curvature=1 / 60.0, valid=True,
            lines_used=2, n_pixels=100,
        )
        assert with_ff.step(meas, 0, 0, 0) > without_ff.step(meas, 0, 0, 0)

    def test_set_gains_keeps_memory(self):
        controller = LaneKeepingController(self._gains())
        controller.step(_measurement(0.4), 0.0, 0.0, 0.0)
        held = controller.state.held_y_l
        controller.set_gains(design_lqr(PARAMS, 30 / 3.6, 0.045, 0.0407))
        assert controller.state.held_y_l == held


class TestCqlf:
    def _mode_set(self):
        sched = GainScheduler(PARAMS)
        tuples = [
            (50 / 3.6, 0.025, 0.0246),
            (50 / 3.6, 0.040, 0.0356),
            (30 / 3.6, 0.025, 0.0231),
            (30 / 3.6, 0.045, 0.0407),
        ]
        return [sched.gains_for(*t).a_closed for t in tuples]

    def test_paper_mode_set_admits_cqlf(self):
        modes = self._mode_set()
        p = find_cqlf(modes)
        assert p is not None
        assert verify_cqlf(p, modes)

    def test_margin_negative_for_valid_cqlf(self):
        modes = self._mode_set()
        p = find_cqlf(modes)
        assert cqlf_margin(p, modes) < 0

    def test_unstable_mode_has_no_cqlf(self):
        unstable = [np.array([[1.05, 0.0], [0.0, 0.5]])]
        assert find_cqlf(unstable, max_iter=200) is None

    def test_verify_rejects_non_positive_p(self):
        modes = [np.array([[0.5]])]
        assert not verify_cqlf(np.array([[-1.0]]), modes)

    def test_verify_rejects_asymmetric(self):
        modes = [np.eye(2) * 0.5]
        assert not verify_cqlf(np.array([[1.0, 0.5], [0.0, 1.0]]), modes)

    def test_single_stable_mode(self):
        mode = np.array([[0.9, 0.1], [0.0, 0.8]])
        p = find_cqlf([mode])
        assert p is not None and verify_cqlf(p, [mode])

    def test_empty_mode_set_rejected(self):
        with pytest.raises(ValueError):
            find_cqlf([])


class TestLqg:
    def test_kalman_gain_shape(self):
        gains = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        k = design_kalman_gain(gains)
        assert k.shape == (6, 2)

    def test_estimator_tracks_measurement(self):
        gains = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        est = KalmanLaneEstimator(gains, design_kalman_gain(gains))
        for _ in range(60):
            est.predict(0.0)
            est.update(_measurement(0.4, eps=0.0))
        assert est.x_hat[2] == pytest.approx(0.4, abs=0.1)

    def test_estimator_skips_invalid_updates(self):
        gains = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        est = KalmanLaneEstimator(gains, design_kalman_gain(gains))
        est.update(_measurement(1.0))
        state = est.x_hat.copy()
        est.update(_measurement(5.0, valid=False))
        np.testing.assert_array_equal(est.x_hat, state)

    def test_filtered_measurement_is_valid(self):
        gains = design_lqr(PARAMS, 50 / 3.6, 0.025, 0.0246)
        est = KalmanLaneEstimator(gains, design_kalman_gain(gains))
        assert est.filtered_measurement().valid
