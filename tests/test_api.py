"""Tests for the repro.api facade, the identifier registry, and the
``invocation_window_ms`` keyword unification."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import ProfileReport
from repro.core.cases import case_config
from repro.core.characterization import CharacterizationConfig
from repro.core.identifiers import (
    register_identifier,
    registered_identifiers,
    resolve_identifier,
)
from repro.core.reconfiguration import (
    MitigationConfig,
    OracleIdentifier,
    ReconfigurationManager,
)
from repro.core.situation import situation_by_index
from repro.hil.engine import HilConfig, HilEngine
from repro.sim.world import static_situation_track

FAST = dict(frame_width=192, frame_height=96)
FRAME = (192, 96)

#: Same tiny sweep as tests/test_characterization.py.
TINY = CharacterizationConfig(
    isp_names=("S0", "S7"),
    speeds_kmph=(50.0,),
    track_length=70.0,
    prescreen_frames=6,
    max_isp_candidates=2,
    frame_width=192,
    frame_height=96,
    seed=5,
)


class TestFacade:
    def test_top_level_exports(self):
        for name in ("simulate", "characterize", "profile", "inject"):
            assert name in repro.__all__
            assert callable(getattr(repro, name))
        assert repro.ProfileReport is ProfileReport

    def test_functions_are_keyword_only(self):
        with pytest.raises(TypeError):
            repro.simulate(1)  # type: ignore[misc]
        with pytest.raises(TypeError):
            repro.inject("blackout")  # type: ignore[misc]
        with pytest.raises(TypeError, match="faults"):
            repro.inject()  # type: ignore[call-arg]

    def test_simulate_matches_direct_engine_run(self):
        via_api = repro.simulate(
            situation=1, case="case3", length_m=70.0, seed=7, frame=FRAME
        )
        track = static_situation_track(situation_by_index(1), length=70.0)
        direct = HilEngine(track, "case3", config=HilConfig(seed=7, **FAST)).run()
        assert np.array_equal(via_api.lateral_offset, direct.lateral_offset)
        assert np.array_equal(via_api.steering, direct.steering)
        assert via_api.cycles == direct.cycles

    def test_numpy_integer_seed_is_a_single_seed(self):
        """``for s in np.arange(n): simulate(seed=s)`` runs one seed."""
        plain = repro.simulate(length_m=40.0, seed=3, frame=FRAME)
        numpy_seed = repro.simulate(length_m=40.0, seed=np.int64(3), frame=FRAME)
        for name in ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"):
            assert getattr(numpy_seed, name).tobytes() == getattr(plain, name).tobytes()
        assert numpy_seed.cycles == plain.cycles
        assert numpy_seed.manifest["config_hash"] == plain.manifest["config_hash"]

    def test_non_integer_seed_in_a_sequence_is_rejected(self):
        with pytest.raises(TypeError):
            repro.simulate(length_m=40.0, seed=[1.5], frame=FRAME)

    def test_shortcut_keywords_compose_with_config(self):
        base = HilConfig(seed=7, **FAST)
        from_config = repro.simulate(length_m=70.0, config=base)
        from_keywords = repro.simulate(length_m=70.0, seed=7, frame=FRAME)
        assert np.array_equal(from_config.lateral_offset, from_keywords.lateral_offset)
        # Keywords override the base config field by field.
        reseeded = repro.simulate(length_m=70.0, seed=11, config=base)
        assert not np.array_equal(reseeded.lateral_offset, from_config.lateral_offset)

    def test_simulate_accepts_situation_instance_and_track(self):
        situation = situation_by_index(8)
        by_index = repro.simulate(situation=8, length_m=70.0, seed=7, frame=FRAME)
        by_instance = repro.simulate(
            situation=situation, length_m=70.0, seed=7, frame=FRAME
        )
        assert np.array_equal(by_index.lateral_offset, by_instance.lateral_offset)
        track = static_situation_track(situation, length=70.0)
        by_track = repro.simulate(track=track, situation=8, seed=7, frame=FRAME)
        assert np.array_equal(by_track.lateral_offset, by_index.lateral_offset)

    def test_inject_runs_campaign_and_mitigation_kwarg(self):
        result = repro.inject(
            faults="banding@1000:2000",
            length_m=70.0,
            seed=7,
            frame=FRAME,
            mitigate=False,
        )
        assert result.fault_kinds() == ("banding",)
        assert result.degraded_cycles() == 0
        custom = repro.inject(
            faults="outage@1000:inf",
            length_m=70.0,
            seed=7,
            frame=FRAME,
            mitigate=MitigationConfig(stale_after_ms=500.0),
        )
        assert custom.degraded_cycles() > 0

    def test_profile_returns_report_with_modeled_latencies(self):
        report = repro.profile(length_m=40.0, seed=7, frame=FRAME)
        assert isinstance(report, ProfileReport)
        assert report.result.profile, "profiling must be forced on"
        assert "hil.pr" in report.modeled_ms
        assert "hil.control" in report.modeled_ms
        text = report.table()
        assert "hil.control" in text and "model ms" in text

    def test_characterize_single_situation_returns_ranked_evaluations(self):
        evaluations = repro.characterize(situation=1, config=TINY)
        assert evaluations, "sweep must produce evaluations"
        survivors = [e for e in evaluations if not e.crashed]
        assert survivors == sorted(survivors, key=lambda e: e.mae)

    def test_characterize_writes_only_into_the_session_cache_dir(
        self, monkeypatch, tmp_path, repro_cache_dir
    ):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        repro.characterize(situation=1, config=TINY)
        assert list(home.iterdir()) == []
        assert list((repro_cache_dir / "rollouts").rglob("*.npz"))

    def test_characterize_rejects_both_selectors(self):
        with pytest.raises(ValueError, match="not both"):
            repro.characterize(situation=1, situations=[1, 2], config=TINY)


class TestIdentifierRegistry:
    def test_builtin_names(self):
        names = registered_identifiers()
        assert "oracle" in names and "cnn" in names

    def test_resolve_oracle_specs(self):
        perfect = resolve_identifier("oracle", seed=3)
        assert isinstance(perfect, OracleIdentifier)
        assert perfect.accuracy == 1.0
        degraded = resolve_identifier("oracle:0.9", seed=3)
        assert degraded.accuracy == pytest.approx(0.9)
        assert resolve_identifier(None, seed=3).accuracy == 1.0
        instance = OracleIdentifier(seed=3)
        assert resolve_identifier(instance) is instance

    def test_resolve_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown identifier"):
            resolve_identifier("gps")
        with pytest.raises(ValueError, match="accuracy"):
            resolve_identifier("oracle:perfect")
        with pytest.raises(TypeError):
            resolve_identifier(42)  # type: ignore[arg-type]

    def test_register_and_use_custom_identifier(self):
        calls = []

        def factory(arg, seed):
            calls.append((arg, seed))
            return OracleIdentifier(seed=seed)

        register_identifier("test-oracle", factory)
        try:
            assert "test-oracle" in registered_identifiers()
            resolved = resolve_identifier("test-oracle:xyz", seed=5)
            assert isinstance(resolved, OracleIdentifier)
            assert calls == [("xyz", 5)]
        finally:
            from repro.core import identifiers

            identifiers._REGISTRY.pop("test-oracle", None)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError, match="invalid identifier name"):
            register_identifier("", lambda arg, seed: OracleIdentifier())
        with pytest.raises(ValueError, match="invalid identifier name"):
            register_identifier("a:b", lambda arg, seed: OracleIdentifier())

    def test_engine_accepts_registry_spec(self):
        track = static_situation_track(situation_by_index(1), length=70.0)
        config = HilConfig(seed=7, **FAST)
        spec = HilEngine(track, "case3", identifier="oracle", config=config).run()
        direct = HilEngine(
            track, "case3", identifier=OracleIdentifier(seed=7), config=config
        ).run()
        assert np.array_equal(spec.lateral_offset, direct.lateral_offset)


class TestWindowKeywordUnification:
    def test_manager_prefers_invocation_window_ms(self):
        manager = ReconfigurationManager(
            case_config("variable"), invocation_window_ms=200.0
        )
        assert manager.invocation_window_ms == 200.0

    def test_window_ms_shim_removed(self):
        # Deprecated in 1.1.0 with a DeprecationWarning shim, removed in
        # 1.3.0: the old spelling is now an ordinary unknown keyword.
        with pytest.raises(TypeError, match="window_ms"):
            ReconfigurationManager(case_config("variable"), window_ms=250.0)

    def test_config_keyword_reaches_manager(self):
        track = static_situation_track(situation_by_index(1), length=70.0)
        config = HilConfig(seed=7, invocation_window_ms=200.0, **FAST)
        engine = HilEngine(track, "variable", config=config)
        assert engine.manager.invocation_window_ms == 200.0
