"""Tests for the ISP stages, configurations and pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.isp.configs import ISP_CONFIGS, IspConfig, isp_config
from repro.isp.pipeline import IspPipeline
from repro.isp.stages import (
    IspStage,
    _demosaic,
    color_map,
    demosaic,
    denoise,
    gamut_map,
    tone_map,
)
from repro.sim.sensor import mosaic


def _flat_raw(value: float = 0.5, size: int = 16) -> np.ndarray:
    return np.full((size, size), value, dtype=np.float32)


_KERNEL_G = np.array([[0, 1, 0], [1, 4, 1], [0, 1, 0]], dtype=np.float32)
_KERNEL_RB = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float32)


def _reference_demosaic(raw: np.ndarray) -> np.ndarray:
    """Bilinear demosaic as a normalised masked convolution (the oracle)."""
    raw32 = np.ascontiguousarray(raw, dtype=np.float32)
    height, width = raw32.shape
    even_row = np.arange(height)[:, None] % 2 == 0
    even_col = np.arange(width)[None, :] % 2 == 0
    masks = (even_row & even_col, even_row ^ even_col, ~even_row & ~even_col)
    rgb = np.empty((height, width, 3), dtype=np.float32)
    for channel, mask in enumerate(masks):
        mask = mask.astype(np.float32)
        kernel = _KERNEL_G if channel == 1 else _KERNEL_RB
        num = ndimage.convolve(raw32 * mask, kernel, mode="mirror")
        den = ndimage.convolve(mask, kernel, mode="mirror")
        inv_norm = (1.0 / np.maximum(den, 1e-6)).astype(np.float32)
        np.multiply(num, inv_norm, out=rgb[..., channel])
    return rgb


def _reference_gamut_map(rgb: np.ndarray, knee: float = 0.85) -> np.ndarray:
    """The full-array gamut map: clip, tanh roll-off, select."""
    x = np.clip(rgb, 0.0, None)
    span = 1.0 - knee
    compressed = np.tanh((x - knee) / span) * span + knee
    return np.where(x > knee, compressed, x).astype(np.float32)


def _bytes_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _raw_frame(rng, height: int, width: int, kind: str) -> np.ndarray:
    raw = rng.random((height, width), dtype=np.float32)
    if kind == "zeros":
        raw[rng.random(raw.shape) < 0.4] = 0.0
    elif kind == "ones":
        raw[rng.random(raw.shape) < 0.4] = 1.0
    elif kind == "tiny":
        raw = (raw * np.float32(1e-30)).astype(np.float32)
        raw[rng.random(raw.shape) < 0.3] = 1.0
    elif kind == "rounding":
        # Neighbour sums such as 1 + 2**-24 + 2**-53 + 2**-53 round to a
        # different float32 depending on the order of the taps.
        levels = np.array([1.0, 2.0**-24, 2.0**-53, 0.0], dtype=np.float32)
        raw = levels[rng.integers(0, len(levels), size=raw.shape)]
    elif kind == "negative-zero":
        raw[rng.random(raw.shape) < 0.5] = -0.0
    return raw


class TestDemosaic:
    def test_flat_field_is_preserved(self):
        rgb = demosaic(_flat_raw(0.4))
        np.testing.assert_allclose(rgb, 0.4, atol=1e-6)

    def test_mosaic_round_trip_smooth_image(self, rng):
        """Demosaic of a mosaiced smooth image recovers it closely."""
        x = np.linspace(0, 1, 32)
        smooth = np.stack(
            [np.outer(x, x), np.outer(x, 1 - x), np.outer(1 - x, x)], axis=-1
        ).astype(np.float32)
        recovered = demosaic(mosaic(smooth))
        assert np.abs(recovered[2:-2, 2:-2] - smooth[2:-2, 2:-2]).max() < 0.08

    def test_output_shape_and_dtype(self):
        rgb = demosaic(_flat_raw())
        assert rgb.shape == (16, 16, 3)
        assert rgb.dtype == np.float32

    def test_rejects_rgb_input(self):
        with pytest.raises(ValueError):
            demosaic(np.zeros((8, 8, 3)))

    def test_rejects_plane_below_2x2(self):
        with pytest.raises(ValueError, match="2x2"):
            demosaic(np.zeros((1, 8), dtype=np.float32))

    @pytest.mark.parametrize(
        "kind", ["random", "zeros", "ones", "tiny", "rounding", "negative-zero"]
    )
    @pytest.mark.parametrize(
        "shape", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 7), (9, 6), (24, 48), (31, 17)]
    )
    def test_matches_convolution_reference(self, rng, shape, kind):
        raw = _raw_frame(rng, *shape, kind)
        assert _bytes_equal(demosaic(raw), _reference_demosaic(raw))

    def test_float64_plane_matches_reference(self, rng):
        raw = rng.random((12, 10))
        assert _bytes_equal(demosaic(raw), _reference_demosaic(raw))

    @pytest.mark.parametrize("shape", [(2, 2), (5, 8), (24, 48), (33, 19)])
    def test_batch_matches_per_plane(self, rng, shape):
        stack = np.stack(
            [_raw_frame(rng, *shape, kind) for kind in ("random", "zeros", "rounding")]
        )
        batched = _demosaic(stack)
        assert batched.shape == stack.shape + (3,)
        for lane, plane in enumerate(stack):
            assert _bytes_equal(batched[lane], demosaic(plane))


class TestDenoise:
    def test_reduces_noise_variance(self, rng):
        clean = np.full((64, 64, 3), 0.5, dtype=np.float32)
        noisy = clean + 0.05 * rng.standard_normal(clean.shape).astype(np.float32)
        out = denoise(noisy)
        assert out.std() < noisy.std() * 0.7

    def test_preserves_mean(self, rng):
        noisy = (0.5 + 0.05 * rng.standard_normal((32, 32, 3))).astype(np.float32)
        out = denoise(noisy)
        assert out.mean() == pytest.approx(noisy.mean(), abs=1e-3)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            denoise(np.zeros((4, 4, 3)), sigma=0.0)


class TestColorMap:
    def test_removes_color_cast(self):
        base = np.random.default_rng(0).random((32, 32, 3)).astype(np.float32) * 0.5
        tinted = base * np.array([1.3, 1.0, 0.7], dtype=np.float32)
        corrected = color_map(tinted)
        means = corrected.reshape(-1, 3).mean(axis=0)
        assert means.max() / means.min() < 1.25

    def test_low_light_fades_to_identity(self):
        dark = np.full((16, 16, 3), 0.005, dtype=np.float32)
        dark[..., 2] = 0.002  # strong cast that must NOT be "corrected"
        out = color_map(dark)
        np.testing.assert_allclose(out, dark, atol=5e-4)


class TestGamutMap:
    def test_clips_negative(self):
        out = gamut_map(np.full((4, 4, 3), -0.2, dtype=np.float32))
        assert out.min() >= 0.0

    def test_compresses_highlights_monotonically(self):
        lo = gamut_map(np.full((2, 2, 3), 0.9, dtype=np.float32))
        hi = gamut_map(np.full((2, 2, 3), 1.2, dtype=np.float32))
        assert np.all(hi >= lo)
        assert hi.max() <= 1.0 + 1e-6

    def test_identity_below_knee(self):
        x = np.full((2, 2, 3), 0.5, dtype=np.float32)
        np.testing.assert_allclose(gamut_map(x), x)

    def test_rejects_bad_knee(self):
        with pytest.raises(ValueError):
            gamut_map(np.zeros((2, 2, 3)), knee=1.5)

    @pytest.mark.parametrize("above", ["none", "some", "all"])
    def test_matches_full_array_formula(self, rng, above):
        x = rng.random((24, 32, 3), dtype=np.float32)
        if above == "none":
            x *= np.float32(0.8)
        elif above == "some":
            x = x * np.float32(1.4) - np.float32(0.2)
        else:
            x += np.float32(0.9)
        out = gamut_map(x)
        assert _bytes_equal(out, _reference_gamut_map(x))
        assert _bytes_equal(gamut_map(x, knee=0.5), _reference_gamut_map(x, knee=0.5))

    def test_float64_input_gives_float32(self, rng):
        x = rng.random((8, 8, 3)) * 1.3
        out = gamut_map(x)
        assert out.dtype == np.float32
        assert _bytes_equal(out, _reference_gamut_map(x))

    def test_never_aliases_input(self):
        x = np.full((4, 4, 3), 0.5, dtype=np.float32)
        before = x.copy()
        out = gamut_map(x)
        assert not np.shares_memory(out, x)
        out[...] = 0.0
        assert np.array_equal(x, before)


class TestToneMap:
    def test_brightens_dark_frames(self):
        dark = np.full((16, 16, 3), 0.02, dtype=np.float32)
        out = tone_map(dark)
        assert out.mean() > 0.2

    def test_day_frame_mostly_gamma(self):
        mid = np.full((16, 16, 3), 0.5, dtype=np.float32)
        out = tone_map(mid)
        assert out.mean() == pytest.approx(0.5 ** (1 / 2.2), abs=0.05)

    def test_gain_is_bounded(self):
        black = np.full((16, 16, 3), 1e-5, dtype=np.float32)
        out = tone_map(black, max_gain=8.0)
        assert out.max() < 0.1  # 8x of almost nothing stays almost nothing

    @given(st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_output_in_unit_interval(self, level):
        frame = np.full((8, 8, 3), level, dtype=np.float32)
        out = tone_map(frame)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestConfigs:
    def test_table2_has_nine_configs(self):
        assert set(ISP_CONFIGS) == {f"S{i}" for i in range(9)}

    def test_s0_has_all_stages(self):
        assert len(isp_config("S0").stages) == 5

    def test_runtimes_match_table2(self):
        assert isp_config("S0").xavier_runtime_ms == 21.5
        assert isp_config("S3").xavier_runtime_ms == 3.3
        assert isp_config("S8").xavier_runtime_ms == 3.2

    def test_demosaic_always_present(self):
        for cfg in ISP_CONFIGS.values():
            assert cfg.has(IspStage.DEMOSAIC)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown ISP config"):
            isp_config("S9")

    def test_config_without_demosaic_rejected(self):
        with pytest.raises(ValueError, match="demosaic"):
            IspConfig("bad", (IspStage.DENOISE,), 1.0)


class TestPipeline:
    def test_output_is_rgb_unit_interval(self, rng):
        raw = rng.random((32, 32)).astype(np.float32)
        out = IspPipeline("S0").process(raw)
        assert out.shape == (32, 32, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_accepts_config_object(self):
        pipeline = IspPipeline(isp_config("S5"))
        assert pipeline.name == "S5"

    @pytest.mark.parametrize("name", sorted(ISP_CONFIGS))
    def test_every_config_runs(self, name, rng):
        raw = rng.random((16, 16)).astype(np.float32)
        out = IspPipeline(name).process(raw)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", sorted(ISP_CONFIGS))
    def test_process_batch_lanes_match_process(self, name, rng):
        stack = rng.random((3, 12, 18), dtype=np.float32)
        stack[1] *= np.float32(0.05)  # a dark lane: tone-map gain differs
        pipeline = IspPipeline(name)
        batched = pipeline.process_batch(stack)
        for lane, raw in enumerate(stack):
            assert _bytes_equal(batched[lane], pipeline.process(raw))

    def test_taps_apply_per_lane(self, rng):
        def make_tap(seed):
            noise = np.random.default_rng(seed)
            seen = []

            def tap(stage, rgb):
                seen.append(stage)
                return np.clip(rgb + 0.1 * noise.random(rgb.shape, dtype=np.float32), 0, 1)

            return tap, seen

        stack = rng.random((3, 8, 8), dtype=np.float32)
        pipeline = IspPipeline("S1")
        taps = [make_tap(lane) for lane in range(3)]
        batched = pipeline.process_batch(stack, taps=[taps[0][0], None, taps[2][0]])
        assert taps[0][1] == ["DM", "CM", "GM", "TM", "output"]
        assert taps[1][1] == []
        for lane, raw in enumerate(stack):
            serial_tap = make_tap(lane)[0] if lane != 1 else None
            assert _bytes_equal(batched[lane], pipeline.process(raw, tap=serial_tap))

    def test_entry_points_do_not_call_each_other(self, rng, monkeypatch):
        """Wrapping both entry points must count every frame once."""
        raw = rng.random((8, 8), dtype=np.float32)
        pipeline = IspPipeline("S0")

        def forbidden(*args, **kwargs):
            raise AssertionError("entry point called the other one")

        monkeypatch.setattr(IspPipeline, "process_batch", forbidden)
        pipeline.process(raw)
        monkeypatch.undo()
        monkeypatch.setattr(IspPipeline, "process", forbidden)
        pipeline.process_batch(raw[None])

    def test_process_batch_rejects_single_plane(self):
        with pytest.raises(ValueError, match="B, H, W"):
            IspPipeline("S0").process_batch(np.zeros((8, 8), dtype=np.float32))

    def test_tone_map_configs_brighten_dark_raw(self, rng):
        raw = (0.02 + 0.002 * rng.standard_normal((32, 32))).astype(np.float32)
        with_tm = IspPipeline("S8").process(raw)
        without_tm = IspPipeline("S5").process(raw)
        assert with_tm.mean() > 4 * without_tm.mean()
