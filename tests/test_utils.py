"""Tests for repro.utils: rng derivation, validation, artifact cache."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.cache import (
    ENTRY_MAGIC,
    ArtifactCache,
    config_hash,
    read_entry,
    write_entry,
)
from repro.utils.rng import derive_rng, seed_everything, stream_seed
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_shape,
)


class TestRng:
    def test_same_seed_same_stream_is_deterministic(self):
        a = derive_rng(42, "camera").random(8)
        b = derive_rng(42, "camera").random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_are_independent(self):
        a = derive_rng(42, "camera").random(8)
        b = derive_rng(42, "dataset").random(8)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        assert stream_seed(1, "x") != stream_seed(2, "x")

    def test_stream_seed_is_63_bit(self):
        assert 0 <= stream_seed(123, "abc") < 2**63

    @given(st.integers(min_value=0, max_value=2**40), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_stream_seed_stable_under_repetition(self, seed, stream):
        assert stream_seed(seed, stream) == stream_seed(seed, stream)

    def test_seed_everything_returns_generator(self):
        gen = seed_everything(7)
        assert isinstance(gen, np.random.Generator)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_check_in_range_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0

    def test_check_in_range_exclusive_rejects_bound(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_check_shape_wildcard(self):
        arr = np.zeros((3, 5))
        check_shape("a", arr, (-1, 5))

    def test_check_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_shape("a", np.zeros((3, 4)), (3, 5))

    def test_check_finite_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_finite("a", np.array([1.0, np.nan]))


class TestEntryFormat:
    def test_round_trip_keeps_doc_and_arrays(self, tmp_path):
        doc = {"name": "x", "values": [1, 2.5, None]}
        arrays = {"a": np.arange(3, dtype=">i4"), "b": np.full((2, 2), -0.0)}
        path = write_entry(tmp_path / "e.npz", doc, arrays)
        got_doc, got = read_entry(path)
        assert got_doc == doc
        for name, value in arrays.items():
            assert got[name].dtype == value.dtype
            assert got[name].tobytes() == value.tobytes()
        assert path.stat().st_size % 8 == 0
        assert list(tmp_path.iterdir()) == [path]

    def test_object_and_structured_dtypes_are_refused_on_write(self, tmp_path):
        for value in (np.array([{"a": 1}], dtype=object), np.zeros(2, "i4,f8")):
            with pytest.raises(ValueError, match="unsupported dtype"):
                write_entry(tmp_path / "e.npz", {}, {"x": value})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "blob",
        [b"", b"PK\x03\x04 a zip", b"\x93REPRO\x01\n" + b"\xff" * 8, b"\x93REPRO\x01\n"],
        ids=["empty", "bad-magic", "huge-header", "short-prefix"],
    )
    def test_damaged_files_raise_value_error(self, tmp_path, blob):
        path = tmp_path / "e.npz"
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            read_entry(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_entry(tmp_path / "absent.npz")


class TestArtifactCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        config = {"a": 1, "b": [1, 2]}
        assert cache.load(config) is None
        cache.store(config, {"x": np.arange(4)})
        loaded = cache.load(config)
        np.testing.assert_array_equal(loaded["x"], np.arange(4))

    def test_different_config_misses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        cache.store({"a": 1}, {"x": np.zeros(1)})
        assert cache.load({"a": 2}) is None

    def test_disabled_cache_never_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=False)
        cache.store({"a": 1}, {"x": np.zeros(1)})
        assert cache.load({"a": 1}) is None

    def test_clear_removes_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        cache.store({"a": 1}, {"x": np.zeros(1)})
        assert cache.clear() == 1
        assert cache.load({"a": 1}) is None

    def test_corrupt_entry_behaves_as_miss(self, tmp_path, monkeypatch):
        """Garbage and truncated archives both load as a miss."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        path = cache.store({"a": 1}, {"x": np.zeros(1)})
        intact = path.read_bytes()
        for blob in (b"not an npz", intact[:40], intact[: len(intact) // 2], intact[:-10]):
            path.write_bytes(blob)
            assert cache.load({"a": 1}) is None, len(blob)

    def test_round_trips_zero_d_float32_and_int_arrays(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        arrays = {
            "scalar": np.array(0.1),
            "weights": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
            "counts": np.arange(5, dtype=np.int64),
            "flags": np.array([True, False, True]),
            "empty": np.zeros((0, 3)),
        }
        cache.store({"a": 1}, arrays)
        loaded = cache.load({"a": 1})
        assert sorted(loaded) == sorted(arrays)
        for name, value in arrays.items():
            assert loaded[name].dtype == value.dtype, name
            assert loaded[name].shape == value.shape, name
            assert loaded[name].tobytes() == value.tobytes(), name
            assert loaded[name].flags.writeable, name

    def test_old_npz_entry_is_a_miss_then_overwritten(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        path = cache._path(config_hash({"a": 1}))
        path.parent.mkdir(parents=True)
        np.savez(path, x=np.ones(3))
        assert cache.load({"a": 1}) is None
        assert cache.store({"a": 1}, {"x": np.zeros(3)}) == path
        assert path.read_bytes()[: len(ENTRY_MAGIC)] == ENTRY_MAGIC
        np.testing.assert_array_equal(cache.load({"a": 1})["x"], np.zeros(3))
        assert cache.entries() == [path]

    def test_config_hash_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_config_hash_handles_numpy_scalars(self):
        assert config_hash({"a": np.int64(3)}) == config_hash({"a": 3})

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        cache.store({"a": 1}, {"x": np.zeros(1)})
        orphan = cache.root / "deadbeef.npz.tmp"
        orphan.write_bytes(b"partial write")
        # Orphans are removed but never counted as entries.
        assert cache.clear() == 1
        assert not orphan.exists()
        assert list(cache.root.glob("*.npz.tmp")) == []

    def test_store_sweeps_stale_tmp_but_keeps_fresh(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        cache.root.mkdir(parents=True, exist_ok=True)
        stale = cache.root / "stale.npz.tmp"
        stale.write_bytes(b"interrupted hours ago")
        os.utime(stale, (1.0, 1.0))  # mtime far in the past
        fresh = cache.root / "fresh.npz.tmp"
        fresh.write_bytes(b"concurrent writer in flight")
        cache.store({"a": 1}, {"x": np.zeros(1)})
        assert not stale.exists()
        assert fresh.exists()  # recent tmp may belong to a live writer

    def test_concurrent_writers_same_key(self, tmp_path, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache("unit", enabled=True)
        config = {"a": 1}
        payloads = [np.full(64, float(i)) for i in range(8)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda arr: cache.store(config, {"x": arr}), payloads))

        # Exactly one visible entry, no leftover temp files, and the
        # winning entry is one complete payload (last rename wins).
        assert len(list(cache.root.glob("*.npz"))) == 1
        assert list(cache.root.glob("*.npz.tmp")) == []
        loaded = cache.load(config)["x"]
        assert any(np.array_equal(loaded, arr) for arr in payloads)
