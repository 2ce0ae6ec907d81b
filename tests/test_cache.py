"""Tests for the content-addressed rollout cache (repro.cache).

Unit layer: sharded layout, LRU eviction, corruption-as-miss, the
``verify`` self-check, and the ``resolve_cache`` keyword mapping.
Integration layer: the multi-process stress (no torn files under
concurrent writers), the parent-write-back guarantee (a warm sweep
recomputes nothing), the stale ``.tmp`` sweep, the ``python -m repro
cache`` maintenance CLI, and the ``$REPRO_BATCH`` config-hash
regression — batching is an execution knob, never part of a rollout's
identity.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.api
from repro.__main__ import main
from repro.cache import (
    CacheStats,
    RolloutCache,
    global_stats,
    kernel_identity_tag,
    resolve_cache,
    rollout_key,
    rollout_key_document,
)
from repro.core.characterization import CharacterizationConfig, characterize_situation
from repro.core.situation import situation_by_index
from repro.hil.record import CycleRecord, HilResult
from repro.utils.cache import ENTRY_MAGIC, read_entry, write_entry

QUICK = dict(situation=1, case="case1", seed=5, frame=(96, 48), length_m=40.0)
TRACE_FIELDS = ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed")

#: Tiny sweep for the warm-pass recompute check (4 closed-loop tasks).
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


def tiny_result(entry: int) -> HilResult:
    """A deterministic synthetic trace for store-level tests."""
    n = 4 + entry % 3
    base = np.arange(n, dtype=np.float64)
    return HilResult(
        time_s=base * 0.04,
        s=base * 0.5 + entry,
        lateral_offset=np.sin(base + entry),
        y_l_true=np.cos(base + entry),
        steering=base * 0.01,
        speed=np.full(n, 50.0),
        cycles=[
            CycleRecord(
                time_ms=0.0, s=0.0, active_isp="S0", roi="ROI 1",
                speed_kmph=50.0, period_ms=40.0, delay_ms=36.0,
                invoked=("isp",), measurement_valid=True,
                y_l_measured=0.1, steering=0.0,
            )
        ],
        completed=True,
        manifest={"config_hash": f"{entry:024x}", "entry": entry},
    )


def tiny_document(entry: int) -> dict:
    return {"schema": 1, "kernel": "test", "entry": entry}


def save_legacy(result: HilResult, path, document: dict) -> None:
    """Write *result* in the one-member-per-field layout of older stores."""
    np.savez(
        path,
        time_s=result.time_s,
        s=result.s,
        lateral_offset=result.lateral_offset,
        y_l_true=result.y_l_true,
        steering=result.steering,
        speed=result.speed,
        crashed=np.array(result.crashed),
        crash_s=np.array(np.nan if result.crash_s is None else result.crash_s),
        completed=np.array(result.completed),
        cycles_json=np.array(
            json.dumps([dataclasses.asdict(c) for c in result.cycles])
        ),
        manifest_json=np.array(json.dumps(result.manifest)),
        cache_key_json=np.array(json.dumps(document, sort_keys=True)),
    )


def save_two_member(result: HilResult, path, document: dict) -> None:
    """Write *result* in the two-member ``.npz`` layout of older stores."""
    arrays = [getattr(result, name) for name in TRACE_FIELDS]
    record = {
        "crashed": result.crashed,
        "crash_s": result.crash_s,
        "completed": result.completed,
        "lengths": [len(values) for values in arrays],
        "fields": [f.name for f in dataclasses.fields(CycleRecord)],
        "cycles": [list(dataclasses.astuple(c)) for c in result.cycles],
        "manifest": result.manifest,
        "cache_key_json": json.dumps(document, sort_keys=True),
    }
    np.savez(
        path,
        trace=np.concatenate(arrays),
        record_json=np.frombuffer(json.dumps(record).encode(), np.uint8),
    )


def save_plain_columns(result: HilResult, path, document: dict) -> None:
    """Write *result* as a flat entry with plain JSON cycle columns, the
    layout flat entries had before the run-length columns."""
    arrays = [getattr(result, name) for name in TRACE_FIELDS]
    names = [f.name for f in dataclasses.fields(CycleRecord)]
    columns = {name: [getattr(c, name) for c in result.cycles] for name in names}
    floats = [
        name for name, values in columns.items()
        if all(isinstance(value, float) for value in values)
    ]
    record = {
        "crashed": result.crashed,
        "crash_s": result.crash_s,
        "completed": result.completed,
        "lengths": [len(values) for values in arrays],
        "fields": names,
        "float_fields": floats,
        "cycles": {name: v for name, v in columns.items() if name not in floats},
        "manifest": result.manifest,
        "cache_key_json": json.dumps(document, sort_keys=True),
    }
    block = np.array([columns[name] for name in floats], dtype=np.float64)
    write_entry(
        path,
        record,
        {
            "trace": np.concatenate(arrays),
            "cycles": block.reshape(len(floats), len(result.cycles)),
        },
    )


def rewrite_record(path, mutate) -> None:
    """Re-save a flat entry after *mutate* edits its record document."""
    record, arrays = read_entry(path)
    mutate(record)
    write_entry(path, record, arrays)


def patch_entry(path, edit_header=None, cut=0) -> None:
    """Rewrite an entry's JSON header through *edit_header* (which may
    return a raw length to store instead of the true one), then drop
    the last *cut* bytes -- damage ``write_entry`` refuses to produce."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + length])
    forced = edit_header(header) if edit_header else None
    blob = json.dumps(header).encode()
    blob += b" " * (-len(blob) % 8)
    prefix = ENTRY_MAGIC + (forced or len(blob)).to_bytes(8, "little")
    data = prefix + blob + raw[16 + length :]
    path.write_bytes(data[: len(data) - cut])


def _set_dtype(descr):
    def edit(header):
        header["arrays"][0][1] = descr

    return edit


# ---------------------------------------------------------------------------
# store unit behaviour


class TestRolloutCacheStore:
    def test_entries_are_sharded_two_levels(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        path = store.store(tiny_document(1), tiny_result(1))
        key = rollout_key(tiny_document(1))
        assert path == tmp_path / key[:2] / key[2:4] / f"{key}.npz"
        assert store.entries() == [path]

    def test_round_trip_and_counters(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        assert store.load(tiny_document(2)) is None
        store.store(tiny_document(2), tiny_result(2))
        loaded = store.load(tiny_document(2))
        assert loaded is not None
        expected = tiny_result(2)
        assert loaded.time_s.tobytes() == expected.time_s.tobytes()
        assert loaded.cycles == expected.cycles
        assert loaded.manifest == expected.manifest
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "evictions": 0,
        }

    def test_uncacheable_document_is_a_silent_noop(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        assert store.load(None) is None
        assert store.store(None, tiny_result(0)) is None
        assert store.stats == CacheStats()

    def test_corrupt_entry_is_a_miss_and_a_verify_problem(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        path = store.store(tiny_document(3), tiny_result(3))
        path.write_bytes(b"not an npz archive")
        assert store.load(tiny_document(3)) is None
        checked, problems = store.verify()
        assert checked == 1 and len(problems) == 1
        assert "unreadable" in problems[0]

    # tiny_result(3) has 4 samples per array, so [-1, 9] keeps the sum.
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda record: record["lengths"].__setitem__(0, record["lengths"][0] + 1),
            lambda record: record["lengths"].__setitem__(slice(0, 2), [-1, 9]),
            lambda record: record["runs"]["roi"].pop(),
            lambda record: record["fields"].reverse(),
        ],
        ids=["lengths-overrun", "negative-length", "row-arity", "field-order"],
    )
    def test_malformed_record_is_a_miss_and_a_verify_problem(self, tmp_path, mutate):
        store = RolloutCache(tmp_path, enabled=True)
        path = store.store(tiny_document(3), tiny_result(3))
        rewrite_record(path, mutate)
        assert store.load(tiny_document(3)) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        checked, problems = store.verify()
        assert checked == 1 and len(problems) == 1
        assert "unreadable" in problems[0]

    @pytest.mark.parametrize(
        "damage",
        [
            dict(cut=8),
            dict(edit_header=lambda header: 1 << 40),
            dict(edit_header=_set_dtype("<x9")),
            dict(edit_header=_set_dtype("|O")),
            dict(edit_header=lambda header: header["arrays"][0].__setitem__(3, 1 << 20)),
            dict(edit_header=lambda header: header["arrays"][0].__setitem__(3, -8)),
        ],
        ids=[
            "truncated", "header-overrun", "unknown-dtype", "object-dtype",
            "array-overrun", "negative-offset",
        ],
    )
    def test_damaged_entry_is_a_miss_and_a_verify_problem(self, tmp_path, damage):
        store = RolloutCache(tmp_path, enabled=True)
        path = store.store(tiny_document(3), tiny_result(3))
        patch_entry(path, **damage)
        with pytest.raises(ValueError):
            read_entry(path)
        assert store.load(tiny_document(3)) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        checked, problems = store.verify()
        assert checked == 1 and len(problems) == 1
        assert "unreadable" in problems[0]

    def test_new_and_legacy_entries_verify_and_load_bit_identically(self, tmp_path):
        """A store written in any older layout (plain-column flat entries,
        two- and twelve-member ``.npz``) stays warm beside run-length
        flat entries."""
        store = RolloutCache(tmp_path, enabled=True)
        fresh = store.store(tiny_document(1), tiny_result(1))
        paths = {}
        for entry, writer in (
            (2, save_two_member), (3, save_legacy), (4, save_plain_columns)
        ):
            paths[entry] = store.path_for(rollout_key(tiny_document(entry)))
            paths[entry].parent.mkdir(parents=True)
            writer(tiny_result(entry), paths[entry], tiny_document(entry))
        assert "runs" in read_entry(fresh)[0]
        with np.load(paths[2]) as data:
            assert sorted(data.files) == ["record_json", "trace"]
        with np.load(paths[3]) as data:
            assert "cycles_json" in data.files and "record_json" not in data.files
        plain = read_entry(paths[4])[0]
        assert "cycles" in plain and "runs" not in plain
        assert store.verify() == (4, [])
        for entry in (1, 2, 3, 4):
            loaded, expected = store.load(tiny_document(entry)), tiny_result(entry)
            _assert_same_trace(loaded, expected)
            assert (loaded.crash_s, loaded.manifest) == (expected.crash_s, expected.manifest)
        assert store.stats.hits == 4 and store.stats.misses == 0

    def test_verify_reads_each_entry_once(self, tmp_path, monkeypatch):
        import repro.hil.record as record_module

        store = RolloutCache(tmp_path, enabled=True)
        for entry in range(3):
            store.store(tiny_document(entry), tiny_result(entry))
        reads = []
        real_read_entry = record_module.read_entry

        def counting_read_entry(path):
            reads.append(path)
            return real_read_entry(path)

        monkeypatch.setattr(record_module, "read_entry", counting_read_entry)
        assert store.verify() == (3, [])
        assert sorted(reads) == store.entries()

    def test_verify_catches_entry_in_wrong_shard(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        path = store.store(tiny_document(4), tiny_result(4))
        wrong = tmp_path / "zz" / "zz" / path.name
        wrong.parent.mkdir(parents=True)
        path.rename(wrong)
        checked, problems = store.verify()
        assert checked == 1 and len(problems) == 1
        assert "hashes to" in problems[0]

    def test_lru_eviction_protects_latest_store(self, tmp_path):
        entry_size = 0
        probe = RolloutCache(tmp_path / "probe", enabled=True)
        entry_size = probe.store(tiny_document(0), tiny_result(0)).stat().st_size
        store = RolloutCache(
            tmp_path / "store", max_bytes=int(entry_size * 2.5), enabled=True
        )
        for entry in range(3):
            store.store(tiny_document(entry), tiny_result(entry))
            # mtime resolution can be coarse; keep the LRU order strict.
            time.sleep(0.02)
        assert len(store.entries()) == 2
        assert store.stats.evictions == 1
        assert store.load(tiny_document(0)) is None   # oldest evicted
        assert store.load(tiny_document(2)) is not None  # newest protected

    def test_stores_under_the_bound_scan_the_store_once(self, tmp_path, monkeypatch):
        """Store upkeep does not walk the store on every write: one
        instance sweeps and totals an existing store once, then keeps
        the total running until it passes the bound."""
        RolloutCache(tmp_path, enabled=True).store(tiny_document(0), tiny_result(0))
        store = RolloutCache(tmp_path, enabled=True)
        scans, sweeps = [], []
        real_scan, real_sweep = store._scan, store._sweep_tmp
        monkeypatch.setattr(store, "_scan", lambda: scans.append(1) or real_scan())
        monkeypatch.setattr(
            store, "_sweep_tmp", lambda **kw: sweeps.append(1) or real_sweep(**kw)
        )
        def on_disk():
            return sum(path.stat().st_size for path in store.entries())

        for entry in range(1, 9):
            store.store(tiny_document(entry), tiny_result(entry))
        assert (len(scans), len(sweeps)) == (1, 1)
        assert store._bytes == on_disk()
        assert store.stats.evictions == 0

        store.max_bytes = store._bytes + 1
        store.store(tiny_document(9), tiny_result(9))
        assert (len(scans), len(sweeps)) == (2, 1)
        assert store.stats.evictions == 1
        assert store._bytes == on_disk() <= store.max_bytes

    def test_clear_removes_everything(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        for entry in range(3):
            store.store(tiny_document(entry), tiny_result(entry))
        assert store.clear() == 3
        assert store.entries() == [] and store.total_bytes() == 0

    def test_stale_tmp_is_swept_young_tmp_survives(self, tmp_path):
        store = RolloutCache(tmp_path, enabled=True)
        store.store(tiny_document(1), tiny_result(1))
        shard = store.entries()[0].parent
        stale = shard / "orphan.npz.tmp"
        stale.write_bytes(b"dead writer")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        young = shard / "inflight.npz.tmp"
        young.write_bytes(b"live writer")
        store.store(tiny_document(2), tiny_result(2))
        assert not stale.exists()
        assert young.exists()


class TestResolveCache:
    def test_off_and_none_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache("off") is None

    def test_explicit_root(self, tmp_path):
        store = resolve_cache(tmp_path / "mine")
        assert store is not None and store.root == tmp_path / "mine"

    def test_auto_uses_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = resolve_cache("auto")
        assert store is not None and store.root == tmp_path / "rollouts"

    def test_no_cache_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_cache(tmp_path / "store") is None
        assert resolve_cache("auto") is None


# ---------------------------------------------------------------------------
# facade integration


def _assert_same_trace(a: HilResult, b: HilResult) -> None:
    """Bitwise equality of two simulated traces (wall clock aside)."""
    for field in TRACE_FIELDS:
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert a.cycles == b.cycles
    assert (a.crashed, a.completed) == (b.crashed, b.completed)
    assert a.manifest["config_hash"] == b.manifest["config_hash"]


class TestFacadeCache:
    def test_hit_is_byte_identical_including_manifest(self, tmp_path):
        store = tmp_path / "store"
        cold = repro.api.simulate(**QUICK, cache=store)
        warm = repro.api.simulate(**QUICK, cache=store)
        for field in ("time_s", "s", "lateral_offset", "y_l_true",
                      "steering", "speed"):
            assert getattr(cold, field).tobytes() == getattr(warm, field).tobytes()
        assert cold.cycles == warm.cycles
        # The stored manifest keeps the original run's wall clock, so
        # the hit manifest is equal *including* the volatile fields.
        assert cold.manifest == warm.manifest

    def test_single_seed_is_a_seed_list_of_one(self):
        single = repro.api.simulate(**QUICK)
        (listed,) = repro.api.simulate(**{**QUICK, "seed": [QUICK["seed"]]})
        _assert_same_trace(single, listed)

    def test_partial_hits_only_roll_the_misses(self, tmp_path):
        store = tmp_path / "store"
        quick = {k: v for k, v in QUICK.items() if k != "seed"}
        repro.api.simulate(**quick, seed=2, cache=store)
        before = global_stats().snapshot()
        cached = repro.api.simulate(**quick, seed=[1, 2, 3], cache=store)
        delta = global_stats().since(before)
        assert (delta.hits, delta.misses, delta.stores) == (1, 2, 2)
        live = repro.api.simulate(**quick, seed=[1, 2, 3])
        assert len(cached) == len(live) == 3
        for hit_or_fresh, rerun in zip(cached, live):
            _assert_same_trace(hit_or_fresh, rerun)

    def test_key_document_carries_the_kernel_identity(self):
        from repro.hil.engine import HilConfig
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=40.0)
        document = rollout_key_document(
            track=track, case="case1", config=HilConfig()
        )
        assert document["kernel"] == kernel_identity_tag()
        assert document["schema"] == 2

    def test_batch_keys_equal_one_lane_keys(self):
        """``rollout_keys`` over mixed lanes gives every lane the key, the
        canonical JSON and the document the one-lane derivation gives,
        down to the byte: shared and per-lane tracks, cases (names and
        instances) and configs, and a profiled (uncacheable) lane."""
        from repro.cache import KEY_SCHEMA, rollout_keys
        from repro.cache.keys import _library_versions
        from repro.core.cases import case_config
        from repro.core.knobs import KnobSetting
        from repro.hil.engine import HilConfig
        from repro.sim import static_situation_track
        from repro.utils.version import __version__

        def reference(track, case, table, identifier, config):
            # The document as built one lane at a time before the batch key.
            if config.profile or (identifier is not None and not isinstance(identifier, str)):
                return None
            case = case_config(case) if isinstance(case, str) else case
            entries = [[list(s.to_config()), k.to_config()] for s, k in (table or {}).items()]
            return {
                "schema": KEY_SCHEMA,
                "kernel": kernel_identity_tag(),
                "package_version": __version__,
                "libraries": _library_versions(),
                "track": track.to_config(),
                "case": dataclasses.asdict(case),
                "table": sorted(entries, key=lambda entry: entry[0]),
                "identifier": identifier,
                "config": dataclasses.asdict(config),
            }

        one, fifteen = situation_by_index(1), situation_by_index(15)
        shared_track = static_situation_track(one, length=30.0)
        shared_config = HilConfig(frame_width=48, frame_height=24, seed=2)
        tracks = [shared_track, shared_track, static_situation_track(fifteen, length=12.0),
                  shared_track, shared_track]
        cases = ["case4", case_config("case4"), "case3", "case2", "case4"]
        tables = [
            {one: KnobSetting("S6", "ROI 1", 50.0)},
            {fifteen: KnobSetting("S2", "ROI 5", 30.0), one: KnobSetting("S0", "ROI 1", 30.0)},
            None,
            {one: KnobSetting("S6", "ROI 1", 50.0)},
            None,
        ]
        configs = [shared_config, shared_config, HilConfig(seed=9), None,
                   HilConfig(profile=True)]
        for identifier in (None, "oracle:0.9"):
            keys = rollout_keys(
                tracks=tracks, cases=cases, tables=tables, identifier=identifier,
                configs=configs,
            )
            for lane, key in enumerate(keys):
                config = HilConfig() if configs[lane] is None else configs[lane]
                expected = reference(tracks[lane], cases[lane], tables[lane], identifier, config)
                one_lane = rollout_key_document(
                    track=tracks[lane], case=cases[lane], table=tables[lane],
                    identifier=identifier, config=configs[lane],
                )
                if expected is None:
                    assert key is None and one_lane is None
                    continue
                assert key.document == one_lane == expected
                assert key.key == rollout_key(expected)
                assert key.canonical == json.dumps(expected, sort_keys=True)
            assert keys[-1] is None and all(key is not None for key in keys[:-1])
        from repro.core.reconfiguration import OracleIdentifier

        assert rollout_keys(
            tracks=tracks, cases=cases, tables=tables, identifier=OracleIdentifier(),
            configs=configs,
        ) == [None] * len(configs)

    def test_fault_specs_of_different_kinds_key_apart(self):
        """Two fault kinds with the same fields (a wrong label and a timeout
        on one classifier and window) simulate differently, so they must
        not share an address; a config without faults keys as before."""
        from repro.faults import FaultPlan
        from repro.hil.engine import HilConfig
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=40.0)
        documents = [
            rollout_key_document(
                track=track, case="case4",
                config=HilConfig(fault_plan=FaultPlan.parse(f"{kind}@0:300,classifier=road")),
            )
            for kind in ("wrong_label", "timeout")
        ]
        assert [d["config"]["fault_plan"]["specs"][0]["kind"] for d in documents] == [
            "wrong_label", "timeout",
        ]
        assert rollout_key(documents[0]) != rollout_key(documents[1])
        plain = rollout_key_document(track=track, case="case4", config=HilConfig())
        assert plain["config"] == dataclasses.asdict(HilConfig())

    @pytest.mark.parametrize("library", ["numpy", "scipy"])
    def test_library_upgrade_changes_the_key(self, library, monkeypatch):
        """A numpy/scipy upgrade may move last-ulp results: new address."""
        import importlib

        from repro.hil.engine import HilConfig
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=40.0)
        before = rollout_key_document(track=track, case="case1", config=HilConfig())
        module = importlib.import_module(library)
        monkeypatch.setattr(module, "__version__", module.__version__ + ".post1")
        after = rollout_key_document(track=track, case="case1", config=HilConfig())
        assert after["libraries"][library] == module.__version__
        assert rollout_key(after) != rollout_key(before)

    def test_blas_core_changes_the_key(self, monkeypatch):
        """Another OpenBLAS core runs other GEMM kernels: new address."""
        from repro.cache import keys
        from repro.hil.engine import HilConfig
        from repro.sim import static_situation_track

        track = static_situation_track(situation_by_index(1), length=40.0)
        before = rollout_key_document(track=track, case="case1", config=HilConfig())
        assert before["libraries"]["blas_core"] == keys._blas_core()
        monkeypatch.setattr(keys, "_blas_core", lambda: "Nehalem-probe")
        after = rollout_key_document(track=track, case="case1", config=HilConfig())
        assert after["libraries"]["blas_core"] == "Nehalem-probe"
        assert rollout_key(after) != rollout_key(before)


# ---------------------------------------------------------------------------
# concurrency stress

_STRESS_ENTRIES = 12


def _stress_worker(args):
    """Interleave stores and loads of the full entry set in one store.

    Every observed hit must decode to the entry's exact deterministic
    bytes — a torn or partially visible file would fail the comparison
    or crash the npz parser, both of which report as failures.
    """
    root, worker_seed = args
    store = RolloutCache(root, enabled=True)
    order = np.random.default_rng(worker_seed).permutation(_STRESS_ENTRIES)
    failures = []
    for raw in order:
        entry = int(raw)
        store.store(tiny_document(entry), tiny_result(entry))
        loaded = store.load(tiny_document(entry))
        if loaded is None:
            failures.append(f"entry {entry}: miss right after store")
            continue
        expected = tiny_result(entry)
        if (
            loaded.time_s.tobytes() != expected.time_s.tobytes()
            or loaded.manifest != expected.manifest
        ):
            failures.append(f"entry {entry}: torn or mixed content")
    return failures


class TestConcurrencyStress:
    def test_parallel_writers_never_tear_entries(self, tmp_path):
        root = tmp_path / "shared-store"
        jobs = [(str(root), seed) for seed in range(4)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=4) as pool:
            per_worker = pool.map(_stress_worker, jobs)
        assert [f for fails in per_worker for f in fails] == []
        store = RolloutCache(root, enabled=True)
        assert len(store.entries()) == _STRESS_ENTRIES
        checked, problems = store.verify()
        assert checked == _STRESS_ENTRIES and problems == []
        assert list(root.glob("**/*.tmp")) == []

    def test_warm_sweep_recomputes_nothing(self, tmp_path):
        """Parent-only write-back: a warm pooled sweep is all hits."""
        situation = situation_by_index(1)
        store_dir = tmp_path / "sweep-store"
        before = global_stats().snapshot()
        cold = characterize_situation(situation, TINY, jobs=2, cache=store_dir)
        after_cold = global_stats().since(before)
        assert after_cold.stores == after_cold.misses > 0
        warm = characterize_situation(situation, TINY, jobs=2, cache=store_dir)
        delta = global_stats().since(before).since(after_cold)
        assert delta.stores == 0 and delta.misses == 0
        assert delta.hits == after_cold.misses
        assert [(e.knobs, e.mae) for e in warm] == [
            (e.knobs, e.mae) for e in cold
        ]

    def test_explicit_root_keeps_prescreens_under_it(self, tmp_path, monkeypatch):
        """An explicit store root holds the sweep's prescreen vectors
        too: nothing lands in the default cache dir, the vectors sit
        outside the rollout entries, and a warm rerun loads them all."""
        from repro.core import characterization

        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
        root = tmp_path / "root"
        situation = situation_by_index(1)
        cold = characterize_situation(situation, TINY, cache=root)
        assert not elsewhere.exists()
        assert len(list((root / "prescreen").glob("*.npz"))) == 1
        checked, problems = RolloutCache(root).verify()
        assert checked == len(cold) and problems == []

        def recompute(*args, **kwargs):
            raise AssertionError("the warm sweep recomputed a prescreen")

        monkeypatch.setattr(characterization, "parallel_map", recompute)
        warm = characterize_situation(situation, TINY, cache=root)
        assert [(e.knobs, e.mae) for e in warm] == [
            (e.knobs, e.mae) for e in cold
        ]


# ---------------------------------------------------------------------------
# CLI maintenance + the tier-1 verify hook


class TestCacheCli:
    def _populate(self, tmp_path):
        root = tmp_path / "store"
        repro.api.simulate(**QUICK, cache=root)
        return root

    def test_stats_and_verify_ok(self, tmp_path, capsys):
        root = self._populate(tmp_path)
        assert main(["cache", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "entries  1" in out
        assert main(["cache", "--verify", "--dir", str(root)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_fails_on_tampered_entry(self, tmp_path, capsys):
        root = self._populate(tmp_path)
        store = RolloutCache(root, enabled=True)
        entry = store.entries()[0]
        entry.rename(entry.with_name("0" * 24 + ".npz"))
        assert main(["cache", "--verify", "--dir", str(root)]) == 2
        captured = capsys.readouterr()
        assert "problem" in captured.out
        assert captured.err.strip() != ""

    def test_clear(self, tmp_path, capsys):
        root = self._populate(tmp_path)
        assert main(["cache", "--clear", "--dir", str(root)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert RolloutCache(root).entries() == []

    def test_stats_and_clear_cover_the_prescreen_vectors(self, tmp_path, capsys):
        root = tmp_path / "store"
        characterize_situation(situation_by_index(1), TINY, cache=root)
        assert main(["cache", "--dir", str(root)]) == 0
        assert "prescreen entries  1" in capsys.readouterr().out
        assert main(["cache", "--clear", "--dir", str(root)]) == 0
        assert "and 1 prescreen vectors" in capsys.readouterr().out
        assert [p for p in root.rglob("*") if p.is_file()] == []


class TestBatchIndependentConfigHash:
    def test_repro_batch_does_not_change_the_config_hash(
        self, capsys, monkeypatch
    ):
        """Regression: $REPRO_BATCH is an execution knob, not identity."""
        hashes = []
        for lanes in ("1", "4"):
            monkeypatch.setenv("REPRO_BATCH", lanes)
            assert main([
                "run", "--case", "case1", "--seed", "9",
                "--length", "40", "--frame", "96x48",
            ]) == 0
            out = capsys.readouterr().out
            line = [l for l in out.splitlines() if l.startswith("config hash ")]
            assert line, f"no config-hash line in output: {out!r}"
            hashes.append(line[0].split()[2])
        assert hashes[0] == hashes[1]
