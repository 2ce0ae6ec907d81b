"""Golden-trace regression tests: replay the frozen corpus byte-for-byte.

Each corpus entry (see :mod:`tests.golden_corpus`) pins one execution
path — nominal serial, fault + mitigation, lock-step batched, case 4 —
against fixture files committed under ``tests/golden/``.
A failure here means the simulation kernels changed behaviour: either a
regression, or an intentional change that must bump the kernel-identity
version *and* regenerate the corpus (``python tests/golden_corpus.py``).

Result comparison is bitwise on every trace array (dtype, shape and raw
buffer), exact on cycle records and crash flags, and exact on the run
manifest minus its volatile wall-clock bounds.  A result mismatch is
triaged (:func:`triage`): every differing array with its first index
and max ulp drift, the first divergent cycle, and whether the crash
outcome, MAE and knob sequence still agree — so a bit-level drift is
told apart from a behavioural change at a glance.  Trace comparison
goes through :func:`repro.telemetry.diff_traces`, so a mismatch fails
with a readable line-by-line diff instead of a bare assert.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

import repro.api
from repro.hil.record import HilResult
from tests.golden_corpus import (
    CORPUS,
    npz_path,
    reference_result,
    serial_params,
    trace_path,
)

#: HilResult array members compared bitwise.
_ARRAY_FIELDS = (
    "time_s",
    "s",
    "lateral_offset",
    "y_l_true",
    "steering",
    "speed",
)


def _require_fixture(path):
    if not path.exists():
        pytest.fail(
            f"golden fixture missing: {path} "
            "(regenerate with `PYTHONPATH=src python tests/golden_corpus.py`)"
        )


def _ulp_distance(expected: np.ndarray, actual: np.ndarray) -> int:
    """Largest distance in units in the last place between two float arrays.

    Float bit patterns map onto a monotonic integer line (negative floats
    mirrored below zero), so adjacent floats are one apart there.
    """

    def line(values):
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, -(bits & np.int64(0x7FFFFFFFFFFFFFFF)), bits)

    return max(abs(int(a) - int(b)) for a, b in zip(line(expected), line(actual)))


def _mae(result: HilResult):
    return result.mae() if result.time_s.size else None


def _knobs(result: HilResult) -> list:
    return [(c.active_isp, c.roi, c.speed_kmph) for c in result.cycles]


def triage(expected: HilResult, actual: HilResult) -> List[str]:
    """What a golden mismatch changed, one finding per line; ``[]`` if none.

    Every differing trace array gets its first differing index and its
    largest ulp distance; then the first divergent cycle record, with
    the largest ulp distance over the float fields of all divergent
    cycles; and whether the crash outcome, the MAE and the
    ``(isp, roi, speed_kmph)`` knob sequence still agree.  The last line
    is the verdict, its ulp drift the largest of all of the above.
    """
    lines = []
    max_ulp = 0
    for field in _ARRAY_FIELDS:
        exp = np.asarray(getattr(expected, field))
        act = np.asarray(getattr(actual, field))
        if exp.dtype != act.dtype or exp.shape != act.shape:
            lines.append(
                f"{field}: {exp.dtype}{exp.shape} != {act.dtype}{act.shape}"
            )
            max_ulp = None
        elif exp.tobytes() != act.tobytes():
            bytewise = np.frombuffer(exp.tobytes(), np.uint8) != np.frombuffer(
                act.tobytes(), np.uint8
            )
            differs = np.flatnonzero(bytewise.reshape(exp.size, -1).any(axis=1))
            ulp = _ulp_distance(exp[differs], act[differs])
            first = int(differs[0])
            lines.append(
                f"{field}: {differs.size} sample(s) differ, first at index {first} "
                f"({exp[first].item()!r} != {act[first].item()!r}), max {ulp} ulp"
            )
            if max_ulp is not None:
                max_ulp = max(max_ulp, ulp)

    exp_cycles = [dataclasses.asdict(c) for c in expected.cycles]
    act_cycles = [dataclasses.asdict(c) for c in actual.cycles]
    if exp_cycles != act_cycles:
        common = min(len(exp_cycles), len(act_cycles))
        divergent = [i for i in range(common) if exp_cycles[i] != act_cycles[i]]
        if divergent:
            first = divergent[0]
            # The float fields of every divergent cycle count towards the
            # verdict's ulp drift, as the trace arrays do.
            pairs = [
                (exp_cycles[i][key], act_cycles[i][key])
                for i in divergent
                for key in exp_cycles[i]
                if isinstance(exp_cycles[i][key], float)
                and isinstance(act_cycles[i][key], float)
            ]
            ulp = _ulp_distance(*zip(*pairs)) if pairs else 0
            if max_ulp is not None:
                max_ulp = max(max_ulp, ulp)
            lines.append(
                f"cycles: first divergent cycle {first}: "
                f"{exp_cycles[first]} != {act_cycles[first]}; "
                f"{len(divergent)} divergent, max {ulp} ulp"
            )
        else:
            lines.append(
                f"cycles: count {len(exp_cycles)} != {len(act_cycles)} "
                f"(equal through cycle {common - 1})"
            )

    outcome = [
        f"{name} {getattr(expected, name)!r} != {getattr(actual, name)!r}"
        for name in ("crashed", "crash_s", "completed")
        if getattr(expected, name) != getattr(actual, name)
    ]
    lines.extend(f"outcome: {item}" for item in outcome)
    exp_mae, act_mae = _mae(expected), _mae(actual)
    if exp_mae != act_mae:
        lines.append(f"MAE: {exp_mae!r} != {act_mae!r}")
    knobs_agree = _knobs(expected) == _knobs(actual)
    if not knobs_agree:
        lines.append("knobs: the (isp, roi, speed_kmph) sequence differs")
    if not lines:
        return []

    drift = "shape/dtype changed" if max_ulp is None else f"max {max_ulp} ulp"
    if not outcome and knobs_agree:
        agreement = "outcome and knobs agree"
    else:
        agreement = (
            f"outcome {'differs' if outcome else 'agrees'}, "
            f"knobs {'agree' if knobs_agree else 'differ'}"
        )
    mae_agrees = "MAE agrees" if exp_mae == act_mae else "MAE differs"
    lines.append(f"verdict: {drift}; {agreement}; {mae_agrees}")
    return lines


def assert_results_byte_equal(expected: HilResult, actual: HilResult, label: str):
    findings = triage(expected, actual)
    if findings:
        pytest.fail(
            f"{label}: result differs from the golden trace:\n  " + "\n  ".join(findings)
        )
    exp_manifest = dict(expected.manifest or {})
    act_manifest = dict(actual.manifest or {})
    exp_manifest.pop("wall_clock", None)
    act_manifest.pop("wall_clock", None)
    assert exp_manifest == act_manifest, (
        f"{label}: manifest differs (minus wall_clock): "
        f"{exp_manifest} != {act_manifest}"
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_result_replays_byte_identical(name):
    _require_fixture(npz_path(name))
    expected = HilResult.load(str(npz_path(name)))
    actual = reference_result(name)
    assert_results_byte_equal(expected, actual, label=name)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_trace_replays_equal(name, tmp_path):
    _require_fixture(trace_path(name))
    replay = tmp_path / f"{name}.trace.jsonl"
    repro.api.simulate(**serial_params(name), telemetry=replay)
    differences = repro.api.diff_traces(a=trace_path(name), b=replay)
    assert not differences, (
        f"{name}: telemetry trace diverged from the golden fixture "
        f"({len(differences)} difference(s)):\n" + "\n".join(differences)
    )


def test_golden_hit_is_byte_identical_to_cold_run(tmp_path):
    """A cache hit replays the golden entry exactly (the tentpole invariant)."""
    name = "nominal"
    _require_fixture(npz_path(name))
    expected = HilResult.load(str(npz_path(name)))
    store = tmp_path / "store"
    cold = repro.api.simulate(**CORPUS[name], cache=store)
    warm = repro.api.simulate(**CORPUS[name], cache=store)
    assert_results_byte_equal(expected, cold, label=f"{name} (cold)")
    assert_results_byte_equal(expected, warm, label=f"{name} (cache hit)")


class TestGoldenTriage:
    """The mismatch report on synthetic pairs around a golden result."""

    @staticmethod
    def _golden():
        _require_fixture(npz_path("nominal"))
        return HilResult.load(str(npz_path("nominal")))

    def test_identical_results_report_nothing(self):
        golden = self._golden()
        assert triage(golden, dataclasses.replace(golden)) == []

    def test_one_ulp_nudge(self):
        golden = self._golden()
        nudged = golden.lateral_offset.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        findings = triage(golden, dataclasses.replace(golden, lateral_offset=nudged))
        assert findings[0].startswith("lateral_offset: 1 sample(s) differ, first at index 7")
        assert findings[0].endswith("max 1 ulp")
        assert findings[-1] == "verdict: max 1 ulp; outcome and knobs agree; MAE agrees"
        assert len(findings) == 2
        with pytest.raises(pytest.fail.Exception, match="max 1 ulp"):
            assert_results_byte_equal(
                golden, dataclasses.replace(golden, lateral_offset=nudged), "nudged"
            )

    def test_flipped_crash_flag(self):
        golden = self._golden()
        flipped = dataclasses.replace(golden, crashed=not golden.crashed)
        findings = triage(golden, flipped)
        assert f"outcome: crashed {golden.crashed!r} != {not golden.crashed!r}" in findings
        assert findings[-1] == (
            "verdict: max 0 ulp; outcome differs, knobs agree; MAE agrees"
        )

    def test_one_ulp_cycle_record_nudge(self):
        """A cycle-record float drift alone still reads as a drift."""
        golden = self._golden()
        cycles = list(golden.cycles)
        nudged = float(np.nextafter(cycles[5].steering, np.inf))
        cycles[5] = dataclasses.replace(cycles[5], steering=nudged)
        findings = triage(golden, dataclasses.replace(golden, cycles=cycles))
        assert findings[0].startswith("cycles: first divergent cycle 5:")
        assert findings[0].endswith("1 divergent, max 1 ulp")
        assert findings[-1] == "verdict: max 1 ulp; outcome and knobs agree; MAE agrees"

    def test_divergent_cycle_and_knobs(self):
        golden = self._golden()
        cycles = list(golden.cycles)
        cycles[3] = dataclasses.replace(cycles[3], roi="ROI 4")
        findings = triage(golden, dataclasses.replace(golden, cycles=cycles))
        assert findings[0].startswith("cycles: first divergent cycle 3:")
        assert "knobs: the (isp, roi, speed_kmph) sequence differs" in findings
        assert findings[-1].endswith("outcome agrees, knobs differ; MAE agrees")
