"""Smoke test of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

Runs every workload once at smoke size, untraced and traced, and checks
the result against ``BENCHMARK.json`` and ``bench/compare.py``.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import STAGES

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*argv: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _run(str(BENCH / "run.py"), "--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def test_every_metric_is_reported_with_its_unit(smoke):
    line, out = smoke
    document = json.loads(out.read_text(encoding="utf-8"))
    for workload in SPEC["workloads"]:
        metrics = document["workloads"][workload["name"]]["metrics"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, metric["name"]
        for metric in SPEC["per_layer"]:
            entry = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["value"] is not None and entry["unit"] == metric["unit"]
    assert document["provenance"]["nproc"] >= 1


def test_traced_and_untraced_runs_agree(smoke):
    line, out = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for name, result in json.loads(out.read_text(encoding="utf-8"))["workloads"].items():
        assert result["digest"] and result["traced_digest"] == result["digest"], name
        # Stage self times partition the root wall time.
        shares = sum(result["metrics"][f"{stage}.share"]["value"] for stage in [*STAGES, "other"])
        assert shares == pytest.approx(1.0, abs=0.01), name


def _write(tmp_path, name: str, document: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_compare_flags_a_regression_and_passes_identical_files(smoke, tmp_path):
    _, out = smoke
    compare = str(BENCH / "compare.py")
    assert _run(compare, str(out), str(out)).returncode == 0

    document = json.loads(out.read_text(encoding="utf-8"))
    for metric in SPEC["end_to_end"]:
        # Just inside and just outside the metric's bound, in its bad direction.
        for excess, expected in ((-0.05, 0), (0.05, 1)):
            worse = copy.deepcopy(document)
            step = metric["bound"] + excess
            factor = 1 + step if metric["better"] == "lower" else 1 - step
            for result in worse["workloads"].values():
                result["metrics"][metric["name"]]["value"] *= factor
            proc = _run(compare, str(out), _write(tmp_path, "worse.json", worse))
            assert proc.returncode == expected, (metric["name"], excess, proc.stdout)
            assert ("REGRESSION" in proc.stdout) == bool(expected)

    changed = copy.deepcopy(document)
    next(iter(changed["workloads"].values()))["digest"] = "0" * 64
    assert _run(compare, str(out), _write(tmp_path, "changed.json", changed)).returncode == 1
