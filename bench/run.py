"""Run the repository benchmark and print every metric with its unit.

    python bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE] [--smoke]

Each workload runs in its own fresh subprocess (``bench/worker.py``),
one after another, with ``PYTHONPATH=src``, no ``REPRO_*`` environment
knobs, one BLAS thread, ``jobs=1`` and a private cache directory under
``.bench_tmp/`` that is deleted afterwards.  Without ``--trace`` (or
with ``--trace 0``) the end-to-end metrics of ``BENCHMARK.json`` are
reported.  ``--trace`` reruns each workload with spans around the
layers' public functions and reports the per-layer metrics instead;
the traced and untraced runs must produce the same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output is correct, 1 when one is not, and 2 when a
workload could not run at all (nothing is printed then).  ``--out``
also writes the full result (all samples, every layer, provenance) as
JSON for ``bench/compare.py``; a traced run writes its raw spans as
JSONL beside it (or under ``.bench_out/``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import ISP_STAGES, STAGES
from worker import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"

#: Setup probes per untraced run; with the measured run's own set-up
#: they give the five samples ``setup_s`` is the median of.
SETUP_PROBES = 4
#: A worker still running after this long is killed; the run then fails.
WORKER_TIMEOUT_S = 150.0
#: The kernels work on small arrays: more BLAS threads only add
#: scheduling noise on a shared host.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Units of the metrics BENCHMARK.json does not name, by the last
#: dotted part of the metric name (``raw_X`` has the unit of ``X``).
_UNITS = {
    "calls": "count",
    "items": "count",
    "share": "fraction",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "ms_per_cycle": "ms",
    "hit_ratio": "fraction",
    "valid_ratio": "fraction",
    "overhead_frac": "fraction",
    "wall_per_sim_s": "s/s",
    "cold_s": "s",
    "op_p90_ms": "ms",
    "host_speed": "ratio",
    "ops": "count",
    "failed_frac": "fraction",
}


class WorkerError(RuntimeError):
    """A workload process failed to produce a result."""


def load_spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_pinned() -> Dict[str, str]:
    """Output digests of every workload at seed 0 (full size)."""
    return json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))["digests"]


def worker_env(cache_dir: str) -> Dict[str, str]:
    """The scrubbed environment every workload process starts with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=cache_dir,
        TMPDIR=cache_dir,
    )
    env.update({var: str(BLAS_THREADS) for var in _THREAD_VARS})
    return env


def run_worker(
    workload: str,
    args: argparse.Namespace,
    *,
    trace: bool = False,
    setup_only: bool = False,
    spans_path: Optional[Path] = None,
) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    cmd += ["--trace"] * trace + ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP, prefix=f"{workload}-") as cache_dir:
        env = worker_env(cache_dir)
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(time.monotonic())],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{workload}: no result within {WORKER_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(run: dict, setups: List[dict]) -> Dict[str, Optional[float]]:
    """End-to-end metrics of one untraced worker result.

    Timings are in reference seconds (see ``worker.REFERENCE_S``); the
    ``raw_`` variants keep the measured seconds, and ``host_speed`` is
    the reference kernel's nominal over its median time in this run.
    Throughput is the median over the warm operations that simulate or,
    where only the cold operations simulate (``table3_lofi``), the cold
    phase's total; latency is the median warm operation.
    """
    ops = [op for op in run["ops"] if "sim_s" in op]
    cold = [op for op in ops if op["cold"]]
    warm = [op for op in ops if not op["cold"]]
    simulating = [op for op in warm if op["sim_s"] > 0]
    metrics: Dict[str, Optional[float]] = {
        "setup_s": _median(setup["setup_ref_s"] for setup in setups),
        "raw_setup_s": _median(setup["setup_s"] for setup in setups),
    }
    for prefix, key in (("", "ref_s"), ("raw_", "wall_s")):
        cold_s = sum(op[key] for op in cold)
        if simulating:
            per_sim = _median(op[key] / op["sim_s"] for op in simulating)
            per_s = _median(op["cycles"] / op[key] for op in simulating)
        else:
            sim_s = sum(op["sim_s"] for op in cold)
            per_sim = cold_s / sim_s if sim_s else None
            per_s = sum(op["cycles"] for op in cold) / cold_s if cold_s else None
        warm_ms = sorted(op[key] * 1e3 for op in warm)
        metrics.update(
            {
                f"{prefix}wall_per_sim_s": per_sim,
                f"{prefix}cycles_per_s": per_s,
                f"{prefix}op_p50_ms": _median(warm_ms),
                f"{prefix}cold_s": cold_s if cold else None,
                # Reported only where at least ten samples lie beyond it.
                f"{prefix}op_p90_ms": (
                    statistics.quantiles(warm_ms, n=10)[-1] if len(warm_ms) >= 100 else None
                ),
            }
        )
    attempted = len(run["ops"])
    metrics.update(
        peak_rss_mb=run["rss_mb"],
        host_speed=REFERENCE_S / statistics.median(run["kernel_s"]),
        ops=attempted,
        failed_frac=sum(op["failed"] for op in run["ops"]) / attempted,
    )
    return metrics


def per_layer(traced: dict, untraced: dict) -> Dict[str, Optional[float]]:
    """Per-layer metrics of a traced worker result."""
    trace = traced["trace"]
    root_s = trace["root_s"]
    cycles = sum(op.get("cycles", 0) for op in traced["ops"])
    metrics: Dict[str, Optional[float]] = {}
    for stage in [*STAGES, *ISP_STAGES, "other"]:
        row = trace["layers"].get(stage, {"calls": 0, "items": 0, "self_s": 0.0})
        metrics[f"{stage}.calls"] = row["calls"]
        metrics[f"{stage}.items"] = row["items"]
        metrics[f"{stage}.share"] = row["self_s"] / root_s
        for key in ("p50_ms", "p95_ms"):
            if key in row:
                metrics[f"{stage}.{key}"] = row[key]
    residual = trace["layers"].get("hil.residual")
    metrics["hil.residual.ms_per_cycle"] = (
        residual["self_s"] * 1e3 / cycles if residual and cycles else 0.0
    )
    cache = traced["cache"]
    loads = cache["hits"] + cache["misses"]
    metrics["cache.hit_ratio"] = cache["hits"] / loads if loads else 0.0
    metrics["perception.valid_ratio"] = traced["valid"] / cycles if cycles else 0.0
    n = min(len(traced["ops"]), len(untraced["ops"]))
    metrics["trace.overhead_frac"] = (
        sum(op["ref_s"] for op in traced["ops"][:n])
        / sum(op["ref_s"] for op in untraced["ops"][:n])
        - 1.0
    )
    return metrics


def measure(workload: str, args: argparse.Namespace, pinned: Dict[str, str]) -> dict:
    """Run one workload (and its traced rerun) and judge its outputs."""
    probes = 0 if args.smoke else SETUP_PROBES
    setups = [run_worker(workload, args, setup_only=True) for _ in range(probes)]
    untraced = run_worker(workload, args)
    setups.append(untraced)
    runs = [untraced]
    errors = list(untraced["errors"])
    digest = untraced["digest"]
    expected = None if args.smoke or args.seed != 0 else pinned.get(workload)
    if expected is not None and digest != expected:
        errors.append(f"output digest {digest} differs from the pinned {expected}")

    metrics = end_to_end(untraced, setups)
    layers = traced_digest = None
    if args.trace:
        spans_path = _spans_path(args.out, workload)
        traced = run_worker(workload, args, trace=True, spans_path=spans_path)
        runs.append(traced)
        errors += traced["errors"]
        traced_digest = traced["digest"]
        if traced_digest != digest:
            errors.append(f"traced digest {traced_digest} differs from untraced {digest}")
        metrics.update(per_layer(traced, untraced))
        layers = traced["trace"]["layers"]

    attempted = sum(len(run["ops"]) for run in runs)
    failed = sum(sum(op["failed"] for op in run["ops"]) for run in runs)
    if errors and not failed:
        # A wrong output anywhere makes every operation's output suspect.
        failed = attempted
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "traced_digest": traced_digest,
        "errors": errors,
        "metrics": metrics,
        "layers": layers,
        "samples": {
            "setup_s": [setup["setup_s"] for setup in setups],
            "op_wall_s": [op["wall_s"] for op in untraced["ops"]],
            "op_ref_s": [op["ref_s"] for op in untraced["ops"]],
            "kernel_s": untraced["kernel_s"],
        },
        "cache": untraced["cache"],
        "versions": untraced["versions"],
    }


def _spans_path(out: Optional[str], workload: str) -> Path:
    if out:
        out_path = Path(out)
        return out_path.with_name(f"{out_path.stem}.{workload}.spans.jsonl")
    SPANS_DIR.mkdir(exist_ok=True)
    return SPANS_DIR / f"{workload}.spans.jsonl"


def _git(*argv: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, versions: dict) -> dict:
    """Where and with what a result was measured."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    env = worker_env("")
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "versions": versions,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in _THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "argv": sys.argv[1:],
    }


def _unit(name: str, spec_units: Dict[str, str]) -> str:
    name = name[len("raw_"):] if name.startswith("raw_") else name
    return spec_units.get(name) or _UNITS[name.rsplit(".", 1)[-1]]


def parse_args(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0, help="shifts every workload's input seeds")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, fixed operation counts")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = load_pinned()
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = {}
    try:
        for workload in args.workload:
            results[workload] = measure(workload, args, pinned)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            TMP.rmdir()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line_metrics = {}
    for workload, result in results.items():
        result["metrics"] = {
            name: {"value": value, "unit": _unit(name, units)}
            for name, value in sorted(result["metrics"].items())
            if value is not None
        }
        for name, entry in result["metrics"].items():
            print(f"{workload:<12} {name:<32} {entry['value']:>14.6g} {entry['unit']}")
        for error in result["errors"]:
            print(f"{workload:<12} ERROR {error}", file=sys.stderr)
        prefix = "" if len(results) == 1 else f"{workload}."
        for metric in reported:
            entry = result["metrics"].get(metric["name"])
            line_metrics[prefix + metric["name"]] = {
                "value": entry["value"] if entry else None,
                "unit": metric["unit"],
            }

    if args.out:
        first = next(iter(results.values()))
        document = {
            "schema": 1,
            "provenance": provenance(args, first["versions"]),
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": line_metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
