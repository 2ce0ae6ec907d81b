"""Compare two benchmark result files written by ``bench/run.py --out``.

    python bench/compare.py BASE.json NEW.json

Prints every workload x metric as base, new, change in percent, and the
bound ``BENCHMARK.json`` allows.  Exits 1 when an end-to-end metric got
worse by more than its bound, when the two runs used the same seed but
produced different output digests, or when the new run got an output
wrong; exits 0 otherwise.  Per-layer metrics are printed without a
verdict: they show where a change moved time, not whether it regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]


def worsening(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*."""
    change = (new - base) / base
    return change if better == "lower" else -change


def _value(result: dict, name: str) -> Optional[float]:
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def compare(base: dict, new: dict, spec: dict) -> Tuple[List[str], List[str]]:
    """Table lines and the problems that make the comparison fail."""
    lines = [f"{'workload':<12} {'metric':<32} {'base':>12} {'new':>12} {'change':>9} {'bound':>6}  verdict"]
    problems: List[str] = []
    same_seed = base["provenance"]["seed"] == new["provenance"]["seed"]
    for workload, new_result in new["workloads"].items():
        base_result = base["workloads"].get(workload)
        if base_result is None:
            lines.append(f"{workload:<12} (not in the base file)")
            continue
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            b, n = _value(base_result, name), _value(new_result, name)
            if b is None or n is None:
                continue
            change = f"{(n - b) / b * 100:+8.2f}%" if b else f"{'-':>9}"
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                regressed = b != 0 and worsening(b, n, metric["better"]) > bound
                verdict = "REGRESSION" if regressed else "ok"
                if regressed:
                    problems.append(f"{workload}: {name} worse by more than {bound:.0%}")
            bound_text = f"{bound:.0%}" if bound is not None else "-"
            lines.append(
                f"{workload:<12} {name:<32} {b:>12.6g} {n:>12.6g} {change} {bound_text:>6}  {verdict}"
            )
        if same_seed and base_result["digest"] != new_result["digest"]:
            problems.append(f"{workload}: output digest {new_result['digest']} != base {base_result['digest']}")
        if not new_result["correct"] or new_result["failed"]:
            problems.append(f"{workload}: {new_result['failed']} of {new_result['attempted']} operations failed")
    if not same_seed:
        lines.append("digests not compared: the runs used different seeds")
    return lines, problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, problems = compare(base, new, spec)
    print("\n".join(lines))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
