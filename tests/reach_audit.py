"""Reach audit: list every ``src/repro`` function no fixed point executes.

The fixed points are the golden replays, the experiment-rollout
equality tests, the paper-shape benchmarks at default scale and
``repro report``.  This script runs all four in one process under the
stdlib :mod:`trace` module (counting function entries only, so the
loop runs at close to its normal speed) and prints each function of
``src/repro`` whose code object was never entered, split in two:

- *unreferenced*: no ``src/repro`` code names it outside an import or
  an ``__all__`` list, so only tests, benchmarks, examples or nothing
  at all can call it — a deletion candidate unless one of those uses
  it as a reference;
- *referenced*: some ``src/repro`` code names it (a CLI command, an
  error branch, a cache-warm path), so reaching it needs an entry
  point the fixed points do not take.

Run from the repository root (a full run takes the better part of an
hour on a 2-vCPU host)::

    PYTHONPATH=src python tests/reach_audit.py            # everything
    PYTHONPATH=src python tests/reach_audit.py goldens    # a subset

Every run uses a fresh ``$REPRO_CACHE_DIR`` and drops ``$REPRO_JOBS``
(one worker, in-process): functions that only pool workers execute
would otherwise go uncounted.
The file name does not match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import trace
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Each fixed point as ``name -> statement`` run under the tracer.
#: pytest-benchmark pauses ``sys.settrace`` while it times a body, so
#: the benchmarks run with timing off: each body runs once, traced.
FIXED_POINTS: Dict[str, str] = {
    "goldens": "_pytest('tests/test_golden_traces.py')",
    "rollouts": "_pytest('tests/test_experiment_rollouts.py')",
    "benchmarks": "_pytest('benchmarks', '--benchmark-disable')",
    "report": "_report()",
}


class _Reach(trace.Trace):
    """A function-counting tracer that keeps the code objects it entered."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()
        super().__init__(count=0, trace=0, countfuncs=1)

    def globaltrace_countfuncs(self, frame, why, arg):
        if why == "call":
            self.codes.add(frame.f_code)


def _pytest(target: str, *options: str) -> None:
    import pytest

    code = pytest.main([str(ROOT / target), "-q", "-p", "no:cacheprovider", *options])
    print(f"[reach] pytest {target}: exit {int(code)}", flush=True)


def _report() -> None:
    from repro.__main__ import main

    with tempfile.TemporaryDirectory() as tmp:
        code = main(["report", "--output", str(Path(tmp) / "report.md")])
    print(f"[reach] repro report: exit {code}", flush=True)


def _definitions(path: Path) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualname, node)`` for every function defined in ``path``."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                yield qualname, child
                yield from walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(), filename=str(path)), "")


def _name_uses() -> Counter:
    """How often each identifier is named across ``src/repro``.

    Imports and ``__all__`` entries do not count: a re-export calls
    nothing.  String constants do (``getattr`` and registries).
    """
    uses: Counter = Counter()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        exported = {
            id(constant)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for constant in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exported):
                uses[node.value] += 1
    return uses


def unreached(codes: Set[object]) -> Tuple[List[str], List[str]]:
    """Split the never-entered functions into (unreferenced, referenced)."""
    entered = {
        (Path(code.co_filename).resolve(), code.co_qualname)
        for code in codes
        if code.co_filename.startswith(str(PACKAGE))
    }
    uses = _name_uses()
    unreferenced: List[str] = []
    referenced: List[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualname, node in _definitions(path):
            if (path.resolve(), qualname) in entered:
                continue
            line = f"{path.relative_to(ROOT)}:{node.lineno} {qualname}"
            # A dunder is called by the interpreter, never by name.
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            (referenced if dunder or uses[name] else unreferenced).append(line)
    return unreferenced, referenced


def main(argv: List[str]) -> int:
    chosen = argv or list(FIXED_POINTS)
    unknown = sorted(set(chosen) - set(FIXED_POINTS))
    if unknown:
        print(f"unknown fixed point(s): {', '.join(unknown)}; "
              f"choose from {', '.join(FIXED_POINTS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("REPRO_JOBS", None)
    tracer = _Reach()
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        for name in chosen:
            print(f"[reach] running {name}", flush=True)
            tracer.runctx(FIXED_POINTS[name], globals(), {})
    unreferenced, referenced = unreached(tracer.codes)
    print(f"\n{len(unreferenced)} unreached and unreferenced in src/repro:")
    print("\n".join(f"  {line}" for line in unreferenced))
    print(f"\n{len(referenced)} unreached but named in src/repro:")
    print("\n".join(f"  {line}" for line in referenced))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
