"""The package's reach: no orphan module, no undeclared dependency.

Both checks read ``src/repro`` with :mod:`ast` and import nothing.  A
module that neither another module nor a paper-shape benchmark imports
is reachable from no entry point, so only tests could run it; a
third-party import outside numpy and scipy is a dependency
``pyproject.toml`` does not declare.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Top-level imports allowed besides the standard library.
ALLOWED = {"numpy", "scipy", "repro"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules() -> Dict[str, ast.Module]:
    return {
        _module_name(path): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _imported(tree: ast.Module) -> Iterator[str]:
    """Yield every dotted name ``tree`` imports, each with its parents.

    ``src/repro`` imports absolutely, so a relative import names nothing
    here and the module it imports shows up as an orphan.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            targets = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            for end in range(1, len(parts) + 1):
                yield ".".join(parts[:end])


def test_every_module_is_imported_by_another():
    modules = _modules()
    importers: Dict[str, Set[str]] = {name: set() for name in modules}
    # The benchmarks regenerate EXPERIMENTS.md (the ablations and the
    # fault-tolerance study run from nowhere else), so they import too.
    benchmarks = {
        f"benchmarks.{path.stem}": ast.parse(path.read_text())
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
    }
    for name, tree in {**modules, **benchmarks}.items():
        for target in _imported(tree):
            if target in importers and target != name:
                importers[target].add(name)
    entry_points = {"repro", "repro.__main__"}
    orphans = sorted(
        name for name, users in importers.items()
        if name not in entry_points and not users
    )
    assert orphans == [], f"modules nothing imports: {orphans}"


def test_imports_are_stdlib_numpy_scipy_or_repro():
    allowed = set(sys.stdlib_module_names) | ALLOWED
    undeclared = sorted({
        f"{name}: {target}"
        for name, tree in _modules().items()
        for target in _imported(tree)
        if "." not in target and target not in allowed
    })
    assert undeclared == [], f"imports outside stdlib/numpy/scipy/repro: {undeclared}"
