"""Static extraction of the public API surface, and its lockfile.

The facade contract (:mod:`repro.api`) promises that public entry
points never silently change shape.  PR tests can only catch breakage
they exercise; the lockfile makes it *static*: the signatures of every
name in ``api.__all__`` and the package root's ``__all__`` are
serialized into ``api_surface.json``, and the ``API003`` project rule
(:mod:`repro.analysis.graph`) fails the lint when the tree drifts from
the recorded surface without a lockfile update.

Everything here is AST-based — extracting the surface never imports the
package under analysis, so a broken tree can still be diffed.

Workflow::

    python -m repro graph --update-lockfile   # record the new surface
    git diff api_surface.json                 # review the API change
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = [
    "LOCKFILE_VERSION",
    "extract_api_surface",
    "render_lockfile",
    "read_lockfile",
    "write_lockfile",
]

#: Bumped whenever the lockfile document layout changes incompatibly.
LOCKFILE_VERSION = 1


def _unparse(node: Optional[ast.AST]) -> Optional[str]:
    return None if node is None else ast.unparse(node)


def render_signature(node: ast.FunctionDef) -> str:
    """Canonical one-line signature text for a function definition."""
    args = node.args
    parts = []
    positional = list(args.posonlyargs) + list(args.args)
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)

    def fmt(arg: ast.arg, default: Optional[ast.AST]) -> str:
        text = arg.arg
        if arg.annotation is not None:
            text += f": {_unparse(arg.annotation)}"
            if default is not None:
                text += f" = {_unparse(default)}"
        elif default is not None:
            text += f"={_unparse(default)}"
        return text

    for index, (arg, default) in enumerate(zip(positional, defaults)):
        parts.append(fmt(arg, default))
        if args.posonlyargs and index == len(args.posonlyargs) - 1:
            parts.append("/")
    if args.vararg is not None:
        parts.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(fmt(arg, default))
    if args.kwarg is not None:
        parts.append(f"**{args.kwarg.arg}")
    signature = f"({', '.join(parts)})"
    if node.returns is not None:
        signature += f" -> {_unparse(node.returns)}"
    return signature


def _module_all(tree: ast.Module) -> Tuple[Optional[Tuple[str, ...]], int]:
    """The module's literal ``__all__`` (or None) and its line number."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = stmt.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = tuple(
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    )
                    return names, stmt.lineno
    return None, 1


def _describe_class(node: ast.ClassDef) -> Dict[str, object]:
    fields = []
    methods: Dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append(f"{stmt.target.id}: {_unparse(stmt.annotation)}")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not stmt.name.startswith("_"):
                methods[stmt.name] = render_signature(stmt)
    return {"kind": "class", "fields": fields, "methods": methods}


def _extract_module_surface(
    path: Path,
) -> Tuple[str, Dict[str, object], Dict[str, int], int]:
    """One module's locked entries: every ``__all__`` name described.

    Returns ``(display path, entries, per-name lines, __all__ line)``;
    names without a local definition (re-exports) get the ``__all__``
    line as their anchor.
    """
    display = path.as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=display)
    exported, all_line = _module_all(tree)
    definitions: Dict[str, ast.AST] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[stmt.name] = stmt
    entries: Dict[str, object] = {}
    lines: Dict[str, int] = {}
    for name in exported or ():
        node = definitions.get(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            entries[name] = {
                "kind": "function",
                "signature": render_signature(node),
            }
        elif isinstance(node, ast.ClassDef):
            entries[name] = _describe_class(node)
        else:
            entries[name] = {"kind": "re-export"}
        lines[name] = getattr(node, "lineno", all_line)
    return display, entries, lines, all_line


def extract_api_surface(
    package_dir: Path,
) -> Tuple[Dict[str, object], Dict[str, Tuple[str, int]]]:
    """Extract the locked surface of the package at *package_dir*.

    Returns ``(surface, anchors)``: the JSON-ready surface document, and
    a map from surface key (``"api:<name>"`` / ``"root_all"``) to the
    ``(posix path, line)`` a drift finding should anchor at.
    """
    surface: Dict[str, object] = {
        "lockfile_version": LOCKFILE_VERSION,
        "api": {},
        "root_all": [],
    }
    anchors: Dict[str, Tuple[str, int]] = {}

    api_path = package_dir / "api.py"
    if api_path.is_file():
        display, entries, lines, all_line = _extract_module_surface(api_path)
        anchors["api"] = (display, all_line)
        for name, line in lines.items():
            anchors[f"api:{name}"] = (display, line)
        surface["api"] = entries

    init_path = package_dir / "__init__.py"
    if init_path.is_file():
        display = init_path.as_posix()
        tree = ast.parse(init_path.read_text(encoding="utf-8"), filename=display)
        root_all, line = _module_all(tree)
        surface["root_all"] = sorted(root_all or ())
        anchors["root_all"] = (display, line)

    return surface, anchors


def render_lockfile(surface: Dict[str, object]) -> str:
    """Canonical lockfile text (stable across runs for the same surface)."""
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def read_lockfile(path: Path) -> Optional[Dict[str, object]]:
    """The recorded surface, or None when *path* does not exist.

    Raises :class:`ValueError` when the file exists but is not valid
    lockfile JSON.
    """
    if not path.is_file():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable API lockfile {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError(f"API lockfile {path} is not a JSON object")
    return document


def write_lockfile(path: Path, surface: Dict[str, object]) -> bool:
    """Write the canonical lockfile; returns True when content changed."""
    text = render_lockfile(surface)
    if path.is_file() and path.read_text(encoding="utf-8") == text:
        return False
    path.write_text(text, encoding="utf-8")
    return True
