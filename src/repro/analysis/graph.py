"""Whole-program analysis: import graph, call/reference graph, contracts.

The per-file rules (:mod:`repro.analysis.rules`) see one module at a
time, so no per-file pass can notice that ``sim`` grew a dependency on
``hil``, that a helper lost its last caller, or that two components
derive the same RNG stream.  This module parses the full package tree
once into a :class:`ProjectGraph` and runs the *project rules* over it:

- ``ARC001`` architecture-contract — every cross-layer import must be
  declared in ``[tool.reprolint.layers]`` (an allowlist per top-level
  subpackage); undeclared layers and undeclared edges are findings.
- ``ARC002`` import-cycle — module-level import cycles are fatal: the
  layering above is ill-founded once a cycle exists, so this reports at
  ``fatal`` severity (exit code 2), not as an ordinary finding.
- ``DED001`` dead-function — a conservative reference graph (names,
  attributes, ``__all__`` entries, identifier-shaped string literals,
  console-script entry points) powers function-level dead-code
  detection.  Flagged: private functions referenced nowhere, and public
  module-level functions that their module's declared ``__all__`` omits
  and nothing references.
- ``API003`` api-lockfile — the extracted public surface
  (:mod:`repro.analysis.surface`) must match ``api_surface.json``;
  facade drift becomes a static error instead of a test failure.
- ``RNG002`` aliased-random — references that *resolve* to
  ``numpy.random`` through import aliases (``from numpy import
  random``, ``import numpy.random as nr``), which the textual
  per-file ``RNG001`` rule cannot see.
- ``RNG003`` rng-stream-collision — the same literal stream name passed
  to ``derive_rng`` / ``stream_seed`` at more than one call site
  collapses two components onto one random stream; the static
  complement of the runtime ``task_seed`` discipline.
- ``OBS001`` telemetry-literal-event — telemetry ``emit()`` call sites
  must name their event through the registered schema constants of
  :mod:`repro.telemetry.events`, never a string literal: literals
  bypass the schema registry, so typos become silently-unknown events.
- ``CAC001`` cache-key-construction — ``config_hash`` may only be
  called from the sanctioned key modules; an ad-hoc hash built anywhere
  else would mint a second address for the same rollout and silently
  split the content-addressed cache (see :mod:`repro.cache.keys`).

Run via ``python -m repro lint --project`` or ``python -m repro graph``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.report import (
    Finding,
    SEVERITY_ERROR,
    SEVERITY_FATAL,
    SEVERITY_WARNING,
)
from repro.analysis.rules import Rule, _dotted_name
from repro.analysis.surface import (
    extract_api_surface,
    read_lockfile,
)

__all__ = [
    "ImportRecord",
    "ModuleInfo",
    "ProjectGraph",
    "ProjectRule",
    "PROJECT_RULES",
    "project_rules_by_id",
    "default_project_rules",
]

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Call names treated as RNG-stream derivations by ``RNG003``.
_STREAM_FUNCTIONS = frozenset({"derive_rng", "stream_seed"})

#: Files exempt from the RNG rules: the sanctioned derivation module.
_RNG_EXEMPT_SUFFIX = "utils/rng.py"

#: Files exempt from OBS001: the schema registry itself (its constants
#: ARE the literals) and the recorder that validates against it.
_TELEMETRY_EXEMPT_SUFFIXES = ("telemetry/events.py", "telemetry/recorder.py")

#: Files allowed to call ``config_hash`` (CAC001): its home module, the
#: manifest builder (whose hash IS the run-identity field), and the
#: rollout key module — the single sanctioned key constructor.
_CACHE_KEY_EXEMPT_SUFFIXES = (
    "utils/cache.py",
    "telemetry/manifest.py",
    "cache/keys.py",
)


@dataclass(frozen=True)
class ImportRecord:
    """One import statement edge, before resolution."""

    target: str  # dotted target as written (module, or module.attr)
    line: int
    col: int
    eager: bool  # module-level (import-time) vs function/branch scope


@dataclass(frozen=True)
class CallRecord:
    """One call site with a resolvable dotted callee."""

    dotted: str  # as written, e.g. "np.random.rand"
    resolved: str  # through import aliases, e.g. "numpy.random.rand"
    line: int
    col: int
    stream_literal: Optional[str]  # literal 2nd arg / stream= kw, if any
    arg0_literal: Optional[str] = None  # literal first positional arg


@dataclass(frozen=True)
class FunctionDef:
    """One function/method definition."""

    name: str
    line: int
    col: int
    toplevel: bool  # module-level def (not a method / nested function)


@dataclass
class ModuleInfo:
    """Everything the project rules need to know about one module."""

    name: str  # dotted module name, e.g. "repro.sim.world"
    layer: str  # first component below the package, e.g. "sim"
    path: str  # display path (posix)
    source: str
    imports: List[ImportRecord] = field(default_factory=list)
    bindings: Dict[str, str] = field(default_factory=dict)
    calls: List[CallRecord] = field(default_factory=list)
    defs: List[FunctionDef] = field(default_factory=list)
    used_names: Set[str] = field(default_factory=set)
    module_all: Optional[Tuple[str, ...]] = None


def _resolve_relative(module_name: str, level: int, base: Optional[str]) -> str:
    """Absolute dotted base for a ``from``-import with *level* leading dots."""
    if level == 0:
        return base or ""
    parts = module_name.split(".")
    # level 1 = the containing package of this module.
    anchor = parts[: max(len(parts) - level, 0)]
    if base:
        anchor.append(base)
    return ".".join(anchor)


def _stream_literal(node: ast.Call) -> Optional[str]:
    """The literal RNG stream name at a call site, if statically known."""
    candidate: Optional[ast.expr] = None
    if len(node.args) >= 2:
        candidate = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "stream":
            candidate = keyword.value
    if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
        return candidate.value
    return None


def _first_arg_literal(node: ast.Call) -> Optional[str]:
    """The literal string first positional argument, if statically known."""
    if node.args and isinstance(node.args[0], ast.Constant):
        if isinstance(node.args[0].value, str):
            return node.args[0].value
    return None


def scan_module(
    name: str, layer: str, path: str, source: str, tree: ast.Module
) -> ModuleInfo:
    """Single-pass extraction of imports, bindings, calls, defs, and uses."""
    info = ModuleInfo(name=name, layer=layer, path=path, source=source)
    toplevel_defs = {
        id(stmt) for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            eager = node.col_offset == 0
            for alias in node.names:
                info.imports.append(
                    ImportRecord(alias.name, node.lineno, node.col_offset, eager)
                )
                if alias.asname:
                    info.bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    info.bindings.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(name, node.level, node.module)
            if base == "__future__":
                continue
            eager = node.col_offset == 0
            for alias in node.names:
                if alias.name == "*":
                    info.imports.append(
                        ImportRecord(base, node.lineno, node.col_offset, eager)
                    )
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                info.imports.append(
                    ImportRecord(target, node.lineno, node.col_offset, eager)
                )
                info.bindings[alias.asname or alias.name] = target
                info.used_names.add(alias.name)
                if alias.asname:
                    info.used_names.add(alias.asname)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.defs.append(
                FunctionDef(
                    node.name,
                    node.lineno,
                    node.col_offset,
                    id(node) in toplevel_defs,
                )
            )
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                info.used_names.add(node.id)
        elif isinstance(node, ast.Attribute):
            info.used_names.add(node.attr)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and _IDENTIFIER_RE.match(node.value):
                info.used_names.add(node.value)
        elif isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None:
                root, sep, rest = dotted.partition(".")
                origin = info.bindings.get(root)
                resolved = f"{origin}{sep}{rest}" if origin else dotted
                info.calls.append(
                    CallRecord(
                        dotted,
                        resolved,
                        node.lineno,
                        node.col_offset,
                        _stream_literal(node),
                        _first_arg_literal(node),
                    )
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = node.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        info.module_all = tuple(
                            element.value
                            for element in value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        )
    return info


class ProjectGraph:
    """The parsed package: modules, import edges, reference sets."""

    def __init__(self, package_name: str, package_dir: Path):
        self.package_name = package_name
        self.package_dir = package_dir
        self.modules: Dict[str, ModuleInfo] = {}

    # -- construction ---------------------------------------------------

    def module_name_for(self, file_path: Path) -> Optional[str]:
        """Dotted module name for a file under the package dir."""
        try:
            rel = file_path.resolve().relative_to(self.package_dir.resolve())
        except ValueError:
            return None
        parts = (self.package_name, *rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def layer_for(self, module_name: str) -> str:
        """Architecture layer: the first component below the package root."""
        prefix = self.package_name + "."
        if module_name.startswith(prefix):
            return module_name[len(prefix):].split(".")[0]
        return module_name  # the package root module itself

    def add_source(
        self, file_path: Path, display: str, source: str, tree: ast.Module
    ) -> Optional[ModuleInfo]:
        """Scan one parsed file into the graph; returns its ModuleInfo."""
        name = self.module_name_for(file_path)
        if name is None:
            return None
        info = scan_module(name, self.layer_for(name), display, source, tree)
        self.modules[name] = info
        return info

    # -- resolution -----------------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """The in-project module *dotted* refers to (longest prefix)."""
        candidate = dotted
        while candidate:
            if candidate in self.modules:
                return candidate
            candidate, _, _ = candidate.rpartition(".")
        return None

    def internal_edges(
        self, eager_only: bool = False
    ) -> List[Tuple[ModuleInfo, str, ImportRecord]]:
        """All resolved in-project import edges (module, target, record)."""
        edges = []
        for info in self.modules.values():
            for record in info.imports:
                if eager_only and not record.eager:
                    continue
                target = self.resolve_module(record.target)
                if target is not None and target != info.name:
                    edges.append((info, target, record))
        return edges

    def eager_module_graph(self) -> Dict[str, Set[str]]:
        """Module-level import-time dependency graph."""
        graph: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for info, target, _ in self.internal_edges(eager_only=True):
            graph[info.name].add(target)
        return graph

    def layer_edges(self) -> Dict[Tuple[str, str], List[Tuple[ModuleInfo, ImportRecord]]]:
        """Cross-layer edges: (src layer, dst layer) -> import sites."""
        edges: Dict[Tuple[str, str], List[Tuple[ModuleInfo, ImportRecord]]] = {}
        for info, target, record in self.internal_edges():
            src, dst = info.layer, self.layer_for(target)
            if src != dst:
                edges.setdefault((src, dst), []).append((info, record))
        return edges

    # -- reference graph ------------------------------------------------

    def referenced_names(self) -> Set[str]:
        """Every name referenced anywhere in the project (conservative)."""
        used: Set[str] = set()
        for info in self.modules.values():
            used |= info.used_names
        return used

    def exported_names(self) -> Set[str]:
        """Every name listed in any module's ``__all__``."""
        exported: Set[str] = set()
        for info in self.modules.values():
            if info.module_all:
                exported.update(info.module_all)
        return exported


# ---------------------------------------------------------------------------
# project rules


class ProjectRule(Rule):
    """A rule that inspects the whole :class:`ProjectGraph` at once."""

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        """Return findings for the project; override in subclasses."""
        return []

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )


class ArchitectureContractRule(ProjectRule):
    """ARC001: cross-layer import not declared in the architecture contract.

    ``[tool.reprolint.layers]`` in ``pyproject.toml`` is an allowlist:
    each top-level layer (subpackage, or top-level module like ``api``)
    maps to the layers it may import.  Any observed cross-layer import —
    eager *or* lazy — outside the allowlist is a finding, as is a layer
    with no declaration at all.  With no ``layers`` table configured the
    rule is silent (linting a foreign tree).
    """

    id = "ARC001"
    name = "architecture-contract"
    severity = SEVERITY_ERROR
    description = (
        "cross-layer import not allowed by [tool.reprolint.layers]; "
        "declare the dependency or remove the coupling"
    )

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        layers = getattr(config, "layers", None)
        if not layers:
            return []
        findings: List[Finding] = []
        undeclared: Set[str] = set()
        for (src, dst), sites in sorted(project.layer_edges().items()):
            info, record = min(sites, key=lambda s: (s[0].path, s[1].line))
            if src not in layers:
                if src not in undeclared:
                    undeclared.add(src)
                    findings.append(
                        self.finding(
                            info.path,
                            record.line,
                            record.col,
                            f"layer {src!r} is not declared in "
                            "[tool.reprolint.layers]; add it with the layers "
                            "it may import",
                        )
                    )
                continue
            if dst in layers[src]:
                continue
            for info, record in sorted(sites, key=lambda s: (s[0].path, s[1].line)):
                allowed = ", ".join(sorted(layers[src])) or "nothing"
                findings.append(
                    self.finding(
                        info.path,
                        record.line,
                        record.col,
                        f"layer {src!r} may not import {dst!r} "
                        f"(contract allows: {allowed})",
                    )
                )
        return findings


class ImportCycleRule(ProjectRule):
    """ARC002: module-level import cycle (fatal).

    Cycles are detected over *eager* (module-scope) imports only:
    deliberate lazy imports inside functions are the sanctioned way to
    break a cycle, and cannot deadlock the interpreter at import time.
    A cycle makes the layer analysis ill-founded, so this reports at
    ``fatal`` severity and drives exit code 2.
    """

    id = "ARC002"
    name = "import-cycle"
    severity = SEVERITY_FATAL
    description = "module-level import cycle (fatal; breaks layering)"

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        graph = project.eager_module_graph()
        findings: List[Finding] = []
        for scc in _strongly_connected(graph):
            members = sorted(scc)
            if len(members) == 1 and members[0] not in graph[members[0]]:
                continue
            anchor = project.modules[members[0]]
            cycle = _cycle_path(graph, set(members), members[0])
            line = 1
            for record in anchor.imports:
                if record.eager and project.resolve_module(record.target) in scc:
                    line = record.line
                    break
            findings.append(
                self.finding(
                    anchor.path,
                    line,
                    0,
                    "module-level import cycle: " + " -> ".join(cycle),
                )
            )
        return findings


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's SCC algorithm, iterative (no recursion limit issues)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Set[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, List[str]]] = [(root, sorted(graph[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            if children:
                child = children.pop(0)
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, sorted(graph[child])))
                elif child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    scc: Set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.add(member)
                        if member == node:
                            break
                    sccs.append(scc)
    return sccs


def _cycle_path(
    graph: Dict[str, Set[str]], scc: Set[str], start: str
) -> List[str]:
    """One concrete cycle through *scc* starting (and ending) at *start*."""
    path = [start]
    seen = {start}
    node = start
    while True:
        successors = sorted(t for t in graph[node] if t in scc)
        if not successors:  # pragma: no cover - SCC guarantees a successor
            break
        node = successors[0]
        if node in seen:
            path.append(node)
            break
        seen.add(node)
        path.append(node)
    return path


class DeadFunctionRule(ProjectRule):
    """DED001: function that the whole-program reference graph never reaches.

    Conservative by construction — a name counts as referenced if it
    appears anywhere in the project as a loaded name, an attribute, an
    import binding, an ``__all__`` entry, an identifier-shaped string
    literal (registry keys, ``getattr``), or a console-script entry
    point.  Only two shapes are flagged: private functions referenced
    nowhere, and public module-level functions that their module's
    declared ``__all__`` omits and nothing references.  Public methods
    and functions of modules without ``__all__`` are assumed to be API.
    """

    id = "DED001"
    name = "dead-function"
    severity = SEVERITY_WARNING
    description = (
        "function is never referenced anywhere in the project "
        "(conservative whole-program reference graph)"
    )

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        referenced = project.referenced_names()
        exported = project.exported_names()
        roots = set(getattr(config, "entry_points", ()) or ())
        findings: List[Finding] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            for fn in info.defs:
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                if fn.name in referenced or fn.name in exported or fn.name in roots:
                    continue
                private = fn.name.startswith("_")
                undeclared_public = (
                    fn.toplevel
                    and not private
                    and info.module_all is not None
                    and fn.name not in info.module_all
                )
                if private:
                    findings.append(
                        self.finding(
                            info.path,
                            fn.line,
                            fn.col,
                            f"private function {fn.name}() is never "
                            "referenced anywhere in the project",
                        )
                    )
                elif undeclared_public:
                    findings.append(
                        self.finding(
                            info.path,
                            fn.line,
                            fn.col,
                            f"{fn.name}() is never referenced and is not in "
                            "this module's __all__; delete it or declare it "
                            "part of the public surface",
                        )
                    )
        return findings


class ApiLockfileRule(ProjectRule):
    """API003: the extracted public API surface drifted from the lockfile.

    The surface (``repro.api`` signatures and the package root's
    ``__all__``) is recorded in ``api_surface.json``; see
    :mod:`repro.analysis.surface`.  Any drift without a lockfile update
    is a finding, making facade breakage a static error.  Regenerate
    with ``python -m repro graph --update-lockfile``.
    """

    id = "API003"
    name = "api-lockfile"
    severity = SEVERITY_ERROR
    description = (
        "public API surface drifted from api_surface.json; review the "
        "change and run `python -m repro graph --update-lockfile`"
    )

    _HINT = "run `python -m repro graph --update-lockfile` if intentional"

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        surface, anchors = extract_api_surface(project.package_dir)
        if not surface["api"] and not surface["root_all"]:
            return []  # nothing locked for this tree
        lock_path = _lockfile_path(project, config)
        try:
            recorded = read_lockfile(lock_path)
        except ValueError as exc:
            path, line = anchors.get("api", (str(lock_path), 1))
            return [self.finding(path, line, 0, str(exc))]
        if recorded is None:
            path, line = anchors.get("api") or anchors.get("root_all") or ("", 1)
            return [
                self.finding(
                    path,
                    line,
                    0,
                    f"API lockfile {lock_path.name} is missing; {self._HINT}",
                )
            ]
        findings: List[Finding] = []
        current_api: Dict[str, object] = surface["api"]
        recorded_api = recorded.get("api", {})
        for name in sorted(set(current_api) | set(recorded_api)):
            path, line = anchors.get(
                f"api:{name}", anchors.get("api", ("", 1))
            )
            if name not in recorded_api:
                findings.append(
                    self.finding(
                        path, line, 0,
                        f"api.{name} is exported but not recorded in "
                        f"{lock_path.name}; {self._HINT}",
                    )
                )
            elif name not in current_api:
                findings.append(
                    self.finding(
                        path, line, 0,
                        f"api.{name} is recorded in {lock_path.name} but no "
                        f"longer exported; {self._HINT}",
                    )
                )
            elif current_api[name] != recorded_api[name]:
                findings.append(
                    self.finding(
                        path, line, 0,
                        f"api.{name} drifted from the locked surface "
                        f"(locked: {recorded_api[name]!r}, current: "
                        f"{current_api[name]!r}); {self._HINT}",
                    )
                )
        if sorted(recorded.get("root_all", [])) != surface["root_all"]:
            path, line = anchors.get("root_all", ("", 1))
            findings.append(
                self.finding(
                    path, line, 0,
                    "package root __all__ drifted from the locked surface "
                    f"(locked: {sorted(recorded.get('root_all', []))}, "
                    f"current: {surface['root_all']}); {self._HINT}",
                )
            )
        return findings


def _lockfile_path(project: ProjectGraph, config) -> Path:
    """Where the API lockfile lives: next to pyproject, or above the tree."""
    name = getattr(config, "lockfile", None) or "api_surface.json"
    root = getattr(config, "root", None)
    base = Path(root) if root else project.package_dir.parent
    return base / name


class AliasedRandomRule(ProjectRule):
    """RNG002: a call that resolves to ``numpy.random`` through aliases.

    ``RNG001`` is textual (``np.random.*`` / ``numpy.random.*``); this
    rule resolves import bindings project-wide, so ``from numpy import
    random``, ``from numpy.random import default_rng`` and ``import
    numpy.random as nr`` are caught too.  Call sites already covered by
    ``RNG001`` are skipped to avoid double reports.
    """

    id = "RNG002"
    name = "aliased-random"
    severity = SEVERITY_ERROR
    description = (
        "call resolves to numpy.random through an import alias; route "
        "randomness through repro.utils.rng.derive_rng"
    )

    _TEXTUAL = ("np.random.", "numpy.random.")

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        findings: List[Finding] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            if info.path.endswith(_RNG_EXEMPT_SUFFIX):
                continue
            for call in info.calls:
                if call.dotted.startswith(self._TEXTUAL):
                    continue  # RNG001 territory
                if call.resolved.startswith("numpy.random.") or (
                    call.resolved == "numpy.random"
                ):
                    findings.append(
                        self.finding(
                            info.path,
                            call.line,
                            call.col,
                            f"{call.dotted}() resolves to {call.resolved} "
                            "via an import alias; use "
                            "repro.utils.rng.derive_rng(seed, stream)",
                        )
                    )
        return findings


class StreamCollisionRule(ProjectRule):
    """RNG003: the same literal RNG stream name derived at several sites.

    Stream names partition the seed space: two components deriving
    ``derive_rng(seed, "imu")`` draw *identical* random sequences, which
    silently correlates what should be independent noise.  Every reuse
    of a literal stream name beyond its first call site is flagged;
    dynamic names (f-strings, ``task_seed`` indices) are the sanctioned
    way to fan a stream out.
    """

    id = "RNG003"
    name = "rng-stream-collision"
    severity = SEVERITY_ERROR
    description = (
        "literal RNG stream name reused across call sites; streams must "
        "be unique per component"
    )

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        sites: Dict[str, List[Tuple[ModuleInfo, CallRecord]]] = {}
        for name in sorted(project.modules):
            info = project.modules[name]
            if info.path.endswith(_RNG_EXEMPT_SUFFIX):
                continue
            for call in info.calls:
                func = call.resolved.rpartition(".")[2]
                if func in _STREAM_FUNCTIONS and call.stream_literal is not None:
                    sites.setdefault(call.stream_literal, []).append((info, call))
        findings: List[Finding] = []
        for literal in sorted(sites):
            occurrences = sorted(
                sites[literal], key=lambda s: (s[0].path, s[1].line, s[1].col)
            )
            if len(occurrences) < 2:
                continue
            first_info, first_call = occurrences[0]
            for info, call in occurrences[1:]:
                findings.append(
                    self.finding(
                        info.path,
                        call.line,
                        call.col,
                        f"RNG stream {literal!r} is already derived at "
                        f"{first_info.path}:{first_call.line}; identical "
                        "stream names yield identical random sequences",
                    )
                )
        return findings


class TelemetryEventRule(ProjectRule):
    """OBS001: telemetry event emitted under a string literal name.

    ``TelemetryRecorder.emit`` validates event names against
    ``repro.telemetry.events.EVENT_SCHEMA`` at runtime, but a literal
    at the emit site still dodges static tracking: renaming an event in
    the registry would leave the stale literal behind as a run-time
    crash (or, worse, a silently different stream shape).  Emit sites
    must therefore pass the registered constants — ``rec.emit(
    CYCLE_START, ...)`` — never ``rec.emit("cycle.start", ...)``.  The
    schema module itself (where the literals are *defined*) and the
    recorder are exempt.
    """

    id = "OBS001"
    name = "telemetry-literal-event"
    severity = SEVERITY_ERROR
    description = (
        "telemetry event emitted as a string literal; use the "
        "registered constants from repro.telemetry.events"
    )

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        findings: List[Finding] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            if info.path.endswith(_TELEMETRY_EXEMPT_SUFFIXES):
                continue
            for call in info.calls:
                if call.dotted.rpartition(".")[2] != "emit":
                    continue
                if call.arg0_literal is None:
                    continue
                findings.append(
                    self.finding(
                        info.path,
                        call.line,
                        call.col,
                        f"{call.dotted}({call.arg0_literal!r}, ...) names "
                        "the event with a string literal; import the "
                        "constant from repro.telemetry.events instead",
                    )
                )
        return findings


class CacheKeyConstructionRule(ProjectRule):
    """CAC001: rollout cache keys built outside the sanctioned modules.

    The whole point of a content-addressed store is that one rollout
    has exactly one address.  ``repro.cache.keys`` is the single
    constructor of that address; a stray ``config_hash(...)`` call in a
    consumer (facade, sweep runner) would mint a second,
    subtly different key for the same inputs — entries written under
    one spelling and looked up under the other never hit, which is a
    silent full-recompute, not an error.  Only the hash's home module,
    the manifest builder and the key module itself may call it.
    """

    id = "CAC001"
    name = "cache-key-construction"
    severity = SEVERITY_ERROR
    description = (
        "cache keys must be built via repro.cache.keys; ad-hoc "
        "config_hash calls split the content-addressed store"
    )

    def check(self, project: ProjectGraph, config) -> List[Finding]:
        findings: List[Finding] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            if info.path.endswith(_CACHE_KEY_EXEMPT_SUFFIXES):
                continue
            for call in info.calls:
                if call.dotted.rpartition(".")[2] != "config_hash":
                    continue
                findings.append(
                    self.finding(
                        info.path,
                        call.line,
                        call.col,
                        f"{call.dotted}(...) builds a cache key outside "
                        "repro.cache.keys; use rollout_key_document / "
                        "rollout_key so one rollout has one address",
                    )
                )
        return findings


#: All project rule classes in id order; instantiated per run.
PROJECT_RULES: Tuple[type, ...] = (
    ApiLockfileRule,
    ArchitectureContractRule,
    ImportCycleRule,
    DeadFunctionRule,
    TelemetryEventRule,
    AliasedRandomRule,
    StreamCollisionRule,
    CacheKeyConstructionRule,
)


def default_project_rules() -> List[ProjectRule]:
    """Fresh instances of every registered project rule."""
    return [cls() for cls in PROJECT_RULES]


def project_rules_by_id() -> Dict[str, type]:
    """Registry mapping project rule id -> rule class."""
    return {cls.id: cls for cls in PROJECT_RULES}
