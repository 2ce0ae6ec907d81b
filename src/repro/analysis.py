"""Static checks on the reproduction's fixed points (reprolint).

The closed loop reproduces the paper only while three things hold:
knob values stay inside the characterized domains, every noise source
draws from a seeded, named stream, and the delay-aware LQR's ms/s
timing math is consistent.  Each check below guards one of those (or
the float32 sensing chain, the rollout-cache address, or the public
facade the experiments are driven through):

- ``RNG001`` — a call into ``numpy.random`` / stdlib ``random`` global
  state, written out (``np.random.rand``) or through an import alias
  (``from numpy import random``, ``import numpy.random as nr``);
- ``RNG003`` — the same literal stream name passed to ``derive_rng`` /
  ``stream_seed`` at more than one call site among the files linted:
  two components would draw identical sequences;
- ``PRF001`` — a float64 reference in a float32 hot-path module;
- ``CAC001`` — ``config_hash`` (or its ``_text_hash`` digest) called
  outside the sanctioned cache-key modules, which would mint a second
  address for one rollout;
- ``DOM001`` — an ISP stage, ROI, speed or timing literal outside its
  characterized domain (imported from the modules that own them);
- ``UNT001`` — a ``*_ms`` value assigned to a ``*_s`` name (or the
  reverse) without a ``1000`` conversion factor;
- ``API002`` — a public ``repro.api`` function that is undocumented or
  takes positional parameters past the first;
- ``API003`` — ``repro/api.py`` or the package root's ``__all__``
  drifted from ``api_surface.json``.

Every file is parsed once and each check sees every node of one shared
walk; ``RNG003`` alone compares across files, after the walks.

``# reprolint: disable=PRF001`` (comma-separate several ids) on the
flagged line suppresses that finding.  A suppression comment naming an
id not listed above, or sitting on a line of its own, is itself
reported (``SUP001``), so a removed rule leaves no dead comments.

CLI: ``python -m repro lint [paths]`` exits 0 when
clean, 1 on findings and 2 when an input cannot be read or parsed
(``PARSE000``); ``python -m repro lint --update-lockfile`` rewrites
``api_surface.json`` from the tree.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.knobs import SPEED_CHOICES_KMPH
from repro.isp.configs import ISP_CONFIGS
from repro.perception.roi import ROI_PRESETS
from repro.platform.schedule import pipeline_timing

__all__ = [
    "EXIT_CLEAN",
    "EXIT_CRASH",
    "EXIT_FINDINGS",
    "RULES",
    "Finding",
    "LintReport",
    "extract_api_surface",
    "lint_paths",
    "lint_source",
    "write_lockfile",
]

#: The checks' ids; a suppression naming any other id is reported.
RULES = (
    "RNG001", "RNG003", "PRF001", "CAC001", "DOM001", "UNT001", "API002", "API003",
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_CRASH = 2

#: The sanctioned derivation module: exempt from RNG001/RNG003.
_RNG_EXEMPT_SUFFIX = "utils/rng.py"
_STREAM_FUNCTIONS = frozenset({"derive_rng", "stream_seed"})

#: Allowed to call ``config_hash`` (or ``_text_hash``, its digest of an
#: already canonical text): its home module, the manifest builder (whose
#: hash IS the run-identity field), and the one rollout-key module.
_CACHE_KEY_EXEMPT_SUFFIXES = (
    "utils/cache.py",
    "telemetry/manifest.py",
    "cache/keys.py",
)

#: The sensing chain that runs every control cycle in float32.  Geometry
#: and sensor code (``sim/track.py``, ``sim/sensor.py``) legitimately
#: computes in float64 and is not guarded.
_HOT_PATH_SUFFIXES = (
    "nn/layers.py",
    "nn/model.py",
    "isp/stages.py",
    "isp/pipeline.py",
    "sim/renderer.py",
    "classifiers/models.py",
    "classifiers/runtime.py",
    "hil/batch.py",
    "perception/bev.py",
    "perception/threshold.py",
)

_FACADE_SUFFIX = "repro/api.py"
_ROOT_INIT_SUFFIX = "repro/__init__.py"
LOCKFILE_NAME = "api_surface.json"
#: Bumped whenever the lockfile document layout changes incompatibly.
LOCKFILE_VERSION = 1
_LOCKFILE_HINT = "run `python -m repro lint --update-lockfile` if intentional"

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s-]+)")
_ISP_RE = re.compile(r"^S\d+$")
_ROI_RE = re.compile(r"^ROI \d+$")
_MS_PER_S = {1000, 1000.0}
_S_PER_MS = {0.001, 1e-3}


def _knob_domains() -> Dict[str, object]:
    """The characterized knob domains, from the modules that own them."""
    timings = [pipeline_timing(name, ()) for name in ISP_CONFIGS]
    periods = [t.period_ms for t in timings]
    delays = [t.delay_ms for t in timings]
    # Classifier co-schedules stretch the cycle past the bare ISP
    # period; 4x the heaviest bare pipeline bounds every configuration
    # the platform model can produce.
    return {
        "isp": frozenset(ISP_CONFIGS),
        "roi": frozenset(ROI_PRESETS),
        "speeds": frozenset(float(v) for v in SPEED_CHOICES_KMPH),
        "period_ms": (min(periods), 4.0 * max(periods)),
        "delay_ms": (min(delays), 4.0 * max(delays)),
    }


_DOMAINS = _knob_domains()


@dataclass(frozen=True)
class Finding:
    """One violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class LintReport:
    """Unsuppressed findings of one lint run, plus counters."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 when an input could not be analysed."""
        if any(f.rule_id == "PARSE000" for f in self.findings):
            return EXIT_CRASH
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN

    def render_text(self) -> str:
        """Findings ordered by location, then a summary line."""
        ordered = sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        )
        noun = "finding" if len(self.findings) == 1 else "findings"
        summary = (
            f"{len(self.findings)} {noun} ({self.files_checked} files "
            f"checked, {self.suppressed} suppressed)"
        )
        return "\n".join([f.render() for f in ordered] + [summary])


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _File:
    """One parsed file: the indexes the checks read, and their findings."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path.replace("\\", "/")
        self.tree = tree
        self.findings: List[Finding] = []
        #: (literal stream name, line, col) of each RNG003 call site.
        self.streams: List[Tuple[str, int, int]] = []
        self.docstrings: Set[int] = set()
        #: Top-level names of imported modules (``random`` for the stdlib).
        self.modules: Set[str] = set()
        #: Local name -> dotted origin, through every import alias.
        self.bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(
                node,
                (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    self.docstrings.add(id(body[0].value))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.modules.add(root)
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        self.bindings.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    self.modules.add(node.module.split(".")[0])
                base = "." * node.level + (node.module or "")
                if base == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        self.bindings[alias.asname or alias.name] = (
                            f"{base}.{alias.name}" if node.module else base + alias.name
                        )

    def resolve(self, dotted: str) -> str:
        """*dotted* with its first component replaced by its import origin."""
        root, sep, rest = dotted.partition(".")
        origin = self.bindings.get(root)
        return f"{origin}{sep}{rest}" if origin else dotted

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        """Record a finding anchored at *node*."""
        self.report_at(rule_id, node.lineno, node.col_offset, message)

    def report_at(self, rule_id: str, line: int, col: int, message: str) -> None:
        """Record a finding at an explicit location."""
        self.findings.append(Finding(rule_id, self.path, line, col, message))


# ---------------------------------------------------------------------------
# per-node checks (one shared walk per file)


def _check_random(node: ast.AST, f: _File) -> None:
    """RNG001: a call into global random state, directly or via an alias."""
    if not isinstance(node, ast.Call):
        return
    dotted = _dotted_name(node.func)
    if dotted is None:
        return
    if dotted.startswith(("np.random.", "numpy.random.")) or (
        # Only the stdlib module, not a local variable named random.
        dotted.startswith("random.") and "random" in f.modules
    ):
        f.report(
            "RNG001",
            node,
            f"{dotted}() uses unseeded global RNG state; use "
            "repro.utils.rng.derive_rng(seed, stream) (or "
            "seed_everything for the legacy global)",
        )
        return
    resolved = f.resolve(dotted)
    if resolved.startswith("numpy.random.") or resolved == "numpy.random":
        f.report(
            "RNG001",
            node,
            f"{dotted}() resolves to {resolved} via an import alias; use "
            "repro.utils.rng.derive_rng(seed, stream)",
        )


def _collect_stream(node: ast.AST, f: _File) -> None:
    """RNG003 (first half): record each literal stream-name derivation."""
    if not isinstance(node, ast.Call):
        return
    dotted = _dotted_name(node.func)
    if dotted is None:
        return
    if f.resolve(dotted).rpartition(".")[2] not in _STREAM_FUNCTIONS:
        return
    stream: Optional[ast.expr] = node.args[1] if len(node.args) >= 2 else None
    for keyword in node.keywords:
        if keyword.arg == "stream":
            stream = keyword.value
    if isinstance(stream, ast.Constant) and isinstance(stream.value, str):
        f.streams.append((stream.value, node.lineno, node.col_offset))


def _check_cache_key(node: ast.AST, f: _File) -> None:
    """CAC001: ``config_hash`` called outside the sanctioned key modules."""
    if not isinstance(node, ast.Call):
        return
    dotted = _dotted_name(node.func)
    if dotted is not None and dotted.rpartition(".")[2] in ("config_hash", "_text_hash"):
        f.report(
            "CAC001",
            node,
            f"{dotted}(...) builds a cache key outside repro.cache.keys; "
            "use rollout_key_document / rollout_key so one rollout has "
            "one address",
        )


def _check_float64(node: ast.AST, f: _File) -> None:
    """PRF001: ``*.float64`` or ``dtype="float64"`` in a hot-path module."""
    if isinstance(node, ast.Attribute):
        dotted = _dotted_name(node)
        if dotted and dotted.endswith(".float64"):
            f.report(
                "PRF001",
                node,
                f"{dotted} in a hot-path module; the sensing chain is "
                "float32 end-to-end (see DESIGN.md)",
            )
    elif isinstance(node, ast.Call):
        for keyword in node.keywords:
            if (
                keyword.arg in ("dtype", "output")
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value == "float64"
            ):
                f.report(
                    "PRF001",
                    keyword.value,
                    f'{keyword.arg}="float64" in a hot-path module; the '
                    "sensing chain is float32 end-to-end",
                )


def _check_domains(node: ast.AST, f: _File) -> None:
    """DOM001: ISP/ROI ids, ``speed_kmph=`` and timing literals in domain."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if id(node) in f.docstrings:
            return
        value = node.value
        for pattern, key, label in (
            (_ISP_RE, "isp", "ISP stage"),
            (_ROI_RE, "roi", "ROI"),
        ):
            if pattern.match(value) and value not in _DOMAINS[key]:
                known = ", ".join(sorted(_DOMAINS[key]))
                f.report(
                    "DOM001", node, f"unknown {label} id {value!r} (knobs: {known})"
                )
        return
    if not isinstance(node, ast.Call):
        return
    for keyword in node.keywords:
        value = keyword.value
        if not (
            isinstance(value, ast.Constant)
            and isinstance(value.value, (int, float))
            and not isinstance(value.value, bool)
        ):
            continue
        number = float(value.value)
        if keyword.arg == "speed_kmph" and number not in _DOMAINS["speeds"]:
            f.report(
                "DOM001",
                value,
                f"speed_kmph={number:g} outside the characterized speed "
                f"knob values {sorted(_DOMAINS['speeds'])}",
            )
        elif keyword.arg in ("period_ms", "delay_ms"):
            low, high = _DOMAINS[keyword.arg]
            if not low <= number <= high:
                f.report(
                    "DOM001",
                    value,
                    f"{keyword.arg}={number:g} outside the achievable "
                    f"platform range [{low:g}, {high:g}] ms",
                )


def _has_conversion(value: ast.AST, factors: Set[float], op) -> bool:
    """Whether *value* multiplies/divides by one of *factors* via *op*."""
    for child in ast.walk(value):
        if not isinstance(child, ast.BinOp) or not isinstance(child.op, op):
            continue
        operands = [child.right]
        if isinstance(child.op, ast.Mult):
            operands.append(child.left)
        for operand in operands:
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, (int, float))
                and operand.value in factors
            ):
                return True
    return False


def _check_units(node: ast.AST, f: _File) -> None:
    """UNT001: ``*_ms`` into ``*_s`` (or back) without a 1000 factor."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target, value = node.target, node.value
    else:
        return
    if isinstance(target, ast.Name):
        name = target.id
    elif isinstance(target, ast.Attribute):
        name = target.attr
    else:
        return
    loaded = {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(value)
        if isinstance(child, (ast.Name, ast.Attribute))
    }
    if name.endswith("_s"):
        sources = [n for n in loaded if n.endswith("_ms")]
        if sources and not (
            _has_conversion(value, _MS_PER_S, ast.Div)
            or _has_conversion(value, _S_PER_MS, ast.Mult)
        ):
            f.report(
                "UNT001",
                node,
                f"{name} (seconds) assigned from {sorted(sources)} "
                "(milliseconds) without / 1000.0",
            )
    elif name.endswith("_ms"):
        sources = [n for n in loaded if n.endswith("_s") and not n.endswith("_ms")]
        if sources and not (
            _has_conversion(value, _MS_PER_S, ast.Mult)
            or _has_conversion(value, _S_PER_MS, ast.Div)
        ):
            f.report(
                "UNT001",
                node,
                f"{name} (milliseconds) assigned from {sorted(sources)} "
                "(seconds) without * 1000.0",
            )


def _check_facade(node: ast.AST, f: _File) -> None:
    """API002: public facade functions are documented and keyword-only.

    ``repro.api`` promises that public entry points never break callers
    by reordering parameters: everything past an optional first
    positional argument is keyword-only.
    """
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    if node.name.startswith("_"):
        return
    if ast.get_docstring(node) is None:
        f.report(
            "API002", node, f"public facade function {node.name}() has no docstring"
        )
    positional = list(node.args.posonlyargs) + list(node.args.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    if len(positional) > 1:
        extras = ", ".join(a.arg for a in positional[1:])
        f.report(
            "API002",
            node,
            f"{node.name}() takes positional parameters ({extras}) past the "
            "first; make them keyword-only (add * to the signature) to "
            "honour the facade stability contract",
        )


# ---------------------------------------------------------------------------
# API003: the public surface against api_surface.json


def _render_signature(node: ast.FunctionDef) -> str:
    """Canonical one-line signature text for a function definition."""
    args = node.args
    parts = []
    positional = list(args.posonlyargs) + list(args.args)
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)

    def fmt(arg: ast.arg, default: Optional[ast.AST]) -> str:
        text = arg.arg
        if arg.annotation is not None:
            text += f": {ast.unparse(arg.annotation)}"
            if default is not None:
                text += f" = {ast.unparse(default)}"
        elif default is not None:
            text += f"={ast.unparse(default)}"
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
        signature += f" -> {ast.unparse(node.returns)}"
    return signature


def _module_all(tree: ast.Module) -> Tuple[Tuple[str, ...], int]:
    """The module's literal ``__all__`` (empty if none) and its line."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(stmt.value, (ast.List, ast.Tuple)):
                    names = tuple(
                        element.value
                        for element in stmt.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    )
                    return names, stmt.lineno
    return (), 1


def _facade_surface(tree: ast.Module) -> Tuple[Dict[str, object], Dict[str, int]]:
    """Every ``__all__`` name of the facade described, and its line."""
    exported, all_line = _module_all(tree)
    definitions = {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    entries: Dict[str, object] = {}
    lines: Dict[str, int] = {}
    for name in exported:
        node = definitions.get(name)
        if isinstance(node, ast.ClassDef):
            fields = []
            methods: Dict[str, str] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields.append(f"{stmt.target.id}: {ast.unparse(stmt.annotation)}")
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not stmt.name.startswith("_"):
                        methods[stmt.name] = _render_signature(stmt)
            entries[name] = {"kind": "class", "fields": fields, "methods": methods}
        elif node is not None:
            entries[name] = {"kind": "function", "signature": _render_signature(node)}
        else:
            entries[name] = {"kind": "re-export"}
        lines[name] = getattr(node, "lineno", all_line)
    return entries, lines


def _parse_file(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=path.as_posix())


def extract_api_surface(package_dir: Path) -> Dict[str, object]:
    """The locked surface: ``api.py`` described, the root ``__all__``."""
    package_dir = Path(package_dir)
    surface: Dict[str, object] = {
        "lockfile_version": LOCKFILE_VERSION,
        "api": {},
        "root_all": [],
    }
    if (package_dir / "api.py").is_file():
        surface["api"] = _facade_surface(_parse_file(package_dir / "api.py"))[0]
    if (package_dir / "__init__.py").is_file():
        root_all, _ = _module_all(_parse_file(package_dir / "__init__.py"))
        surface["root_all"] = sorted(root_all)
    return surface


def _lockfile_path(package_dir: Path) -> Path:
    """``api_surface.json`` at the root of the ``src/<package>`` layout."""
    return Path(package_dir).resolve().parent.parent / LOCKFILE_NAME


def write_lockfile(package_dir: Path) -> Tuple[Path, bool]:
    """Rewrite the lockfile from the tree; returns (path, changed)."""
    if not (Path(package_dir) / "__init__.py").is_file():
        raise ValueError(f"{package_dir} is not a package directory")
    path = _lockfile_path(package_dir)
    text = json.dumps(extract_api_surface(package_dir), indent=2, sort_keys=True) + "\n"
    if path.is_file() and path.read_text(encoding="utf-8") == text:
        return path, False
    path.write_text(text, encoding="utf-8")
    return path, True


def _check_lockfile(f: _File) -> None:
    """API003: ``repro/api.py`` / the root ``__all__`` match the lockfile."""
    lock_path = _lockfile_path(Path(f.path).parent)
    exported, all_line = _module_all(f.tree)
    if f.path.endswith(_FACADE_SUFFIX):
        current, lines = _facade_surface(f.tree)
    else:
        current, lines = sorted(exported), {}
    try:
        recorded = json.loads(lock_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        if current:
            f.report_at(
                "API003", all_line, 0,
                f"API lockfile {LOCKFILE_NAME} is missing; {_LOCKFILE_HINT}",
            )
        return
    except (OSError, ValueError) as exc:
        f.report_at(
            "API003", all_line, 0, f"unreadable API lockfile {lock_path}: {exc}"
        )
        return
    if not isinstance(recorded, dict):
        f.report_at(
            "API003", all_line, 0, f"API lockfile {lock_path} is not a JSON object"
        )
        return
    if isinstance(current, list):
        locked = sorted(recorded.get("root_all", []))
        if locked != current:
            f.report_at(
                "API003", all_line, 0,
                "package root __all__ drifted from the locked surface "
                f"(locked: {locked}, current: {current}); {_LOCKFILE_HINT}",
            )
        return
    locked_api = recorded.get("api", {})
    for name in sorted(set(current) | set(locked_api)):
        if name not in locked_api:
            problem = f"is exported but not recorded in {LOCKFILE_NAME}"
        elif name not in current:
            problem = f"is recorded in {LOCKFILE_NAME} but no longer exported"
        elif current[name] != locked_api[name]:
            problem = (
                f"drifted from the locked surface (locked: {locked_api[name]!r}, "
                f"current: {current[name]!r})"
            )
        else:
            continue
        f.report_at(
            "API003", lines.get(name, all_line), 0,
            f"api.{name} {problem}; {_LOCKFILE_HINT}",
        )


# ---------------------------------------------------------------------------
# the run: walk, cross-file streams, suppressions


def _checks_for(path: str) -> List[Callable[[ast.AST, _File], None]]:
    """The per-node checks that apply to the file at *path*."""
    checks = [_check_domains, _check_units]
    if not path.endswith(_RNG_EXEMPT_SUFFIX):
        checks += [_check_random, _collect_stream]
    if not path.endswith(_CACHE_KEY_EXEMPT_SUFFIXES):
        checks.append(_check_cache_key)
    if path.endswith(_HOT_PATH_SUFFIXES):
        checks.append(_check_float64)
    if path.endswith(_FACADE_SUFFIX):
        checks.append(_check_facade)
    return checks


def _check_streams(files: Sequence[_File]) -> None:
    """RNG003 (second half): flag each reuse of a literal stream name."""
    sites: Dict[str, List[Tuple[str, int, int, _File]]] = {}
    for f in files:
        for literal, line, col in f.streams:
            sites.setdefault(literal, []).append((f.path, line, col, f))
    for literal, occurrences in sites.items():
        occurrences.sort(key=lambda site: site[:3])
        first_path, first_line = occurrences[0][:2]
        for _, line, col, f in occurrences[1:]:
            f.report_at(
                "RNG003", line, col,
                f"RNG stream {literal!r} is already derived at "
                f"{first_path}:{first_line}; identical stream names "
                "yield identical random sequences",
            )


def _suppress(f: _File, source: str) -> Tuple[List[Finding], int]:
    """Drop findings suppressed on their line; report stale suppressions."""
    per_line: Dict[int, Set[str]] = {}
    stale: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    for token in tokens:
        match = token.type == tokenize.COMMENT and _SUPPRESS_RE.search(token.string)
        if not match:
            continue
        row, col = token.start
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if not token.line[:col].strip():
            stale.append(
                Finding(
                    "SUP001", f.path, row, col,
                    "suppression comment on a line of its own covers "
                    "nothing; put it on the flagged line",
                )
            )
            continue
        for rule_id in sorted(ids - set(RULES)):
            stale.append(
                Finding(
                    "SUP001", f.path, row, col,
                    f"suppression names unknown rule id {rule_id!r}; "
                    "remove it",
                )
            )
        per_line.setdefault(row, set()).update(ids)
    kept = [x for x in f.findings if x.rule_id not in per_line.get(x.line, ())]
    return kept + stale, len(f.findings) - len(kept)


def _lint(sources: Iterable[Tuple[str, str]]) -> LintReport:
    """Lint ``(path, source)`` pairs; ``PARSE000`` marks unparseable input."""
    report = LintReport()
    parsed: List[Tuple[_File, str]] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as exc:
            report.findings.append(
                Finding("PARSE000", path, 1, 0, f"cannot parse: {exc}")
            )
            continue
        report.files_checked += 1
        f = _File(path, tree)
        checks = _checks_for(f.path)
        for node in ast.walk(tree):
            for check in checks:
                check(node, f)
        if f.path.endswith((_FACADE_SUFFIX, _ROOT_INIT_SUFFIX)):
            _check_lockfile(f)
        parsed.append((f, source))
    _check_streams([f for f, _ in parsed])
    for f, source in parsed:
        kept, suppressed = _suppress(f, source)
        report.findings.extend(kept)
        report.suppressed += suppressed
    return report


def lint_source(source: str, path: str = "<string>") -> LintReport:
    """Lint one source string as if it lived at *path*."""
    return _lint([(path, source)])


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint the ``.py`` files at or under *paths*."""
    files: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        for candidate in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            if candidate.resolve() not in seen:
                seen.add(candidate.resolve())
                files.append(candidate)
    sources: List[Tuple[str, str]] = []
    unreadable: List[Finding] = []
    for path in files:
        try:
            sources.append((path.as_posix(), path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(
                Finding("PARSE000", path.as_posix(), 1, 0, f"unreadable: {exc}")
            )
    report = _lint(sources)
    report.findings.extend(unreadable)
    return report
