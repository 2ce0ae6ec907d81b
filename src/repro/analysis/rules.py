"""Project-specific lint rules for the repro codebase.

Each rule is a :class:`Rule` subclass registered in :data:`RULES`.  The
engine (:mod:`repro.analysis.engine`) parses every file once and feeds
each AST node to every selected rule, so adding a rule never adds a
parse or walk pass.

The knob-domain rule (``DOM001``) imports the authoritative domains —
ISP stage ids, ROI presets, speed choices, achievable timing range —
from the packages that own them (:mod:`repro.isp.configs`,
:mod:`repro.perception.roi`, :mod:`repro.core.knobs`,
:mod:`repro.platform.schedule`) instead of hard-coding copies that
could drift.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.report import SEVERITY_ERROR, SEVERITY_WARNING

__all__ = [
    "Rule",
    "RULES",
    "rules_by_id",
    "default_rules",
]


class Rule:
    """Base class: one lint check with a stable id.

    Subclasses override :meth:`visit_node` (called for every AST node in
    file order) and optionally :meth:`begin_file` / :meth:`end_file` for
    per-file state.  Findings are emitted through ``ctx.report``.
    """

    id: str = "RULE000"
    name: str = "abstract-rule"
    severity: str = SEVERITY_WARNING
    description: str = ""

    def begin_file(self, ctx) -> None:
        """Reset per-file state before a new file is walked."""

    def visit_node(self, node: ast.AST, ctx) -> None:
        """Inspect one AST node (single shared walk over the file)."""

    def end_file(self, ctx) -> None:
        """Emit findings that need whole-file knowledge."""


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


class UnseededRandomRule(Rule):
    """RNG001: calls into global random state outside ``utils/rng.py``.

    Reproducible HiL runs require every stochastic component to draw
    from a seeded, stream-derived generator.  Calls through
    ``np.random.*`` / ``numpy.random.*`` or the stdlib ``random`` module
    bypass that discipline.
    """

    id = "RNG001"
    name = "unseeded-random"
    severity = SEVERITY_ERROR
    description = (
        "call into np.random / random global state; derive a generator "
        "via repro.utils.rng.derive_rng (or seed via seed_everything)"
    )

    _EXEMPT_SUFFIX = "utils/rng.py"

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not isinstance(node, ast.Call):
            return
        if ctx.posix_path.endswith(self._EXEMPT_SUFFIX):
            return
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        flagged = dotted.startswith(("np.random.", "numpy.random."))
        if not flagged and dotted.startswith("random."):
            # Only the stdlib module, not a local variable named random.
            flagged = "random" in ctx.imported_modules
        if flagged:
            ctx.report(
                self,
                node,
                f"{dotted}() uses unseeded global RNG state; use "
                "repro.utils.rng.derive_rng(seed, stream) (or "
                "seed_everything for the legacy global)",
            )


class MutableDefaultRule(Rule):
    """DEF001: mutable default argument values shared across calls."""

    id = "DEF001"
    name = "mutable-default"
    severity = SEVERITY_ERROR
    description = "mutable default argument (list/dict/set) shared across calls"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(default, ast.Call) and isinstance(default.func, ast.Name):
            return default.func.id in self._MUTABLE_CALLS
        return False

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self,
                    default,
                    f"mutable default in {node.name}(); use None and "
                    "construct inside the body",
                )


class FloatEqualityRule(Rule):
    """FLT001: ``==`` / ``!=`` against a float literal.

    Computed floats (lateral offsets, curvatures, timing) rarely equal a
    literal exactly; use ``math.isclose``, an explicit sign test, or an
    absolute tolerance.  Exact sentinel comparisons can be suppressed
    in place with ``# reprolint: disable=FLT001``.
    """

    id = "FLT001"
    name = "float-equality"
    severity = SEVERITY_WARNING
    description = "== / != comparison against a float literal"

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not isinstance(node, ast.Compare):
            return
        comparators = [node.left] + list(node.comparators)
        for op, (lhs, rhs) in zip(
            node.ops, zip(comparators[:-1], comparators[1:])
        ):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side, other in ((lhs, rhs), (rhs, lhs)):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and not isinstance(other, ast.Constant)
                ):
                    ctx.report(
                        self,
                        node,
                        f"comparison against float literal {side.value!r}; "
                        "use math.isclose, a sign test, or a tolerance",
                    )
                    break


class BroadExceptRule(Rule):
    """EXC001: bare or overbroad exception handlers.

    ``except:`` / ``except Exception:`` / ``except BaseException:``
    swallow programming errors.  A handler that re-raises (cleanup
    pattern) is allowed.
    """

    id = "EXC001"
    name = "broad-except"
    severity = SEVERITY_WARNING
    description = "bare/overbroad except that does not re-raise"

    _BROAD = {"Exception", "BaseException"}

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        for child in ast.walk(handler):
            if isinstance(child, ast.Raise) and child.exc is None:
                return True
        return False

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            label = "bare except:"
        else:
            dotted = _dotted_name(node.type)
            if dotted not in self._BROAD:
                return
            label = f"except {dotted}:"
        if self._reraises(node):
            return
        ctx.report(
            self,
            node,
            f"{label} without re-raise; catch the specific exceptions "
            "the block can raise",
        )


def _knob_domains() -> Optional[Dict[str, object]]:
    """Authoritative knob domains, imported from their owning modules.

    Returns None when the repro packages are unavailable (linting a
    foreign tree), which disables the domain checks rather than
    guessing.
    """
    try:
        from repro.core.knobs import SPEED_CHOICES_KMPH
        from repro.isp.configs import ISP_CONFIGS
        from repro.perception.roi import ROI_PRESETS
        from repro.platform.schedule import pipeline_timing
    except ImportError:
        return None
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


class KnobDomainRule(Rule):
    """DOM001: knob literals outside their characterized domains.

    Flags ISP stage ids not in ``ISP_CONFIGS`` (S0-S8), ROI names not in
    ``ROI_PRESETS`` (ROI 1-5), ``speed_kmph=`` keyword literals outside
    the paper's speed choices, and ``period_ms=`` / ``delay_ms=``
    keyword literals outside the range the platform timing model can
    produce.
    """

    id = "DOM001"
    name = "knob-domain"
    severity = SEVERITY_ERROR
    description = "knob literal outside its characterized domain"

    _ISP_RE = re.compile(r"^S\d+$")
    _ROI_RE = re.compile(r"^ROI \d+$")
    _TIMING_KEYWORDS = ("period_ms", "delay_ms")

    def __init__(self):
        self._domains = _knob_domains()

    def visit_node(self, node: ast.AST, ctx) -> None:
        if self._domains is None:
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self._check_string(node, ctx)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                self._check_keyword(keyword, ctx)

    def _check_string(self, node: ast.Constant, ctx) -> None:
        if ctx.is_docstring(node):
            return
        value = node.value
        if self._ISP_RE.match(value) and value not in self._domains["isp"]:
            known = ", ".join(sorted(self._domains["isp"]))
            ctx.report(self, node, f"unknown ISP stage id {value!r} (knobs: {known})")
        elif self._ROI_RE.match(value) and value not in self._domains["roi"]:
            known = ", ".join(sorted(self._domains["roi"]))
            ctx.report(self, node, f"unknown ROI id {value!r} (knobs: {known})")

    def _check_keyword(self, keyword: ast.keyword, ctx) -> None:
        value = keyword.value
        if not (
            isinstance(value, ast.Constant)
            and isinstance(value.value, (int, float))
            and not isinstance(value.value, bool)
        ):
            return
        number = float(value.value)
        if keyword.arg == "speed_kmph":
            if number not in self._domains["speeds"]:
                choices = sorted(self._domains["speeds"])
                ctx.report(
                    self,
                    value,
                    f"speed_kmph={number:g} outside the characterized "
                    f"speed knob values {choices}",
                )
        elif keyword.arg in self._TIMING_KEYWORDS:
            low, high = self._domains[keyword.arg]
            if not low <= number <= high:
                ctx.report(
                    self,
                    value,
                    f"{keyword.arg}={number:g} outside the achievable "
                    f"platform range [{low:g}, {high:g}] ms",
                )


class UnitSuffixRule(Rule):
    """UNT001: ``*_ms`` value assigned to a ``*_s`` name (or vice versa)
    without an explicit unit conversion in the expression."""

    id = "UNT001"
    name = "unit-suffix"
    severity = SEVERITY_ERROR
    description = "ms/s suffix mix without an explicit conversion factor"

    _MS_PER_S = {1000, 1000.0}
    _S_PER_MS = {0.001, 1e-3}

    @staticmethod
    def _target_name(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    @staticmethod
    def _loaded_names(value: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(value):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
        return names

    def _has_conversion(self, value: ast.AST, factors: Set[float], op) -> bool:
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

    def _check(self, target: ast.AST, value: ast.AST, node: ast.AST, ctx) -> None:
        name = self._target_name(target)
        if name is None:
            return
        loaded = self._loaded_names(value)
        if name.endswith("_s"):
            sources = [n for n in loaded if n.endswith("_ms")]
            if sources and not (
                self._has_conversion(value, self._MS_PER_S, ast.Div)
                or self._has_conversion(value, self._S_PER_MS, ast.Mult)
            ):
                ctx.report(
                    self,
                    node,
                    f"{name} (seconds) assigned from {sorted(sources)} "
                    "(milliseconds) without / 1000.0",
                )
        elif name.endswith("_ms"):
            sources = [
                n for n in loaded if n.endswith("_s") and not n.endswith("_ms")
            ]
            if sources and not (
                self._has_conversion(value, self._MS_PER_S, ast.Mult)
                or self._has_conversion(value, self._S_PER_MS, ast.Div)
            ):
                ctx.report(
                    self,
                    node,
                    f"{name} (milliseconds) assigned from {sorted(sources)} "
                    "(seconds) without * 1000.0",
                )

    def visit_node(self, node: ast.AST, ctx) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            self._check(node.targets[0], node.value, node, ctx)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._check(node.target, node.value, node, ctx)


class MissingAllRule(Rule):
    """API001: a non-empty ``__init__.py`` without ``__all__``.

    Package ``__init__`` modules are the public API surface; an explicit
    ``__all__`` keeps re-exports deliberate and lets the dead-import
    rule treat them as used.
    """

    id = "API001"
    name = "missing-all"
    severity = SEVERITY_WARNING
    description = "non-empty __init__.py without an __all__ declaration"

    def begin_file(self, ctx) -> None:
        self._has_all = False
        self._has_code = False

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not ctx.is_init_file:
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    self._has_all = True
        if isinstance(node, ast.Module):
            for stmt in node.body:
                if isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Constant
                ):
                    continue  # docstring
                self._has_code = True
                break

    def end_file(self, ctx) -> None:
        if ctx.is_init_file and self._has_code and not self._has_all:
            ctx.report_file(
                self,
                "__init__.py defines names but no __all__; declare the "
                "public surface explicitly",
            )


class _ImportTrackingRule(Rule):
    """Shared import bookkeeping for IMP001/IMP002."""

    def begin_file(self, ctx) -> None:
        # name -> (line, col, display) for each binding introduced by an
        # import statement, in file order.
        self._bindings: List[Tuple[str, int, int, str]] = []
        self._used: Set[str] = set()
        self._exported: Set[str] = set()

    def _record_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                self._bindings.append(
                    (bound, node.lineno, node.col_offset, alias.name)
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                display = f"{node.module or '.'}.{alias.name}"
                self._bindings.append(
                    (bound, node.lineno, node.col_offset, display)
                )

    def visit_node(self, node: ast.AST, ctx) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._record_import(node)
        elif isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                self._used.add(node.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = node.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        for element in value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                self._exported.add(element.value)


class DeadImportRule(_ImportTrackingRule):
    """IMP001: imported name never referenced in the module.

    ``__all__`` entries count as references, so ``__init__.py``
    re-exports stay clean as long as they are declared.
    """

    id = "IMP001"
    name = "dead-import"
    severity = SEVERITY_WARNING
    description = "imported name is never used"

    def end_file(self, ctx) -> None:
        for bound, line, col, display in self._bindings:
            if bound.startswith("_"):
                continue
            if bound in self._used or bound in self._exported:
                continue
            ctx.report_at(
                self,
                line,
                col,
                f"{display!r} is imported but never used",
            )


class ShadowedImportRule(_ImportTrackingRule):
    """IMP002: the same name bound by more than one module-level import.

    Function-local lazy imports live in separate scopes and are not
    tracked; only top-level rebindings are real shadows.
    """

    id = "IMP002"
    name = "shadowed-import"
    severity = SEVERITY_WARNING
    description = "import binding shadowed by a later import of the same name"

    def end_file(self, ctx) -> None:
        first_seen: Dict[str, Tuple[int, str]] = {}
        for bound, line, col, display in self._bindings:
            if col != 0:  # indented import: function/branch scope
                continue
            if bound in first_seen:
                prev_line, prev_display = first_seen[bound]
                ctx.report_at(
                    self,
                    line,
                    col,
                    f"import of {display!r} shadows {prev_display!r} "
                    f"imported on line {prev_line}",
                )
            else:
                first_seen[bound] = (line, display)


class HotPathFloat64Rule(Rule):
    """PRF001: float64 reference in a per-cycle hot-path module.

    The sensing chain (NN inference, ISP stages, renderer, classifier
    runtime) runs every control cycle and is deliberately float32
    end-to-end — a single ``np.float64`` cast or ``dtype="float64"``
    doubles the bandwidth of everything downstream and silently undoes
    the fast path.  Geometry/sensor code (``sim/track.py``,
    ``sim/sensor.py``) legitimately computes in float64 and is not in
    the guarded set.  A deliberate exception can be suppressed in place
    with ``# reprolint: disable=PRF001``.
    """

    id = "PRF001"
    name = "hot-path-float64"
    severity = SEVERITY_ERROR
    description = "float64 reference in a float32 hot-path module"

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
    _DTYPE_KEYWORDS = ("dtype", "output")

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not ctx.posix_path.endswith(self._HOT_PATH_SUFFIXES):
            return
        if isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
            if dotted and dotted.endswith(".float64"):
                ctx.report(
                    self,
                    node,
                    f"{dotted} in a hot-path module; the sensing chain "
                    "is float32 end-to-end (see DESIGN.md)",
                )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if (
                    keyword.arg in self._DTYPE_KEYWORDS
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value == "float64"
                ):
                    ctx.report(
                        self,
                        keyword.value,
                        f'{keyword.arg}="float64" in a hot-path module; '
                        "the sensing chain is float32 end-to-end",
                    )


class PrintInLibraryRule(Rule):
    """IO001: ``print()`` in library code.

    User-facing output belongs to the CLI (``__main__.py``) and the
    report generator (``experiments/report.py``); library modules emit
    progress through :mod:`logging` so callers control verbosity.
    """

    id = "IO001"
    name = "print-in-library"
    severity = SEVERITY_ERROR
    description = "print() in library code; use logging or the CLI layer"

    _EXEMPT_SUFFIXES = ("__main__.py", "experiments/report.py")

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not isinstance(node, ast.Call):
            return
        if ctx.posix_path.endswith(self._EXEMPT_SUFFIXES):
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            ctx.report(
                self,
                node,
                "print() in library code; log via "
                "logging.getLogger(__name__) instead",
            )


class FacadeSignatureRule(Rule):
    """API002: the ``repro.api`` facade must be keyword-only and documented.

    The facade's stability contract (see ``repro/api.py``) promises that
    public entry points never break callers by reordering parameters:
    everything past an optional first positional argument is
    keyword-only, and every public function carries a docstring.  This
    rule turns that promise into a tier-1 gate.
    """

    id = "API002"
    name = "facade-signature"
    severity = SEVERITY_ERROR
    description = (
        "facade public function with extra positional parameters "
        "or no docstring; the facade is keyword-only by contract"
    )

    #: The module under the facade stability contract.
    _FACADE_SUFFIX = "repro/api.py"

    def visit_node(self, node: ast.AST, ctx) -> None:
        if not ctx.posix_path.endswith(self._FACADE_SUFFIX):
            return
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if node.name.startswith("_"):
            return
        if ast.get_docstring(node) is None:
            ctx.report(
                self,
                node,
                f"public facade function {node.name}() has no docstring",
            )
        positional = list(getattr(node.args, "posonlyargs", [])) + list(
            node.args.args
        )
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        if len(positional) > 1:
            extras = ", ".join(a.arg for a in positional[1:])
            ctx.report(
                self,
                node,
                f"{node.name}() takes positional parameters ({extras}) "
                "past the first; make them keyword-only (add * to the "
                "signature) to honour the facade stability contract",
            )


#: All rule classes in id order; the engine instantiates per run.
RULES: Tuple[type, ...] = (
    UnseededRandomRule,
    MutableDefaultRule,
    FloatEqualityRule,
    BroadExceptRule,
    KnobDomainRule,
    UnitSuffixRule,
    MissingAllRule,
    DeadImportRule,
    ShadowedImportRule,
    HotPathFloat64Rule,
    PrintInLibraryRule,
    FacadeSignatureRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULES]


def rules_by_id() -> Dict[str, type]:
    """Registry mapping rule id -> rule class."""
    return {cls.id: cls for cls in RULES}
