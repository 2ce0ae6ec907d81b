"""Tests for the static-analysis subsystem (repro.analysis).

Covers: one failing + one passing fixture per rule, suppression
comments, the JSON report schema, exit-code semantics, config
select/ignore/exclude, runtime contracts, the CLI, and the tier-1 gate
that keeps ``src/repro`` itself clean under the full rule set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    ContractViolation,
    LintConfig,
    LintEngine,
    all_rules_by_id,
    assert_finite,
    check_finite,
    check_shapes,
    extract_api_surface,
    load_config,
    project_rules_by_id,
    rules_by_id,
    set_contracts_enabled,
    write_lockfile,
)
from repro.analysis.report import (
    EXIT_CLEAN,
    EXIT_CRASH,
    EXIT_FINDINGS,
    JSON_REPORT_VERSION,
    LintReport,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"


def lint(source: str, path: str = "pkg/module.py"):
    """Lint one dedented source string with every rule."""
    return LintEngine().lint_source(textwrap.dedent(source), path)


def rule_hits(source: str, rule_id: str, path: str = "pkg/module.py"):
    return [f for f in lint(source, path) if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# per-rule fixtures: (rule_id, failing source, passing source, path)

RULE_FIXTURES = [
    (
        "RNG001",
        """
        import numpy as np
        x = np.random.rand(3)
        """,
        """
        from repro.utils.rng import derive_rng
        rng = derive_rng(1, "camera-noise")
        x = rng.normal()
        """,
        "pkg/module.py",
    ),
    (
        "DEF001",
        """
        def f(a, items=[]):
            return items
        """,
        """
        def f(a, items=None):
            return items or []
        """,
        "pkg/module.py",
    ),
    (
        "FLT001",
        """
        def f(x):
            return x == 1.5
        """,
        """
        import math
        def f(x):
            return math.isclose(x, 1.5)
        """,
        "pkg/module.py",
    ),
    (
        "EXC001",
        """
        def f():
            try:
                return 1
            except Exception:
                return None
        """,
        """
        def f():
            try:
                return 1
            except ValueError:
                return None
        """,
        "pkg/module.py",
    ),
    (
        "DOM001",
        """
        isp = "S9"
        """,
        """
        isp = "S7"
        """,
        "pkg/module.py",
    ),
    (
        "UNT001",
        """
        def f(delay_ms):
            delay_s = delay_ms
            return delay_s
        """,
        """
        def f(delay_ms):
            delay_s = delay_ms / 1000.0
            return delay_s
        """,
        "pkg/module.py",
    ),
    (
        "API001",
        """
        from pkg.other import thing
        """,
        """
        from pkg.other import thing
        __all__ = ["thing"]
        """,
        "pkg/__init__.py",
    ),
    (
        "IMP001",
        """
        import os
        import sys
        x = sys.platform
        """,
        """
        import os
        x = os.sep
        """,
        "pkg/module.py",
    ),
    (
        "IMP002",
        """
        from pkg.a import helper
        from pkg.b import helper
        x = helper
        """,
        """
        def f():
            from pkg.a import helper
            return helper
        def g():
            from pkg.b import helper
            return helper
        """,
        "pkg/module.py",
    ),
    (
        "IO001",
        """
        def f():
            print("hello")
        """,
        """
        import logging
        def f():
            logging.getLogger(__name__).info("hello")
        """,
        "pkg/module.py",
    ),
    (
        "API002",
        '''
        def simulate(situation, case):
            """Docstring present, but case is positional."""
            return situation, case
        ''',
        '''
        def simulate(situation=1, *, case="case3"):
            """Run one closed-loop simulation."""
            return situation, case
        ''',
        "src/repro/api.py",
    ),
    (
        "PRF001",
        """
        import numpy as np
        def f(x):
            return x.astype(np.float64)
        """,
        """
        import numpy as np
        def f(x):
            return x.astype(np.float32)
        """,
        "src/repro/nn/layers.py",
    ),
]


@pytest.mark.parametrize(
    "rule_id,bad,good,path",
    RULE_FIXTURES,
    ids=[fixture[0] for fixture in RULE_FIXTURES],
)
def test_rule_positive_and_negative_fixture(rule_id, bad, good, path):
    assert rule_hits(bad, rule_id, path), f"{rule_id} missed its failing fixture"
    assert not rule_hits(good, rule_id, path), (
        f"{rule_id} false positive on its passing fixture"
    )


def test_every_registered_rule_has_a_fixture():
    covered = {fixture[0] for fixture in RULE_FIXTURES}
    assert covered == set(rules_by_id())


def test_rng_rule_requires_random_import():
    # A local object that happens to be called `random` is not the
    # stdlib module.
    source = """
    def f(random):
        return random.random()
    """
    assert not rule_hits(source, "RNG001")


def test_rng_rule_exempts_rng_module():
    source = """
    import numpy as np
    np.random.seed(0)
    """
    assert rule_hits(source, "RNG001", "src/repro/utils/other.py")
    assert not rule_hits(source, "RNG001", "src/repro/utils/rng.py")


def test_broad_except_allows_reraise():
    source = """
    def f():
        try:
            return 1
        except BaseException:
            raise
    """
    assert not rule_hits(source, "EXC001")
    assert rule_hits(source.replace("raise", "return 2"), "EXC001")


def test_knob_domain_keywords_and_docstrings():
    assert rule_hits('f(speed_kmph=45.0)\n', "DOM001")
    assert not rule_hits('f(speed_kmph=50.0)\n', "DOM001")
    assert rule_hits('f(period_ms=0.0)\n', "DOM001")
    assert rule_hits('roi = "ROI 7"\n', "DOM001")
    # Docstrings may mention out-of-domain ids freely.
    assert not rule_hits('"""About stage S9 and ROI 7."""\n', "DOM001")


def test_unit_suffix_reverse_direction():
    assert rule_hits("period_ms = period_s\n", "UNT001")
    assert not rule_hits("period_ms = period_s * 1000.0\n", "UNT001")


def test_print_rule_exempts_cli_and_report():
    source = 'print("x")\n'
    assert rule_hits(source, "IO001", "src/repro/nn/trainer.py")
    assert not rule_hits(source, "IO001", "src/repro/__main__.py")
    assert not rule_hits(source, "IO001", "src/repro/experiments/report.py")


def test_facade_rule_scoping_and_privates():
    source = """
    def run(a, b, c):
        return a + b + c
    """
    # Only the facade module is held to the contract.
    assert rule_hits(source, "API002", "src/repro/api.py")
    assert not rule_hits(source, "API002", "src/repro/hil/engine.py")
    # Private helpers and docstring-less privates are exempt.
    private = """
    def _coerce(a, b):
        return a, b
    """
    assert not rule_hits(private, "API002", "src/repro/api.py")
    # Missing docstring alone is a finding even if keyword-only.
    undocumented = """
    def inject(*, faults):
        return faults
    """
    assert rule_hits(undocumented, "API002", "src/repro/api.py")


def test_hot_path_float64_scoping():
    source = "import numpy as np\nx = np.float64(1.0)\n"
    # Guarded in the float32 sensing chain, allowed in geometry code.
    assert rule_hits(source, "PRF001", "src/repro/isp/stages.py")
    assert not rule_hits(source, "PRF001", "src/repro/sim/track.py")
    # String dtypes count too.
    assert rule_hits(
        'x = a.astype(dtype="float64")\n', "PRF001", "src/repro/sim/renderer.py"
    )


# ---------------------------------------------------------------------------
# suppression comments


def test_line_suppression():
    engine = LintEngine()
    source = "y = x == 1.5  # reprolint: disable=FLT001\n"
    findings, suppressed = engine.lint_source(source, count_suppressed=True)
    assert findings == []
    assert suppressed == 1


def test_line_suppression_only_covers_named_rule():
    source = "y = x == 1.5  # reprolint: disable=RNG001\n"
    assert rule_hits(source, "FLT001")


def test_file_suppression_on_standalone_comment():
    source = """
    # reprolint: disable=FLT001
    a = x == 1.5
    b = x == 2.5
    """
    engine = LintEngine()
    findings, suppressed = engine.lint_source(
        textwrap.dedent(source), count_suppressed=True
    )
    assert [f for f in findings if f.rule_id == "FLT001"] == []
    assert suppressed == 2


def test_suppress_all_keyword():
    source = "y = x == 1.5  # reprolint: disable=all\n"
    assert not lint(source)


def test_suppress_all_on_own_line_mid_file_covers_whole_file():
    # A standalone disable=all comment is file-wide no matter where it
    # sits: findings *above* it are suppressed too.
    source = """
    a = x == 1.5
    # reprolint: disable=all
    b = y == 2.5
    import os
    """
    engine = LintEngine()
    findings, suppressed = engine.lint_source(
        textwrap.dedent(source), count_suppressed=True
    )
    assert findings == []
    assert suppressed == 3  # two FLT001 + one IMP001


def test_suppress_multiple_ids_with_whitespace():
    source = (
        "import os\n"
        "y = x == 1.5  # reprolint: disable= FLT001 ,  RNG001\n"
    )
    engine = LintEngine()
    findings, suppressed = engine.lint_source(source, count_suppressed=True)
    # The comma list tolerates spaces; only the named line is covered.
    assert suppressed == 1
    assert {f.rule_id for f in findings} == {"IMP001"}


def test_suppress_unknown_rule_id_warns_but_still_lints():
    source = "y = x == 1.5  # reprolint: disable=NOPE999\n"
    engine = LintEngine()
    with pytest.warns(UserWarning, match="unknown rule id 'NOPE999'"):
        findings = engine.lint_source(source)
    # The unknown id suppresses nothing and does not crash the run.
    assert {f.rule_id for f in findings} == {"FLT001"}


# ---------------------------------------------------------------------------
# report and exit codes


def test_json_report_schema():
    engine = LintEngine()
    report = LintReport()
    report.findings = engine.lint_source("def f(a=[]):\n    return a\n")
    report.files_checked = 1
    document = json.loads(report.render_json())
    assert document["version"] == JSON_REPORT_VERSION
    assert document["summary"]["total"] == 1
    assert document["summary"]["by_rule"] == {"DEF001": 1}
    assert document["summary"]["exit_code"] == EXIT_FINDINGS
    (finding,) = document["findings"]
    assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
    assert finding["rule"] == "DEF001"
    assert finding["line"] >= 1


def test_exit_codes():
    engine = LintEngine()
    clean = LintReport()
    assert clean.exit_code() == EXIT_CLEAN

    findings = LintReport(findings=engine.lint_source("x = y == 0.5\n"))
    assert findings.exit_code() == EXIT_FINDINGS

    crash = LintReport(findings=engine.lint_source("def broken(:\n"))
    assert crash.crashed
    assert crash.exit_code() == EXIT_CRASH


# ---------------------------------------------------------------------------
# configuration


def test_config_select_and_ignore():
    source = "import os\ny = x == 1.5\n"
    only_flt = LintEngine(LintConfig(select=("FLT001",))).lint_source(source)
    assert {f.rule_id for f in only_flt} == {"FLT001"}
    no_flt = LintEngine(LintConfig(ignore=("FLT001",))).lint_source(source)
    assert "FLT001" not in {f.rule_id for f in no_flt}
    with pytest.raises(ValueError, match="unknown rule"):
        LintEngine(LintConfig(select=("NOPE999",)))


def test_config_exclude_patterns(tmp_path):
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("y = x == 1.5\n")
    (tmp_path / "lib.py").write_text("y = x == 1.5\n")
    engine = LintEngine(LintConfig(exclude=("examples/*",)))
    report = engine.lint_paths([str(tmp_path)])
    assert report.files_excluded == 1
    assert report.files_checked == 1
    assert {f.rule_id for f in report.findings} == {"FLT001"}


def test_load_config_reads_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\nignore = ["FLT001"]\nexclude = ["examples/*"]\n'
    )
    nested = tmp_path / "src" / "pkg"
    nested.mkdir(parents=True)
    config = load_config(nested)
    assert config.ignore == ("FLT001",)
    assert config.exclude == ("examples/*",)
    assert Path(config.root) == tmp_path.resolve()


def test_exclude_patterns_match_absolute_paths_against_root(tmp_path):
    # `examples/*` must exclude the same files whether lint_paths gets a
    # relative or an absolute path: matching is against the POSIX path
    # relative to the config root, not the raw argument string.
    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\nexclude = ["examples/*"]\n'
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("y = x == 1.5\n")
    (tmp_path / "lib.py").write_text("y = x == 1.5\n")

    engine = LintEngine(load_config(tmp_path))
    report = engine.lint_paths([str(tmp_path)])  # absolute argument
    assert report.files_excluded == 1
    assert report.files_checked == 1
    assert {Path(f.path).name for f in report.findings} == {"lib.py"}

    # The same absolute file passed directly is excluded too.
    direct = engine.lint_paths([str(tmp_path / "examples" / "demo.py")])
    assert direct.files_excluded == 1
    assert direct.files_checked == 0


# ---------------------------------------------------------------------------
# project rules (whole-program pass)


def make_project(tmp_path, files, pyproject):
    """Write a pyproject + ``src/pkg`` tree; return the package dir."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(pyproject))
    return pkg


def project_report(tmp_path, files, pyproject):
    pkg = make_project(tmp_path, files, pyproject)
    return LintEngine(load_config(tmp_path)).lint_project(pkg)


def test_every_project_rule_is_registered_and_covered_here():
    # all_rules_by_id merges both registries without id collisions.
    merged = all_rules_by_id()
    assert set(project_rules_by_id()) == {
        "API003", "ARC001", "ARC002", "CAC001", "DED001", "OBS001",
        "RNG002", "RNG003",
    }
    assert set(rules_by_id()) | set(project_rules_by_id()) == set(merged)
    assert len(merged) == len(rules_by_id()) + len(project_rules_by_id())


def test_arc001_flags_undeclared_cross_layer_import(tmp_path):
    files = {
        "__init__.py": "",
        "a/__init__.py": "",
        "a/mod.py": "from pkg.b.mod import X\nY = X\n",
        "b/__init__.py": "",
        "b/mod.py": "X = 1\n",
    }
    violating = """
    [tool.reprolint]
    select = ["ARC001"]
    [tool.reprolint.layers]
    a = []
    b = []
    """
    report = project_report(tmp_path, files, violating)
    assert report.exit_code() == EXIT_FINDINGS
    (finding,) = report.findings
    assert finding.rule_id == "ARC001"
    assert "'a' may not import 'b'" in finding.message

    allowed = violating.replace("a = []", 'a = ["b"]')
    clean = project_report(tmp_path, files, allowed)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()


def test_arc001_flags_layer_missing_from_contract(tmp_path):
    files = {
        "__init__.py": "",
        "a/__init__.py": "",
        "c/__init__.py": "",
        "c/mod.py": "import pkg.a\n",
    }
    pyproject = """
    [tool.reprolint]
    select = ["ARC001"]
    [tool.reprolint.layers]
    a = []
    """
    report = project_report(tmp_path, files, pyproject)
    (finding,) = report.findings
    assert "layer 'c' is not declared" in finding.message


def test_arc002_import_cycle_is_fatal(tmp_path):
    files = {
        "__init__.py": "",
        "a.py": "import pkg.b\n",
        "b.py": "import pkg.a\n",
    }
    pyproject = '[tool.reprolint]\nselect = ["ARC002"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.crashed
    assert report.exit_code() == EXIT_CRASH
    (finding,) = report.findings
    assert finding.rule_id == "ARC002"
    assert "pkg.a -> pkg.b -> pkg.a" in finding.message

    # A lazy (function-scope) import is the sanctioned cycle break.
    files["b.py"] = "def late():\n    import pkg.a\n    return pkg.a\n"
    clean = project_report(tmp_path, files, pyproject)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()


def test_ded001_dead_function_detection(tmp_path):
    files = {
        "__init__.py": "",
        "mod.py": """
        __all__ = ["used"]

        def used():
            return _helper()

        def _helper():
            return 1

        def _orphan():
            return 2

        def undeclared():
            return 3
        """,
    }
    pyproject = '[tool.reprolint]\nselect = ["DED001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_FINDINGS
    messages = [f.message for f in report.sorted_findings()]
    assert len(messages) == 2
    assert "private function _orphan()" in messages[0]
    assert "undeclared() is never referenced" in messages[1]


def test_ded001_conservative_reference_sources(tmp_path):
    # Identifier-shaped string literals (registry keys, getattr) and
    # modules without __all__ keep the detector conservative.
    files = {
        "__init__.py": "",
        "mod.py": '__all__ = []\n\ndef fetch():\n    return 1\n',
        "reg.py": 'HANDLER = "fetch"\n',
        "open_surface.py": "def anything_public():\n    return 1\n",
    }
    pyproject = '[tool.reprolint]\nselect = ["DED001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_CLEAN, report.render_text()


def test_api003_lockfile_missing_roundtrip_and_drift(tmp_path):
    files = {
        "__init__.py": (
            '__all__ = ["simulate"]\nfrom pkg.api import simulate\n'
        ),
        "api.py": (
            '__all__ = ["simulate"]\n\n\n'
            'def simulate(*, steps=1):\n'
            '    """Run."""\n'
            '    return steps\n'
        ),
    }
    pyproject = '[tool.reprolint]\nselect = ["API003"]\n'
    pkg = make_project(tmp_path, files, pyproject)
    config = load_config(tmp_path)

    missing = LintEngine(config).lint_project(pkg)
    assert missing.exit_code() == EXIT_FINDINGS
    assert "lockfile api_surface.json is missing" in missing.findings[0].message

    surface, _ = extract_api_surface(pkg)
    lock_path = tmp_path / "api_surface.json"
    assert write_lockfile(lock_path, surface) is True
    assert write_lockfile(lock_path, surface) is False  # idempotent

    clean = LintEngine(config).lint_project(pkg)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()

    (pkg / "api.py").write_text(
        (pkg / "api.py").read_text().replace("steps=1", "steps=2")
    )
    drifted = LintEngine(config).lint_project(pkg)
    assert drifted.exit_code() == EXIT_FINDINGS
    assert "api.simulate drifted" in drifted.findings[0].message


def test_rng002_catches_aliased_numpy_random(tmp_path):
    files = {
        "__init__.py": "",
        "mod.py": (
            "from numpy import random\n"
            "from numpy.random import default_rng\n"
            "x = random.rand(3)\n"
            "r = default_rng(0)\n"
        ),
    }
    pyproject = '[tool.reprolint]\nselect = ["RNG002"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_FINDINGS
    resolved = [f.message for f in report.sorted_findings()]
    assert len(resolved) == 2
    assert "numpy.random.rand" in resolved[0]
    assert "numpy.random.default_rng" in resolved[1]

    # Textual np.random.* is RNG001 territory — no double report.
    textual = {
        "__init__.py": "",
        "mod.py": "import numpy as np\nx = np.random.rand(3)\n",
    }
    clean = project_report(tmp_path, textual, pyproject)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()


def test_rng003_flags_reused_stream_literals(tmp_path):
    files = {
        "__init__.py": "",
        "rngmod.py": "def derive_rng(seed, stream):\n    return (seed, stream)\n",
        "one.py": (
            "from pkg.rngmod import derive_rng\n"
            'r = derive_rng(0, "imu")\n'
        ),
        "two.py": (
            "from pkg.rngmod import derive_rng\n"
            'r = derive_rng(0, stream="imu")\n'
        ),
    }
    pyproject = '[tool.reprolint]\nselect = ["RNG003"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_FINDINGS
    (finding,) = report.findings
    assert finding.rule_id == "RNG003"
    assert "'imu' is already derived at" in finding.message

    # Dynamic stream names are the sanctioned fan-out.
    files["two.py"] = (
        "from pkg.rngmod import derive_rng\n"
        "I = 1\n"
        'r = derive_rng(0, f"imu-{I}")\n'
    )
    clean = project_report(tmp_path, files, pyproject)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()


def test_obs001_flags_literal_event_names(tmp_path):
    files = {
        "__init__.py": "",
        "mod.py": (
            "def emit_all(rec):\n"
            '    rec.emit("cycle.start", time_ms=0.0)\n'
        ),
    }
    pyproject = '[tool.reprolint]\nselect = ["OBS001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_FINDINGS
    (finding,) = report.findings
    assert finding.rule_id == "OBS001"
    assert "'cycle.start'" in finding.message
    assert "repro.telemetry.events" in finding.message

    # Emitting through the registered constant is the sanctioned form.
    files["mod.py"] = (
        "CYCLE_START = 'cycle.start'\n"
        "def emit_all(rec):\n"
        "    rec.emit(CYCLE_START, time_ms=0.0)\n"
    )
    clean = project_report(tmp_path, files, pyproject)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()


def test_cac001_flags_ad_hoc_cache_key_hashing(tmp_path):
    files = {
        "__init__.py": "",
        "mod.py": (
            "from pkg.utils.cache import config_hash\n"
            'key = config_hash({"seed": 1})\n'
        ),
        "utils/__init__.py": "",
        "utils/cache.py": "def config_hash(config):\n    return 'k'\n",
    }
    pyproject = '[tool.reprolint]\nselect = ["CAC001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_FINDINGS
    (finding,) = report.findings
    assert finding.rule_id == "CAC001"
    assert "repro.cache.keys" in finding.message

    # Going through the sanctioned key constructor is clean.
    files["mod.py"] = (
        "from pkg.cache.keys import rollout_key, rollout_key_document\n"
        "doc = rollout_key_document(track=None, case='case1')\n"
        "key = rollout_key(doc)\n"
    )
    files["cache/__init__.py"] = ""
    files["cache/keys.py"] = (
        "from pkg.utils.cache import config_hash\n"
        "def rollout_key_document(**kwargs):\n    return dict(kwargs)\n"
        "def rollout_key(document):\n    return config_hash(document)\n"
    )
    clean = project_report(tmp_path, files, pyproject)
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()


def test_cac001_exempts_the_key_hash_and_manifest_modules(tmp_path):
    # The hash's home module, the manifest builder and the key module
    # are the three sanctioned call sites.
    files = {
        "__init__.py": "",
        "utils/__init__.py": "",
        "utils/cache.py": (
            "def config_hash(config):\n    return 'k'\n"
            "entry = config_hash({})\n"
        ),
        "telemetry/__init__.py": "",
        "telemetry/manifest.py": (
            "from pkg.utils.cache import config_hash\n"
            "h = config_hash({})\n"
        ),
        "cache/__init__.py": "",
        "cache/keys.py": (
            "from pkg.utils.cache import config_hash\n"
            "k = config_hash({})\n"
        ),
    }
    pyproject = '[tool.reprolint]\nselect = ["CAC001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_CLEAN, report.render_text()


def test_obs001_exempts_the_schema_and_recorder_modules(tmp_path):
    # The registry module defines the literals and the recorder
    # validates against them — neither is an emit *site*.
    files = {
        "__init__.py": "",
        "telemetry/__init__.py": "",
        "telemetry/events.py": 'x = object().emit("run.manifest")\n',
        "telemetry/recorder.py": 'y = object().emit("cycle.end")\n',
    }
    pyproject = '[tool.reprolint]\nselect = ["OBS001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_CLEAN, report.render_text()


def test_project_findings_honour_suppressions(tmp_path):
    files = {
        "__init__.py": "",
        "mod.py": "def _orphan():  # reprolint: disable=DED001\n    return 1\n",
    }
    pyproject = '[tool.reprolint]\nselect = ["DED001"]\n'
    report = project_report(tmp_path, files, pyproject)
    assert report.exit_code() == EXIT_CLEAN, report.render_text()
    assert report.suppressed == 1


# ---------------------------------------------------------------------------
# runtime contracts


@pytest.fixture()
def contracts_on():
    previous = set_contracts_enabled(True)
    yield
    set_contracts_enabled(previous)


def test_check_shapes_accepts_and_rejects(contracts_on):
    @check_shapes(frame=("H", "W", 3))
    def f(frame):
        return frame.sum()

    f(np.zeros((4, 6, 3)))
    with pytest.raises(ContractViolation, match="dim 2"):
        f(np.zeros((4, 6, 4)))
    with pytest.raises(ContractViolation, match="rank 3"):
        f(np.zeros((4, 6)))


def test_check_shapes_symbolic_dims_must_agree(contracts_on):
    @check_shapes(a=("N", "N"))
    def f(a):
        return a

    f(np.eye(3))
    with pytest.raises(ContractViolation, match="'N'"):
        f(np.zeros((2, 3)))


def test_check_shapes_rank_only_and_result(contracts_on):
    @check_shapes(x=2, result=("N",))
    def rowsum(x):
        return x.sum(axis=1)

    assert rowsum(np.ones((2, 3))).shape == (2,)

    @check_shapes(result=(2,))
    def bad_result():
        return np.zeros(3)

    with pytest.raises(ContractViolation, match="result"):
        bad_result()


def test_check_shapes_unknown_parameter_is_a_typeerror():
    with pytest.raises(TypeError, match="no parameter"):
        @check_shapes(nope=("N",))
        def f(x):
            return x


def test_check_finite_args_and_result(contracts_on):
    @check_finite("samples", result=True)
    def passthrough(samples):
        return samples

    passthrough([1.0, 2.0])
    with pytest.raises(ContractViolation, match="samples"):
        passthrough([1.0, float("nan")])

    @check_finite(result=True)
    def make_inf():
        return np.array([np.inf])

    with pytest.raises(ContractViolation, match="result"):
        make_inf()


def test_assert_finite_reports_name_and_count():
    with pytest.raises(ContractViolation, match="lateral.*2 non-finite"):
        assert_finite([np.nan, 1.0, np.inf], "lateral")
    assert_finite([], "empty is fine")
    assert issubclass(ContractViolation, ValueError)


def test_contracts_toggle_off(contracts_on):
    @check_finite("x")
    def f(x):
        return x

    set_contracts_enabled(False)
    assert f(float("nan")) != f(float("nan"))  # NaN passes straight through
    set_contracts_enabled(True)
    with pytest.raises(ContractViolation):
        f(float("nan"))


def test_contracts_compiled_out_with_env_zero():
    script = textwrap.dedent(
        """
        from repro.analysis.contracts import check_finite, check_shapes

        def f(x):
            return x

        assert check_finite("x")(f) is f
        assert check_shapes(x=("N",))(f) is f
        print("stripped")
        """
    )
    env = dict(os.environ, REPRO_CONTRACTS="0")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stripped" in proc.stdout


def test_library_boundaries_are_contract_checked(contracts_on):
    from repro.metrics.qoc import mae
    from repro.nn.model import Sequential
    from repro.nn.layers import ReLU

    with pytest.raises(ContractViolation):
        mae([0.1, float("nan")])
    with pytest.raises(ContractViolation):
        Sequential(ReLU()).forward(np.array([[np.nan]]))


def test_perception_frame_shape_contract(contracts_on):
    from repro.perception.pipeline import PerceptionPipeline
    from repro.sim.camera import CameraModel

    pipeline = PerceptionPipeline(CameraModel(width=64, height=32))
    with pytest.raises(ContractViolation, match="rank 3"):
        pipeline.process(np.zeros((32, 64)))


# ---------------------------------------------------------------------------
# CLI


def test_cli_lint_exit_codes_and_json(tmp_path, capsys):
    from repro.__main__ import main

    bad = tmp_path / "bad.py"
    bad.write_text("def f(a=[]):\n    return a\n")
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")

    assert main(["lint", str(good)]) == EXIT_CLEAN
    capsys.readouterr()
    assert main(["lint", str(bad)]) == EXIT_FINDINGS
    assert "DEF001" in capsys.readouterr().out

    assert main(["lint", str(bad), "--format", "json"]) == EXIT_FINDINGS
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["by_rule"] == {"DEF001": 1}

    assert main(["lint", str(bad), "--ignore", "DEF001"]) == EXIT_CLEAN
    capsys.readouterr()

    assert main(["lint", "--list-rules"]) == EXIT_CLEAN
    listing = capsys.readouterr().out
    for rule_id, cls in all_rules_by_id().items():
        assert rule_id in listing
        assert cls.severity in listing
    # Each entry carries its scope and a one-line doc excerpt.
    assert "(project)" in listing and "(file)" in listing
    assert "architecture contract" in listing


# ---------------------------------------------------------------------------
# the tier-1 gate


def test_codebase_is_clean():
    """`python -m repro lint --project` stays at zero unsuppressed findings.

    This is the static-analysis analogue of the HiL regression
    benchmarks: any PR that introduces a violation — per-file rule or
    whole-program rule (architecture contract, import cycle, dead code,
    API lockfile drift, RNG-stream reuse) — fails tier-1 here.
    """
    config = load_config(REPO_ROOT)
    report = LintEngine(config).lint_project(SRC_TREE)
    assert report.files_checked > 80
    assert report.exit_code() == EXIT_CLEAN, "\n" + report.render_text()
