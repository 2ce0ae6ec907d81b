"""Tests for the static checks (repro.analysis).

Covers: one failing + one passing fixture per check, the multi-file
checks (RNG003 stream reuse, CAC001 exemptions, API003 lockfile),
suppression comments and the stale-suppression finding, exit codes,
and the tier-1 gate that keeps ``src/repro`` itself clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_CRASH,
    EXIT_FINDINGS,
    RULES,
    extract_api_surface,
    lint_paths,
    lint_source,
    write_lockfile,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"


def lint(source: str, path: str = "pkg/module.py"):
    """Lint one dedented source string with every check."""
    return lint_source(textwrap.dedent(source), path).findings


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


#: Checks whose fixtures are trees of files (exempt module paths,
#: cross-file stream names, a lockfile); each has its own tree test below.
TREE_RULES = {"API003", "CAC001", "RNG003"}

#: Rule ids deleted from the linter; a suppression naming one is stale.
REMOVED_RULES = (
    "API001", "ARC001", "ARC002", "DED001", "DEF001", "EXC001", "FLT001",
    "IMP001", "IMP002", "IO001", "OBS001", "RNG002",
)


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
    assert covered | TREE_RULES == set(RULES)
    assert not covered & TREE_RULES
    # Each id is registered once and none reuses a removed id.
    assert len(set(RULES)) == len(RULES)
    assert not set(RULES) & set(REMOVED_RULES)


def test_every_project_rule_is_registered_and_covered_here():
    # A suppression naming any registered id, the cross-file ones
    # included, is accepted: it is neither stale nor a finding.
    for rule_id in RULES:
        report = lint_source(f"x = 1  # reprolint: disable={rule_id}\n")
        assert report.findings == [], (rule_id, report.render_text())


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
# checks over a tree of files


def make_tree(tmp_path, files, package="pkg"):
    """Write ``src/<package>`` under *tmp_path*; return the package dir."""
    pkg = tmp_path / "src" / package
    pkg.mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return pkg


def tree_report(tmp_path, files, package="pkg"):
    return lint_paths([str(make_tree(tmp_path, files, package))])


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
    # The check guards the `repro` facade and package root.
    pkg = make_tree(tmp_path, files, package="repro")

    missing = lint_paths([str(pkg)])
    assert missing.exit_code() == EXIT_FINDINGS
    assert "lockfile api_surface.json is missing" in missing.findings[0].message

    lock_path, changed = write_lockfile(pkg)
    assert lock_path == tmp_path / "api_surface.json"
    assert changed is True
    assert write_lockfile(pkg) == (lock_path, False)  # idempotent
    assert "simulate" in extract_api_surface(pkg)["api"]

    clean = lint_paths([str(pkg)])
    assert clean.exit_code() == EXIT_CLEAN, clean.render_text()

    (pkg / "api.py").write_text(
        (pkg / "api.py").read_text().replace("steps=1", "steps=2")
    )
    drifted = lint_paths([str(pkg)])
    assert drifted.exit_code() == EXIT_FINDINGS
    assert "api.simulate drifted" in drifted.findings[0].message

    (pkg / "__init__.py").write_text('__all__ = ["simulate", "extra"]\n')
    root_drift = [
        f for f in lint_paths([str(pkg / "__init__.py")]).findings
        if f.rule_id == "API003"
    ]
    assert "package root __all__ drifted" in root_drift[0].message


def test_rng002_catches_aliased_numpy_random():
    # RNG002's alias resolution now lives in RNG001.
    source = (
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "x = random.rand(3)\n"
        "r = default_rng(0)\n"
    )
    resolved = [f.message for f in rule_hits(source, "RNG001", "pkg/mod.py")]
    assert len(resolved) == 2
    assert "numpy.random.rand" in resolved[0]
    assert "numpy.random.default_rng" in resolved[1]

    # Textual np.random.* is reported once, not twice.
    textual = "import numpy as np\nx = np.random.rand(3)\n"
    assert len(lint(textual, "pkg/mod.py")) == 1

    # A module alias resolves too.
    aliased = "import numpy.random as nr\nx = nr.normal()\n"
    (finding,) = rule_hits(aliased, "RNG001")
    assert "numpy.random.normal" in finding.message


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
    report = tree_report(tmp_path, files)
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
    clean = tree_report(tmp_path, files)
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
    report = tree_report(tmp_path, files)
    assert report.exit_code() == EXIT_FINDINGS
    (finding,) = report.findings
    assert finding.rule_id == "CAC001"
    assert "repro.cache.keys" in finding.message

    # So is hashing an already canonical text with the same digest.
    files["mod.py"] = (
        "from pkg.utils.cache import _text_hash\n"
        "key = _text_hash('{}')\n"
    )
    (finding,) = tree_report(tmp_path, files).findings
    assert finding.rule_id == "CAC001"

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
    clean = tree_report(tmp_path, files)
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
    report = tree_report(tmp_path, files)
    assert report.exit_code() == EXIT_CLEAN, report.render_text()


def test_project_findings_honour_suppressions(tmp_path):
    # A cross-file RNG003 finding is suppressed on its own line.
    files = {
        "__init__.py": "",
        "one.py": 'r = derive_rng(0, "imu")\n',
        "two.py": 'r = derive_rng(0, "imu")  # reprolint: disable=RNG003\n',
    }
    report = tree_report(tmp_path, files)
    assert report.exit_code() == EXIT_CLEAN, report.render_text()
    assert report.suppressed == 1


# ---------------------------------------------------------------------------
# suppression comments


def test_line_suppression():
    report = lint_source('isp = "S9"  # reprolint: disable=DOM001\n')
    assert report.findings == []
    assert report.suppressed == 1


def test_line_suppression_only_covers_named_rule():
    source = 'isp = "S9"  # reprolint: disable=RNG001\n'
    assert rule_hits(source, "DOM001")


def test_suppress_multiple_ids_with_whitespace():
    source = (
        "delay_s = delay_ms\n"
        'isp = "S9"  # reprolint: disable= DOM001 ,  RNG001\n'
    )
    report = lint_source(source)
    # The comma list tolerates spaces; only the named line is covered.
    assert report.suppressed == 1
    assert {f.rule_id for f in report.findings} == {"UNT001"}


def test_suppress_all_keyword():
    # `all` is not a rule id: it suppresses nothing and is reported.
    findings = lint('isp = "S9"  # reprolint: disable=all\n')
    assert {f.rule_id for f in findings} == {"DOM001", "SUP001"}


def test_suppress_unknown_rule_id_is_reported():
    findings = lint('isp = "S9"  # reprolint: disable=NOPE999\n')
    # The unknown id suppresses nothing and is a finding of its own.
    assert {f.rule_id for f in findings} == {"DOM001", "SUP001"}
    (stale,) = [f for f in findings if f.rule_id == "SUP001"]
    assert "'NOPE999'" in stale.message


@pytest.mark.parametrize("rule_id", REMOVED_RULES)
def test_suppressing_a_removed_rule_is_reported(rule_id):
    source = (
        "try:\n"
        "    pass\n"
        f"except Exception as exc:  # reprolint: disable={rule_id}\n"
        "    pass\n"
    )
    (stale,) = lint(source)
    assert stale.rule_id == "SUP001"
    assert stale.line == 3
    assert repr(rule_id) in stale.message
    assert lint_source(source).exit_code() == EXIT_FINDINGS


def test_standalone_suppression_comment_is_reported():
    # The file-wide form is gone: a comment on its own line covers
    # nothing, so it is reported instead of silently ignored.
    source = """
    # reprolint: disable=DOM001
    a = "S9"
    """
    findings = lint(source)
    assert {f.rule_id for f in findings} == {"DOM001", "SUP001"}


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes():
    assert lint_source("VALUE = 1\n").exit_code() == EXIT_CLEAN
    assert lint_source('isp = "S9"\n').exit_code() == EXIT_FINDINGS
    crash = lint_source("def broken(:\n")
    assert [f.rule_id for f in crash.findings] == ["PARSE000"]
    assert crash.exit_code() == EXIT_CRASH


# ---------------------------------------------------------------------------
# the tier-1 gate


def test_codebase_is_clean():
    """`python -m repro lint` stays at zero unsuppressed findings.

    Any change that breaks a guarded fixed point — an unseeded or
    reused RNG stream, float64 in the sensing chain, an ad-hoc cache
    key, an out-of-domain knob, a ms/s mix-up, facade or lockfile
    drift — or that leaves a stale suppression fails tier-1 here.
    """
    report = lint_paths([str(SRC_TREE)])
    assert report.files_checked > 80
    assert report.exit_code() == EXIT_CLEAN, "\n" + report.render_text()
