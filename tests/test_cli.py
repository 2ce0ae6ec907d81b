"""CLI smoke tests: argument parsing, exit codes, and output shape for
``python -m repro run / profile / inject / trace / lint``, plus the uniform bad-input contract (exit 2, one stderr
line) shared by every command.

Each executing test uses the small test frame (192x96) and a short
track so the whole module stays tier-1 fast; the per-rule lint
behaviour has its own coverage in tests/test_analysis.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import _parse_frame, build_parser, main

FRAME_ARGS = ["--frame", "192x96"]
REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# parsing


class TestParsing:
    def test_parse_frame(self):
        import argparse

        assert _parse_frame("384x192") == (384, 192)
        assert _parse_frame("") is None
        with pytest.raises(argparse.ArgumentTypeError, match="384x192"):
            _parse_frame("widexhigh")

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.situation == 1 and args.case == "case3"
        assert args.length == 150.0 and args.seed == 1
        assert args.frame is None and args.profile is False

    def test_inject_arguments(self):
        args = build_parser().parse_args(
            ["inject", "--faults", "stress", "--situation", "8",
             "--frame", "192x96", "--no-mitigation", "--compare"]
        )
        assert args.faults == "stress"
        assert args.situation == 8
        assert args.frame == (192, 96)
        assert args.no_mitigation and args.compare

    def test_inject_requires_faults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["inject"])
        assert excinfo.value.code == 2
        assert "--faults" in capsys.readouterr().err

    def test_bad_case_and_bad_frame_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--case", "case9"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--frame", "huge"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_command_is_a_usage_error(self, capsys):
        # "serve" and "request" are the retired serving commands and
        # "graph" the retired import-graph command: they must fail as
        # argparse usage errors, not run anything.
        for command in ("teleport", "serve", "request", "graph"):
            with pytest.raises(SystemExit) as excinfo:
                main([command])
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# execution and exit codes


class TestRunCommand:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["run", "--length", "60", "--seed", "7", *FRAME_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed" in out and "MAE" in out

    def test_run_with_profile_prints_stage_table(self, capsys):
        code = main(
            ["run", "--length", "40", "--seed", "7", "--profile", *FRAME_ARGS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "hil.control" in out


class TestTraceCommand:
    def _record(self, path, tmp_path, seed="7"):
        return main(
            ["run", "--length", "40", "--seed", seed, *FRAME_ARGS,
             "--telemetry", str(tmp_path / path)]
        )

    def test_run_telemetry_writes_a_trace(self, tmp_path, capsys):
        code = self._record("run.jsonl", tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry trace written to" in out
        assert (tmp_path / "run.jsonl").exists()

    def test_trace_show_summarizes(self, tmp_path, capsys):
        self._record("run.jsonl", tmp_path)
        capsys.readouterr()
        code = main(["trace", str(tmp_path / "run.jsonl"), "--show"])
        out = capsys.readouterr().out
        assert code == 0
        assert "config hash" in out
        assert "cycle.end" in out and "rng streams" in out

    def test_trace_json_dumps_manifest_and_events(self, tmp_path, capsys):
        self._record("run.jsonl", tmp_path)
        capsys.readouterr()
        code = main(["trace", str(tmp_path / "run.jsonl"), "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "config_hash" in document["manifest"]
        assert document["events"][0]["event"] == "cycle.start"

    def test_trace_diff_identical_exits_zero(self, tmp_path, capsys):
        self._record("a.jsonl", tmp_path)
        self._record("b.jsonl", tmp_path)
        capsys.readouterr()
        code = main(
            ["trace", "--diff", str(tmp_path / "a.jsonl"),
             str(tmp_path / "b.jsonl")]
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_divergent_exits_two(self, tmp_path, capsys):
        self._record("a.jsonl", tmp_path)
        self._record("c.jsonl", tmp_path, seed="8")
        capsys.readouterr()
        code = main(
            ["trace", "--diff", str(tmp_path / "a.jsonl"),
             str(tmp_path / "c.jsonl")]
        )
        assert code == 2
        assert "event" in capsys.readouterr().out

    def test_trace_without_path_or_diff_is_an_error(self, capsys):
        code = main(["trace"])
        assert code == 2
        assert "give a trace path" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_prints_measured_vs_modeled(self, capsys):
        code = main(["profile", "--length", "40", "--seed", "7", *FRAME_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "model ms" in out and "hil.pr" in out


class TestInjectCommand:
    def test_inject_reports_plan_and_exits_zero(self, capsys):
        code = main(
            ["inject", "--faults", "banding@1000:2000", "--length", "60",
             "--seed", "7", *FRAME_ARGS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "banding @" in out          # the plan description
        assert "mitigated" in out
        assert "faults seen: banding" in out

    def test_compare_runs_both_arms(self, capsys):
        code = main(
            ["inject", "--faults", "banding@1000:2000", "--length", "60",
             "--seed", "7", "--compare", *FRAME_ARGS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unmitigated" in out and "mitigated" in out

    def test_crash_exits_one(self, capsys):
        # A permanent sensor blackout in a turn: the vehicle departs the
        # lane once the curve starts and the run must report failure.
        code = main(
            ["inject", "--faults", "blackout@0:inf", "--situation", "8",
             "--length", "100", "--seed", "7", "--no-mitigation", *FRAME_ARGS]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "CRASHED" in out

    def test_unknown_preset_exits_two(self, capsys):
        code = main(["inject", "--faults", "gremlins", *FRAME_ARGS])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown fault plan preset" in captured.err


# ---------------------------------------------------------------------------
# the uniform bad-input contract: exit 2, one line on stderr


class TestBadInputExitsTwo:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--length", "-5", *FRAME_ARGS],
            ["characterize", "--situation", "99"],
            ["trace", "/nonexistent/trace.jsonl", "--show"],
        ],
        ids=["run", "characterize", "trace"],
    )
    def test_bad_user_input_exits_two_with_one_stderr_line(
        self, argv, capsys
    ):
        # Every command funnels user-input defects (ValueError,
        # OSError) through the same handler in main():
        # exit code 2 and exactly one "repro <command>: ..." line on
        # stderr, never a traceback.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ")


# ---------------------------------------------------------------------------
# lint


class TestProjectLintCommand:
    def test_lint_project_is_clean_on_shipped_tree(
        self, tmp_path, monkeypatch, capsys
    ):
        # `repro lint` with no paths lints src/repro under the working
        # directory.  The shipped tree itself is linted once, by
        # test_analysis.py::test_codebase_is_clean.
        TestLintCommand()._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--update-lockfile"]) == 0
        assert (tmp_path / "api_surface.json").is_file()
        capsys.readouterr()
        assert main(["lint"]) == 0
        assert "0 findings (2 files checked" in capsys.readouterr().out

    def test_lint_project_flags_a_violating_tree(self, tmp_path, capsys):
        # Each file is clean on its own; the stream literal reused
        # across the two is a finding only when the tree is linted.
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        for name in ("a.py", "b.py"):
            (pkg / name).write_text(
                "from repro.utils.rng import derive_rng\n"
                'r = derive_rng(0, "imu")\n'
            )
        assert main(["lint", str(pkg / "a.py")]) == 0
        assert main(["lint", str(pkg / "b.py")]) == 0
        capsys.readouterr()
        assert main(["lint", str(pkg)]) == 1
        assert "RNG003" in capsys.readouterr().out


class TestLintCommand:
    def _tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "api.py").write_text(
            '__all__ = ["run"]\n\n\n'
            'def run(*, steps=1):\n'
            '    """Run."""\n'
            "    return steps\n"
        )
        return pkg

    def test_exit_codes_on_a_small_tree(self, tmp_path, capsys):
        pkg = self._tree(tmp_path)
        assert main(["lint", "--update-lockfile", str(pkg)]) == 0
        capsys.readouterr()
        assert main(["lint", str(pkg)]) == 0
        assert "0 findings (2 files checked" in capsys.readouterr().out

        (pkg / "knobs.py").write_text('isp = "S9"\n')
        assert main(["lint", str(pkg)]) == 1
        assert "knobs.py:1:6: DOM001" in capsys.readouterr().out

        (pkg / "broken.py").write_text("def broken(:\n")
        assert main(["lint", str(pkg)]) == 2
        assert "PARSE000" in capsys.readouterr().out

    def test_update_lockfile_is_idempotent(self, tmp_path, capsys):
        pkg = self._tree(tmp_path)
        assert main(["lint", "--update-lockfile", str(pkg)]) == 0
        assert "updated" in capsys.readouterr().out
        lockfile = tmp_path / "api_surface.json"
        first = lockfile.read_text()
        assert main(["lint", "--update-lockfile", str(pkg)]) == 0
        assert "up to date" in capsys.readouterr().out
        assert lockfile.read_text() == first
        assert "run" in json.loads(first)["api"]

    def test_relative_package_path_finds_the_root_lockfile(
        self, tmp_path, monkeypatch, capsys
    ):
        # Run from src/, the relative path `repro` still maps to the
        # lockfile at the project root, not to src/api_surface.json.
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path / "src")
        assert main(["lint", "--update-lockfile", "repro"]) == 0
        assert (tmp_path / "api_surface.json").is_file()
        assert not (tmp_path / "src" / "api_surface.json").exists()
        capsys.readouterr()
        assert main(["lint", "repro"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_shipped_lockfile_is_current(self, capsys):
        # `lint --update-lockfile` on the repo itself is a no-op: the
        # committed api_surface.json matches the extracted surface.
        before = (REPO_ROOT / "api_surface.json").read_text()
        assert main(
            ["lint", "--update-lockfile", str(REPO_ROOT / "src" / "repro")]
        ) == 0
        assert "up to date" in capsys.readouterr().out
        assert (REPO_ROOT / "api_surface.json").read_text() == before
