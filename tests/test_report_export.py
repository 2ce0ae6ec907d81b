"""Smoke test of the report generator with stubbed heavy stages."""

from __future__ import annotations

import pytest

from repro.experiments import report as report_mod


@pytest.fixture()
def stub_heavy(monkeypatch):
    """Replace the expensive experiment runners with tiny stand-ins."""
    from repro.core.situation import situation_by_index
    from repro.experiments.fig1 import DetectorPoint
    from repro.experiments.fig6 import SituationCaseResult

    def fake_fig1(*args, **kwargs):
        return [DetectorPoint("stub", 0.9, 30.0, {})]

    def fake_fig6(*args, **kwargs):
        sit = situation_by_index(1)
        return [
            SituationCaseResult(1, sit, case, 0.01, False, 1.0)
            for case in ("case1", "case2", "case3", "case4")
        ]

    monkeypatch.setattr("repro.experiments.fig1.run_fig1", fake_fig1)
    monkeypatch.setattr("repro.experiments.fig6.run_fig6", fake_fig6)
    return None


class TestReport:
    def test_generate_report_minimal(self, tmp_path, stub_heavy):
        path = tmp_path / "report.md"
        text = report_mod.generate_report(
            path=str(path),
            include_dynamic=False,
            include_characterization=False,
            include_classifiers=False,
            verbose=False,
        )
        assert path.exists()
        assert "# repro experiment report" in text
        assert "Table II" in text
        assert "Fig. 7" in text
        assert "Fig. 6" in text
        assert "Fig. 8" not in text  # dynamic skipped

