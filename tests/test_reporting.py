"""Tests for the CSV artifact writers and the figures CLI command."""

import csv
import io

import pytest

from repro import reporting
from repro.cli import main
from repro.experiments import fig8_per_node_profile
from repro.nids.emulation import ComparisonRow
from repro.nids.microbench import run_microbenchmark


def _parse(text: str):
    return list(csv.reader(io.StringIO(text)))


class TestComparisonCSV:
    def test_rows_and_header(self):
        rows = [
            ComparisonRow(
                x=8, edge_cpu=100.0, coord_cpu=60.0, edge_mem_mb=40.0, coord_mem_mb=35.0
            ),
            ComparisonRow(
                x=21, edge_cpu=200.0, coord_cpu=90.0, edge_mem_mb=50.0, coord_mem_mb=40.0
            ),
        ]
        parsed = _parse(reporting.ComparisonReport(rows, "modules").to_string("csv"))
        assert parsed[0][0] == "modules"
        assert len(parsed) == 3
        assert float(parsed[1][1]) == 100.0
        assert float(parsed[2][3]) == pytest.approx(1 - 90.0 / 200.0)


class TestMicrobenchCSV:
    def test_all_modules_emitted(self):
        rows = run_microbenchmark(num_sessions=1200, runs=1)
        parsed = _parse(reporting.MicrobenchReport(rows).to_string("csv"))
        modules = {row[0] for row in parsed[1:]}
        assert "baseline" in modules and "signature" in modules
        assert len(parsed) == len(rows) + 1


class TestPerNodeCSV:
    def test_eleven_nodes(self):
        profile = fig8_per_node_profile(sessions_total=1200, seed=9)
        parsed = _parse(reporting.PerNodeReport(profile).to_string("csv"))
        assert len(parsed) == 12  # header + 11 nodes
        assert parsed[11][1] == "NYCM"


class TestFiguresCommand:
    def test_writes_selected_csvs(self, tmp_path, capsys):
        code = main(
            [
                "figures",
                "--output-dir",
                str(tmp_path),
                "--only",
                "fig8",
                "--sessions",
                "1000",
            ]
        )
        assert code == 0
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == ["fig8_per_node.csv"]
        content = (tmp_path / "fig8_per_node.csv").read_text()
        assert "NYCM" in content

    def test_fig11_csv(self, tmp_path):
        code = main(
            [
                "figures",
                "--output-dir",
                str(tmp_path),
                "--only",
                "fig11",
                "--epochs",
                "20",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        parsed = _parse((tmp_path / "fig11_regret.csv").read_text())
        assert parsed[0] == ["run", "epoch", "normalized_regret"]
        assert len(parsed) > 2


class TestRoundingCSV:
    def test_rows(self):
        from repro.core.rounding import RoundingVariant
        from repro.experiments.nips_rounding import RoundingStats

        stats = [
            RoundingStats(
                topology="Abilene",
                capacity_fraction=0.1,
                variant=RoundingVariant.GREEDY_LP,
                mean=0.97,
                minimum=0.96,
                maximum=0.99,
            )
        ]
        parsed = _parse(reporting.RoundingReport(stats).to_string("csv"))
        assert parsed[0][0] == "topology"
        assert parsed[1][2] == "round+greedy+lp"
        assert float(parsed[1][3]) == pytest.approx(0.97)


class TestRegretCSV:
    def test_rows(self):
        from repro.core.online import OnlineRunResult, RegretPoint
        from repro.experiments.online_adaptation import OnlineEvaluation

        evaluation = OnlineEvaluation(
            runs=[
                OnlineRunResult(
                    points=[
                        RegretPoint(epoch=10, fpl_total=90.0, static_total=100.0)
                    ],
                    final_regret=0.1,
                )
            ]
        )
        parsed = _parse(reporting.RegretReport(evaluation).to_string("csv"))
        assert parsed[1] == ["1", "10", "0.09999999999999998"] or float(
            parsed[1][2]
        ) == pytest.approx(0.1)


class TestReportProtocol:
    """The Report.write interface every figure artifact is written through."""

    def _rows(self):
        return [
            ComparisonRow(
                x=8, edge_cpu=100.0, coord_cpu=60.0, edge_mem_mb=40.0, coord_mem_mb=35.0
            )
        ]

    def test_json_envelope(self):
        import json

        report = reporting.ComparisonReport(self._rows(), "modules")
        payload = json.loads(report.to_string("json"))
        assert payload["name"] == "comparison"
        assert payload["header"][0] == "modules"
        assert len(payload["rows"]) == 1
        assert payload["rows"][0][1] == 100.0

    def test_default_format_is_first_of_formats(self):
        report = reporting.ComparisonReport(self._rows(), "modules")
        assert report.formats()[0] == "csv"
        assert report.to_string() == report.to_string("csv")

    def test_unknown_format_raises(self):
        report = reporting.ComparisonReport(self._rows(), "modules")
        with pytest.raises(ValueError, match="comparison"):
            report.to_string("yaml")

    def test_every_report_class_names_are_distinct(self):
        names = {
            cls.name
            for cls in (
                reporting.ComparisonReport,
                reporting.PerNodeReport,
                reporting.MicrobenchReport,
                reporting.RoundingReport,
                reporting.RegretReport,
                reporting.ControlEpochsReport,
                reporting.MetricsSnapshotReport,
            )
        }
        assert len(names) == 7

    def test_control_epochs_report_has_a_row_per_epoch(self):
        from repro.control import ScenarioConfig, run_scenario

        result = run_scenario(
            ScenarioConfig(epochs=4, base_sessions=200, seed=5)
        )
        report = reporting.ControlEpochsReport(result.records)
        parsed = _parse(report.to_string("csv"))
        assert len(parsed) == 5  # header + 4 epochs
