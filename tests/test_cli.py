"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.manifest_io import load_manifests


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command",
        ["plan-nids", "emulate", "solve-nips", "microbench", "online"],
    )
    def test_all_commands_parse_with_defaults(self, command):
        args = build_parser().parse_args([command])
        assert callable(args.func)


class TestPlanNids:
    def test_prints_load_profile(self, capsys):
        code = main(["plan-nids", "--sessions", "600", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective=" in out
        assert "NYCM" in out

    def test_writes_manifest_json(self, tmp_path, capsys):
        output = tmp_path / "manifests.json"
        code = main(
            [
                "plan-nids",
                "--sessions",
                "600",
                "--seed",
                "3",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        manifests = load_manifests(output.read_text())
        assert len(manifests) == 11

    def test_redundant_coverage_flag(self, capsys):
        code = main(
            ["plan-nids", "--sessions", "600", "--seed", "3", "--coverage", "2"]
        )
        assert code == 0
        assert "coverage=2" in capsys.readouterr().out

    @pytest.mark.parametrize("coverage", ["0.5", "nan", "2.5", "inf"])
    def test_coverage_that_is_not_an_integer_r_is_a_usage_error(self, coverage, capsys):
        """§2.5 plans integer r >= 1: 0.5, nan and 2.5 used to end in a
        traceback (2.5 only after the solve), inf in a silent r = |P|."""
        code = main(
            ["plan-nids", "--sessions", "200", "--coverage", coverage]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: coverage must be an integer >= 1, got {float(coverage)!r}" in err

    def test_sweep_redundancy_gives_the_same_message(self):
        from repro.sweep.spec import SweepCell

        with pytest.raises(ValueError, match=r"^redundancy must be an integer >= 1, got 2\.5$"):
            SweepCell(redundancy=2.5)


class TestEmulate:
    def test_reports_reduction(self, capsys):
        code = main(
            ["emulate", "--sessions", "800", "--modules", "8", "--seed", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "edge-only" in out
        assert "coordinated" in out
        assert "reduction" in out

    def test_streamed_chunk_size_zero_is_a_usage_error(self, capsys):
        code = main(["emulate", "--execution", "streamed", "--chunk-size", "0"])
        assert code == 2
        assert "error: chunk_size must be >= 1" in capsys.readouterr().err


class TestSolveNips:
    def test_reports_fraction_of_optlp(self, capsys):
        code = main(
            [
                "solve-nips",
                "--rules",
                "20",
                "--cam-fraction",
                "0.2",
                "--iterations",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OptLP upper bound" in out
        assert "% of OptLP" in out

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_no_rounding_at_all_is_a_usage_error(self, iterations, capsys, monkeypatch):
        """It used to solve the relaxation and then end in a traceback."""
        import repro.cli

        monkeypatch.setattr(repro.cli, "solve_relaxation", pytest.fail)
        code = main(["solve-nips", "--rules", "4", "--iterations", iterations])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: iterations must be >= 1, got {iterations}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rules", "0"], "rules must be >= 1, got 0"),
            (["--rules", "-2"], "rules must be >= 1, got -2"),
            (["--cam-fraction", "nan"], "cam_fraction must be finite and >= 0, got nan"),
            (["--cam-fraction", "inf"], "cam_fraction must be finite and >= 0, got inf"),
            (["--cam-fraction", "-0.5"], "cam_fraction must be finite and >= 0, got -0.5"),
        ],
    )
    def test_a_bad_ruleset_or_tcam_budget_is_a_usage_error(
        self, argv, message, capsys, monkeypatch
    ):
        """Zero rules used to end in an AttributeError inside
        build_nips_lp, a NaN, infinite or negative TCAM budget in a
        SolverError."""
        import repro.cli

        monkeypatch.setattr(repro.cli, "build_nips_problem", pytest.fail)
        code = main(["solve-nips", "--rules", "4", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestMicrobench:
    def test_prints_table(self, capsys):
        code = main(["microbench", "--sessions", "1500", "--runs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "signature" in out


class TestOnline:
    def test_prints_regret_series(self, capsys):
        code = main(["online", "--epochs", "20", "--rules", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized regret" in out
        assert "20" in out

    @pytest.mark.parametrize("rules", ["0", "-1"])
    def test_no_rules_is_a_usage_error(self, rules, capsys, monkeypatch):
        """Zero rules used to end in a ZeroDivisionError."""
        import repro.experiments.online_adaptation

        monkeypatch.setattr(
            repro.experiments.online_adaptation, "build_online_problem", pytest.fail
        )
        code = main(["online", "--epochs", "5", "--rules", rules])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rules must be >= 1, got {rules}\n"


class TestPlanFromNetflow:
    def test_netflow_planning_path(self, capsys):
        code = main(
            [
                "plan-nids",
                "--sessions",
                "800",
                "--seed",
                "3",
                "--netflow-sampling",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "planning from NetFlow" in out
        assert "objective=" in out


class TestControlRun:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["control"])

    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["control", "run"])
        assert callable(args.func)
        assert args.epochs == 16

    def test_scenario_runs_and_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "epochs.csv"
        code = main(
            [
                "control",
                "run",
                "--epochs",
                "12",
                "--sessions",
                "400",
                "--shift-epoch",
                "3",
                "--fail-epoch",
                "5",
                "--recover-epoch",
                "9",
                "--output",
                str(output),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "acceptance criteria: all satisfied" in out
        assert "failure detected at epoch" in out
        lines = output.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,sessions,failed_nodes")
        assert len(lines) == 13  # header + one row per epoch

    def test_steady_state_run(self, capsys, monkeypatch):
        """One table row per epoch, and the exit status is the run's own
        acceptance verdict with every violation printed.  (Whether this
        seed's run passes is a property of its trace: at seed 7 a unit
        first seen in epoch 1 stays unplanned until the epoch-4 re-plan
        — see ROADMAP's standing counterexamples.)"""
        import repro.control as control

        runs = []

        def recording(*args, **kwargs):
            runs.append(run_scenario(*args, **kwargs))
            return runs[-1]

        run_scenario = control.run_scenario
        monkeypatch.setattr(control, "run_scenario", recording)
        code = main(
            ["control", "run", "--no-events", "--epochs", "6", "--sessions", "300"]
        )
        out = capsys.readouterr().out
        (result,) = runs
        assert "bootstrap" in out
        assert [r.epoch for r in result.records] == list(range(6))
        violations = result.check_acceptance()
        assert code == (1 if violations else 0), out
        for violation in violations:
            assert f"  - {violation}\n" in out
        assert ("acceptance criteria: all satisfied" in out) == (not violations)

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "control",
                "run",
                "--epochs",
                "10",
                "--sessions",
                "300",
                "--shift-epoch",
                "3",
                "--fail-epoch",
                "5",
                "--recover-epoch",
                "8",
                "--metrics-out",
                str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "wrote telemetry snapshot (json)" in out
        snap = json.loads(metrics.read_text())
        assert snap["version"] == 1
        families = snap["metrics"]
        # Solver timing, per-node dispatch and push-retry health; the
        # convergence latency is the epoch table's reconfig_lag column.
        for name in (
            "lp_solve_seconds",
            "agent_dispatch_sessions_total",
            "controller_push_retries_total",
        ):
            assert name in families, name
        nodes = {
            s["labels"]["node"]
            for s in families["agent_dispatch_sessions_total"]["series"]
        }
        assert len(nodes) == 11  # every Internet2 agent reported

    #: Both control subcommands' defaults, from before their nine shared
    #: flags moved into one parent parser.
    SHARED_CONTROL_DEFAULTS = {
        "topology": "internet2",
        "profile": "mixed",
        "seed": 7,
        "latency": 0.05,
        "jitter": 0.02,
        "loss_rate": 0.0,
        "metrics_out": None,
    }

    def test_control_parsers_keep_their_defaults(self):
        parser = build_parser()
        run = vars(parser.parse_args(["control", "run"]))
        chaos = vars(parser.parse_args(["control", "chaos"]))
        for args in (run, chaos):
            del args["func"]
        assert run == {
            **self.SHARED_CONTROL_DEFAULTS,
            "command": "control",
            "control_command": "run",
            "epochs": 16,
            "sessions": 900,
            "resolve_every": 4,
            "heartbeat_timeout": 2.2,
            "shift_epoch": 5,
            "fail_epoch": 8,
            "recover_epoch": 12,
            "fail_node": "NYCM",
            "no_events": False,
            "output": None,
        }
        assert chaos == {
            **self.SHARED_CONTROL_DEFAULTS,
            "command": "control",
            "control_command": "chaos",
            "epochs": 18,
            "sessions": 600,
            "plan": "controller-outage",
            "lease_ttl": 2.5,
            "reconverge_epochs": 4,
            "replicas": 1,
        }

    def test_chaos_parses_with_defaults(self):
        args = build_parser().parse_args(["control", "chaos"])
        assert callable(args.func)
        assert args.plan == "controller-outage"
        assert args.epochs == 18
        assert args.lease_ttl == 2.5

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_run_bad_heartbeat_timeout_is_a_usage_error(self, capsys, value):
        # Exit 2 before any epoch runs: a NaN or infinite timeout used to
        # run all 16 epochs and exit 1, no failure ever detected.
        code = main(["control", "run", "--heartbeat-timeout", value])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: heartbeat_timeout must be finite and > 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--epochs", "0"], "epochs must be >= 1, got 0"),
            (["run", "--resolve-every", "-2"], "resolve_every must be >= 0, got -2"),
            (
                ["chaos", "--reconverge-epochs", "-1"],
                "reconverge_epochs must be >= 0, got -1",
            ),
        ],
    )
    def test_bad_run_length_is_a_usage_error(self, capsys, argv, message):
        # Exit 2 before any epoch runs: zero epochs used to fail inside
        # the run with "max() arg is an empty sequence", a negative
        # re-plan period silently disabled periodic re-plans, and a
        # negative budget ran every epoch to report a "budget -1" violation.
        code = main(["control", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_chaos_unknown_plan_exits_2(self, capsys):
        code = main(["control", "chaos", "--plan", "no-such-plan"])
        assert code == 2
        assert "unknown plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sessions", "0", "base_sessions must be positive"),
            ("--latency", "-1", "latency must be finite and non-negative"),
            ("--latency", "nan", "latency must be finite and non-negative"),
            ("--jitter", "nan", "jitter must be finite and non-negative"),
            ("--loss-rate", "1.5", "loss_rate must be in [0, 1)"),
        ],
    )
    def test_chaos_bad_flag_is_a_usage_error(self, capsys, flag, value, message):
        # Exit 2, not the violation status 1, and no traceback.
        code = main(
            ["control", "chaos", "--plan", "random", "--seed", "3", flag, value]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_chaos_outage_run_holds_invariants(self, tmp_path, capsys):
        metrics = tmp_path / "chaos.json"
        code = main(
            [
                "control",
                "chaos",
                "--plan",
                "controller-outage",
                "--sessions",
                "400",
                "--seed",
                "7",
                "--metrics-out",
                str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "chaos plan 'controller-outage'" in out
        assert "fault controller_down" in out
        assert "controller-down" in out  # outage epochs flagged
        assert "invariants held" in out
        assert "INVARIANT VIOLATIONS" not in out
        snap = json.loads(metrics.read_text())
        families = snap["metrics"]
        for name in (
            "chaos_injected_total",
            "chaos_invariant_violations_total",
            "agent_lease_expirations_total",
            "controller_lease_fences_total",
        ):
            assert name in families, name
        # The run was clean: the violation family exists but is empty.
        assert families["chaos_invariant_violations_total"]["series"] == []

    def test_metrics_out_prom_extension(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "control",
                "run",
                "--no-events",
                "--epochs",
                "6",
                "--sessions",
                "300",
                "--metrics-out",
                str(metrics),
            ]
        )
        out = capsys.readouterr().out
        # The snapshot is written whatever the acceptance verdict (see
        # test_steady_state_run for why this run's verdict is its trace's).
        assert code in (0, 1), out
        assert "wrote telemetry snapshot (prom)" in out
        text = metrics.read_text()
        assert "# TYPE lp_solve_seconds histogram" in text
        assert "bus_messages_total" in text
