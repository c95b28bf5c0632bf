"""The surface deleted for having no reader stays deleted.

Modules read only by their own tests, lint and flow rules without a
historical catch or a seeded mutation that only they detect, and
metric families nothing reads are gone; these pins keep a later change
from quietly bringing one back.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import repro.control
import repro.control.scenarios
import repro.core.manifest_io
import repro.measurement
import repro.nids
from repro.analysis.cli import main as analysis_main
from repro.control.agent import AgentConfig
from repro.control.bus import Bus
from repro.control.controller import ControllerConfig, HAConfig
from repro.control.plane import ControlPlane, unit_capacity_topology
from repro.control.scenarios import SCRIPTED, ScenarioConfig, run_scenario
from repro.obs import MetricsRegistry
from repro.traffic import TrafficMatrix
from repro.traffic.dynamics import DiurnalBurstModel

#: Families deleted because no reader outside their declaring module
#: read them (docs/observability.md names a reader for every survivor).
DELETED_FAMILIES = (
    "agent_updates_total",
    "controller_config_version",
    "controller_ha_handoff_entries_total",
    "controller_push_bytes_total",
    "controller_pushes_total",
    "controller_resolve_seconds",
    "epoch_convergence_seconds",
    "epochs_total",
    "push_ack_lag_seconds",
)


class TestRemovedSurface:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.measurement.snmp",
            "repro.topology.generators",
            "repro.nids.pipeline",
            "repro.lp.milp",
        ],
    )
    def test_deleted_modules_do_not_import(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_deleted_functions_are_gone(self):
        with pytest.raises(AttributeError):
            TrafficMatrix.sample_pair
        with pytest.raises(AttributeError):
            repro.nids.cluster_size_for_target
        # The per-packet pipeline is the tests' oracle now.
        for name in ("PacketPipeline", "PipelineFindings"):
            with pytest.raises(AttributeError):
                getattr(repro.nids, name)

    def test_the_hand_written_branch_and_bound_is_gone(self):
        # HiGHS solves a program with binary columns in the one solve.
        import repro.lp
        from repro.core.nips_milp import solve_exact

        for name in ("solve_milp", "MILPSolution"):
            assert not hasattr(repro.lp, name)
            assert name not in repro.lp.__all__
        with pytest.raises(TypeError, match="max_nodes"):
            solve_exact(None, max_nodes=2000)

    def test_the_per_record_flow_export_is_gone(self):
        # Reports are filled straight from the sessions; the record path
        # is the tests' oracle now.
        assert not hasattr(repro.measurement, "FlowRecord")
        assert "FlowRecord" not in repro.measurement.__all__
        for name in ("export", "build_report"):
            assert not hasattr(repro.measurement.FlowExporter, name)

    def test_dstar_has_one_representation(self):
        # An assignment holds the solver's columns; the dict keyed by
        # (class, unit key, node) and its key type are gone.
        import repro.core.nids_lp as nids_lp

        assert not hasattr(nids_lp, "FractionKey")
        fields = {field.name for field in dataclasses.fields(nids_lp.NIDSAssignment)}
        assert "fractions" not in fields
        assert not hasattr(nids_lp.NIDSAssignment, "fractions")

    def test_nips_solutions_have_one_representation(self):
        # A NIPS solution holds its polytope's e and d vectors; the keyed
        # dicts, their key types and the conversions to and from them
        # are gone, and with them the tests of those conversions
        # (test_d_mapping_is_the_oracles, a relaxation keyed otherwise
        # than its polytope: test_a_relaxation_with_other_keys_draws_as_the_oracle)
        # and of off-path NIPS mass, which has no slot in the layout
        # (TestNIPSChecks::test_off_path_filtering_is_rep104).
        import repro.core.nips_milp as nips_milp
        from repro.core import rounding
        from tests.test_nips_milp import small_problem

        for name in ("DKey", "EKey"):
            assert not hasattr(nips_milp, name)
        for name in ("enabler_values", "d_vector", "d_mapping", "e_keys", "d_keys"):
            assert not hasattr(nips_milp.NIPSPolytope, name)
        relaxed = nips_milp.solve_relaxation(small_problem(num_rules=2, num_nodes=4))
        assert isinstance(relaxed.e, np.ndarray) and isinstance(relaxed.d, np.ndarray)
        rounder = rounding._Rounder(relaxed.polytope, relaxed, alpha=2.0, beta=2.0)
        for name in ("keys", "slot", "known", "members", "_spread"):
            assert not hasattr(rounder, name)
        test_names = {name for name in dir(importlib.import_module("tests.test_rounding_columns"))}
        assert not test_names & {
            "test_d_mapping_is_the_oracles",
            "test_a_relaxation_with_other_keys_draws_as_the_oracle",
        }
        from tests.test_analysis_verify import TestNIPSChecks

        assert not hasattr(TestNIPSChecks, "test_off_path_filtering_is_rep104")

    def test_nips_manifests_are_node_manifests(self):
        # A NIPS manifest is a plain NodeManifest read through a
        # ManifestTable; its own type, its per-packet dispatcher and
        # enforcement's own layout are the tests' oracle now.
        import repro.core
        import repro.core.nips_manifest as nips_manifest
        import repro.nips.enforcement as enforcement

        for name in ("NIPSNodeManifest", "NIPSDispatcher"):
            assert not hasattr(repro.core, name)
            assert name not in repro.core.__all__
            assert not hasattr(nips_manifest, name)
        assert not hasattr(enforcement, "_disjoint_ranges")

    def test_units_have_one_representation(self):
        # A set of units is one UnitTable; the object assembly, the
        # ident index and the field list a headroom scaled are gone.
        import repro.core
        import repro.core.reconfigure as reconfigure
        import repro.core.units as units

        for name in ("units_from_volumes", "UnitVolume", "units_by_ident"):
            assert not hasattr(units, name)
        assert not hasattr(repro.core, "units_by_ident")
        assert "units_by_ident" not in repro.core.__all__
        assert not hasattr(reconfigure, "RESOURCE_FIELDS")

    def test_a_manifest_table_is_read_one_way(self):
        # A table is its columns, read by unit through its piece gather
        # and its row lookup; the grouped holder view and churn
        # suppression's per-holder comparison are gone.
        import repro.control.epochs as epochs
        import repro.core.manifest_table as manifest_table
        from repro.core.manifest_table import ManifestTable

        for name in ("rows", "holders", "_rows"):
            assert not hasattr(ManifestTable, name)
        assert not hasattr(manifest_table, "Holder")
        assert not hasattr(epochs, "_ranges_close")

    def test_a_manifest_set_is_tabled_once(self):
        # Every check reads the one table its public entry takes; the
        # controller holds its set's table and scores each transition
        # from two tables, without a deployment or a TransitionPlan.
        import repro.control.controller as controller
        import repro.core.manifest as manifest
        from repro.core.reconfigure import TransitionPlan
        from repro.topology import PathSet, by_label

        for name in ("_check_partition", "_check_on_path", "_check_match"):
            assert not hasattr(manifest, name)
        assert not hasattr(TransitionPlan, "duplicated_share")
        for name in ("NIDSDeployment", "UnitResolver", "plan_transition"):
            assert not hasattr(controller, name)
        topology = by_label("internet2")
        process = controller.Controller(topology, PathSet(topology), (), Bus())
        assert not hasattr(process, "deployment")

    def test_topology_routes_without_networkx(self):
        # The topology owns its adjacency and routing its tie rule; the
        # graph accessor and the path helpers nothing read are gone, and
        # with them their tests (test_paths_through,
        # test_mean_path_length_reasonable, test_distance_table_shape).
        from repro.topology import LinkSpec, Path, PathSet, Topology

        assert not hasattr(Topology, "graph")
        assert not hasattr(LinkSpec, "endpoints")
        for name in ("downstream_nodes", "upstream_nodes", "pair"):
            assert not hasattr(Path, name)
        for name in ("paths_through", "distance_table", "mean_path_length"):
            assert not hasattr(PathSet, name)
        tests = importlib.import_module("tests.test_routing")
        test_names = set(dir(tests.TestPathSet)) | set(dir(tests.TestDownstreamDistance))
        assert not test_names & {
            "test_paths_through",
            "test_mean_path_length_reasonable",
            "test_distance_table_shape",
        }

    def test_the_unread_trace_stats_are_gone(self):
        import repro.traffic

        for name in ("TraceStats", "trace_stats"):
            assert not hasattr(repro.traffic, name)
            assert name not in repro.traffic.__all__

    def test_one_event_vocabulary_and_no_empty_delta_guard(self):
        # A scripted fail/recover/shift is a FaultEvent of the run's plan.
        for module in (repro.control, repro.control.scenarios):
            assert not hasattr(module, "ScenarioEvent")
        assert not hasattr(repro.core.manifest_io, "delta_is_empty")

    def test_knobs_with_one_value_in_use_are_gone(self):
        with pytest.raises(TypeError, match="sampling_rate"):
            ControlPlane(
                unit_capacity_topology("pop12"),
                Bus(),
                ControllerConfig(),
                HAConfig(replicas=1),
                AgentConfig(),
                DiurnalBurstModel(base_sessions=10),
                epochs=1,
                profiles=("mixed",),
                seed=0,
                sampling_rate=1.0,
            )
        with pytest.raises(TypeError, match="headroom"):
            ControllerConfig(headroom=1.0)
        for knob in ("sampling_rate", "headroom", "stabilize_tolerance", "events"):
            with pytest.raises(TypeError, match=knob):
                ScenarioConfig(**{knob: None})

    @pytest.mark.parametrize("config", [ScenarioConfig, AgentConfig, ControllerConfig])
    def test_leases_cannot_be_switched_off(self, config):
        with pytest.raises(ValueError, match="lease_ttl"):
            config(lease_ttl=None)

    def test_lint_lists_exactly_the_rules_with_evidence(self, capsys):
        assert analysis_main(["lint", "--list-rules"]) == 0
        assert capsys.readouterr().out == (
            "REP001  float-literal equality; use EPSILON/math.isclose\n"
            "REP002  unseeded global RNG draw; use Random(seed)/default_rng(seed)\n"
            "REP004  metric-name drift between code and docs/observability.md\n"
        )

    def test_flow_lists_exactly_the_rules_with_evidence(self, capsys):
        assert analysis_main(["flow", "--list-rules"]) == 0
        assert capsys.readouterr().out == (
            "REP201  wall-clock read reachable from a report entrypoint outside"
            " an allowlisted *_seconds/*_per_second timing site\n"
            "REP202  nondeterministic iteration order (set / os.listdir / glob /"
            " dict.popitem) in report-reachable code\n"
            "REP206  control-plane protocol drift between Bus sends, the declared"
            " PROTOCOL table, and dispatch handling\n"
        )

    def test_scenario_snapshot_holds_no_deleted_family(self):
        registry = MetricsRegistry()
        result = run_scenario(
            ScenarioConfig(
                **{**SCRIPTED, "topology": "pop12", "epochs": 4, "base_sessions": 300}
            ),
            registry=registry,
        )
        families = set(registry.snapshot()["metrics"])
        assert families.isdisjoint(DELETED_FAMILIES)
        # The run did push, ack and re-plan: the counts the deleted
        # families duplicated are still the controller's stats.
        stats = result.controller_stats
        assert stats.pushes_full + stats.pushes_delta > 0
        assert stats.push_bytes > 0
        assert {"controller_resolves_total", "epoch_coverage"} <= families
