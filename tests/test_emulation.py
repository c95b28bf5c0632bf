"""Tests for the network-wide emulation (edge vs. coordinated)."""

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.nids.emulation import (
    Traffic,
    compare_deployments,
    run_emulation,
)
from repro.nids.engine import BroInstance, BroMode, EmulationConfig
from repro.nids.modules import STANDARD_MODULES, module_set
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator


@pytest.fixture(scope="module")
def world():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=71))
    sessions = generator.generate(4000)
    deployment = plan_deployment(topo, paths, module_set(21), sessions)
    return topo, generator, sessions, deployment


@pytest.fixture(scope="module")
def edge(world):
    _, generator, sessions, deployment = world
    return run_emulation(
        Traffic.materialized(generator, sessions), deployment.modules
    )


@pytest.fixture(scope="module")
def coordinated(world):
    _, generator, sessions, deployment = world
    return run_emulation(Traffic.materialized(generator, sessions), deployment)


class TestHeadlineResults:
    def test_coordination_reduces_max_cpu(self, edge, coordinated):
        """The paper's headline: ~50% lower max CPU footprint."""
        reduction = 1.0 - coordinated.max_cpu / edge.max_cpu
        assert reduction > 0.30

    def test_coordination_reduces_max_memory(self, edge, coordinated):
        """~20% lower max memory footprint (smaller at small volume)."""
        assert coordinated.max_mem_bytes < edge.max_mem_bytes

    def test_new_york_hottest_edge_node(self, edge):
        """Fig. 8: node 11 (New York) is the most loaded edge node."""
        assert edge.hottest_cpu_node() == "NYCM"

    def test_coordination_offloads_new_york(self, edge, coordinated):
        assert coordinated.cpu("NYCM") < edge.cpu("NYCM")

    def test_some_transit_nodes_take_more_work(self, world, edge, coordinated):
        """Fig. 8: coordination makes some nodes do *more* NIDS work
        than in the edge-only setting (they absorb offloaded load)."""
        topo = world[0]
        gained = [
            n for n in topo.node_names if coordinated.cpu(n) > edge.cpu(n)
        ]
        assert gained


class TestFunctionalEquivalence:
    """The paper verified that the aggregate behaviour of the
    network-wide and standalone approaches are equivalent."""

    def test_coordinated_alerts_equal_standalone(self, world):
        topo, generator, sessions, deployment = world
        dispatcher = CoordinatedDispatcher(
            node="standalone",
            manifest=full_manifest("standalone"),
            modules=STANDARD_MODULES,
            resolver=UnitResolver(topo.node_names),
        )
        detect = EmulationConfig(run_detectors=True)
        standalone = BroInstance(
            "standalone",
            STANDARD_MODULES,
            BroMode.UNMODIFIED,
            config=detect,
        ).process_sessions(sessions)
        standalone_keys = {a.key() for a in standalone.alerts}

        small_deployment = plan_deployment(
            topo, generator.paths, STANDARD_MODULES, sessions
        )
        coordinated = run_emulation(
            Traffic.materialized(generator, sessions),
            small_deployment,
            config=detect,
        )
        assert coordinated.alert_keys() == standalone_keys


class TestAccountingConsistency:
    def test_all_nodes_reported(self, world, edge, coordinated):
        topo = world[0]
        assert set(edge.reports) == set(topo.node_names)
        assert set(coordinated.reports) == set(topo.node_names)

    def test_total_module_work_preserved(self, world, edge, coordinated):
        """Coordination redistributes analysis work but the aggregate
        module work must equal the standalone total (complete, non-
        duplicated coverage).  Edge-only duplicates sessions seen at
        both endpoints, so its total is strictly larger."""
        _, _, sessions, deployment = world
        expected = sum(
            spec.session_cpu(s) for spec in deployment.modules for s in sessions
        )
        coordinated_total = sum(
            sum(report.module_cpu.values())
            for report in coordinated.reports.values()
        )
        edge_total = sum(
            sum(report.module_cpu.values()) for report in edge.reports.values()
        )
        assert coordinated_total == pytest.approx(expected, rel=1e-6)
        assert edge_total > expected

    def test_compare_deployments_row(self, world):
        _, generator, sessions, deployment = world
        row = compare_deployments(deployment, generator, sessions, x=21)
        assert row.x == 21
        assert 0.0 < row.cpu_reduction < 1.0
        assert row.coord_mem_mb > 0

    def test_one_batch_plans_and_emulates(self, world):
        """Planner and emulator read the same ``SessionBatch``."""
        topo, generator, sessions, deployment = world
        batch = SessionBatch(sessions)
        planned = plan_deployment(
            topo, deployment.paths, deployment.modules, batch
        )
        assert planned.manifests == deployment.manifests
        assert compare_deployments(planned, generator, batch, x=21) == (
            compare_deployments(deployment, generator, sessions, x=21)
        )

    def test_usage_accessors(self, edge):
        node = edge.nodes[0]
        assert edge.mem_mb(node) == pytest.approx(edge.mem_bytes(node) / 2**20)
        assert edge.max_mem_mb == pytest.approx(edge.max_mem_bytes / 2**20)
