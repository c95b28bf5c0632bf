"""Tests for the NetFlow-style measurement substrate.

The per-record export the report used to be built from is
``tests/measurement_oracle.py``; ``tests/test_measurement_columns.py``
compares the two exactly."""

import pytest

from repro.core.manifest import generate_manifests, verify_manifests
from repro.core.nids_lp import solve_nids_lp
from repro.core.units import build_units
from repro.measurement import (
    EstimationModel,
    FlowExporter,
    estimate_units,
)
from repro.nids.modules import HTTP, STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from tests import measurement_oracle as oracle


@pytest.fixture(scope="module")
def world():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=151))
    sessions = generator.generate(6000)
    return topo, paths, sessions


class TestFlowExporter:
    def test_unsampled_export_complete(self, world):
        _, _, sessions = world
        records = oracle.export(FlowExporter(), sessions)
        assert len(records) == len(sessions)
        assert sum(r.packets for r in records) == sum(
            s.num_packets for s in sessions
        )
        report = FlowExporter().measure(sessions)
        assert report == oracle.build_report(FlowExporter(), records)
        assert report.total_flows == len(records)

    def test_sampled_export_thins(self, world):
        _, _, sessions = world
        records = oracle.export(FlowExporter(sampling_rate=0.1, seed=1), sessions)
        assert 0.05 * len(sessions) < len(records) < 0.15 * len(sessions)
        report = FlowExporter(sampling_rate=0.1, seed=1).measure(sessions)
        assert report == oracle.build_report(FlowExporter(sampling_rate=0.1), records)
        assert report.total_flows == 10.0 * len(records)

    def test_invalid_sampling_rate(self):
        with pytest.raises(ValueError):
            FlowExporter(sampling_rate=0.0)
        with pytest.raises(ValueError):
            FlowExporter(sampling_rate=1.5)

    def test_report_totals_match_truth_unsampled(self, world):
        _, _, sessions = world
        report = FlowExporter().measure(sessions)
        assert report.total_flows == pytest.approx(len(sessions))
        assert report.total_packets == pytest.approx(
            sum(s.num_packets for s in sessions)
        )

    def test_sampling_inversion_unbiased(self, world):
        """1-in-10 sampling with inversion recovers totals within
        sampling noise."""
        _, _, sessions = world
        report = FlowExporter(sampling_rate=0.1, seed=3).measure(sessions)
        assert report.total_flows == pytest.approx(len(sessions), rel=0.15)

    def test_port_share(self, world):
        _, _, sessions = world
        report = FlowExporter().measure(sessions)
        pair = max(report.pair_flows, key=report.pair_flows.get)
        http_share = report.port_share(pair, 80)
        assert 0.0 < http_share < 1.0


class TestEstimateUnits:
    def test_estimated_volumes_close_to_truth(self, world):
        _, paths, sessions = world
        report = FlowExporter().measure(sessions)
        estimated = {u.ident: u for u in estimate_units(STANDARD_MODULES, report, paths)}
        truth = {u.ident: u for u in build_units(STANDARD_MODULES, sessions, paths)}

        # HTTP units are port-identified: flow counts must be exact.
        http_truth = [u for ident, u in truth.items() if ident[0] == "http"]
        for unit in http_truth:
            est = estimated.get(unit.ident)
            assert est is not None
            assert est.items == pytest.approx(unit.items, rel=1e-9)
            assert est.pkts == pytest.approx(unit.pkts, rel=1e-6)

    def test_eligible_sets_match_truth(self, world):
        _, paths, sessions = world
        report = FlowExporter().measure(sessions)
        estimated = {u.ident: u for u in estimate_units(STANDARD_MODULES, report, paths)}
        truth = {u.ident: u for u in build_units(STANDARD_MODULES, sessions, paths)}
        for ident, unit in truth.items():
            if ident in estimated:
                assert estimated[ident].eligible == unit.eligible

    def test_planning_from_report_close_to_truth(self, world):
        """The operational question: does planning from NetFlow give a
        deployment as balanced as planning from ground truth?"""
        topo, paths, sessions = world
        report = FlowExporter().measure(sessions)
        estimated = estimate_units(STANDARD_MODULES, report, paths)
        truth = build_units(STANDARD_MODULES, sessions, paths)
        objective_est = solve_nids_lp(estimated, topo).objective
        objective_true = solve_nids_lp(truth, topo).objective
        assert objective_est == pytest.approx(objective_true, rel=0.35)

    def test_planning_from_sampled_report_still_works(self, world):
        topo, paths, sessions = world
        report = FlowExporter(sampling_rate=0.1, seed=5).measure(sessions)
        estimated = estimate_units(STANDARD_MODULES, report, paths)
        assignment = solve_nids_lp(estimated, topo)
        manifests = generate_manifests(estimated, assignment, topo.node_names)
        verify_manifests(estimated, manifests)

    def test_estimation_model_ratios_applied(self, world):
        _, paths, sessions = world
        report = FlowExporter().measure(sessions)
        low = estimate_units(
            STANDARD_MODULES, report, paths, EstimationModel(distinct_source_ratio=0.1)
        )
        high = estimate_units(
            STANDARD_MODULES, report, paths, EstimationModel(distinct_source_ratio=0.5)
        )
        low_scan = sum(u.items for u in low if u.class_name == "scan")
        high_scan = sum(u.items for u in high if u.class_name == "scan")
        assert high_scan == pytest.approx(5.0 * low_scan, rel=1e-6)
