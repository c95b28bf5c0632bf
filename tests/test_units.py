"""Tests for coordination-unit construction."""

import pytest

from repro.core.units import (
    build_units,
    eligible_nodes,
    unit_key_for_session,
)
from repro.hashing.keys import Aggregation
from repro.nids.modules import HTTP, SCAN, SIGNATURE, STANDARD_MODULES, SYNFLOOD
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def setup():
    topo = internet2()
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=21))
    sessions = generator.generate(3000)
    return topo, paths, generator, sessions


@pytest.fixture(scope="module")
def units(setup):
    _, paths, _, sessions = setup
    return build_units(STANDARD_MODULES, sessions, paths)


class TestUnitKeys:
    def test_path_scope_unordered(self, setup):
        _, _, _, sessions = setup
        session = sessions[0]
        key = unit_key_for_session(SIGNATURE, session)
        assert key == tuple(sorted((session.ingress, session.egress)))

    def test_ingress_scope(self, setup):
        _, _, _, sessions = setup
        session = sessions[0]
        assert unit_key_for_session(SCAN, session) == (session.ingress,)

    def test_egress_scope(self, setup):
        _, _, _, sessions = setup
        session = sessions[0]
        assert unit_key_for_session(SYNFLOOD, session) == (session.egress,)


class TestEligibleNodes:
    def test_path_scope_eligible_on_route(self, setup):
        _, paths, _, _ = setup
        key = tuple(sorted(("STTL", "NYCM")))
        eligible = eligible_nodes(key, paths)
        route = set(paths.path(key[0], key[1]).nodes)
        assert set(eligible) <= route
        assert key[0] in eligible and key[1] in eligible

    def test_ingress_scope_singleton(self, setup):
        _, paths, _, _ = setup
        assert eligible_nodes(("CHIN",), paths) == ("CHIN",)


class TestBuildUnits:
    def test_scan_units_are_singletons(self, units):
        scan_units = [u for u in units if u.class_name == "scan"]
        assert scan_units
        assert all(u.singleton for u in scan_units)

    def test_signature_covers_all_sessions(self, units, setup):
        _, _, _, sessions = setup
        signature_units = [u for u in units if u.class_name == "signature"]
        assert sum(u.items for u in signature_units) == len(sessions)

    def test_http_units_match_http_traffic_only(self, units, setup):
        _, _, _, sessions = setup
        http_sessions = [s for s in sessions if HTTP.traffic_filter.matches_session(s)]
        http_units = [u for u in units if u.class_name == "http"]
        assert sum(u.items for u in http_units) == len(http_sessions)
        assert sum(u.pkts for u in http_units) == sum(
            s.num_packets for s in http_sessions
        )

    def test_source_aggregation_counts_distinct_sources(self, units, setup):
        _, _, _, sessions = setup
        scan_units = {unit.ident: unit for unit in units}
        for node in {s.ingress for s in sessions}:
            unit = scan_units.get(("scan", (node,)))
            assert unit is not None
            distinct = {s.tuple.src for s in sessions if s.ingress == node}
            assert unit.items == len(distinct)

    def test_cpu_work_totals(self, units, setup):
        _, _, _, sessions = setup
        for spec in STANDARD_MODULES:
            expected = sum(spec.session_cpu(s) for s in sessions)
            measured = sum(u.cpu_work for u in units if u.class_name == spec.name)
            assert measured == pytest.approx(expected)

    def test_mem_bytes_consistent_with_items(self, units):
        for unit in units:
            assert unit.mem_bytes >= 0
            if unit.items:
                per_item = unit.mem_bytes / unit.items
                assert per_item > 0

    def test_no_empty_units(self, units):
        for unit in units:
            assert unit.pkts > 0 or unit.items > 0

    def test_units_sorted_deterministically(self, setup):
        _, paths, _, sessions = setup
        a = build_units(STANDARD_MODULES, sessions, paths)
        b = build_units(STANDARD_MODULES, sessions, paths)
        assert [u.ident for u in a] == [u.ident for u in b]

    def test_eligible_sets_nonempty(self, units):
        assert all(unit.eligible for unit in units)

    def test_synflood_items_are_destinations(self, units, setup):
        _, _, _, sessions = setup
        by_ident = {unit.ident: unit for unit in units}
        for node in {s.egress for s in sessions}:
            unit = by_ident.get(("synflood", (node,)))
            if unit is None:
                continue
            distinct = {
                s.tuple.dst
                for s in sessions
                if s.egress == node and SYNFLOOD.traffic_filter.matches_session(s)
            }
            assert unit.items == len(distinct)
