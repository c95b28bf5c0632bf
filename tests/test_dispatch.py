"""Tests for the coordinated-NIDS dispatch procedure (Fig. 3)."""

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.core.units import unit_key_for_session
from repro.nids.modules import HTTP, SCAN, SIGNATURE, STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def deployment_setup():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=51))
    sessions = generator.generate(2500)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    return topo, generator, sessions, deployment


class TestUnitResolver:
    def test_packet_unit_direction_independent_for_path_scope(
        self, deployment_setup
    ):
        _, generator, sessions, deployment = deployment_setup
        resolver = deployment.resolver
        for session in sessions[:200]:
            for packet in list(session.packets())[:3]:
                unit = resolver.packet_unit(SIGNATURE, packet)
                assert unit == tuple(sorted((session.ingress, session.egress)))

    def test_session_unit_matches_packet_unit_for_path_scope(
        self, deployment_setup
    ):
        _, _, sessions, deployment = deployment_setup
        resolver = deployment.resolver
        session = sessions[0]
        packet = next(iter(session.packets()))
        assert unit_key_for_session(SIGNATURE, session) == resolver.packet_unit(
            SIGNATURE, packet
        )


class TestExactlyOnceAnalysis:
    def test_each_session_analyzed_exactly_once_per_class(self, deployment_setup):
        """The core coverage property: for every (matched session,
        class), exactly one node on the session's path analyzes it."""
        topo, generator, sessions, deployment = deployment_setup
        dispatchers = {n: deployment.dispatcher(n) for n in topo.node_names}
        for session in sessions[:600]:
            path_nodes = list(generator.path_of(session))
            for spec in STANDARD_MODULES:
                if not spec.traffic_filter.matches_session(session):
                    continue
                analyzers = [
                    node
                    for node in path_nodes
                    if dispatchers[node].should_analyze(spec, session)
                ]
                assert len(analyzers) == 1, (
                    f"{spec.name} analyzed {len(analyzers)} times for"
                    f" session {session.session_id}"
                )

    def test_scan_analyzed_at_ingress_only(self, deployment_setup):
        topo, generator, sessions, deployment = deployment_setup
        dispatchers = {n: deployment.dispatcher(n) for n in topo.node_names}
        for session in sessions[:300]:
            for node in generator.path_of(session):
                analyzed = dispatchers[node].should_analyze(SCAN, session)
                assert analyzed == (node == session.ingress)

    def test_redundant_deployment_analyzes_r_times(self):
        topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
        paths = PathSet(topo)
        generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=52))
        sessions = generator.generate(1200)
        deployment = plan_deployment(
            topo, paths, STANDARD_MODULES, sessions, coverage=2.0
        )
        dispatchers = {n: deployment.dispatcher(n) for n in topo.node_names}
        for session in sessions[:300]:
            path_nodes = list(generator.path_of(session))
            for spec in (SIGNATURE, HTTP):
                if not spec.traffic_filter.matches_session(session):
                    continue
                unit = unit_key_for_session(spec, session)
                unit_obj = next(
                    u
                    for u in deployment.units
                    if u.class_name == spec.name and u.key == unit
                )
                expected = int(min(2, len(unit_obj.eligible)))
                analyzers = [
                    node
                    for node in path_nodes
                    if dispatchers[node].should_analyze(spec, session)
                ]
                assert len(analyzers) == expected


class TestSamplingFractions:
    def test_empirical_fraction_tracks_assignment(self, deployment_setup):
        """On a large unit, the share of sessions a node samples should
        approximate its assigned d (hash uniformity)."""
        topo, generator, sessions, deployment = deployment_setup
        # Pick the signature unit with the most sessions.
        from collections import Counter

        unit_sessions = Counter()
        for s in sessions:
            unit_sessions[tuple(sorted((s.ingress, s.egress)))] += 1
        key, count = unit_sessions.most_common(1)[0]
        if count < 150:
            pytest.skip("trace too small for a statistical check")
        members = [
            s for s in sessions if tuple(sorted((s.ingress, s.egress))) == key
        ]
        for node, d in deployment.assignment.responsible_nodes("signature", key):
            dispatcher = deployment.dispatcher(node)
            sampled = sum(
                1 for s in members if dispatcher.should_analyze(SIGNATURE, s)
            )
            fraction = sampled / len(members)
            assert fraction == pytest.approx(d, abs=0.12)

    def test_hash_seed_changes_placement(self, deployment_setup):
        """A keyed hash (different administrator seed) relocates
        traffic within the hash space — the anti-evasion defense."""
        topo, generator, sessions, deployment = deployment_setup
        import dataclasses

        other = dataclasses.replace(deployment, hash_seed=99, _shared_hash_cache={})
        node = topo.node_names[0]
        a = deployment.dispatcher(node)
        b = other.dispatcher(node)
        differing = sum(
            1
            for session in sessions[:100]
            if a.session_hash(SIGNATURE, session) != b.session_hash(SIGNATURE, session)
        )
        assert differing == 100


class TestDecisions:
    def test_decide_session_lists_matching_modules(self, deployment_setup):
        _, _, sessions, deployment = deployment_setup
        node = deployment.topology.node_names[0]
        dispatcher = deployment.dispatcher(node)
        session = sessions[0]
        decisions = dispatcher.decide_session(session)
        matched = {
            spec.name
            for spec in STANDARD_MODULES
            if spec.traffic_filter.matches_session(session)
        }
        assert {d.module.name for d in decisions} == matched
        for decision in decisions:
            assert 0.0 <= decision.hash_value < 1.0

    def test_decide_packet_consistent_across_directions(self, deployment_setup):
        """Both directions of a session reach the same analyze decision
        for session-aggregated path-scope classes."""
        _, _, sessions, deployment = deployment_setup
        node = deployment.topology.node_names[5]
        dispatcher = deployment.dispatcher(node)
        session = next(s for s in sessions if s.num_packets >= 4 and not s.half_open)
        packets = list(session.packets())
        forward = next(p for p in packets if p.tuple.src == session.tuple.src)
        backward = next(p for p in packets if p.tuple.src == session.tuple.dst)
        for spec in (SIGNATURE,):
            d_forward = [
                d for d in dispatcher.decide_packet(forward) if d.module is spec
            ]
            d_backward = [
                d for d in dispatcher.decide_packet(backward) if d.module is spec
            ]
            assert d_forward[0].analyze == d_backward[0].analyze

    def test_manifest_node_mismatch_rejected(self, deployment_setup):
        topo, _, _, deployment = deployment_setup
        with pytest.raises(ValueError):
            CoordinatedDispatcher(
                node="STTL",
                manifest=full_manifest("NYCM"),
                modules=STANDARD_MODULES,
                resolver=deployment.resolver,
            )

    def test_full_manifest_analyzes_all_matched(self, deployment_setup):
        topo, _, sessions, deployment = deployment_setup
        dispatcher = CoordinatedDispatcher(
            node="STTL",
            manifest=full_manifest("STTL"),
            modules=STANDARD_MODULES,
            resolver=deployment.resolver,
        )
        for session in sessions[:100]:
            for decision in dispatcher.decide_session(session):
                assert decision.analyze


class TestSharedHashCache:
    def test_shared_cache_matches_cold_cache(self, deployment_setup):
        """Dispatchers sharing the deployment-level hash cache decide
        identically to a dispatcher with a private cold cache."""
        topo, generator, sessions, deployment = deployment_setup
        node = topo.node_names[3]
        shared = deployment.dispatcher(node)  # uses the shared cache
        cold = CoordinatedDispatcher(
            node=node,
            manifest=deployment.manifests[node],
            modules=deployment.modules,
            resolver=deployment.resolver,
            hash_seed=deployment.hash_seed,
        )
        for session in sessions[:150]:
            for spec in deployment.modules:
                assert shared.should_analyze(spec, session) == cold.should_analyze(
                    spec, session
                )
