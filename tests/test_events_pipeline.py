"""Tests for the per-packet event engine, connection records, and the
packet pipeline's agreement with the session-granular fast path."""

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.hashing.keys import Aggregation
from repro.nids.engine import BroInstance, BroMode, EmulationConfig
from repro.nids.events import EventEngine, EventType
from repro.nids.modules import STANDARD_MODULES
from repro.nids.record import ConnState, ConnectionRecord, record_key
from repro.topology import PathSet, internet2
from repro.traffic import (
    FLAG_SYN,
    FiveTuple,
    GeneratorConfig,
    Packet,
    TCP,
    TrafficGenerator,
    merge_packet_streams,
)
from tests.pipeline_oracle import PacketPipeline


@pytest.fixture(scope="module")
def world():
    topo = internet2()
    paths = PathSet(topo)
    generator = TrafficGenerator(
        topo, paths, config=GeneratorConfig(seed=101, scanners_per_node=1)
    )
    sessions = generator.generate(2500)
    return topo, paths, generator, sessions


class TestConnectionRecord:
    def test_orientation(self):
        t = FiveTuple(100, 200, 4000, 80, TCP)
        record = ConnectionRecord(orig=t)
        forward = Packet(t, 0.0, flags=FLAG_SYN, size=40)
        backward = Packet(t.reversed(), 0.01, size=500)
        assert record.is_originator(forward)
        assert not record.is_originator(backward)

    def test_state_machine(self):
        t = FiveTuple(100, 200, 4000, 80, TCP)
        record = ConnectionRecord(orig=t)
        record.update(Packet(t, 0.0, flags=FLAG_SYN, size=40))
        assert record.state is ConnState.ATTEMPT
        assert record.half_open
        record.update(Packet(t.reversed(), 0.01, size=40))
        assert record.state is ConnState.ESTABLISHED
        from repro.traffic import FLAG_FIN, FLAG_ACK

        record.update(Packet(t, 0.02, flags=FLAG_ACK | FLAG_FIN, size=40))
        assert record.state is ConnState.CLOSED

    def test_counters(self):
        t = FiveTuple(1, 2, 10, 80, TCP)
        record = ConnectionRecord(orig=t)
        record.update(Packet(t, 0.0, size=100))
        record.update(Packet(t.reversed(), 0.1, size=200))
        assert record.orig_packets == 1 and record.resp_packets == 1
        assert record.total_bytes == 300
        assert record.first_timestamp == 0.0
        assert record.last_timestamp == 0.1

    def test_hash_fields_match_lazy_computation(self):
        t = FiveTuple(5, 6, 1234, 80, TCP)
        precomputed = ConnectionRecord(orig=t)
        precomputed.compute_hashes(seed=3)
        lazy = ConnectionRecord(orig=t)
        for aggregation in (Aggregation.FLOW, Aggregation.SESSION, Aggregation.SOURCE):
            assert precomputed.hashes[aggregation] == lazy.hash_for(aggregation, seed=3)

    def test_record_key_direction_independent(self):
        t = FiveTuple(9, 2, 10, 80, TCP)
        assert record_key(Packet(t, 0.0)) == record_key(Packet(t.reversed(), 0.1))


class TestEventEngine:
    def _packets(self, sessions, count):
        return merge_packet_streams(sessions[:count])

    def test_one_record_per_session(self, world):
        _, _, _, sessions = world
        packets = self._packets(sessions, 100)
        engine = EventEngine()
        list(engine.run(packets))
        assert engine.num_connections == 100

    def test_new_connection_events(self, world):
        _, _, _, sessions = world
        packets = self._packets(sessions, 50)
        engine = EventEngine()
        events = list(engine.run(packets))
        new_conns = [e for e in events if e.type is EventType.NEW_CONNECTION]
        assert len(new_conns) == 50

    def test_established_only_for_answered(self, world):
        _, _, _, sessions = world
        subset = sessions[:200]
        packets = merge_packet_streams(subset)
        engine = EventEngine()
        events = list(engine.run(packets))
        established = sum(
            1 for e in events if e.type is EventType.CONNECTION_ESTABLISHED
        )
        # TCP sessions that are not half-open always complete the
        # handshake (the template emits the SYN-ACK); UDP sessions are
        # "answered" once a reverse datagram appears (>= 2 packets).
        answered = sum(
            1
            for s in subset
            if (s.tuple.proto == TCP and not s.half_open)
            or (s.tuple.proto != TCP and s.num_packets >= 2)
        )
        assert established == answered

    def test_state_filter_skips(self, world):
        _, _, _, sessions = world
        packets = self._packets(sessions, 80)
        engine = EventEngine(state_filter=lambda pkt: False)
        events = list(engine.run(packets))
        assert events == []
        assert engine.num_connections == 0
        assert engine.packets_skipped == engine.packets_seen

    def test_coordinated_engine_precomputes_hashes(self, world):
        _, _, _, sessions = world
        packets = self._packets(sessions, 10)
        engine = EventEngine(coordinated=True)
        list(engine.run(packets))
        for record in engine.connections.values():
            assert record.hashes  # populated at creation

    def test_finish_flushes_open_connections(self, world):
        _, _, _, sessions = world
        session = next(s for s in sessions if s.half_open)
        engine = EventEngine()
        list(engine.run(session.packets()))
        finished = engine.finish()
        assert len(finished) == 1
        assert finished[0].record.half_open


class TestPipelineVsFastPath:
    """The per-packet reference must agree with the session-level
    engine on detection output."""

    def test_standalone_agreement(self, world):
        topo, _, _, sessions = world
        packets = merge_packet_streams(sessions)

        pipeline = PacketPipeline(topo.node_names, STANDARD_MODULES)
        findings = pipeline.run(packets)

        dispatcher = CoordinatedDispatcher(
            node="standalone",
            manifest=full_manifest("standalone"),
            modules=STANDARD_MODULES,
            resolver=UnitResolver(topo.node_names),
        )
        fast = BroInstance(
            "standalone",
            STANDARD_MODULES,
            BroMode.COORD_EVENT,
            dispatcher=dispatcher,
            config=EmulationConfig(run_detectors=True),
        ).process_sessions(sessions)

        fast_scanners = {
            int(a.subject.split(":")[1]) for a in fast.alerts if a.module == "scan"
        }
        fast_flooded = {
            int(a.subject.split(":")[1]) for a in fast.alerts if a.module == "synflood"
        }
        assert findings.scanners == fast_scanners
        assert findings.flooded_destinations == fast_flooded

        fast_signature_sessions = {
            int(a.subject.split(":")[1])
            for a in fast.alerts
            if a.module == "signature"
        }
        by_id = {s.session_id: s for s in sessions}
        fast_signature_tuples = {
            (
                by_id[i].tuple.src,
                by_id[i].tuple.dst,
                by_id[i].tuple.sport,
                by_id[i].tuple.dport,
            )
            for i in fast_signature_sessions
        }
        assert findings.signature_connections == fast_signature_tuples

    def test_coordinated_pipeline_union_equals_standalone(self, world):
        """Distribute the per-packet pipeline across the coordinated
        deployment; the union of findings equals the standalone run."""
        topo, paths, generator, sessions = world
        deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)

        standalone = PacketPipeline(topo.node_names, STANDARD_MODULES).run(
            merge_packet_streams(sessions)
        )

        union_scanners = set()
        union_flooded = set()
        union_signatures = set()
        traces = generator.split_by_node(sessions, transit=True)
        for node, trace in traces.items():
            pipeline = PacketPipeline(
                topo.node_names,
                STANDARD_MODULES,
                manifest=deployment.manifests[node],
            )
            findings = pipeline.run(merge_packet_streams(trace))
            union_scanners |= findings.scanners
            union_flooded |= findings.flooded_destinations
            union_signatures |= findings.signature_connections

        assert union_scanners == standalone.scanners
        assert union_flooded == standalone.flooded_destinations
        assert union_signatures == standalone.signature_connections
