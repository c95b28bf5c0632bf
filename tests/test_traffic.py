"""Tests for the traffic workload substrate."""

import numpy as np
import pytest

from repro.topology import PathSet, internet2
from repro.traffic import (
    FLAG_SYN,
    FiveTuple,
    GeneratorConfig,
    Packet,
    TCP,
    TEMPLATES,
    TrafficGenerator,
    TrafficMatrix,
    UDP,
    attack_heavy_profile,
    home_node_index,
    host_id,
    merge_packet_streams,
    mixed_profile,
    web_heavy_profile,
)
from repro.traffic.profiles import SessionTemplate, TrafficProfile


@pytest.fixture(scope="module")
def generator():
    topo = internet2()
    return TrafficGenerator(topo, PathSet(topo), config=GeneratorConfig(seed=11))


@pytest.fixture(scope="module")
def sessions(generator):
    return generator.generate(2000)


@pytest.fixture(scope="module")
def every_template():
    """A trace drawing every shipped template in equal shares."""
    topo = internet2()
    profile = TrafficProfile("every", {name: 1.0 for name in TEMPLATES})
    return TrafficGenerator(
        topo, PathSet(topo), profile=profile, config=GeneratorConfig(seed=1)
    ).generate(2000)


class TestFiveTuple:
    def test_reversed(self):
        t = FiveTuple(1, 2, 10, 80, TCP)
        r = t.reversed()
        assert (r.src, r.dst, r.sport, r.dport) == (2, 1, 80, 10)

    def test_canonical_direction_independent(self):
        t = FiveTuple(9, 2, 10, 80, TCP)
        assert t.canonical() == t.reversed().canonical()

    def test_session_key_direction_independent(self):
        t = FiveTuple(9, 2, 10, 80, TCP)
        assert t.session_key() == t.reversed().session_key()


class TestPacket:
    def test_syn_detection(self):
        t = FiveTuple(1, 2, 10, 80)
        syn = Packet(t, 0.0, flags=FLAG_SYN)
        assert syn.is_syn
        ack = Packet(t, 0.0)
        assert not ack.is_syn


class TestProfiles:
    def test_weights_normalized(self):
        profile = mixed_profile()
        assert sum(profile.weights.values()) == pytest.approx(1.0)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            TrafficProfile("bad", {"nosuch": 1.0})

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            TrafficProfile("bad", {"http": 0.0})

    def test_draw_template_respects_support(self):
        profile = web_heavy_profile()
        uniforms = np.append(np.random.default_rng(0).random(100), [0.0, np.nextafter(1.0, 0.0)])
        for tid in profile.template_ids(uniforms).tolist():
            assert profile.templates[tid].name in profile.weights

    def test_packet_count_bounds(self, every_template):
        for session in every_template:
            template = TEMPLATES[session.app]
            count = session.num_packets
            assert template.min_packets <= count <= template.max_packets or count == 1

    def test_half_open_templates_single_packet(self, every_template):
        counts = {
            s.num_packets for s in every_template if s.app in ("synflood", "scanprobe")
        }
        assert counts == {1}

    def test_attack_profile_has_more_malicious_mass(self):
        attack = attack_heavy_profile()
        mixed = mixed_profile()
        def malicious_mass(profile):
            return sum(
                w * TEMPLATES[name].malicious_fraction
                for name, w in profile.weights.items()
            )
        assert malicious_mass(attack) > malicious_mass(mixed)


class TestSessionPackets:
    def _session(self, generator, app):
        for s in generator.generate(3000):
            if s.app == app:
                return s
        raise AssertionError(f"no {app} session generated")

    def test_tcp_session_starts_with_syn(self, generator):
        session = self._session(generator, "http")
        packets = list(session.packets())
        assert packets[0].is_syn
        assert len(packets) >= session.num_packets

    def test_half_open_emits_only_syn(self, generator):
        session = self._session(generator, "synflood")
        packets = list(session.packets())
        assert len(packets) == 1
        assert packets[0].is_syn

    def test_udp_session_no_handshake(self, generator):
        session = self._session(generator, "dns")
        packets = list(session.packets())
        assert len(packets) == session.num_packets
        assert not any(p.is_syn for p in packets)

    def test_bidirectional_traffic(self, generator):
        session = self._session(generator, "http")
        packets = list(session.packets())
        directions = {p.tuple.src for p in packets}
        assert directions == {session.tuple.src, session.tuple.dst}

    def test_malicious_sessions_tagged(self, generator):
        session = self._session(generator, "blaster")
        assert session.malicious
        packets = list(session.packets())
        assert any(p.payload_tag == "blaster-worm" for p in packets)

    def test_merge_packet_streams_ordered(self, generator):
        sessions = generator.generate(50)
        packets = merge_packet_streams(sessions)
        times = [p.timestamp for p in packets]
        assert times == sorted(times)


class TestTrafficMatrix:
    def test_gravity_constructor(self):
        tm = TrafficMatrix.gravity(internet2())
        assert len(tm) == 11 * 10

    def test_uniform_constructor(self):
        tm = TrafficMatrix.uniform(internet2())
        fractions = {tm.fraction(*pair) for pair in tm.pairs}
        assert len(fractions) == 1

    def test_session_counts_sum_exactly(self):
        tm = TrafficMatrix.gravity(internet2())
        for total in (100, 997, 12345):
            counts = tm.session_counts(total)
            assert sum(counts.values()) == total

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficMatrix({})
        with pytest.raises(ValueError):
            TrafficMatrix({("a", "b"): -0.5})
        with pytest.raises(ValueError):
            TrafficMatrix({("a", "b"): 0.0})

    def test_volumes(self):
        tm = TrafficMatrix({("a", "b"): 3.0, ("b", "a"): 1.0})
        volumes = tm.volumes(100.0)
        assert volumes[("a", "b")] == pytest.approx(75.0)


class TestGenerator:
    def test_exact_session_count(self, sessions):
        assert len(sessions) == 2000

    def test_deterministic(self):
        topo = internet2()
        paths = PathSet(topo)
        a = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=3)).generate(200)
        b = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=3)).generate(200)
        assert [(s.tuple, s.app) for s in a] == [(s.tuple, s.app) for s in b]

    def test_seed_changes_output(self):
        topo = internet2()
        paths = PathSet(topo)
        a = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=3)).generate(200)
        b = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=4)).generate(200)
        assert [(s.tuple, s.app) for s in a] != [(s.tuple, s.app) for s in b]

    def test_hosts_homed_at_ingress_egress(self, generator, sessions):
        names = generator.topology.node_names
        for session in sessions[:500]:
            assert names[home_node_index(session.tuple.src)] == session.ingress
            assert names[home_node_index(session.tuple.dst)] == session.egress

    def test_host_id_roundtrip(self):
        assert home_node_index(host_id(7, 123)) == 7

    def test_sessions_sorted_by_time(self, sessions):
        times = [s.start_time for s in sessions]
        assert times == sorted(times)

    def test_split_by_node_edge(self, generator, sessions):
        traces = generator.split_by_node(sessions, transit=False)
        total = sum(len(t) for t in traces.values())
        # Every session appears at its ingress and (distinct) egress.
        assert total == 2 * len(sessions)

    def test_split_by_node_transit_superset(self, generator, sessions):
        edge = generator.split_by_node(sessions, transit=False)
        transit = generator.split_by_node(sessions, transit=True)
        for node in edge:
            assert len(transit[node]) >= len(edge[node])

    def test_transit_matches_paths(self, generator, sessions):
        traces = generator.split_by_node(sessions, transit=True)
        total = sum(len(t) for t in traces.values())
        expected = sum(len(generator.path_of(s)) for s in sessions)
        assert total == expected
