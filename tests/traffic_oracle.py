"""Per-session, object-building reference implementation of the generator.

This is the loop that used to live in the product as
``TrafficProfile.draw_template`` / ``SessionTemplate.draw_packet_count``
/ ``TrafficGenerator._build_session`` / ``iter_sessions`` /
``generate``, re-homed verbatim as the tests' oracle (the
``tests/scalar_oracle.py`` / ``tests/planning_oracle.py`` precedent):
one ``random.Random`` stream, one ``rng.choices`` over freshly built
name and weight lists per draw, one ``FiveTuple`` and one frozen
``Session`` per session, a list ``sort`` by start time.  It reads only a
generator's public inputs (``config``, ``matrix``, ``profile.weights``,
``topology``), so it shares no table, no RNG and no column with the
product, whose columns are drawn from a ``numpy.random.Generator`` in
blocks.  The two are therefore equal in *distribution*, not in value:
``tests/test_traffic_distribution.py`` compares their per-pair counts
(exactly), template shares, packet / byte moments and flag fractions.
"""

import random
from typing import Iterator, List

from repro.traffic.generator import TrafficGenerator, host_id
from repro.traffic.packet import TCP, FiveTuple
from repro.traffic.profiles import TEMPLATES, SessionTemplate, TrafficProfile
from repro.traffic.session import Session


def draw_template(profile: TrafficProfile, rng: random.Random) -> SessionTemplate:
    """Sample a template according to the mixture weights."""
    names = list(profile.weights)
    probabilities = [profile.weights[n] for n in names]
    return TEMPLATES[rng.choices(names, weights=probabilities)[0]]


def draw_packet_count(template: SessionTemplate, rng: random.Random) -> int:
    """Draw a session's packet count (geometric-ish, bounded)."""
    if template.half_open or template.probe:
        return 1
    span = max(1.0, template.mean_packets - template.min_packets)
    count = template.min_packets + int(rng.expovariate(1.0 / span))
    return max(template.min_packets, min(template.max_packets, count))


def _random_host(generator: TrafficGenerator, node: str, rng: random.Random) -> int:
    index = generator.topology.node_names.index(node)
    return host_id(index, rng.randrange(generator.config.hosts_per_node))


def _scanner_host(generator: TrafficGenerator, node: str, rng: random.Random) -> int:
    index = generator.topology.node_names.index(node)
    return host_id(index, rng.randrange(generator.config.scanners_per_node))


def _build_session(
    generator: TrafficGenerator,
    session_id: int,
    ingress: str,
    egress: str,
    template: SessionTemplate,
    rng: random.Random,
) -> Session:
    if template.probe:
        # Scans: a small set of sources probing many destinations
        # and ports, so per-source fan-out is high.
        src = _scanner_host(generator, ingress, rng)
        dst = _random_host(generator, egress, rng)
        dport = rng.randrange(1, 1024)
        proto = TCP
    elif template.half_open:
        # SYN floods concentrate on a handful of victim hosts.
        src = _random_host(generator, ingress, rng)
        victim = rng.randrange(generator.config.flood_targets_per_node)
        dst = host_id(generator.topology.node_names.index(egress), victim)
        dport = template.server_port
        proto = template.proto
    else:
        src = _random_host(generator, ingress, rng)
        dst = _random_host(generator, egress, rng)
        dport = template.server_port
        proto = template.proto
    sport = rng.randrange(1024, 65536)
    packets = draw_packet_count(template, rng)
    nbytes = packets * max(
        40, int(rng.gauss(template.mean_packet_size, template.mean_packet_size * 0.2))
    )
    malicious = rng.random() < template.malicious_fraction
    return Session(
        session_id=session_id,
        tuple=FiveTuple(src, dst, sport, dport, proto),
        app=template.name,
        ingress=ingress,
        egress=egress,
        start_time=rng.random() * generator.config.duration_seconds,
        num_packets=packets,
        num_bytes=nbytes,
        malicious=malicious,
        payload_tag=template.payload_tag,
        half_open=template.half_open,
        probe=template.probe,
    )


def iter_sessions(generator: TrafficGenerator, num_sessions: int) -> Iterator[Session]:
    """Exactly *num_sessions* sessions in generation order."""
    rng = random.Random(generator.config.seed)
    session_id = 0
    counts = generator.matrix.session_counts(num_sessions)
    for (ingress, egress), count in counts.items():
        for _ in range(count):
            template = draw_template(generator.profile, rng)
            yield _build_session(generator, session_id, ingress, egress, template, rng)
            session_id += 1


def generate(generator: TrafficGenerator, num_sessions: int) -> List[Session]:
    """The generation-order sessions, stably sorted by start time."""
    sessions = list(iter_sessions(generator, num_sessions))
    sessions.sort(key=lambda s: s.start_time)
    return sessions
