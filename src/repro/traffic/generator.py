"""Network-wide traffic generator.

Mirrors the paper's custom generator (Section 2.4): it "takes as input
a network topology, the traffic matrix (fraction of traffic for each
ingress-egress pair), routing policy (nodes on each ingress-egress
path), and a traffic profile (e.g., relative popularity of different
application ports)" and emits template-based sessions.

Host identifiers embed the home PoP in the high bits, so any component
can recover a host's ingress node — this plays the role of the paper's
"configuration files that map IP prefixes to their ingress locations".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import get_registry
from ..topology.graph import Topology
from ..topology.routing import Path, PathSet
from .batch import SessionBatch
from .matrix import TrafficMatrix
from .packet import TCP, FiveTuple
from .profiles import SessionTemplate, TrafficProfile, mixed_profile
from .session import Session

#: Bits reserved for the per-site host id within a host identifier.
HOST_BITS = 20
_HOST_MASK = (1 << HOST_BITS) - 1


def host_id(node_index: int, local_id: int) -> int:
    """Compose a host identifier homed at node *node_index*."""
    return (node_index << HOST_BITS) | (local_id & _HOST_MASK)


def home_node_index(host: int) -> int:
    """Recover the home-PoP index from a host identifier."""
    return host >> HOST_BITS


@dataclass
class GeneratorConfig:
    """Tunables for :class:`TrafficGenerator`."""

    hosts_per_node: int = 256
    #: Distinct scanning sources per node; small so each scanner fans
    #: out to many destinations, which is what scan detectors key on.
    scanners_per_node: int = 2
    #: Distinct SYN-flood victim hosts per node; floods concentrate on
    #: few targets, which is what per-destination detectors key on.
    flood_targets_per_node: int = 2
    duration_seconds: float = 300.0
    seed: int = 1


class TrafficGenerator:
    """Generate sessions for a topology / TM / profile triple."""

    def __init__(
        self,
        topology: Topology,
        paths: PathSet,
        matrix: Optional[TrafficMatrix] = None,
        profile: Optional[TrafficProfile] = None,
        config: Optional[GeneratorConfig] = None,
    ):
        self.topology = topology
        self.paths = paths
        self.matrix = matrix or TrafficMatrix.gravity(topology)
        self.profile = profile or mixed_profile()
        self.config = config or GeneratorConfig()
        self._node_index = {name: i for i, name in enumerate(topology.node_names)}

    def _random_host(self, node: str, rng: random.Random) -> int:
        index = self._node_index[node]
        return host_id(index, rng.randrange(self.config.hosts_per_node))

    def _scanner_host(self, node: str, rng: random.Random) -> int:
        index = self._node_index[node]
        return host_id(index, rng.randrange(self.config.scanners_per_node))

    def _build_session(
        self,
        session_id: int,
        ingress: str,
        egress: str,
        template: SessionTemplate,
        rng: random.Random,
    ) -> Session:
        if template.probe:
            # Scans: a small set of sources probing many destinations
            # and ports, so per-source fan-out is high.
            src = self._scanner_host(ingress, rng)
            dst = self._random_host(egress, rng)
            dport = rng.randrange(1, 1024)
            proto = TCP
        elif template.half_open:
            # SYN floods concentrate on a handful of victim hosts.
            src = self._random_host(ingress, rng)
            victim = rng.randrange(self.config.flood_targets_per_node)
            dst = host_id(self._node_index[egress], victim)
            dport = template.server_port
            proto = template.proto
        else:
            src = self._random_host(ingress, rng)
            dst = self._random_host(egress, rng)
            dport = template.server_port
            proto = template.proto
        sport = rng.randrange(1024, 65536)
        packets = template.draw_packet_count(rng)
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
            start_time=rng.random() * self.config.duration_seconds,
            num_packets=packets,
            num_bytes=nbytes,
            malicious=malicious,
            payload_tag=template.payload_tag,
            half_open=template.half_open,
            probe=template.probe,
        )

    def iter_sessions(self, num_sessions: int) -> Iterator[Session]:
        """Yield exactly *num_sessions* sessions in generation order.

        One :class:`random.Random` seeded once drives the whole stream,
        and sessions are drawn in the deterministic traffic-matrix pair
        order — so the emitted sequence is a pure function of
        ``(seed, num_sessions)`` and every consumer (materializing,
        chunking, streaming) observes the *same* sessions.  This is the
        single generation primitive; :meth:`generate` and
        :meth:`generate_chunks` are views over it.
        """
        rng = random.Random(self.config.seed)
        session_id = 0
        for (ingress, egress), count in self.matrix.session_counts(num_sessions).items():
            for _ in range(count):
                template = self.profile.draw_template(rng)
                yield self._build_session(session_id, ingress, egress, template, rng)
                session_id += 1

    def generate(self, num_sessions: int) -> List[Session]:
        """Generate exactly *num_sessions* sessions.

        Pair counts follow the traffic matrix via largest-remainder
        rounding, so the per-pair volume split is deterministic; the
        per-session randomness (templates, hosts, ports, times) is
        driven by the configured seed.  The result is sorted by start
        time (a stable sort over :meth:`iter_sessions` output).
        """
        sessions = list(self.iter_sessions(num_sessions))
        sessions.sort(key=lambda s: s.start_time)
        return sessions

    def generate_chunks(
        self, num_sessions: int, chunk_size: int
    ) -> Iterator[List[Session]]:
        """Stream *num_sessions* sessions as chunks of ``chunk_size``.

        Memory-bounded companion to :meth:`generate`: only one chunk of
        sessions is materialized at a time, so multi-million-session
        runs are bounded by the chunk size, not the trace size.  All
        chunks are slices of one seeded RNG stream — there is no
        per-chunk reseeding — so the concatenation of the chunks is the
        exact :meth:`iter_sessions` sequence for every chunk size, and
        sorting it by start time reproduces :meth:`generate` verbatim.
        (The engine's accounting is order-independent, so streamed and
        materialized runs report identically.)
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        registry = get_registry()
        chunks = registry.counter(
            "traffic_chunks_generated_total",
            "session chunks emitted by the streaming generator",
        )
        streamed = registry.counter(
            "traffic_sessions_streamed_total",
            "sessions emitted through the chunked generator path",
        )
        chunk: List[Session] = []
        for session in self.iter_sessions(num_sessions):
            chunk.append(session)
            if len(chunk) >= chunk_size:
                chunks.inc()
                streamed.inc(len(chunk))
                yield chunk
                chunk = []
        if chunk:
            chunks.inc()
            streamed.inc(len(chunk))
            yield chunk

    def path_of(self, session: Session) -> Path:
        """The routing path the session traverses."""
        return self.paths.path(session.ingress, session.egress)

    def observers(self, ingress: str, egress: str, transit: bool) -> Tuple[str, ...]:
        """Nodes whose trace holds an (ingress, egress) session — the
        one per-node partition rule of the paper's emulation.

        ``transit=True`` (coordinated deployment): every node on the
        routing path.  ``transit=False`` (edge-only deployment): the
        nodes where the session originates and terminates.
        """
        if transit:
            return self.paths.path(ingress, egress).nodes
        return (ingress,) if ingress == egress else (ingress, egress)

    def split_by_node(
        self, sessions: Sequence[Session], transit: bool
    ) -> Dict[str, List[Session]]:
        """Per-node traces as ``Session`` lists (see :meth:`observers`).

        The list view of the partition; the emulation itself uses the
        index view of the same rule, :meth:`split_batch`.
        """
        traces: Dict[str, List[Session]] = {name: [] for name in self.topology.node_names}
        for session in sessions:
            for node in self.observers(session.ingress, session.egress, transit):
                traces[node].append(session)
        return traces

    def split_batch(
        self, batch: SessionBatch, transit: bool
    ) -> Iterator[Tuple[str, SessionBatch]]:
        """Per-node traces as index views of one columnar *batch*.

        Yields ``(node, batch.take(rows))`` for every node of the
        topology (an empty take for a node that sees nothing), rows
        ascending — per node exactly :meth:`split_by_node`'s sessions in
        the same order, without copying a ``Session`` or rebuilding a
        column.  The rule is applied once per distinct routing pair and
        spread over the sessions through ``batch.group_ids``.  Lazy, so
        a caller that consumes one child before asking for the next
        keeps one alive beside the root.
        """
        import numpy as np

        names = self.topology.node_names
        sees = np.zeros((len(names), len(batch.pairs)), dtype=bool)
        for gid, (ingress, egress) in enumerate(batch.pairs):
            for node in self.observers(ingress, egress, transit):
                sees[self._node_index[node], gid] = True
        for node, row in zip(names, sees):
            yield node, batch.take(np.flatnonzero(row.take(batch.group_ids)))
