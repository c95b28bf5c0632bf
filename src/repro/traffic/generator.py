"""Network-wide traffic generator.

Mirrors the paper's custom generator (Section 2.4): it "takes as input
a network topology, the traffic matrix (fraction of traffic for each
ingress-egress pair), routing policy (nodes on each ingress-egress
path), and a traffic profile (e.g., relative popularity of different
application ports)" and emits template-based sessions.

Host identifiers embed the home PoP in the high bits, so any component
can recover a host's ingress node — this plays the role of the paper's
"configuration files that map IP prefixes to their ingress locations".

The trace is columnar from the moment it is drawn.  One private draw
loop (``_draw_batches``) consumes one seeded :class:`random.Random`
stream and appends the drawn values to per-chunk column lists; each
chunk becomes a root :class:`~repro.traffic.batch.SessionBatch` through
``SessionBatch.from_columns``.  :meth:`TrafficGenerator.generate_chunks`
yields those roots (nothing is cached here: a chunk lives as long as its
consumer holds it), and :meth:`TrafficGenerator.generate` is the single
full-size chunk viewed in start-time order.  ``Session`` objects are not
built on this path; a consumer that indexes or iterates a batch gets
them lazily from the batch's root (see :mod:`repro.traffic.batch`).
The per-session, object-building form of the same stream is the tests'
oracle, ``tests/traffic_oracle.py``.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import get_registry
from ..topology.graph import Topology
from ..topology.routing import Path, PathSet
from .batch import SessionBatch
from .matrix import TrafficMatrix
from .packet import TCP
from .profiles import TrafficProfile, mixed_profile
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

    def _draw_batches(
        self, num_sessions: int, chunk_size: int
    ) -> Iterator[SessionBatch]:
        """The one draw loop: *num_sessions* sessions in generation
        order, as column-born batches of at most *chunk_size* rows.

        One :class:`random.Random` seeded once drives the whole stream,
        and sessions are drawn in the deterministic traffic-matrix pair
        order — so the emitted rows are a pure function of
        ``(seed, num_sessions)``, whatever the chunk size.  Per session
        the calls on the stream are, in order: the template (one
        ``random()`` bisected into the profile's cumulative weights,
        :meth:`TrafficProfile.draw_template`'s arithmetic), source and
        destination host, the destination port of a probe, the source
        port, the packet count, the packet size, maliciousness and the
        start time.  Drawn values are appended to per-chunk column
        lists; nothing per session is constructed.
        """
        import numpy as np

        config = self.config
        rng = random.Random(config.seed)
        rand, randrange, gauss = rng.random, rng.randrange, rng.gauss
        hosts = config.hosts_per_node
        scanners = config.scanners_per_node
        flood_targets = config.flood_targets_per_node
        duration = config.duration_seconds
        templates = self.profile.templates
        cumulative = self.profile.cumulative_weights
        total = cumulative[-1] + 0.0
        hi = len(cumulative) - 1
        # Scans are TCP whatever their template says.
        proto_of = np.array([TCP if t.probe else t.proto for t in templates], dtype=np.int64)
        half_open_of = np.array([t.half_open for t in templates], dtype=bool)

        runs = [
            (pair, count)
            for pair, count in self.matrix.session_counts(num_sessions).items()
            if count
        ]
        next_id = 0
        position = 0  # in ``runs``
        drawn = 0  # of ``runs[position]``'s count
        while next_id < num_sessions:
            room = min(chunk_size, num_sessions - next_id)
            pairs: List[Tuple[str, str]] = []
            lengths: List[int] = []
            tids: List[int] = []
            srcs: List[int] = []
            dsts: List[int] = []
            sports: List[int] = []
            dports: List[int] = []
            pkts: List[int] = []
            nbytes: List[int] = []
            malicious: List[bool] = []
            starts: List[float] = []
            while room:
                pair, count = runs[position]
                length = min(room, count - drawn)
                pairs.append(pair)
                lengths.append(length)
                room -= length
                drawn += length
                if drawn == count:
                    position, drawn = position + 1, 0
                src_home = self._node_index[pair[0]] << HOST_BITS
                dst_home = self._node_index[pair[1]] << HOST_BITS
                for _ in range(length):
                    tid = bisect(cumulative, rand() * total, 0, hi)
                    template = templates[tid]
                    # Local host ids and the service port; ``host_id``'s
                    # composition is applied inline below.
                    if template.probe:
                        # Scans: a small set of sources probing many
                        # destinations and ports, so per-source fan-out
                        # is high.
                        src = randrange(scanners)
                        dst = randrange(hosts)
                        dport = randrange(1, 1024)
                    elif template.half_open:
                        # SYN floods concentrate on a handful of victim hosts.
                        src = randrange(hosts)
                        dst = randrange(flood_targets)
                        dport = template.server_port
                    else:
                        src = randrange(hosts)
                        dst = randrange(hosts)
                        dport = template.server_port
                    srcs.append(src_home | (src & _HOST_MASK))
                    dsts.append(dst_home | (dst & _HOST_MASK))
                    dports.append(dport)
                    tids.append(tid)
                    sports.append(randrange(1024, 65536))
                    packets = template.draw_packet_count(rng)
                    pkts.append(packets)
                    size = template.mean_packet_size
                    nbytes.append(packets * max(40, int(gauss(size, size * 0.2))))
                    malicious.append(rand() < template.malicious_fraction)
                    starts.append(rand() * duration)
            template_ids = np.array(tids, dtype=np.intp)
            rows = len(tids)
            yield SessionBatch.from_columns(
                src=np.array(srcs, dtype=np.uint64),
                dst=np.array(dsts, dtype=np.uint64),
                sport=np.array(sports, dtype=np.int64),
                dport=np.array(dports, dtype=np.int64),
                proto=proto_of.take(template_ids),
                pkts=np.array(pkts, dtype=np.int64),
                half_open=half_open_of.take(template_ids),
                session_ids=np.arange(next_id, next_id + rows, dtype=np.int64),
                group_ids=np.repeat(np.arange(len(pairs), dtype=np.intp), lengths),
                pairs=pairs,
                start_time=np.array(starts, dtype=np.float64),
                num_bytes=np.array(nbytes, dtype=np.int64),
                malicious=np.array(malicious, dtype=bool),
                template_ids=template_ids,
                templates=templates,
            )
            next_id += rows

    def generate(self, num_sessions: int) -> SessionBatch:
        """Generate exactly *num_sessions* sessions, by start time.

        Pair counts follow the traffic matrix via largest-remainder
        rounding, so the per-pair volume split is deterministic; the
        per-session randomness (templates, hosts, ports, times) is
        driven by the configured seed.  The result is the generation-
        order batch viewed in start-time order (a stable argsort, so
        ties keep generation order).
        """
        import numpy as np

        batch = next(self._draw_batches(num_sessions, num_sessions), None)
        if batch is None:
            return SessionBatch([])
        return batch.take(np.argsort(batch.start_time, kind="stable"))

    def generate_chunks(
        self, num_sessions: int, chunk_size: int
    ) -> Iterator[SessionBatch]:
        """Stream *num_sessions* sessions as batches of ``chunk_size``.

        Memory-bounded companion to :meth:`generate`: only one chunk's
        columns exist at a time, so multi-million-session runs are
        bounded by the chunk size, not the trace size.  All chunks are
        slices of one seeded RNG stream — there is no per-chunk
        reseeding — so the concatenation of the chunks is the same
        session sequence for every chunk size, and sorting it by start
        time reproduces :meth:`generate` verbatim.  (The engine's
        accounting is order-independent, so streamed and materialized
        runs report identically.)
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
        for batch in self._draw_batches(num_sessions, chunk_size):
            chunks.inc()
            streamed.inc(len(batch))
            yield batch

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
