"""Network-wide traffic generator.

Mirrors the paper's custom generator (Section 2.4): it "takes as input
a network topology, the traffic matrix (fraction of traffic for each
ingress-egress pair), routing policy (nodes on each ingress-egress
path), and a traffic profile (e.g., relative popularity of different
application ports)" and emits template-based sessions.

Host identifiers embed the home PoP in the high bits, so any component
can recover a host's ingress node — this plays the role of the paper's
"configuration files that map IP prefixes to their ingress locations".

The trace is columnar from the moment it is drawn.  One seeded
:class:`numpy.random.Generator` fills whole columns — template, hosts,
ports, packets, bytes, maliciousness, start time — for
:data:`DRAW_BLOCK` generation-order rows at a time (``_draw_block``),
and ``_draw_batches`` cuts those blocks into chunks, each a root
:class:`~repro.traffic.batch.SessionBatch` built by
``SessionBatch.from_columns``.  No session depends on the one before
it, so nothing is drawn per session or per pair in Python.
:meth:`TrafficGenerator.generate_chunks` yields those roots (nothing is
cached here: a chunk lives as long as its consumer holds it), and
:meth:`TrafficGenerator.generate` is the single full-size chunk viewed
in start-time order.  ``Session`` objects are not built on this path; a
consumer that indexes or iterates a batch gets them lazily from the
batch's root (see :mod:`repro.traffic.batch`).  What the stream depends
on, and what it must not, is ``docs/determinism.md``; the per-session
scalar loop that drew the same distribution before is the tests'
distributional reference, ``tests/traffic_oracle.py``.
"""

from __future__ import annotations

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

#: Generation-order rows drawn per block.  A constant and not a
#: parameter: block boundaries are where the stream's column draws
#: start, so they must not move with a consumer's chunk size.
DRAW_BLOCK = 65_536


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

    def _draw_blocks(self, num_sessions: int) -> Iterator[tuple]:
        """The stream: *num_sessions* rows of drawn columns, in blocks of
        :data:`DRAW_BLOCK` generation-order rows (the last one shorter).

        One :class:`numpy.random.Generator` seeded once with
        ``config.seed`` draws every value, one call per column per
        block, in this order: the template (``random``, mapped through
        :meth:`TrafficProfile.template_ids`); the source and the
        destination local host id (``integers`` below a per-row bound —
        a probe's source is one of the node's scanners and a half-open
        session's destination one of its flood victims, any host
        otherwise); a probe's destination port in ``[1, 1024)``; the
        source port in ``[1024, 65536)``; the packet count (``min +
        trunc(exponential(span))`` clipped to ``[min, max]``, exactly 1
        for probes and half-open sessions); the packet size (``normal``
        around the template's mean, σ = 0.2 · mean, at least 40 bytes);
        maliciousness and the start time (``random``).  Yields
        ``(template_ids, src, dst, sport, dport, pkts, num_bytes,
        malicious, start_time)``, host ids not yet homed.
        """
        import numpy as np

        config = self.config
        rng = np.random.default_rng(config.seed)
        templates = self.profile.templates

        def table(values, dtype):
            return np.array(list(values), dtype=dtype)

        hosts, victims = config.hosts_per_node, config.flood_targets_per_node
        probe = table((t.probe for t in templates), bool)
        src_bound = table(
            (config.scanners_per_node if t.probe else hosts for t in templates), np.int64
        )
        dst_bound = table(
            (victims if t.half_open and not t.probe else hosts for t in templates), np.int64
        )
        server_port = table((t.server_port for t in templates), np.int64)
        # A probe or a half-open attempt is one packet: its clip is [1, 1].
        single = [t.probe or t.half_open for t in templates]
        low = table((1 if one else t.min_packets for one, t in zip(single, templates)), np.int64)
        high = table((1 if one else t.max_packets for one, t in zip(single, templates)), np.int64)
        span = table((max(1.0, t.mean_packets - t.min_packets) for t in templates), np.float64)
        size = table((t.mean_packet_size for t in templates), np.float64)
        malicious = table((t.malicious_fraction for t in templates), np.float64)
        for start in range(0, num_sessions, DRAW_BLOCK):
            rows = min(DRAW_BLOCK, num_sessions - start)
            tid = self.profile.template_ids(rng.random(rows))
            src = rng.integers(0, src_bound.take(tid))
            dst = rng.integers(0, dst_bound.take(tid))
            dport = np.where(probe.take(tid), rng.integers(1, 1024, rows), server_port.take(tid))
            sport = rng.integers(1024, 65536, rows)
            floor = low.take(tid)
            grown = floor + rng.exponential(span.take(tid)).astype(np.int64)
            pkts = np.maximum(floor, np.minimum(high.take(tid), grown))
            mean = size.take(tid)
            num_bytes = pkts * np.maximum(40, rng.normal(mean, mean * 0.2).astype(np.int64))
            yield (
                tid, src, dst, sport, dport, pkts, num_bytes,
                rng.random(rows) < malicious.take(tid),
                rng.random(rows) * config.duration_seconds,
            )

    def _draw_batches(
        self, num_sessions: int, chunk_size: int
    ) -> Iterator[SessionBatch]:
        """*num_sessions* sessions in generation order, as column-born
        batches of at most *chunk_size* rows.

        Chunks are cut from :meth:`_draw_blocks`'s fixed blocks, so the
        emitted rows are a pure function of ``(seed, num_sessions)``
        whatever the chunk size, and the columns alive here are bounded
        by the chunk and block sizes, not the trace.  Rows follow the
        traffic matrix's deterministic ``session_counts`` runs in pair
        order; a row's pair is a ``searchsorted`` of its generation index
        into the runs' cumulative counts, and pairs that draw no session
        get no group.
        """
        import numpy as np

        runs = [
            (pair, count)
            for pair, count in self.matrix.session_counts(num_sessions).items()
            if count
        ]
        pairs = [pair for pair, _ in runs]
        ends = np.cumsum([count for _, count in runs], dtype=np.int64)
        index = self._node_index
        src_home = np.array([index[a] for a, _ in pairs], dtype=np.int64) << HOST_BITS
        dst_home = np.array([index[b] for _, b in pairs], dtype=np.int64) << HOST_BITS
        templates = self.profile.templates
        # Scans are TCP whatever their template says.
        proto_of = np.array([TCP if t.probe else t.proto for t in templates], dtype=np.int64)
        half_open_of = np.array([t.half_open for t in templates], dtype=bool)

        blocks = self._draw_blocks(num_sessions)
        block: tuple = ()
        offset = 0  # rows of ``block`` already cut
        for start in range(0, num_sessions, chunk_size):
            stop = min(start + chunk_size, num_sessions)
            pieces = []
            cut = start
            while cut < stop:
                if not block or offset == len(block[0]):
                    block, offset = next(blocks), 0
                rows = min(stop - cut, len(block[0]) - offset)
                pieces.append([column[offset : offset + rows] for column in block])
                offset += rows
                cut += rows
            tid, src, dst, sport, dport, pkts, num_bytes, malicious, start_time = (
                np.concatenate(parts) for parts in zip(*pieces)
            )
            run = np.searchsorted(ends, np.arange(start, stop), side="right")
            first = int(run[0])
            yield SessionBatch.from_columns(
                src=(src_home.take(run) | (src & _HOST_MASK)).astype(np.uint64),
                dst=(dst_home.take(run) | (dst & _HOST_MASK)).astype(np.uint64),
                sport=sport,
                dport=dport,
                proto=proto_of.take(tid),
                pkts=pkts,
                half_open=half_open_of.take(tid),
                session_ids=np.arange(start, stop, dtype=np.int64),
                group_ids=run - first,
                pairs=pairs[first : int(run[-1]) + 1],
                start_time=start_time,
                num_bytes=num_bytes,
                malicious=malicious,
                template_ids=tid,
                templates=templates,
            )

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

        batch = next(self._draw_batches(num_sessions, max(num_sessions, 1)), None)
        if batch is None:
            return SessionBatch([])
        return batch.take(np.argsort(batch.start_time, kind="stable"))

    def generate_chunks(
        self, num_sessions: int, chunk_size: int
    ) -> Iterator[SessionBatch]:
        """Stream *num_sessions* sessions as batches of ``chunk_size``.

        Memory-bounded companion to :meth:`generate`: only one chunk's
        columns exist at a time, so multi-million-session runs are
        bounded by the chunk and draw-block sizes, not the trace size.
        All chunks are cut from one seeded stream drawn in fixed blocks —
        there is no per-chunk reseeding and no chunk-dependent draw — so
        the concatenation of the chunks is the same session sequence for
        every chunk size, and sorting it by start time reproduces
        :meth:`generate` verbatim.  (The engine's
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
