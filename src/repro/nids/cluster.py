"""Single-vantage-point NIDS cluster baseline (paper §1).

The approach the paper argues against: "Approaches to scaling single-
vantage-point solutions have focused on building NIDS/NIPS clusters.
The cluster approach, however, faces its own challenges: since each
packet might be relevant to multiple analyses that may occur on
different nodes, these solutions need to replicate traffic across the
cluster or share the relevant analysis state."

:func:`emulate_cluster` models a Vallentin-et-al.-style cluster at one
chokepoint: a frontend hash-distributes connections across backend
workers.  Session-scoped analyses land cleanly on one worker, but
host-scoped analyses (scan per source, SYN-flood per destination)
aggregate across connections that hash to *different* workers, so the
cluster must either replicate those packets to the responsible worker
or forward per-connection state — the overhead term the paper cites.

This gives the third comparison point next to the edge-only and
coordinated deployments of :func:`repro.nids.run_emulation`: same
total analysis work, but concentrated at one location and inflated by
replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from ..hashing.bobhash import hash_unit
from ..hashing.keys import Aggregation
from ..traffic.session import Session
from .modules.base import ModuleSpec
from .resources import CostModel, DEFAULT_COST_MODEL, ResourceUsage

#: Cost of replicating one packet (or its derived state record) from
#: the worker that received it to the worker that needs it, in cpu
#: units — the inter-node communication the paper's intro cites.
REPLICATION_COST_PER_PACKET = 0.3


@dataclass
class ClusterReport:
    """Resource usage of a backend cluster at one chokepoint."""

    location: str
    num_workers: int
    worker_usage: List[ResourceUsage]
    replicated_packets: float
    total_packets: float
    frontend_cpu: float

    @property
    def max_worker_cpu(self) -> float:
        """Hottest backend worker's CPU footprint."""
        return max(u.cpu for u in self.worker_usage)

    @property
    def max_worker_mem_bytes(self) -> float:
        """Hottest backend worker's memory footprint."""
        return max(u.mem_bytes for u in self.worker_usage)

    @property
    def total_cpu(self) -> float:
        """Frontend plus all workers (replication included)."""
        return self.frontend_cpu + sum(u.cpu for u in self.worker_usage)

    @property
    def replication_fraction(self) -> float:
        """Replicated packets as a share of all analyzed packets."""
        if self.total_packets <= 0:
            return 0.0
        return self.replicated_packets / self.total_packets


def _worker_of(value_key: bytes, num_workers: int, seed: int = 0) -> int:
    return int(hash_unit(value_key, seed) * num_workers) % num_workers


def emulate_cluster(
    location: str,
    sessions: Sequence[Session],
    modules: Sequence[ModuleSpec],
    num_workers: int,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    hash_seed: int = 0,
) -> ClusterReport:
    """Emulate an n-worker cluster analyzing *sessions* at one point.

    The frontend hashes each connection (bidirectional 5-tuple) to a
    worker, which performs baseline processing and all session-scoped
    analyses locally.  For each host-scoped module, connections whose
    *aggregation key* (source or destination) hashes to a different
    worker are replicated there, costing
    :data:`REPLICATION_COST_PER_PACKET` per packet on both ends plus a
    duplicate connection record at the receiving worker.
    """
    if num_workers < 1:
        raise ValueError("cluster needs at least one worker")
    workers = [
        ResourceUsage(mem_bytes=float(cost_model.process_base_bytes))
        for _ in range(num_workers)
    ]
    module_items: List[Dict[str, Set[int]]] = [
        {spec.name: set() for spec in modules} for _ in range(num_workers)
    ]
    replicated_packets = 0.0
    total_packets = 0.0
    frontend_cpu = 0.0

    host_scoped = [
        spec
        for spec in modules
        if spec.aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION)
    ]
    session_scoped = [spec for spec in modules if spec not in host_scoped]

    for session in sessions:
        pkts = session.num_packets
        total_packets += pkts
        frontend_cpu += cost_model.capture_cost * pkts  # frontend sees all

        home = _worker_of(session.tuple.session_key(), num_workers, hash_seed)
        usage = workers[home]
        usage.cpu += cost_model.base_conn_packet_cost * pkts
        usage.mem_bytes += cost_model.conn_record_bytes

        for spec in session_scoped:
            if not spec.traffic_filter.matches_session(session):
                continue
            usage.cpu += spec.session_cpu(session)
            module_items[home][spec.name].add(spec.item_key(session))

        # One replication per distinct foreign owner suffices even when
        # several host-scoped modules share it.
        replicated_to: Set[int] = set()
        for spec in host_scoped:
            if not spec.traffic_filter.matches_session(session):
                continue
            owner = _worker_of(
                spec.item_key(session).to_bytes(8, "big"), num_workers, hash_seed + 1
            )
            if owner != home and owner not in replicated_to:
                # Replicate the connection's packets (or state) to the
                # aggregation owner: cost at both sender and receiver,
                # plus a duplicate record at the owner.
                replicated_to.add(owner)
                replicated_packets += pkts
                workers[home].cpu += REPLICATION_COST_PER_PACKET * pkts
                workers[owner].cpu += REPLICATION_COST_PER_PACKET * pkts
                workers[owner].mem_bytes += cost_model.conn_record_bytes
            workers[owner].cpu += spec.session_cpu(session)
            module_items[owner][spec.name].add(spec.item_key(session))

    for index, items in enumerate(module_items):
        for spec in modules:
            workers[index].mem_bytes += (
                len(items[spec.name]) * spec.mem_bytes_per_item
            )

    return ClusterReport(
        location=location,
        num_workers=num_workers,
        worker_usage=workers,
        replicated_packets=replicated_packets,
        total_packets=total_packets,
        frontend_cpu=frontend_cpu,
    )

