"""Per-packet analysis pipeline (fidelity reference).

Wires the :class:`~repro.nids.events.EventEngine` to per-module policy
handlers, with coordination checks performed against a node manifest
using the connection record's precomputed hash fields — the full
Fig. 4 architecture at packet granularity.

The session-granular engine in :mod:`repro.nids.engine` is the fast
path used by the network-wide benchmarks; this pipeline is the slow,
high-fidelity reference ``tests/test_events_pipeline.py`` cross-validates
it against: both must identify the same scanners, the same flooded
destinations, and the same signature-bearing connections.  It was
``repro.nids.pipeline``; the tests were its only reader, so it lives
beside them as their oracle (the ``tests/scalar_oracle.py`` precedent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.manifest import NodeManifest, full_manifest
from repro.core.units import UnitKey
from repro.hashing.keys import Aggregation
from repro.traffic.generator import home_node_index
from repro.traffic.packet import Packet
from repro.nids.events import Event, EventEngine, EventType
from repro.nids.modules.base import ModuleSpec, Scope
from repro.nids.modules.signature import DEFAULT_SIGNATURES
from repro.nids.record import ConnectionRecord


@dataclass
class PipelineFindings:
    """Detection output of one per-packet pipeline run."""

    scanners: Set[int] = field(default_factory=set)
    flooded_destinations: Set[int] = field(default_factory=set)
    signature_connections: Set[Tuple] = field(default_factory=set)
    connections_tracked: int = 0
    packets_processed: int = 0


class PacketPipeline:
    """Event engine + policy handlers + coordination checks."""

    def __init__(
        self,
        node_names: Sequence[str],
        modules: Sequence[ModuleSpec],
        manifest: Optional[NodeManifest] = None,
        scan_threshold: int = 12,
        flood_threshold: int = 15,
        hash_seed: int = 0,
    ):
        self.node_names = list(node_names)
        self.modules = {spec.name.split("#", 1)[0]: spec for spec in modules}
        self.manifest = manifest or full_manifest("standalone")
        self.scan_threshold = scan_threshold
        self.flood_threshold = flood_threshold
        self.hash_seed = hash_seed
        self.engine = EventEngine(coordinated=True, hash_seed=hash_seed)
        self._scan_fanout: Dict[int, Set[int]] = {}
        self._flood_counts: Dict[int, int] = {}
        self.findings = PipelineFindings()

    # -- coordination -----------------------------------------------------
    def _unit_for(self, spec: ModuleSpec, record: ConnectionRecord) -> UnitKey:
        src_home = self.node_names[home_node_index(record.orig.src)]
        dst_home = self.node_names[home_node_index(record.orig.dst)]
        if spec.scope is Scope.PATH:
            return tuple(sorted((src_home, dst_home)))
        if spec.scope is Scope.INGRESS:
            return (src_home,)
        return (dst_home,)

    def _sampled(self, spec: ModuleSpec, record: ConnectionRecord) -> bool:
        """The Fig. 3 check, via the record's precomputed hash field."""
        unit = self._unit_for(spec, record)
        hash_value = record.hash_for(spec.aggregation, self.hash_seed)
        return self.manifest.contains(spec.name, unit, hash_value)

    # -- policy handlers ------------------------------------------------------
    def _on_new_connection(self, event: Event) -> None:
        record = event.record
        scan = self.modules.get("scan")
        if scan is not None and self._sampled(scan, record):
            fanout = self._scan_fanout.setdefault(record.orig.src, set())
            fanout.add(record.orig.dst)
            if len(fanout) >= self.scan_threshold:
                self.findings.scanners.add(record.orig.src)

    def _on_connection_finished(self, event: Event) -> None:
        record = event.record
        synflood = self.modules.get("synflood")
        if synflood is not None and record.half_open and self._sampled(synflood, record):
            count = self._flood_counts.get(record.orig.dst, 0) + 1
            self._flood_counts[record.orig.dst] = count
            if count >= self.flood_threshold:
                self.findings.flooded_destinations.add(record.orig.dst)

    def _on_signature_match(self, event: Event) -> None:
        record = event.record
        signature = self.modules.get("signature")
        if (
            signature is not None
            and event.payload_tag in DEFAULT_SIGNATURES
            and self._sampled(signature, record)
        ):
            self.findings.signature_connections.add(
                (
                    record.orig.src,
                    record.orig.dst,
                    record.orig.sport,
                    record.orig.dport,
                )
            )

    _HANDLERS = {
        EventType.NEW_CONNECTION: "_on_new_connection",
        EventType.CONNECTION_FINISHED: "_on_connection_finished",
        EventType.SIGNATURE_MATCH: "_on_signature_match",
    }

    # -- driving -----------------------------------------------------------
    def process_packet(self, packet: Packet) -> None:
        """Feed one packet through engine and policy handlers."""
        self.findings.packets_processed += 1
        for event in self.engine.process(packet):
            self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        handler_name = self._HANDLERS.get(event.type)
        if handler_name is not None:
            getattr(self, handler_name)(event)

    def run(self, packets) -> PipelineFindings:
        """Process a packet stream to completion and return findings."""
        for packet in packets:
            self.process_packet(packet)
        for event in self.engine.finish():
            self._dispatch(event)
        self.findings.connections_tracked = self.engine.num_connections
        return self.findings
