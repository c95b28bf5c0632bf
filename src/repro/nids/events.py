"""The event engine: packet streams into high-level events.

Bro "is logically divided into two parts: (1) an event engine that
converts a stream of packets into high-level events and (2) a
site-specific policy engine that operates on the event stream"
(paper Fig. 4).  :class:`EventEngine` implements part (1) at per-packet
granularity: it maintains the connection table, updates
:class:`~repro.nids.record.ConnectionRecord` state, and emits the
events the analysis modules subscribe to:

* ``NEW_CONNECTION`` — first packet of a connection;
* ``CONNECTION_ESTABLISHED`` — the responder answered;
* ``CONNECTION_FINISHED`` — FIN observed (state removal);
* ``PROTOCOL_DATA`` — payload-bearing packet of a matched application
  protocol (HTTP request lines, IRC messages, ...);
* ``SIGNATURE_MATCH`` — the signature engine matched a payload.

The per-packet pipeline built on this engine is the fidelity reference
(``tests/pipeline_oracle.py``): the session-granular fast path in
:mod:`repro.nids.engine` must agree with it on detection output
(``tests/test_events_pipeline.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..traffic.packet import FiveTuple, Packet
from .record import ConnState, ConnectionRecord, record_key


class EventType(enum.Enum):
    """Event kinds produced by the engine."""

    NEW_CONNECTION = "new_connection"
    CONNECTION_ESTABLISHED = "connection_established"
    CONNECTION_FINISHED = "connection_finished"
    PROTOCOL_DATA = "protocol_data"
    SIGNATURE_MATCH = "signature_match"


@dataclass(frozen=True)
class Event:
    """One event delivered to the policy engine."""

    type: EventType
    record: ConnectionRecord
    packet: Optional[Packet] = None
    payload_tag: str = ""


class EventEngine:
    """Streaming packet-to-event conversion with connection tracking.

    ``coordinated=True`` models the paper's extension: hash fields are
    precomputed into each new connection record (Section 2.3).  The
    optional ``state_filter`` callback implements the early skip — it
    is consulted once per *new* connection and, when it returns False,
    no state is created and no events are generated for that
    connection (the approach-2 optimization).
    """

    def __init__(
        self,
        coordinated: bool = False,
        hash_seed: int = 0,
        state_filter=None,
    ):
        self.coordinated = coordinated
        self.hash_seed = hash_seed
        self.state_filter = state_filter
        self.connections: Dict[FiveTuple, ConnectionRecord] = {}
        self._skipped: set = set()
        self.packets_seen = 0
        self.packets_skipped = 0

    @property
    def num_connections(self) -> int:
        """Connections currently tracked."""
        return len(self.connections)

    def process(self, packet: Packet) -> List[Event]:
        """Feed one packet; return the events it generates (in order)."""
        self.packets_seen += 1
        key = record_key(packet)
        record = self.connections.get(key)
        events: List[Event] = []

        if record is None:
            if key in self._skipped:
                self.packets_skipped += 1
                return events
            if self.state_filter is not None and not self.state_filter(packet):
                self._skipped.add(key)
                self.packets_skipped += 1
                return events
            record = ConnectionRecord(orig=packet.tuple)
            if self.coordinated:
                record.compute_hashes(self.hash_seed)
            self.connections[key] = record
            record.update(packet)
            events.append(Event(EventType.NEW_CONNECTION, record, packet))
        else:
            was_attempt = record.state is ConnState.ATTEMPT
            record.update(packet)
            if was_attempt and record.state is ConnState.ESTABLISHED:
                events.append(
                    Event(EventType.CONNECTION_ESTABLISHED, record, packet)
                )

        if packet.payload_tag:
            events.append(
                Event(
                    EventType.SIGNATURE_MATCH,
                    record,
                    packet,
                    payload_tag=packet.payload_tag,
                )
            )
        if packet.size > 40:  # payload-bearing
            events.append(Event(EventType.PROTOCOL_DATA, record, packet))
        if record.state is ConnState.CLOSED and packet.is_fin:
            events.append(Event(EventType.CONNECTION_FINISHED, record, packet))
        return events

    def run(self, packets) -> Iterator[Event]:
        """Process a packet iterable, yielding events as they occur."""
        for packet in packets:
            for event in self.process(packet):
                yield event

    def finish(self) -> List[Event]:
        """End of trace: emit CONNECTION_FINISHED for connections that
        never closed (Bro's state-removal timeout)."""
        events = []
        for record in self.connections.values():
            if record.state is not ConnState.CLOSED:
                events.append(Event(EventType.CONNECTION_FINISHED, record))
        return events
