"""NIDS analysis-module model.

A :class:`ModuleSpec` is the static description of one analysis class
``C_i``: what traffic it analyzes (``T_i``), how its coordination units
are formed (placement scope), at what aggregation it keeps state, where
its coordination check can run (event engine vs. policy scripts —
paper Fig. 4), and its calibrated resource footprint.

A :class:`Detector` (subclassed per module) is the behavioural half:
it consumes packets/events and raises alerts, so tests and examples can
verify that a distributed deployment produces the same aggregate
detection output as a single standalone NIDS — the paper's functional
equivalence check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ...hashing.keys import Aggregation
from ...traffic.packet import Packet, TCP, UDP
from ...traffic.session import Session


class Scope(enum.Enum):
    """Topological placement constraint of a module (Section 2.1).

    ``PATH``: any node on the session's forwarding path can run the
    analysis (coordination unit = end-to-end path).  ``INGRESS``: only
    the traffic source's ingress observes everything the analysis
    needs (outbound scans).  ``EGRESS``: only the destination's egress
    does (inbound floods).
    """

    PATH = "path"
    INGRESS = "ingress"
    EGRESS = "egress"


class Subscription(enum.Enum):
    """Connection-information granularity a module needs (§2.5).

    The paper's future-work extension: "allowing different
    granularities of connection information, providing interfaces for
    modules to subscribe to more fine-grained events (e.g., first
    packet of a flow for Scan)".  A ``FIRST_PACKET`` subscriber does
    not force full connection tracking at its responsible node — only
    a lightweight first-packet record.
    """

    FULL_CONNECTION = "full_connection"
    FIRST_PACKET = "first_packet"


class CheckLocation(enum.Enum):
    """Where the module's coordination check can execute (Fig. 4).

    ``EVENT_CAPABLE``: the check can be hoisted into the event engine
    (approach 2) or left in the policy script (approach 1) — HTTP, IRC,
    Login.  ``EVENT_ONLY``: the module runs entirely in the event
    engine, so the check always happens there — Signature.
    ``POLICY_ONLY``: the module consumes raw policy events, so the
    check cannot be hoisted — Scan, TFTP, Blaster, SYN-flood.
    """

    EVENT_CAPABLE = "event_capable"
    EVENT_ONLY = "event_only"
    POLICY_ONLY = "policy_only"


@dataclass(frozen=True)
class TrafficFilter:
    """The traffic specification ``T_i`` of an analysis class.

    Empty ``server_ports`` with ``proto=None`` matches all traffic.
    ``syn_only`` restricts to connection-initiating packets (SYN-flood
    analysis); ``half_open_only`` marks sessions that never complete.
    """

    server_ports: FrozenSet[int] = frozenset()
    proto: Optional[int] = None
    syn_only: bool = False

    def matches_session(self, session: Session) -> bool:
        if self.proto is not None and session.tuple.proto != self.proto:
            return False
        if self.server_ports and session.tuple.dport not in self.server_ports:
            return False
        # syn_only filters packets, not sessions: every TCP session
        # contributes at least its initial SYN, so it matches.
        return True

    @property
    def matches_all(self) -> bool:
        """Whether every session matches (no protocol, no ports)."""
        return self.proto is None and not self.server_ports

    def matches_sessions_batch(self, protos, dports):
        """Vectorized :meth:`matches_session` over field arrays.

        *protos* and *dports* are equal-length NumPy arrays of the
        sessions' protocol and destination-port fields; returns a
        boolean mask matching the scalar predicate element-wise.  Port
        membership is a ``|=`` fold of ``dports == port`` over the (one
        to a few) server ports: exact for any integer, with no table.
        """
        import numpy as np

        if self.proto is None:
            mask = np.ones(len(protos), dtype=bool)
        else:
            mask = protos == self.proto
        if self.server_ports:
            served = np.zeros(len(dports), dtype=bool)
            for port in sorted(self.server_ports):
                served |= dports == port
            mask &= served
        return mask

    def matches_packet(self, packet: Packet) -> bool:
        if self.proto is not None and packet.tuple.proto != self.proto:
            return False
        if self.server_ports:
            if (
                packet.tuple.dport not in self.server_ports
                and packet.tuple.sport not in self.server_ports
            ):
                return False
        if self.syn_only and not packet.is_syn:
            return False
        return True


@dataclass(frozen=True)
class ModuleSpec:
    """Static description + calibrated resource footprint of a module."""

    name: str
    aggregation: Aggregation
    scope: Scope
    check_location: CheckLocation
    traffic_filter: TrafficFilter = field(default_factory=TrafficFilter)

    #: Event-engine analysis cost per matched packet (protocol parsing,
    #: signature DFA, reassembly) in cpu units.
    event_cpu_per_packet: float = 0.1
    #: Policy-script events generated per matched packet (line/request
    #: oriented protocols generate many; connection-summary consumers
    #: generate ~1 per connection, expressed via events_per_session).
    events_per_packet: float = 0.0
    #: Policy-script events generated per matched session (e.g. one
    #: connection-summary event for scan detection).
    events_per_session: float = 0.0
    #: Policy-script interpretation cost per event, in cpu units.
    policy_cpu_per_event: float = 0.4
    #: State bytes per tracked item (flow, source, ...) — ``MemReq_i``.
    mem_bytes_per_item: float = 200.0
    #: The module's policy script subscribes to the *raw* connection
    #: event stream (scan, TFTP): every tracked connection reaches the
    #: script, so coordination checks there are charged per connection,
    #: not per matched session.
    raw_event_stream: bool = False
    #: For raw-stream consumers: connection-lifecycle events delivered
    #: to the script per tracked connection (new_connection,
    #: connection_state_remove, ...), each of which re-runs the
    #: interpreted coordination check.
    raw_events_per_conn: float = 1.0
    #: Policy events fire only for half-open connections (SYN-flood):
    #: completed handshakes are canceled cheaply inside the event engine.
    half_open_events_only: bool = False
    #: Connection-information granularity (§2.5 extension).  Scan only
    #: needs each connection's first packet; honoured when the engine
    #: runs with fine-grained coordination enabled.
    subscription: Subscription = Subscription.FULL_CONNECTION

    def policy_events(self, session: Session) -> float:
        """Expected number of policy events this module derives from
        *session* (used by both cost accounting and the LP inputs)."""
        if not self.traffic_filter.matches_session(session):
            return 0.0
        if self.half_open_events_only and not session.half_open:
            return 0.0
        return self.events_per_packet * session.num_packets + self.events_per_session

    def session_cpu(self, session: Session) -> float:
        """Total analysis cost this module incurs for *session* (cpu
        units): event-engine work per packet plus interpreted policy
        work per derived event.  Zero for unmatched sessions."""
        if not self.traffic_filter.matches_session(session):
            return 0.0
        return (
            self.event_cpu_per_packet * session.num_packets
            + self.policy_cpu_per_event * self.policy_events(session)
        )

    def policy_events_batch(self, pkts_f, half_open):
        """Vectorized :meth:`policy_events` over matched sessions.

        *pkts_f* is a float64 packet-count array, *half_open* the bool
        half-open mask.  The traffic-filter gate is NOT applied here —
        callers mask by match — but the half-open rule is, matching the
        scalar predicate elementwise.  The operation order mirrors
        :meth:`policy_events` exactly so each element is bit-identical
        to the scalar result.
        """
        import numpy as np

        events = self.events_per_packet * pkts_f
        events += self.events_per_session
        if self.half_open_events_only:
            events = np.where(half_open, events, 0.0)
        return events

    def session_cpu_batch(self, pkts_f, half_open):
        """Vectorized :meth:`session_cpu` over matched sessions.

        Same masking contract (and elementwise bit-identity) as
        :meth:`policy_events_batch`.
        """
        work = self.event_cpu_per_packet * pkts_f
        work += self.policy_cpu_per_event * self.policy_events_batch(
            pkts_f, half_open
        )
        return work

    def item_key(self, session: Session) -> int:
        """The state-table key this session occupies at the module's
        aggregation (session id, source host, or destination host)."""
        if self.aggregation is Aggregation.SOURCE:
            return session.tuple.src
        if self.aggregation is Aggregation.DESTINATION:
            return session.tuple.dst
        return session.session_id

    @property
    def mem_req(self) -> float:
        """``MemReq_i``: bytes per item at this module's aggregation."""
        return self.mem_bytes_per_item


@dataclass
class Alert:
    """A detection produced by a module's behavioural detector."""

    module: str
    subject: str
    detail: str = ""

    def key(self) -> Tuple[str, str]:
        return (self.module, self.subject)

    def to_dict(self) -> dict:
        """JSON-compatible dict of the alert."""
        return {
            "module": self.module,
            "subject": self.subject,
            "detail": self.detail,
        }


class Detector:
    """Behavioural base class: stateful per-instance analysis logic.

    Subclasses override :meth:`on_packet` and/or :meth:`on_session` and
    append to :attr:`alerts`.  Detectors are deliberately simple — they
    exist to verify functional equivalence of deployments, not to be a
    production IDS.
    """

    def __init__(self, spec: ModuleSpec):
        self.spec = spec
        self.alerts: List[Alert] = []

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - default
        """Consume one matched packet."""

    def on_session(self, session: Session) -> None:  # pragma: no cover - default
        """Consume one matched session summary."""

    def alert_keys(self) -> FrozenSet[Tuple[str, str]]:
        """Deduplicated alert identities (for cross-deployment diffing)."""
        return frozenset(alert.key() for alert in self.alerts)
