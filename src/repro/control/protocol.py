"""Declared control-plane message protocol.

The coordination plane exchanges a small, closed set of message kinds
over the :class:`~repro.control.bus.Bus`.  Before this table existed
the protocol lived implicitly in string literals scattered across
``Controller`` and ``Agent``; a typo'd kind (sent-but-never-handled, or
handled-but-never-sent) produced silent drift only a full scenario run
could catch.  ``PROTOCOL`` makes the contract statically declarable:
``repro analysis flow`` (rule REP206) extracts every kind sent on the
bus and every ``message.kind == ...`` dispatch arm, and fails the build
when either side disagrees with this table.

``implicit=True`` marks kinds consumed by a blanket handler rather
than a dispatch arm: ``lease-renew`` carries no payload an agent acts
on beyond the lease stamp, which :meth:`Agent._renew_lease` extracts
from every non-stale controller message (see ``docs/fault_model.md``),
so no ``kind ==`` comparison exists for it by design.

The controller-HA kinds extend the plane with replica coordination: a
leader heartbeats its term with ``term-announce``, a standby takes
over with ``promote``, the epoch log replicates via ``state-handoff``,
and an agent answers any message carrying a stale fencing term with
``nack`` (see the failover section of ``docs/fault_model.md``).  They
share the receiving controller's one inbox with the agent kinds;
:meth:`Controller._drain` hands them to
:meth:`~repro.control.replication.ReplicatedLog.receive` first (replica
plane before agent plane is a protocol invariant, not a second
address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "KIND_ACK",
    "KIND_HEARTBEAT",
    "KIND_LEASE_RENEW",
    "KIND_MANIFEST_UPDATE",
    "KIND_NACK",
    "KIND_PROMOTE",
    "KIND_REPORT",
    "KIND_RESYNC_REQUEST",
    "KIND_STATE_HANDOFF",
    "KIND_TERM_ANNOUNCE",
    "MessageSpec",
    "PROTOCOL",
    "PROTOCOL_KINDS",
]

# Agent -> controller.
KIND_HEARTBEAT = "heartbeat"
KIND_REPORT = "report"
KIND_ACK = "ack"
KIND_RESYNC_REQUEST = "resync-request"
KIND_NACK = "nack"

# Controller -> agent.
KIND_MANIFEST_UPDATE = "manifest-update"
KIND_LEASE_RENEW = "lease-renew"

# Controller replica -> replica (and leader -> agent for
# term-announce): the HA failover kinds.
KIND_TERM_ANNOUNCE = "term-announce"
KIND_PROMOTE = "promote"
KIND_STATE_HANDOFF = "state-handoff"


@dataclass(frozen=True)
class MessageSpec:
    """One admissible message kind on the control bus."""

    kind: str
    sender: str  # "agent" | "controller"
    receiver: str
    #: True when a blanket handler (not a ``kind ==`` dispatch arm)
    #: consumes the message; REP206 then waives the handler check.
    implicit: bool = False


#: The closed protocol.  REP206 checks this table against the code in
#: both directions; extend it *first* when adding a message kind.
PROTOCOL: Tuple[MessageSpec, ...] = (
    MessageSpec(kind=KIND_HEARTBEAT, sender="agent", receiver="controller"),
    MessageSpec(kind=KIND_REPORT, sender="agent", receiver="controller"),
    MessageSpec(kind=KIND_ACK, sender="agent", receiver="controller"),
    MessageSpec(kind=KIND_RESYNC_REQUEST, sender="agent", receiver="controller"),
    MessageSpec(kind=KIND_NACK, sender="agent", receiver="controller"),
    MessageSpec(kind=KIND_MANIFEST_UPDATE, sender="controller", receiver="agent"),
    MessageSpec(
        kind=KIND_LEASE_RENEW, sender="controller", receiver="agent", implicit=True
    ),
    MessageSpec(kind=KIND_TERM_ANNOUNCE, sender="controller", receiver="replica|agent"),
    MessageSpec(kind=KIND_PROMOTE, sender="controller", receiver="replica"),
    MessageSpec(kind=KIND_STATE_HANDOFF, sender="controller", receiver="replica"),
)

#: Frozen view for membership checks.
PROTOCOL_KINDS = frozenset(spec.kind for spec in PROTOCOL)
