"""Per-node NIDS agent: the node-side half of the coordination plane.

Each network node runs an agent that (paper §2.3, §5):

* measures the traffic it ingresses and exports NetFlow-style reports
  to the operations center;
* receives epoch-versioned sampling-manifest updates — full manifests
  or :func:`~repro.core.manifest_io.manifest_diff` deltas — applies
  them, and acknowledges the applied version;
* applies every update through the §5 dual-manifest window
  (:class:`~repro.core.reconfigure.TransitionPlan` semantics): new
  connections follow the new manifest immediately, while the retiring
  manifest keeps answering for pre-existing connections until the
  window expires, so no connection loses its analyzer mid-switch;
* heartbeats, so the controller can detect the NIDS process dying
  (the router keeps forwarding — only the analysis capacity is lost).

Crash/recover model a NIDS software failure: a crashed agent drops all
incoming messages and sends nothing; on recovery it restarts cold
(empty manifest, version −1) and waits for the controller to push a
full manifest.  A *warm* restart (``recover(warm=True)``) models the
process coming back holding a pre-crash manifest on disk: the state is
kept for inspection but is never served — the agent re-enters through
the degraded path and requests a full (non-delta) resync.

**Graceful degradation** (``docs/fault_model.md``): the agent holds an
*epoch lease* (``AgentConfig.lease_ttl``) that leader messages
refresh.  While the lease is valid the agent serves its coordinated
manifest; when it expires (the controller is unreachable, or stopped
renewing because it fenced this node), the agent falls back to a
locally derived **edge-only** stance — the paper's baseline
deployment, full coverage of the node's own ingress sessions — rather
than acting on configuration it can no longer trust.
It exits degradation only once a valid lease is held *and* the applied
manifest version has caught up with the newest version the controller
has announced (epoch fencing), so a stale-epoch manifest never
outlives its lease.

**Term fencing** (controller HA, ``docs/fault_model.md``): when the
controller runs replicated (:mod:`repro.control.ha`), every
controller→agent message carries the sender's election *term* as a
fencing token.  The agent tracks the highest term it has witnessed,
follows the highest-term sender as its leader, and answers anything
older with a ``nack`` — a deposed leader's deltas, lease renewals, and
repair pushes are all rejected before any blanket handler sees them,
so a partitioned ex-leader can never split-brain the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..core.manifest import NodeManifest
from ..core.manifest_io import apply_manifest_delta, manifest_from_dict
from ..core.units import UnitKey
from ..measurement.flows import FlowExporter
from ..obs import MetricsRegistry, NULL_REGISTRY
from ..traffic.session import Session
from .bus import Bus, Message
from .epochs import EPOCH_SECONDS, LEASE_TTL, check_duration
from .protocol import (
    KIND_ACK,
    KIND_HEARTBEAT,
    KIND_MANIFEST_UPDATE,
    KIND_NACK,
    KIND_REPORT,
    KIND_RESYNC_REQUEST,
)

#: Nominal wire sizes for the small fixed-format control messages.
HEARTBEAT_BYTES = 64
ACK_BYTES = 96
RESYNC_REQUEST_BYTES = 48
NACK_BYTES = 72


def report_bytes(report) -> int:
    """Approximate NetFlow report size (per-pair and per-port rows)."""
    return 64 + 24 * (len(report.pair_flows) + len(report.pair_port_flows))


def _decodes(payload: object) -> bool:
    """Whether a ``manifest-update`` payload decodes: an int ``version``,
    a ``mode`` of ``full`` or ``delta`` and a mapping of ``data``."""
    return (
        isinstance(payload, dict)
        and type(payload.get("version")) is int
        and payload.get("mode") in ("full", "delta")
        and isinstance(payload.get("data"), Mapping)
    )


@dataclass
class AgentConfig:
    """Agent-side tunables (times in seconds)."""

    #: How long the retiring manifest keeps serving existing
    #: connections after an update is applied (§5's "until existing
    #: connections ... expire").
    transition_window: float = 2.0
    controller: str = "controller"
    #: Epoch-lease TTL in seconds; expiry triggers edge-only fallback.
    lease_ttl: float = LEASE_TTL

    def __post_init__(self) -> None:
        check_duration("lease_ttl", self.lease_ttl)


@dataclass
class AgentStats:
    """Cumulative agent-side counters."""

    updates_applied: int = 0
    duplicates_ignored: int = 0
    resyncs_requested: int = 0
    heartbeats_sent: int = 0
    reports_sent: int = 0
    lease_expirations: int = 0
    degraded_epochs: int = 0
    stale_terms_rejected: int = 0


class _SessionTally:
    """Single-pass iterable wrapper counting sessions as they flow by.

    Lets :meth:`Agent.step` feed a streaming chunk straight into the
    flow exporter and still report the exact session count, without
    materializing the trace.
    """

    __slots__ = ("_sessions", "count")

    def __init__(self, sessions: Iterable[Session]):
        self._sessions = sessions
        self.count = 0

    def __iter__(self):
        for session in self._sessions:
            self.count += 1
            yield session


class Agent:
    """One node's coordination-plane endpoint."""

    #: Mutation switch for the seeded fault-injection tests: with term
    #: fencing disabled a stale-term delta is let through, and the
    #: chaos ``epoch-regression`` invariant must catch the damage.
    _term_fencing = True

    def __init__(
        self,
        node: str,
        bus: Bus,
        exporter: Optional[FlowExporter] = None,
        config: Optional[AgentConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.node = node
        self.bus = bus
        self.exporter = exporter or FlowExporter()
        self.config = config or AgentConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.alive = True
        self.applied_version = -1
        self.manifest = NodeManifest(node=node)
        #: (retiring manifest, window expiry time) during a transition.
        self.retiring: Optional[Tuple[NodeManifest, float]] = None
        self.stats = AgentStats()
        self._last_heartbeat = float("-inf")
        #: Edge-only fallback active.
        self.degraded = False
        #: Absolute expiry of the current epoch lease.
        self.lease_expires_at = float("-inf")
        #: Newest configuration version the controller has announced
        #: (via lease renewals or pushes) — the epoch fence.
        self.known_version = -1
        self._needs_resync = False
        #: Highest election term witnessed — the HA fencing token.
        #: 0 until a term-stamped message arrives (single-controller
        #: deployments never stamp, so everything below stays inert).
        self.current_term = 0
        #: Term that produced the currently applied manifest.
        self.applied_term = 0
        #: Term paired with :attr:`known_version` for the epoch fence.
        self.known_term = 0
        #: Address control traffic goes to; follows the highest-term
        #: sender so a failed-over agent reports to the new leader.
        self.leader = self.config.controller
        # Rare-event families, pre-declared so every snapshot carries
        # them (value 0 != absent).
        self._lease_expirations = self.registry.counter(
            "agent_lease_expirations_total",
            "epoch leases that expired, forcing edge-only fallback",
            labels=("node",),
        )
        self._duplicate_suppressions = self.registry.counter(
            "agent_duplicate_suppressions_total",
            "duplicated/replayed manifest pushes suppressed by the epoch fence",
            labels=("node",),
        )
        self._resync_requests = self.registry.counter(
            "agent_resync_requests_total",
            "full-manifest resyncs requested from the controller",
            labels=("node",),
        )
        self._degraded_epochs = self.registry.counter(
            "agent_degraded_epochs_total",
            "epochs a node spent in edge-only fallback",
            labels=("node",),
        )
        self._stale_term_rejections = self.registry.counter(
            "agent_stale_term_rejections_total",
            "controller messages rejected for carrying a stale election term",
            labels=("node",),
        )

    # -- failure model ----------------------------------------------------
    def crash(self) -> None:
        """NIDS process dies: stop analyzing, reporting, heartbeating."""
        self.alive = False

    def recover(self, warm: bool = False) -> None:
        """Process restarts.

        Cold (default): all configuration state is lost and the agent
        waits for a full manifest push.  Warm: the pre-crash manifest
        survived on disk — it is *kept* (so operators and tests can see
        what the process came back with) but never served: the applied
        version resets to −1, the lease starts expired, and a full
        (non-delta) resync is requested, so the stale ranges cannot
        outlive the restart.
        """
        self.alive = True
        self.retiring = None
        self._last_heartbeat = float("-inf")
        self.lease_expires_at = float("-inf")
        if warm:
            # Remember how far the pre-crash config had advanced: the
            # fence must not let the stale snapshot masquerade as new.
            self.known_version = max(self.known_version, self.applied_version)
            self.known_term = max(self.known_term, self.applied_term)
            self.applied_version = -1
            self.applied_term = 0
            self._needs_resync = True
        else:
            self.applied_version = -1
            self.manifest = NodeManifest(node=self.node)
            self.known_version = -1
            self._needs_resync = False
            self.current_term = 0
            self.applied_term = 0
            self.known_term = 0
            self.leader = self.config.controller
        self.degraded = True

    # -- epoch step -------------------------------------------------------
    def step(self, now: float, sessions: Optional[Iterable[Session]] = None) -> None:
        """Process inbox, optionally measure+report, heartbeat, expire.

        Called (at least) twice per epoch by the runtime: once at epoch
        start with the node's ingress *sessions*, and once mid-epoch to
        pick up the controller's pushes.  A crashed agent drains and
        discards its inbox — messages addressed to a dead process are
        simply lost.

        *sessions* may be any iterable (including a streaming chunk
        generator): it is consumed exactly once, flowing through the
        exporter while being tallied for the dispatch counter, so the
        agent never needs the epoch's trace materialized.
        """
        inbox = self.bus.deliver(self.node, now)
        if not self.alive:
            return
        for message in inbox:
            if message.kind == KIND_MANIFEST_UPDATE and not _decodes(message.payload):
                # Refused whole: a push that does not decode commits
                # neither its term and leader nor its lease and version.
                continue
            if not self._accept_term(message, now):
                continue
            if message.src == self.leader:
                self._renew_lease(message.payload, now)
            if message.kind == KIND_MANIFEST_UPDATE:
                self._handle_update(message, now)
        self._update_degraded(now)
        if self._needs_resync:
            self._resync_requests.inc(node=self.node)
            self.bus.send(
                self.node,
                self.leader,
                KIND_RESYNC_REQUEST,
                {"node": self.node, "applied": self.applied_version},
                RESYNC_REQUEST_BYTES,
                now,
            )
        if sessions is not None:
            if self.degraded:
                self.stats.degraded_epochs += 1
                self._degraded_epochs.inc(node=self.node)
            tally = _SessionTally(sessions)
            report = self.exporter.measure(
                tally, interval_seconds=EPOCH_SECONDS
            )
            self.registry.counter(
                "agent_dispatch_sessions_total",
                "ingress sessions measured (and dispatched on) per node",
                labels=("node",),
            ).inc(tally.count, node=self.node)
            self.bus.send(
                self.node,
                self.leader,
                KIND_REPORT,
                report,
                report_bytes(report),
                now,
            )
            self.stats.reports_sent += 1
        if now - self._last_heartbeat >= EPOCH_SECONDS - 1e-9:
            self.bus.send(
                self.node,
                self.leader,
                KIND_HEARTBEAT,
                {
                    "node": self.node,
                    "degraded": self.degraded,
                    "applied": self.applied_version,
                    "applied_term": self.applied_term,
                },
                HEARTBEAT_BYTES,
                now,
            )
            self.stats.heartbeats_sent += 1
            self._last_heartbeat = now
        if self.retiring is not None and now >= self.retiring[1]:
            self.retiring = None

    # -- HA term fencing ---------------------------------------------------
    def _accept_term(self, message: Message, now: float) -> bool:
        """Admit, adopt, or nack a message by its election term.

        Messages without a ``term`` stamp (single-controller
        deployments, agent-plane traffic) pass untouched.  A newer
        term is adopted and its sender becomes the leader this agent
        reports to; a stale term is answered with a ``nack`` carrying
        the fencing term, so a deposed leader learns it lost even with
        the replica-plane channel partitioned away.  Rejection happens
        *before* the blanket lease handler runs — a stale-term message
        can neither refresh the lease nor deliver a manifest.
        """
        payload = message.payload
        if not isinstance(payload, dict):
            return True
        term = payload.get("term")
        if not isinstance(term, int):
            return True
        if term < self.current_term and self._term_fencing:
            self.stats.stale_terms_rejected += 1
            self._stale_term_rejections.inc(node=self.node)
            self.bus.send(
                self.node,
                message.src,
                KIND_NACK,
                {
                    "node": self.node,
                    "term": self.current_term,
                    "stale_term": term,
                    "applied": self.applied_version,
                },
                NACK_BYTES,
                now,
            )
            return False
        if term > self.current_term:
            self.current_term = term
        self.leader = message.src
        return True

    # -- epoch lease / graceful degradation -------------------------------
    def lease_valid(self, now: float) -> bool:
        """Whether the epoch lease is currently held."""
        return now < self.lease_expires_at

    def _renew_lease(self, payload: object, now: float) -> None:
        """A term-admitted leader message refreshes the lease; renewal
        payloads carry an absolute expiry so every agent in a beat
        fences at the same instant.

        The handler is scoped two ways (it used to be a true blanket):
        stale-term messages never reach it — :meth:`_accept_term` has
        already nacked them — and payloads stamped ``lease: False``
        (term announcements) are inert here, because they prove
        leadership, not configuration authority, and must not extend
        the lease of a node the leader has deliberately fenced.
        """
        if isinstance(payload, dict) and payload.get("lease") is False:
            return
        expires = now + self.config.lease_ttl
        if isinstance(payload, dict):
            expires = payload.get("lease_expires_at", expires)
            version = payload.get("version")
            term = payload.get("term", self.known_term)
            if isinstance(version, int) and (term, version) > (
                self.known_term,
                self.known_version,
            ):
                self.known_term = term
                self.known_version = version
        self.lease_expires_at = max(self.lease_expires_at, expires)

    def _update_degraded(self, now: float) -> None:
        """Enter/exit edge-only fallback.

        Entry: lease expiry, or no applied configuration at all (cold
        or warm restart).  Exit (epoch fencing): a valid lease *and*
        the applied version has caught up with the newest version the
        controller announced — so a renewed lease alone can never
        resurrect a stale-epoch manifest.
        """
        in_lease = now < self.lease_expires_at
        if self.degraded:
            if (
                in_lease
                and self.applied_version >= 0
                and (self.applied_term, self.applied_version)
                >= (self.known_term, self.known_version)
            ):
                self.degraded = False
        elif self.applied_version < 0 or not in_lease:
            if self.applied_version >= 0:
                # A real expiry (not a cold start): a configuration was
                # being served and its authority lapsed.
                self.stats.lease_expirations += 1
                self._lease_expirations.inc(node=self.node)
            self.degraded = True
            # The dual-manifest window rides on the same stale
            # authority; drop it along with the current manifest.
            self.retiring = None

    def _edge_responsible(self, key: UnitKey) -> bool:
        """Locally derived edge-only stance: this node analyzes every
        unit it is an endpoint of (its own ingress/egress sessions —
        the paper's baseline deployment), and nothing it would only see
        mid-path."""
        return self.node in key

    def _ack(self, version: int, status: str, now: float) -> None:
        self.bus.send(
            self.node,
            self.leader,
            KIND_ACK,
            {
                "node": self.node,
                "version": version,
                "applied": self.applied_version,
                "term": self.applied_term,
                "status": status,
            },
            ACK_BYTES,
            now,
        )

    def _handle_update(self, message: Message, now: float) -> None:
        payload: Dict = message.payload  # type: ignore[assignment]
        version = payload["version"]
        # Two leaders in different terms can mint the same version
        # number with different content, so the duplicate fence is the
        # lexicographic (term, version) pair, not the bare version.
        if self._term_fencing:
            term = payload.get("term", self.applied_term)
        else:
            term = self.applied_term
        if (term, version) <= (self.applied_term, self.applied_version):
            # Reordered or retransmitted push for an epoch at or behind
            # the fence; the manifest stays byte-identical and we re-ack
            # so the controller stops retrying.
            self.stats.duplicates_ignored += 1
            self._duplicate_suppressions.inc(node=self.node)
            self._ack(version, "duplicate", now)
            return
        if payload["mode"] == "delta":
            if self._needs_resync or payload.get("base") != self.applied_version:
                # Delta against a base we never applied (lost push,
                # cold restart), or a warm restart whose on-disk state
                # must not be trusted as a delta base: ask for a full
                # manifest instead.
                self.stats.resyncs_requested += 1
                self._ack(version, "resync", now)
                return
            new_manifest = apply_manifest_delta(self.manifest, payload["data"])
        else:
            new_manifest = manifest_from_dict(payload["data"])
        if self.applied_version >= 0 and not new_manifest.same_ranges(
            self.manifest
        ):
            # §5 dual-manifest window: retain the old responsibilities
            # for existing connections until they expire.  A content-
            # identical push (version bump only) opens no window —
            # there is nothing to hand over.
            self.retiring = (self.manifest, now + self.config.transition_window)
        self.manifest = new_manifest
        self.applied_version = version
        self.applied_term = payload.get("term", self.applied_term)
        if (self.applied_term, version) > (self.known_term, self.known_version):
            self.known_term = self.applied_term
            self.known_version = version
        self._needs_resync = False
        self.stats.updates_applied += 1
        self._ack(version, "applied", now)

    # -- dispatch-facing queries (TransitionPlan semantics, per node) ----
    @property
    def in_transition(self) -> bool:
        """Whether a dual-manifest window is currently open."""
        return self.retiring is not None

    def responsible_for_new(
        self, class_name: str, key: UnitKey, hash_value: float
    ) -> bool:
        """Should this node take on a NEW connection? (new manifest)

        While degraded the coordinated manifest is not consulted at
        all: the node answers from the edge-only stance, taking every
        session it is an endpoint of.
        """
        if not self.alive:
            return False
        if self.degraded:
            return self._edge_responsible(key)
        return self.manifest.contains(class_name, key, hash_value)

    def responsible_for_existing(
        self, class_name: str, key: UnitKey, hash_value: float
    ) -> bool:
        """Should this node keep analyzing an EXISTING connection?

        Union of the current and retiring manifests, exactly like
        :meth:`repro.core.reconfigure.TransitionPlan.responsible_for_existing`.
        Degraded, the answer is the edge-only stance — the stale
        manifest is refused for existing connections too, because the
        ranges it cedes to other nodes can no longer be trusted to be
        picked up by anyone.
        """
        if not self.alive:
            return False
        if self.degraded:
            return self._edge_responsible(key)
        if self.manifest.contains(class_name, key, hash_value):
            return True
        return self.retiring is not None and self.retiring[0].contains(
            class_name, key, hash_value
        )
