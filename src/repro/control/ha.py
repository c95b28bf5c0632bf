"""Controller high availability: term-fenced standby failover.

The paper's operations center is a single logical entity; at ISP scale
a lone controller process is the deployment's single point of failure.
PR 5's fault model only *survives* a controller outage — agents degrade
to edge-only fallback when their epoch lease lapses — it never
*recovers* coordinated operation until the same process returns.  This
module closes that gap with a small, fully deterministic HA layer in
the spirit of lease-based standby takeover (ROADMAP: "standby failover
or quorum hand-off, extending the existing lease/fencing machinery"):

* **N replicas, one acting leader.**  :class:`HACluster` runs
  ``HAConfig.replicas`` :class:`ControllerReplica` instances over the
  same :class:`~repro.control.bus.Bus`.  Replica 0 boots as leader;
  the rest are warm standbys that drain (and discard) their inboxes so
  a later promotion can never replay a stale backlog.

* **Terms as fencing tokens.**  Every controller→agent message is
  stamped with the leader's election *term* (see
  :meth:`Controller._transmit`).  Terms are replica-unique by
  construction — replica *i* only ever mints terms ``t`` with
  ``t % replicas == i`` — so two concurrent candidates can never mint
  the same term, and the numerically higher term wins outright (the
  stable-replica-ID tie-break is baked into the arithmetic).  Agents
  track the highest term witnessed and ``nack`` anything older
  (:meth:`Agent._accept_term`), which both fences the deposed leader's
  pushes/leases *and* carries depose evidence back to it through the
  agent plane even when the replica plane is partitioned away.

* **Deterministic lease-based election.**  The serving leader
  broadcasts ``term-announce`` every beat.  A standby whose announce
  silence exceeds ``leader_lease + index * rank_stagger`` promotes
  itself; the per-index stagger makes candidacy windows disjoint, so
  in the common path exactly one standby runs for office.

* **Split-brain-proof state handoff.**  The leader replicates an
  epoch log (``state-handoff``: the last ``handoff_window`` adopted
  configurations, term-stamped).  A freshly promoted leader enters a
  *rebuilding* phase: it drains agent heartbeats (which carry each
  agent's ``(applied_term, applied_version)`` claim) and refuses to
  push anything until its view covers the highest applied epoch it has
  observed — either by installing that epoch from its log, or, past a
  grace period, by adopting the bare version number (a "log-gap"
  handoff) so no epoch number is ever minted twice.  Delta bases are
  only trusted when the agent's claimed term matches the log entry's
  term: two leaders can mint the same version *number* with different
  content, and a cross-term delta would silently corrupt manifests.

Replica-plane traffic is addressed to ``<replica>#ha`` so the wrapped
:class:`Controller`'s ``_drain`` never sees HA kinds and the existing
agent-plane dispatch stays byte-for-byte identical in single-controller
deployments.  See ``docs/fault_model.md`` for the failover sequence
and invariants, and :mod:`repro.control.chaos` for the acceptance
plans (``leader-crash-mid-push``, ``leader-partition``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.manifest_io import manifest_from_dict, manifest_to_dict
from ..nids.modules.base import ModuleSpec
from ..obs import MetricsRegistry, NULL_REGISTRY
from ..topology.graph import Topology
from ..topology.routing import PathSet
from .bus import Bus
from .controller import Controller, ControllerConfig, SolveFn, _json_size
from .epochs import EPOCH_SECONDS, EpochRecord
from .protocol import KIND_PROMOTE, KIND_STATE_HANDOFF, KIND_TERM_ANNOUNCE

#: Replica-plane messages ride a suffixed address so the wrapped
#: controller's agent-plane drain never consumes them.
HA_CHANNEL_SUFFIX = "#ha"

#: How long (seconds) a rebuilding leader waits for agent claims
#: before accepting a log-gap handoff (version without content).
HANDOFF_GRACE = 2.0

#: Nominal wire sizes of the fixed-format election messages.
TERM_ANNOUNCE_BYTES = 56
PROMOTE_BYTES = 64


def replica_name(index: int, base: str = "controller") -> str:
    """Stable name of controller replica *index*.

    Replica 0 keeps the bare base name, so single-controller agent
    configurations (``AgentConfig.controller == "controller"``) address
    the initial leader unchanged.
    """
    return base if index == 0 else f"{base}-{index}"


def ha_address(name: str) -> str:
    """Bus address of a replica's HA (replica-plane) inbox."""
    return name + HA_CHANNEL_SUFFIX


def base_identity(address: str) -> str:
    """Strip the HA suffix: the process identity behind a bus address.

    Fault matching uses this so a partition or ``controller_down``
    event naming a replica severs *both* its planes at once.
    """
    return address.split(HA_CHANNEL_SUFFIX, 1)[0]


@dataclass
class HAConfig:
    """Failover tunables (times in seconds)."""

    #: Number of controller replicas (1 = plain single controller).
    replicas: int = 3
    #: Base process name; replica 0 is ``base_name`` itself.
    base_name: str = "controller"
    #: Announce silence after which the first standby considers the
    #: leader dead.  Aligned with the agents' epoch-lease TTL so the
    #: control plane and the data plane agree on how long stale
    #: authority may persist.
    leader_lease: float = 2.5
    #: Extra silence tolerated per replica index before candidacy —
    #: makes election windows disjoint, so concurrent candidacy only
    #: happens under replica-plane partitions (where replica-unique
    #: terms still keep the outcome safe).
    rank_stagger: float = 1.0
    #: How many recent epoch-log entries each ``state-handoff`` carries.
    handoff_window: int = 6

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.leader_lease <= 0 or self.rank_stagger < 0:
            raise ValueError("leader_lease must be > 0, rank_stagger >= 0")
        if self.handoff_window < 1:
            raise ValueError("handoff_window must be >= 1")


@dataclass(frozen=True)
class EpochLogEntry:
    """One adopted configuration in the replicated epoch log.

    ``manifests`` holds plain :func:`manifest_to_dict` dicts (not
    :class:`NodeManifest` objects) so entries serialize over the bus,
    pickle across process boundaries, and round-trip through JSON.
    """

    term: int
    version: int
    reason: str
    #: Highest agent-acknowledged version the leader had observed when
    #: it logged this entry.
    max_acked: int
    manifests: Tuple[Tuple[str, dict], ...]

    def to_dict(self) -> dict:
        """JSON-compatible dict (the manifest pairs become a mapping)."""
        return {
            "term": self.term,
            "version": self.version,
            "reason": self.reason,
            "max_acked": self.max_acked,
            "manifests": {node: data for node, data in self.manifests},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochLogEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        return cls(
            term=data["term"],
            version=data["version"],
            reason=data.get("reason", ""),
            max_acked=data.get("max_acked", -1),
            manifests=tuple(sorted(data.get("manifests", {}).items())),
        )

    def manifest_objects(self) -> Dict[str, object]:
        """Materialize the stored manifests as ``NodeManifest``s."""
        return {
            node: manifest_from_dict(data) for node, data in self.manifests
        }


@dataclass
class ReplicaStats:
    """Cumulative per-replica failover counters."""

    elections: int = 0
    depositions: int = 0
    #: Epoch-log entries adopted from peers' ``state-handoff``s.
    handoff_entries: int = 0
    #: ``state-handoff`` broadcasts sent while leading.
    handoffs_sent: int = 0

    def to_dict(self) -> dict:
        """JSON-compatible dict of the counters."""
        return dataclasses.asdict(self)


class ControllerReplica:
    """One controller process in an HA cluster.

    Wraps a full :class:`Controller` (sharing the cluster's bus) and
    adds role/term state on top: only the acting leader lets its
    controller run epoch beats; standbys merely keep their inboxes
    drained and watch for the leader's announces to go silent.
    """

    #: Mutation switch for the seeded fault-injection tests: with HA
    #: fencing disabled a deposed leader ignores higher-term evidence
    #: and keeps serving, and the chaos ``leader-uniqueness`` invariant
    #: must catch it.
    _ha_fencing = True

    def __init__(
        self,
        index: int,
        topology: Topology,
        paths: PathSet,
        modules: Sequence[ModuleSpec],
        bus: Bus,
        controller_config: Optional[ControllerConfig] = None,
        ha_config: Optional[HAConfig] = None,
        solve_fn: Optional[SolveFn] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.index = index
        self.ha_config = ha_config or HAConfig()
        self.name = replica_name(index, self.ha_config.base_name)
        self.peers: Tuple[str, ...] = tuple(
            replica_name(i, self.ha_config.base_name)
            for i in range(self.ha_config.replicas)
            if i != index
        )
        base = controller_config or ControllerConfig()
        self.controller = Controller(
            topology,
            paths,
            modules,
            bus,
            dataclasses.replace(base, name=self.name),
            solve_fn,
            registry,
        )
        self.bus = bus
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.alive = True
        self.role = "leader" if index == 0 else "standby"
        #: Current election term; replica-unique (``term % N == index``
        #: for every term this replica mints).
        self.term = 0
        self.leader_name = replica_name(0, self.ha_config.base_name)
        #: True between promotion and completed state handoff: the
        #: leader drains claims and refuses to push.
        self.rebuilding = False
        #: Replicated epoch log, keyed by configuration version.
        self.log: Dict[int, EpochLogEntry] = {}
        #: Version adopted by the last completed handoff (``None`` for
        #: a bootstrap leader that never took over).
        self.installed_version: Optional[int] = None
        #: Time of the last completed handoff.
        self.installed_at: Optional[float] = None
        self.stats = ReplicaStats()
        self._observed_term = 0
        self._last_heard = 0.0
        self._promoted_at = 0.0
        self.controller.term = self.term

    # -- identity / evidence ----------------------------------------------
    @property
    def observed_term(self) -> int:
        """Highest term this replica has evidence of: replica-plane
        announces plus agent-plane ``nack``s collected by the wrapped
        controller."""
        return max(self._observed_term, self.controller.observed_term)

    def _next_term(self, floor: int) -> int:
        """Smallest term above *floor* that this replica may mint."""
        n = self.ha_config.replicas
        candidate = floor + 1
        return candidate + ((self.index - candidate) % n)

    # -- failure model -----------------------------------------------------
    def crash(self) -> None:
        """Controller process dies: no beats, no sends, inbox lost."""
        self.alive = False

    def restart(self, now: float) -> None:
        """Process returns — as a standby whenever it has peers.  Term,
        epoch log, and the wrapped controller's state survive (warm
        restart), but leadership must be re-earned through an election;
        the announce clock restarts so a live leader's first announce
        is awaited before any candidacy.  A replica without peers
        resumes as leader: nobody could have deposed it."""
        self.alive = True
        if self.peers:
            self.role = "standby"
        self.rebuilding = False
        self._last_heard = now

    # -- replica-plane dispatch -------------------------------------------
    def _dispatch(self, now: float) -> None:
        """Drain the HA inbox: announces, promotions, handoffs."""
        for message in self.bus.deliver(ha_address(self.name), now):
            payload = message.payload
            if not isinstance(payload, dict):
                continue
            term = payload.get("term", 0)
            leader = payload.get("leader", base_identity(message.src))
            if message.kind == KIND_TERM_ANNOUNCE:
                self._witness(term, leader, now)
            elif message.kind == KIND_PROMOTE:
                # Idempotent by construction: a duplicated or reordered
                # promote re-delivers a (term, leader) fact; adopting it
                # twice is a no-op, and a *stale* replay (term below the
                # current one) is ignored outright by _witness.
                self._witness(term, leader, now)
            elif message.kind == KIND_STATE_HANDOFF:
                self._witness(term, leader, now)
                self._merge_entries(payload.get("entries", ()))

    def _witness(self, term: int, leader: str, now: float) -> None:
        """Fold one piece of (term, leader) evidence into local state."""
        if term > self._observed_term:
            self._observed_term = term
        if term < self.term:
            return
        if term > self.term:
            if self.role == "leader":
                if not self._ha_fencing:
                    return  # mutation: ignore the depose evidence
                self._depose(now, term, leader)
                return
            self.term = term
            self.controller.term = term
            self.leader_name = leader
            self.rebuilding = False
            self._last_heard = now
            return
        # Equal term: a repeat of a known fact.  Refresh the announce
        # clock when it comes from the leader we already follow; a
        # replayed promote for our own term changes nothing (no
        # double-leader, no re-election).
        if self.role != "leader" and leader == self.leader_name:
            self._last_heard = now

    def _merge_entries(self, entries: Sequence[dict]) -> None:
        """Adopt epoch-log entries from a handoff, idempotently.

        Per version, the highest-term content wins; re-delivery of an
        already-held entry is a no-op, so duplicated or reordered
        handoffs cannot perturb the log.
        """
        for data in entries:
            entry = EpochLogEntry.from_dict(data)
            existing = self.log.get(entry.version)
            if existing is not None and existing.term >= entry.term:
                continue
            self.log[entry.version] = entry
            self.stats.handoff_entries += 1
            self.registry.counter(
                "controller_ha_handoff_entries_total",
                "epoch-log entries adopted from state-handoff messages",
                labels=("replica",),
            ).inc(replica=self.name)

    # -- election ----------------------------------------------------------
    def _election_due(self, now: float) -> bool:
        timeout = (
            self.ha_config.leader_lease
            + self.index * self.ha_config.rank_stagger
        )
        return now - self._last_heard > timeout + 1e-9

    def _promote(self, now: float) -> None:
        """Standby takeover: mint a fresh replica-unique term and enter
        the rebuilding phase."""
        floor = max(self.term, self.observed_term)
        self.term = self._next_term(floor)
        self.controller.term = self.term
        self.role = "leader"
        self.leader_name = self.name
        self.rebuilding = True
        self._promoted_at = now
        self._last_heard = now
        # The promoted monitor knows nothing recent about any node;
        # give every agent a full timeout to heartbeat the new leader
        # before the first sweep can declare it failed.
        for node in self.controller.monitor.last_seen:
            self.controller.monitor.last_seen[node] = now
        self.stats.elections += 1
        self.registry.counter(
            "controller_ha_elections_total",
            "standby promotions to acting leader",
            labels=("replica",),
        ).inc(replica=self.name)
        payload = {"term": self.term, "leader": self.name}
        for peer in self.peers:
            self.bus.send(
                self.name,
                ha_address(peer),
                KIND_PROMOTE,
                payload,
                PROMOTE_BYTES,
                now,
            )

    def _depose(
        self, now: float, term: Optional[int] = None, leader: Optional[str] = None
    ) -> None:
        """Step down: a higher term exists.  The new leader's identity
        falls out of the term arithmetic when only nack evidence is
        available (``term % replicas`` names the minting replica)."""
        if term is None:
            term = self.observed_term
        if leader is None:
            leader = replica_name(
                term % self.ha_config.replicas, self.ha_config.base_name
            )
        self.role = "standby"
        self.rebuilding = False
        self.term = max(self.term, term)
        self.controller.term = self.term
        self.leader_name = leader
        self._last_heard = now
        self.stats.depositions += 1
        self.registry.counter(
            "controller_ha_depositions_total",
            "acting leaders stepping down on higher-term evidence",
            labels=("replica",),
        ).inc(replica=self.name)

    def _maybe_demote(self, now: float) -> None:
        if (
            self.role == "leader"
            and self._ha_fencing
            and self.observed_term > self.term
        ):
            self._depose(now)

    # -- state handoff -----------------------------------------------------
    def _log_epoch(self) -> None:
        """Record the currently adopted configuration in the epoch log."""
        ctrl = self.controller
        if ctrl.version < 0 or not ctrl.manifests:
            return
        existing = self.log.get(ctrl.version)
        if existing is not None and existing.term >= self.term:
            return
        self.log[ctrl.version] = EpochLogEntry(
            term=self.term,
            version=ctrl.version,
            reason=ctrl._epoch.resolved or "",
            max_acked=max(ctrl.acked_version.values(), default=-1),
            manifests=tuple(
                (node, manifest_to_dict(manifest))
                for node, manifest in sorted(ctrl.manifests.items())
            ),
        )

    def _send_handoff(self, now: float) -> None:
        """Replicate the tail of the epoch log to every peer.  Sent on
        every serving beat; merging is idempotent, so re-sends are the
        reliability mechanism (there are no handoff acks)."""
        if not self.log:
            return
        versions = sorted(self.log)[-self.ha_config.handoff_window:]
        payload = {
            "term": self.term,
            "leader": self.name,
            "entries": [self.log[v].to_dict() for v in versions],
        }
        size = _json_size(payload)
        for peer in self.peers:
            self.bus.send(
                self.name,
                ha_address(peer),
                KIND_STATE_HANDOFF,
                payload,
                size,
                now,
            )
        self.stats.handoffs_sent += 1

    def _announce(self, now: float) -> None:
        """Broadcast the current term to peers and agents.

        The agent-bound copy is stamped ``lease: False``: an announce
        proves leadership, not configuration authority, so it must not
        refresh the lease of a node the leader has fenced.
        """
        payload = {
            "term": self.term,
            "leader": self.name,
            "version": self.controller.version,
            "lease": False,
        }
        for peer in self.peers:
            self.bus.send(
                self.name,
                ha_address(peer),
                KIND_TERM_ANNOUNCE,
                payload,
                TERM_ANNOUNCE_BYTES,
                now,
            )
        for node in self.controller.topology.node_names:
            self.bus.send(
                self.name,
                node,
                KIND_TERM_ANNOUNCE,
                payload,
                TERM_ANNOUNCE_BYTES,
                now,
            )

    def _replicate(self, now: float, log_epoch: bool = False) -> None:
        """What a leader still serving at the end of a beat owes its
        peers: the term announce and the epoch-log tail (after logging
        the configuration it just adopted, on a beat that can adopt
        one).  A replica without peers has nobody to replicate to —
        and announcing a term no election can contest to every agent
        would only add bus traffic — so it sends nothing."""
        if self.role != "leader" or not self.peers:
            return
        if log_epoch:
            self._log_epoch()
        self._announce(now)
        self._send_handoff(now)

    def _caught_up(self, now: float) -> bool:
        """Whether the rebuilding leader's view reaches the highest
        applied epoch observed (agent claims ∪ own log)."""
        claims = [
            version
            for _term, version in self.controller.reported_applied.values()
        ]
        if not claims:
            # No agent has confirmed its applied state to this leader
            # yet; keep draining until one does or the grace lapses.
            return now - self._promoted_at >= HANDOFF_GRACE
        highest = max(claims + list(self.log))
        return (
            highest < 0
            or highest in self.log
            or now - self._promoted_at >= HANDOFF_GRACE
        )

    def _install(self, now: float) -> None:
        """Complete the handoff: adopt the highest observed epoch.

        With the epoch in the log ("caught-up") its manifests are
        installed and per-agent acked state is reseeded from heartbeat
        claims — but only where the claimed *term* matches the log
        entry's term, because a same-version different-term delta base
        would corrupt the agent's manifest.  Without it ("log-gap")
        only the version number is adopted: pushes stay refused until
        the next re-solve mints fresh content above every number any
        agent has applied.
        """
        ctrl = self.controller
        claims = [
            version
            for _term, version in ctrl.reported_applied.values()
        ]
        highest = max(claims + list(self.log), default=-1)
        entry = self.log.get(highest)
        outcome = "caught-up" if highest < 0 or entry is not None else "log-gap"
        if highest >= 0:
            ctrl.version = max(ctrl.version, highest)
        if entry is not None:
            ctrl.manifests = entry.manifest_objects()
        ctrl.outstanding.clear()
        ctrl._pushed_history.clear()
        ctrl.acked_manifests.clear()
        for node in ctrl.acked_version:
            ctrl.acked_version[node] = -1
        for node in sorted(ctrl.reported_applied):
            claimed_term, claimed_version = ctrl.reported_applied[node]
            source = self.log.get(claimed_version)
            held = (
                dict(source.manifests).get(node)
                if source is not None and source.term == claimed_term
                else None
            )
            if claimed_version >= 0 and held is not None:
                ctrl.acked_manifests[node] = manifest_from_dict(held)
                ctrl.acked_version[node] = claimed_version
            else:
                ctrl.needs_full.add(node)
        self.rebuilding = False
        # The installed configuration is by construction *stale* (it
        # predates the takeover), and the first re-plan after it may
        # still miss agents that have not yet reported to this leader;
        # the chaos monitor excludes that bounded handoff window.
        self.installed_version = ctrl.version
        self.installed_at = now
        self.registry.counter(
            "controller_ha_handoffs_total",
            "completed leader state handoffs by outcome",
            labels=("outcome",),
        ).inc(outcome=outcome)

    # -- beats -------------------------------------------------------------
    def _serving(self, now: float) -> bool:
        """Shared opening of both beats; True when this replica is a
        caught-up leader that should run its controller's beat.

        A standby keeps the controller-plane inbox drained (so a later
        promotion never replays a stale backlog) and runs for office
        once the leader's announces go silent; a rebuilding leader
        drains agent claims and installs the handoff once caught up.
        """
        if not self.alive:
            return False
        self._dispatch(now)
        self._maybe_demote(now)
        if self.role != "leader":
            self.bus.deliver(self.name, now)
            if self._election_due(now):
                self._promote(now)
                self._announce(now)
            return False
        if self.rebuilding:
            self.controller._drain(now)
            self._maybe_demote(now)
            if self.role == "leader" and self._caught_up(now):
                self._install(now)
            self._replicate(now)
            return False
        return True

    def step(self, now: float) -> None:
        """One replica beat at a controller decision point."""
        if not self._serving(now):
            return
        self.controller.step(now)
        self._maybe_demote(now)
        self._replicate(now, log_epoch=True)

    def finish_epoch(self, now: float) -> Optional[EpochRecord]:
        """One replica beat at an epoch close; the serving leader
        returns the epoch record, everyone else ``None``."""
        if not self._serving(now):
            return None
        epoch = int(now / EPOCH_SECONDS)
        if self.controller._epoch.epoch != epoch:
            # Promoted (or restarted) mid-epoch: the controller never
            # took its step beat, so there is no epoch record to close.
            # Keep the plane moving (drain, retries, leases) and let the
            # runner score this epoch as a controller-down one.
            self.controller._drain(now)
            self.controller._sync_pushes(now)
            self.controller._renew_leases(now)
            self._maybe_demote(now)
            self._replicate(now)
            return None
        record = self.controller.finish_epoch(now)
        self._maybe_demote(now)
        self._replicate(now, log_epoch=True)
        return record


class HACluster:
    """N controller replicas presenting a single-controller surface.

    The chaos/scenario runners call :meth:`step` and
    :meth:`finish_epoch` exactly where they called the controller's,
    passing the set of replicas currently held down by the fault plan.
    """

    def __init__(
        self,
        topology: Topology,
        paths: PathSet,
        modules: Sequence[ModuleSpec],
        bus: Bus,
        controller_config: Optional[ControllerConfig] = None,
        ha_config: Optional[HAConfig] = None,
        solve_fn: Optional[SolveFn] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        base = controller_config or ControllerConfig()
        config = ha_config or HAConfig()
        #: The controller's configured name is authoritative for the
        #: replica naming scheme (agents address replica 0 by it).
        self.ha_config = dataclasses.replace(config, base_name=base.name)
        self.bus = bus
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.names: Tuple[str, ...] = tuple(
            replica_name(i, self.ha_config.base_name)
            for i in range(self.ha_config.replicas)
        )
        self.replicas: List[ControllerReplica] = [
            ControllerReplica(
                index,
                topology,
                paths,
                modules,
                bus,
                base,
                self.ha_config,
                solve_fn,
                registry,
            )
            for index in range(self.ha_config.replicas)
        ]
        #: Where the cluster-level failover families go.  A lone
        #: controller cannot fail over, so it exports none of them and
        #: its snapshot stays a plain controller's.
        self._failover_registry = (
            self.registry if len(self.replicas) > 1 else NULL_REGISTRY
        )
        # Pre-declare the failover families so every snapshot carries
        # them (value 0 ≠ absent) even on runs without a failover.
        self._failover_registry.counter(
            "controller_ha_elections_total",
            "standby promotions to acting leader",
            labels=("replica",),
        )
        self._failover_registry.counter(
            "controller_ha_depositions_total",
            "acting leaders stepping down on higher-term evidence",
            labels=("replica",),
        )
        self._failover_registry.counter(
            "controller_ha_handoff_entries_total",
            "epoch-log entries adopted from state-handoff messages",
            labels=("replica",),
        )
        self._failover_registry.counter(
            "controller_ha_handoffs_total",
            "completed leader state handoffs by outcome",
            labels=("outcome",),
        )

    # -- leadership views --------------------------------------------------
    def leaders(self) -> List[ControllerReplica]:
        """Every alive replica currently acting as leader (more than
        one only mid-partition, in distinct terms)."""
        return [
            replica
            for replica in self.replicas
            if replica.alive and replica.role == "leader"
        ]

    def acting_leader(self) -> Optional[ControllerReplica]:
        """The alive leader with the highest term (None while the
        cluster is leaderless)."""
        return max(
            self.leaders(), key=lambda replica: replica.term, default=None
        )

    @property
    def authority(self) -> Controller:
        """The controller whose view of the deployment currently
        counts: the acting leader's, else (leaderless) the most
        advanced alive replica's — purely for observation; a standby's
        controller never acts."""
        acting = self.acting_leader()
        if acting is not None:
            return acting.controller
        alive = [replica for replica in self.replicas if replica.alive]
        if alive:
            return max(alive, key=lambda replica: replica.term).controller
        return self.replicas[0].controller

    def settled(self) -> bool:
        """Exactly one alive leader, and it is done rebuilding."""
        leaders = self.leaders()
        return len(leaders) == 1 and not leaders[0].rebuilding

    def handoff_stale(self, epoch: int) -> bool:
        """True through the acting leader's declared handoff window:
        the epoch it completed its takeover install and the one after.

        The installed snapshot predates the takeover, and the first
        re-plan on top of it may still precede the first report from an
        agent that only just learned who leads — one full coordination
        round (hear everyone → re-plan → push → apply) completes one
        epoch after install.  Coverage shortfalls inside that window
        are handoff transition, not faults; reconvergence still has to
        land within its own budget.
        """
        acting = self.acting_leader()
        if acting is None or acting.rebuilding:
            return False
        return (
            acting.installed_at is not None
            and epoch <= int(acting.installed_at) + 1
        )

    # -- beats -------------------------------------------------------------
    def _running(self, now: float, down: frozenset):
        """The replicas that take this beat, in index order: one held
        in *down* is crashed and both its inboxes discarded (a dead
        process's queues drain to nowhere); one no longer held is
        restarted first."""
        for replica in self.replicas:
            if replica.name in down:
                self.bus.deliver(replica.name, now)
                self.bus.deliver(ha_address(replica.name), now)
                replica.crash()
                continue
            if not replica.alive:
                replica.restart(now)
            yield replica

    def step(self, now: float, down: frozenset = frozenset()) -> None:
        """Run every replica's decision beat; *down* names replicas the
        fault plan currently holds dead."""
        for replica in self._running(now, down):
            replica.step(now)
        acting = self.acting_leader()
        self._failover_registry.gauge(
            "controller_ha_term",
            "current acting-leader election term",
        ).set(
            acting.term
            if acting is not None
            else max(replica.term for replica in self.replicas)
        )

    def finish_epoch(
        self, now: float, down: frozenset = frozenset()
    ) -> Optional[EpochRecord]:
        """Run every replica's epoch-close beat; returns the acting
        leader's epoch record (None while leaderless/rebuilding)."""
        records: Dict[str, EpochRecord] = {}
        for replica in self._running(now, down):
            record = replica.finish_epoch(now)
            if record is not None:
                records[replica.name] = record
        acting = self.acting_leader()
        if acting is not None and acting.name in records:
            return records[acting.name]
        for name in self.names:
            if name in records:
                return records[name]
        return None

    # -- reporting ---------------------------------------------------------
    def summary(self) -> dict:
        """JSON-compatible snapshot of the cluster's failover history."""
        acting = self.acting_leader()
        return {
            "leader": acting.name if acting is not None else None,
            "term": acting.term if acting is not None else max(
                replica.term for replica in self.replicas
            ),
            "settled": self.settled(),
            "elections": sum(r.stats.elections for r in self.replicas),
            "depositions": sum(r.stats.depositions for r in self.replicas),
            "replicas": [
                {
                    "name": replica.name,
                    "role": replica.role,
                    "term": replica.term,
                    "alive": replica.alive,
                    "rebuilding": replica.rebuilding,
                    "log_size": len(replica.log),
                    **replica.stats.to_dict(),
                }
                for replica in self.replicas
            ],
        }
