"""Term-fenced failover as one state machine (the replicated epoch log).

The operations center "periodically configures" every node (paper
§2.2); at ISP scale it runs as ``HAConfig.replicas`` controller
processes on one bus, of which one leads.  :class:`ReplicatedLog` is
everything those processes agree on, and nothing else: the election
term, the role and the leader followed, the announce clock, the epoch
log of adopted configurations and the agents' applied claims.  It has
no bus, clock, registry or RNG.  Its inputs carry an explicit ``now``
and its outputs are data — the messages to send (:class:`Outbound`, in
send order) and, when a takeover completes, the :class:`Install`
decision — which the owning
:class:`~repro.control.controller.Controller` carries out (see
:class:`Beat`).

* **Terms as fencing tokens.**  Replica *i* only mints terms ``t``
  with ``t % replicas == i``, so two concurrent candidates never mint
  the same term and the higher one wins outright.  Agents ``nack``
  anything stamped below the highest term they saw, which carries
  depose evidence back to a leader cut off from its peers.
* **Lease-based election.**  The serving leader announces its term
  every beat; a standby whose announce silence exceeds
  ``leader_lease + index * rank_stagger`` promotes itself, so
  candidacy windows are disjoint on a healthy replica plane.
* **One place to step down.**  A leader folds higher-term evidence
  (announces, promotes, handoffs, nacks) into ``observed_term`` and
  steps down in :meth:`ReplicatedLog.settle` — at the end of the inbox
  fold and of every beat — so it never serves a beat past the evidence.
* **Handoff.**  The leader replicates the last ``handoff_window``
  adopted configurations (``state-handoff``); merging is idempotent,
  the highest term per version wins.  A promoted leader rebuilds: it
  refuses to push until its view reaches the highest applied epoch any
  agent claims, installing it from the log ("caught-up") or, after
  :data:`HANDOFF_GRACE`, adopting the bare version ("log-gap").  A
  delta base is trusted only when the agent's claimed term matches
  the log entry's: two leaders can mint one version number with
  different content.

``docs/fault_model.md`` has the failover sequence and invariants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..core.manifest import NodeManifest
from ..core.manifest_io import (
    ConfigurationWire,
    joined_size,
    json_size,
    manifest_from_dict,
)
from .epochs import EpochLogEntry
from .protocol import KIND_PROMOTE, KIND_STATE_HANDOFF, KIND_TERM_ANNOUNCE

#: Nominal wire sizes of the fixed-format replica-plane messages.
TERM_ANNOUNCE_BYTES = 56
PROMOTE_BYTES = 64

#: How long (seconds) a rebuilding leader waits for agent claims
#: before accepting a log-gap handoff (version without content).
HANDOFF_GRACE = 2.0


def replica_name(index: int, base: str = "controller") -> str:
    """Stable name of controller replica *index*.

    Replica 0 keeps the bare base name, so single-controller agent
    configurations (``AgentConfig.controller == "controller"``) address
    the initial leader unchanged.
    """
    return base if index == 0 else f"{base}-{index}"


@dataclass
class HAConfig:
    """Failover tunables (times in seconds)."""

    #: Number of controller replicas (1 = plain single controller).
    replicas: int = 3
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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_manifest_map(value: object) -> bool:
    return isinstance(value, Mapping) and all(
        isinstance(node, str) and isinstance(data, Mapping)
        for node, data in value.items()
    )


#: Each header field of a replica-plane frame and of an epoch-log
#: entry: its test, and what it must be.
_FRAME = {
    "term": (lambda term: _is_int(term) and term >= 0, "an int >= 0"),
    "leader": (lambda leader: isinstance(leader, str), "a str"),
}
_HANDOFF = dict(_FRAME, entries=(lambda entries: isinstance(entries, list), "a list"))
_ENTRY = {
    "term": (_is_int, "an int"),
    "version": (_is_int, "an int"),
    "max_acked": (_is_int, "an int"),
    "reason": (lambda reason: isinstance(reason, str), "a str"),
    "manifests": (lambda manifests: isinstance(manifests, Mapping), "a mapping"),
}


def _require(kind: str, data: object, fields: dict, where: str = "") -> None:
    for name, (valid, what) in fields.items():
        if not (isinstance(data, Mapping) and name in data and valid(data[name])):
            raise ValueError(f"malformed {kind}: {where}{name} must be {what}")


def check_header(kind: str, payload: Mapping) -> None:
    """Refuse a malformed replica-plane payload whole: a ``ValueError``
    naming *kind* and the field.

    The frame needs an int ``term`` >= 0 and a str ``leader``; a
    ``state-handoff`` also a list of ``entries``, each with int
    ``term`` / ``version`` / ``max_acked``, a str ``reason`` and a
    ``manifests`` mapping.  Only these headers are checked, O(entries):
    an entry's manifests are checked when it is adopted, before any
    is, and their contents decoded where they are installed.
    """
    if kind != KIND_STATE_HANDOFF:
        _require(kind, payload, _FRAME)
        return
    _require(kind, payload, _HANDOFF)
    for k, entry in enumerate(payload["entries"]):
        _require(kind, entry, _ENTRY, f"entries[{k}].")


class Outbound(NamedTuple):
    """One message the owner sends on the machine's behalf."""

    dst: str
    kind: str
    payload: dict
    size: int


@dataclass(frozen=True)
class Install:
    """The decision that completes a takeover."""

    #: ``"caught-up"`` (the highest applied epoch is in the log, or
    #: none was claimed) or ``"log-gap"`` (only its number is known).
    outcome: str
    #: The configuration version the new leader continues from.
    version: int
    #: The installed epoch's manifests in their wire form (its log
    #: entry was sized from it); ``None`` on a log gap.
    configuration: Optional[ConfigurationWire]
    #: Per claiming node, in name order: the ``(version, manifest)``
    #: it provably holds — a trusted delta base — or ``None``: it
    #: needs a full push.
    bases: Tuple[Tuple[str, Optional[Tuple[int, NodeManifest]]], ...]


@dataclass
class Beat:
    """What one input asks of the process that runs the machine."""

    #: Messages to send, in order (the owner is the source).
    sends: List[Outbound] = field(default_factory=list)
    #: The process leads, caught up: it runs the rest of the beat.
    serving: bool = False
    #: A standby promoted itself (minted a new term).
    elected: bool = False
    #: A leader stepped down on higher-term evidence.
    deposed: bool = False
    #: A rebuilding leader completed its handoff.
    install: Optional[Install] = None


class ReplicatedLog:
    """Replica *index*'s view of the election and the epoch log."""

    def __init__(
        self,
        index: int,
        config: HAConfig,
        base: str,
        agents: Sequence[str],
    ):
        self.index = index
        self.config = config
        self.base = base
        self.name = replica_name(index, base)
        self.peers: Tuple[str, ...] = tuple(
            replica_name(i, base) for i in range(config.replicas) if i != index
        )
        self.agents: Tuple[str, ...] = tuple(agents)
        self.role = "leader" if index == 0 else "standby"
        #: Current election term, stamped into every outbound message
        #: as a fencing token; replica-unique (``term % replicas ==
        #: index`` for every term this replica mints) and 0 forever
        #: without peers.
        self.term = 0
        #: Highest term this process has evidence of: peers' messages
        #: plus agent ``nack``s.  Above ``term`` it deposes a leader.
        self.observed_term = 0
        self.leader_name = replica_name(0, base)
        #: True between promotion and completed state handoff: the
        #: leader drains claims and refuses to push.
        self.rebuilding = False
        #: Replicated epoch log, keyed by configuration version.
        self.log: Dict[int, EpochLogEntry] = {}
        #: Per-node ``(applied_term, applied_version)`` claim from the
        #: last heartbeat; decides which delta bases survive a takeover.
        self.claims: Dict[str, Tuple[int, int]] = {}
        #: Time of the last completed handoff (``None`` for a bootstrap
        #: leader that never took over).
        self.installed_at: Optional[float] = None
        self._last_heard = 0.0
        self._promoted_at = 0.0
        #: Failover history (all zero without peers).
        self.elections = 0
        self.depositions = 0
        #: Epoch-log entries adopted from peers' ``state-handoff``s.
        self.handoff_entries = 0
        #: ``state-handoff`` broadcasts sent while leading.
        self.handoffs_sent = 0

    # -- inputs -----------------------------------------------------------
    def receive(self, message, now: float) -> bool:
        """Fold one inbox message if it is a replica-plane kind (True);
        an agent-plane one is left to the owner (False).

        Idempotent by construction: a duplicated or reordered message
        re-delivers a (term, leader) fact; adopting it twice is a
        no-op, and a *stale* replay (term below the current one) is
        ignored outright.  A malformed one is refused whole
        (:func:`check_header`), before any of it is folded.
        """
        if message.kind in (KIND_TERM_ANNOUNCE, KIND_PROMOTE, KIND_STATE_HANDOFF):
            payload = message.payload
            check_header(message.kind, payload)
            if message.kind == KIND_STATE_HANDOFF:
                self._merge_entries(payload["entries"])
            self._witness(payload["term"], payload["leader"], now)
            return True
        return False

    def nack(self, term: int) -> None:
        """An agent fenced this process for a stale term: a newer
        leader exists.  The next :meth:`settle` steps down on it."""
        self.observed_term = max(self.observed_term, term)

    def claim(self, node: str, applied_term: int, applied: int) -> None:
        """Record a heartbeat's ``(applied_term, applied_version)``."""
        self.claims[node] = (applied_term, applied)

    def restart(self, now: float) -> None:
        """The process returns — as a standby whenever it has peers.
        Term and epoch log survive (warm restart), but leadership must
        be re-earned; the announce clock restarts so a live leader's
        first announce is awaited before any candidacy.  A replica
        without peers resumes as leader: nobody could have deposed it."""
        if self.peers:
            self.role = "standby"
        self.rebuilding = False
        self._last_heard = now

    def settle(self, now: float) -> Beat:
        """Step down if the evidence holds a higher term than ours.

        A nack carries no leader name, but the term arithmetic does
        (``term % replicas`` names the minting replica).
        """
        term = self.observed_term
        if self.role != "leader" or term <= self.term:
            return Beat()
        self.role = "standby"
        self.rebuilding = False
        self.term = term
        self.leader_name = replica_name(term % self.config.replicas, self.base)
        self._last_heard = now
        self.depositions += 1
        return Beat(deposed=True)

    def open(self, now: float, version: int) -> Beat:
        """The role decision that opens a beat, after the inbox fold.

        A standby runs for office once the leader's announces go
        silent; a rebuilding leader installs the handoff once the agent
        claims catch its view up.  *version* is the owner's current
        configuration version.
        """
        if self.role != "leader":
            if not self._election_due(now):
                return Beat()
            return Beat(
                sends=self._promote(now) + self._announce(version),
                elected=True,
            )
        if not self.rebuilding:
            return Beat(serving=True)
        beat = self.settle(now)
        if self.role == "leader" and self._caught_up(now):
            beat.install = self._install(now, version)
            version = beat.install.version
        beat.sends = self._replicate(version)
        return beat

    def close(
        self,
        now: float,
        version: int,
        adopted: Optional[ConfigurationWire] = None,
        reason: str = "",
        max_acked: int = -1,
    ) -> Beat:
        """What a leader still serving at the end of a beat owes its
        peers: the term announce and the epoch-log tail, after logging
        *adopted* — the configuration current at *version*, in its wire
        form, on a beat that can adopt one."""
        beat = self.settle(now)
        if adopted is not None and self.role == "leader" and self.peers:
            self._log_epoch(version, adopted, reason, max_acked)
        beat.sends = self._replicate(version)
        return beat

    # -- election ---------------------------------------------------------
    def _next_term(self, floor: int) -> int:
        """Smallest term above *floor* that this replica may mint."""
        n = self.config.replicas
        candidate = floor + 1
        return candidate + ((self.index - candidate) % n)

    def _witness(self, term: int, leader: str, now: float) -> None:
        """Fold one piece of (term, leader) evidence into local state.

        A leader only records it: :meth:`settle` steps down on it.
        """
        if term > self.observed_term:
            self.observed_term = term
        if self.role == "leader" or term < self.term:
            return
        if term > self.term:
            self.term = term
            self.leader_name = leader
            self.rebuilding = False
            self._last_heard = now
        elif leader == self.leader_name:
            # A repeat of a known fact: refresh the announce clock.  A
            # replayed promote for our own term changes nothing.
            self._last_heard = now

    def _election_due(self, now: float) -> bool:
        timeout = self.config.leader_lease + self.index * self.config.rank_stagger
        return now - self._last_heard > timeout + 1e-9

    def _promote(self, now: float) -> List[Outbound]:
        """Standby takeover: mint a fresh replica-unique term and enter
        the rebuilding phase."""
        self.term = self._next_term(max(self.term, self.observed_term))
        self.role = "leader"
        self.leader_name = self.name
        self.rebuilding = True
        self._promoted_at = now
        self._last_heard = now
        self.elections += 1
        payload = {"term": self.term, "leader": self.name}
        return [
            Outbound(peer, KIND_PROMOTE, payload, PROMOTE_BYTES)
            for peer in self.peers
        ]

    def _announce(self, version: int) -> List[Outbound]:
        """The current term, to peers and agents.

        The agent-bound copy is stamped ``lease: False``: an announce
        proves leadership, not configuration authority, so it must not
        refresh the lease of a node the leader has fenced.
        """
        payload = {
            "term": self.term,
            "leader": self.name,
            "version": version,
            "lease": False,
        }
        return [
            Outbound(dst, KIND_TERM_ANNOUNCE, payload, TERM_ANNOUNCE_BYTES)
            for dst in self.peers + self.agents
        ]

    def _replicate(self, version: int) -> List[Outbound]:
        """A serving leader's announce and epoch-log tail.  A replica
        without peers has nobody to replicate to — and announcing a
        term no election can contest would only add bus traffic."""
        if self.role != "leader" or not self.peers:
            return []
        return self._announce(version) + self._send_handoff()

    # -- epoch log --------------------------------------------------------
    def _merge_entries(self, entries: Sequence[dict]) -> None:
        """Adopt epoch-log entries from a handoff, idempotently, all or
        none: every entry to adopt is decoded before the first is.

        Per version, the highest-term content wins; re-delivery of an
        already-held entry is a no-op, so duplicated or reordered
        handoffs cannot perturb the log.  An entry to adopt must map
        node names to manifest mappings, or the handoff is refused.
        """
        held: Dict[int, EpochLogEntry] = {}
        fresh = []
        for k, data in enumerate(entries):
            version = data["version"]
            existing = held.get(version, self.log.get(version))
            if existing is not None and existing.term >= data["term"]:
                continue
            if not _is_manifest_map(data["manifests"]):
                raise ValueError(
                    f"malformed {KIND_STATE_HANDOFF}: entries[{k}].manifests"
                    " must map str to mappings"
                )
            entry = held[version] = EpochLogEntry.from_dict(data)
            fresh.append(entry)
        for entry in fresh:
            self.log[entry.version] = entry
            self.handoff_entries += 1

    def _log_epoch(
        self,
        version: int,
        adopted: ConfigurationWire,
        reason: str,
        max_acked: int,
    ) -> None:
        """Record the adopted configuration in the epoch log: each
        node's manifest dict as the pushes share it, with its size."""
        if version < 0 or not adopted:
            return
        existing = self.log.get(version)
        if existing is not None and existing.term >= self.term:
            return
        logged = adopted.log()
        self.log[version] = EpochLogEntry(
            term=self.term,
            version=version,
            reason=reason,
            max_acked=max_acked,
            manifests=tuple((node, wire.data) for node, wire in logged),
            manifest_sizes=tuple(wire.size for _node, wire in logged),
        )

    def _send_handoff(self) -> List[Outbound]:
        """The tail of the epoch log, to every peer.  Sent on every
        serving beat; merging is idempotent, so re-sends are the
        reliability mechanism (there are no handoff acks)."""
        if not self.log:
            return []
        versions = sorted(self.log)[-self.config.handoff_window:]
        entries = [self.log[v] for v in versions]
        frame = {"term": self.term, "leader": self.name, "entries": []}
        # ``json_size`` of the payload without encoding it again: the
        # empty frame, then each entry's own encoding joined by ", ".
        size = json_size(frame) + joined_size(entry.json_size for entry in entries)
        payload = dict(frame, entries=[entry.to_dict() for entry in entries])
        self.handoffs_sent += 1
        return [
            Outbound(peer, KIND_STATE_HANDOFF, payload, size)
            for peer in self.peers
        ]

    # -- handoff ----------------------------------------------------------
    def _highest_observed(self) -> int:
        """Highest applied epoch in sight: agent claims ∪ own log
        (-1 when neither holds one)."""
        claims = [version for _term, version in self.claims.values()]
        return max(claims + list(self.log), default=-1)

    def _caught_up(self, now: float) -> bool:
        """Whether the rebuilding leader's view reaches the highest
        applied epoch observed, or the grace for getting there lapsed."""
        if now - self._promoted_at >= HANDOFF_GRACE:
            return True
        if not self.claims:
            # No agent has confirmed its applied state to this leader
            # yet; keep draining until one does.
            return False
        highest = self._highest_observed()
        return highest < 0 or highest in self.log

    def _install(self, now: float, version: int) -> Install:
        """Complete the handoff: adopt the highest observed epoch.

        With the epoch in the log ("caught-up") its manifests are
        installed and each claiming agent's delta base is reseeded —
        but only where the claimed *term* matches the log entry's term,
        because a same-version different-term delta base would corrupt
        the agent's manifest.  Without it ("log-gap") only the version
        number is adopted: pushes stay refused until the next re-solve
        mints fresh content above every number any agent has applied.
        """
        highest = self._highest_observed()
        entry = self.log.get(highest)
        bases = []
        for node in sorted(self.claims):
            claimed_term, claimed_version = self.claims[node]
            source = self.log.get(claimed_version)
            held = (
                dict(source.manifests).get(node)
                if source is not None and source.term == claimed_term
                else None
            )
            if claimed_version >= 0 and held is not None:
                bases.append((node, (claimed_version, manifest_from_dict(held))))
            else:
                bases.append((node, None))
        configuration = None
        if entry is not None:
            # A handed-off entry has no manifest sizes: take them from the
            # install's encodings (the owner's next version reuses them).
            configuration = ConfigurationWire(entry.manifest_objects())
            self.log[highest] = dataclasses.replace(
                entry, manifest_sizes=tuple(wire.size for _node, wire in configuration.log())
            )
        self.rebuilding = False
        # The installed configuration is by construction *stale* (it
        # predates the takeover), and the first re-plan after it may
        # still miss agents that have not yet reported to this leader;
        # the chaos monitor excludes that bounded handoff window.
        self.installed_at = now
        return Install(
            outcome="caught-up" if highest < 0 or entry is not None else "log-gap",
            version=max(version, highest) if highest >= 0 else version,
            configuration=configuration,
            bases=tuple(bases),
        )
