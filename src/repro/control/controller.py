"""The operations-center controller (paper §2.2 "operations center",
§5 dynamics).

"A centralized operations center periodically configures the NIDS
responsibilities of the different nodes."  The :class:`Controller`
closes that loop at runtime:

1. **Ingest** — per-agent NetFlow reports and heartbeats arrive over
   the (lossy) management bus; the latest report per ingress is cached
   so a silent node's traffic is still planned from its last word.
2. **Decide** — each epoch the controller re-plans when (a) it has
   never planned ("bootstrap"), (b) a failed node recovered
   ("recovery": full LP re-solve reintegrating it), (c) heartbeats
   timed out ("failure": *targeted* redistribution of just the dead
   node's hash ranges — see :mod:`repro.control.failure`), (d) the
   measured traffic drifted materially ("drift"), or (e) a periodic
   refresh is due ("periodic").
3. **Distribute** — new manifests are stabilized against the previous
   epoch (sub-tolerance churn suppressed per unit), statically
   verified by a fail-closed gate (:mod:`repro.analysis.verify`; a
   rejected configuration is counted and the previous one stays
   active), then pushed to
   each agent as an epoch-versioned **delta** against the manifest
   that agent last acknowledged — falling back to a full manifest when
   the delta would be larger, when the agent requests a resync, or on
   cold start.  Unacknowledged pushes are retried; per-agent
   acknowledged state makes every push idempotent.

4. **Stay available** — a :class:`Controller` is one controller
   *process*: replica ``index`` of ``HAConfig.replicas`` on the same
   bus, named :func:`replica_name`.  Replica 0 boots as leader, the
   rest as warm standbys; a bare ``Controller(...)`` has no peers and
   is simply the leader forever.

   * **Terms as fencing tokens.**  Every controller→agent message is
     stamped with the leader's election *term*
     (:meth:`Controller._transmit`).  Terms are replica-unique by
     construction — replica *i* only ever mints terms ``t`` with
     ``t % replicas == i`` — so two concurrent candidates can never
     mint the same term, and the numerically higher term wins outright.
     Agents track the highest term witnessed and ``nack`` anything
     older (:meth:`Agent._accept_term`), which both fences the deposed
     leader's pushes/leases *and* carries depose evidence back to it
     through the agent plane even when the replicas are partitioned
     from each other.
   * **Deterministic lease-based election.**  The serving leader
     broadcasts ``term-announce`` every beat.  A standby whose announce
     silence exceeds ``leader_lease + index * rank_stagger`` promotes
     itself; the per-index stagger makes candidacy windows disjoint, so
     in the common path exactly one standby runs for office.
   * **Split-brain-proof state handoff.**  The leader replicates an
     epoch log (``state-handoff``: the last ``handoff_window`` adopted
     configurations, term-stamped).  A freshly promoted leader enters
     a *rebuilding* phase: it drains agent heartbeats (which carry each
     agent's ``(applied_term, applied_version)`` claim) and refuses to
     push anything until its view covers the highest applied epoch it
     has observed — either by installing that epoch from its log, or,
     past a grace period, by adopting the bare version number (a
     "log-gap" handoff) so no epoch number is ever minted twice.  Delta
     bases are only trusted when the agent's claimed term matches the
     log entry's term: two leaders can mint the same version *number*
     with different content, and a cross-term delta would silently
     corrupt manifests.
   * **One inbox, replica plane first.**  Peers and agents write to the
     same address; each beat delivers it once (:meth:`Controller._drain`)
     and folds the replica-plane kinds before deciding its role and
     only then handles — or, as a standby, drops — the agent-plane
     kinds.

   :class:`~repro.control.ha.HACluster` is the set of such processes;
   ``docs/fault_model.md`` has the failover sequence and invariants.

Re-solving uses the same LP as offline planning; a custom ``solve_fn``
(e.g. an FPL-style adapter from :mod:`repro.core.online` for
adversarially shifting inputs) can be plugged in.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.verify import (
    VerificationReport,
    check_on_path,
    verify_deployment,
)
from ..core.dispatch import UnitResolver
from ..core.manifest import generate_manifests, NodeManifest
from ..core.manifest_io import (
    manifest_diff,
    manifest_from_dict,
    manifest_to_dict,
)
from ..core.nids_deployment import NIDSDeployment
from ..core.nids_lp import NIDSAssignment, solve_nids_lp
from ..core.reconfigure import plan_transition
from ..core.units import CoordinationUnit
from ..hashing.ranges import HashRange
from ..measurement.estimation import EstimationModel, estimate_units
from ..measurement.flows import TrafficReport
from ..nids.modules.base import ModuleSpec
from ..obs import MetricsRegistry, NULL_REGISTRY
from ..topology.graph import Topology
from ..topology.routing import PathSet
from .protocol import (
    KIND_ACK,
    KIND_HEARTBEAT,
    KIND_LEASE_RENEW,
    KIND_MANIFEST_UPDATE,
    KIND_NACK,
    KIND_PROMOTE,
    KIND_REPORT,
    KIND_RESYNC_REQUEST,
    KIND_STATE_HANDOFF,
    KIND_TERM_ANNOUNCE,
)
from .bus import Bus
from .epochs import (
    EPOCH_SECONDS,
    LEASE_TTL,
    check_lease_ttl,
    EpochLogEntry,
    EpochRecord,
    Ident,
    merge_reports,
    stabilize_manifests,
)
from .failure import HeartbeatMonitor, RepairResult, repair_manifests

SolveFn = Callable[[Sequence[CoordinationUnit], Topology, float], NIDSAssignment]

#: Nominal wire sizes of the fixed-format messages.
LEASE_BYTES = 48
TERM_ANNOUNCE_BYTES = 56
PROMOTE_BYTES = 64

#: How long (seconds) a rebuilding leader waits for agent claims
#: before accepting a log-gap handoff (version without content).
HANDOFF_GRACE = 2.0

#: How many superseded pushes per node are remembered as potential
#: delta bases for late acks.
PUSH_HISTORY_LIMIT = 8

#: Ceiling on the exponential push-retry delay (seconds).
RETRY_BACKOFF_CAP = 3.6
#: Fractional jitter applied (downward) from the second retry on,
#: de-synchronizing retry storms across agents after an outage.
RETRY_JITTER = 0.25
#: Relative L1 drift of per-class volumes that triggers a re-solve.
DRIFT_THRESHOLD = 0.2


def replica_name(index: int, base: str = "controller") -> str:
    """Stable name of controller replica *index*.

    Replica 0 keeps the bare base name, so single-controller agent
    configurations (``AgentConfig.controller == "controller"``) address
    the initial leader unchanged.
    """
    return base if index == 0 else f"{base}-{index}"


@dataclass
class ControllerConfig:
    """Operations-center tunables (times in seconds)."""

    #: Base process name: replica *i* is ``replica_name(i, name)``.
    name: str = "controller"
    #: Silence after which a node is declared failed (> 2 heartbeat
    #: intervals so a single lost heartbeat is not a false positive).
    heartbeat_timeout: float = 2.2
    #: Base delay before resending an unacknowledged push (the first
    #: retry).  Below half an epoch so both controller beats (decision
    #: at ``t+0.25``, ack collection at ``t+0.75``) can retry a lost
    #: push — the two-beat schedule is preserved because the first
    #: retry is never jittered.
    retry_backoff: float = 0.45
    #: Seed for the retry-jitter RNG (REP002: no unseeded randomness).
    retry_seed: int = 0
    #: Epoch-lease TTL handed to agents.  Must exceed the epoch
    #: duration so a healthy controller renews well before expiry.
    lease_ttl: float = LEASE_TTL
    #: Re-solve at least every this many epochs regardless of drift
    #: (the paper's periodic reconfiguration); 0 disables.
    resolve_every: int = 4
    #: Per-unit churn suppression tolerance (hash-range endpoints).
    stabilize_tolerance: float = 0.02
    #: Redundancy level r passed to the LP.
    coverage: float = 1.0
    estimation: EstimationModel = field(default_factory=EstimationModel)

    def __post_init__(self) -> None:
        check_lease_ttl(self.lease_ttl)


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


@dataclass
class PushState:
    """One outstanding (or acknowledged) manifest push to one agent."""

    version: int
    mode: str  # "full" | "delta"
    payload: dict
    size_bytes: int
    full_bytes: int
    #: The manifest the agent holds after applying this push.
    manifest: NodeManifest
    first_sent: float
    last_sent: float
    acked_at: Optional[float] = None
    #: Retransmissions so far (0 = only the initial send).
    attempts: int = 0
    #: Absolute time after which the next retransmission is due.
    next_retry_at: float = 0.0


@dataclass
class ControllerStats:
    """Cumulative controller counters."""

    resolves: int = 0
    repairs: int = 0
    #: Configurations refused by the pre-distribution static verifier.
    rejections: int = 0
    pushes_full: int = 0
    pushes_delta: int = 0
    retries: int = 0
    push_bytes: int = 0
    full_equivalent_bytes: int = 0
    #: Live nodes fenced after self-reporting edge-only degradation.
    fences: int = 0
    #: Acks for superseded epochs still credited as delta bases.
    superseded_acks: int = 0
    #: Failover history (all zero for a controller without peers).
    elections: int = 0
    depositions: int = 0
    #: Epoch-log entries adopted from peers' ``state-handoff``s.
    handoff_entries: int = 0
    #: ``state-handoff`` broadcasts sent while leading.
    handoffs_sent: int = 0


def _json_size(payload: dict) -> int:
    return len(json.dumps(payload, sort_keys=True))


class Controller:
    """One epoch-clocked operations-center process over a simulated bus."""

    #: Mutation switch for the seeded fault-injection tests: with HA
    #: fencing disabled a deposed leader ignores higher-term evidence
    #: and keeps serving, and the chaos ``leader-uniqueness`` invariant
    #: must catch it.
    _ha_fencing = True

    def __init__(
        self,
        topology: Topology,
        paths: PathSet,
        modules: Sequence[ModuleSpec],
        bus: Bus,
        config: Optional[ControllerConfig] = None,
        solve_fn: Optional[SolveFn] = None,
        registry: Optional[MetricsRegistry] = None,
        index: int = 0,
        ha_config: Optional[HAConfig] = None,
    ):
        self.topology = topology
        self.paths = paths
        self.modules = list(modules)
        self.bus = bus
        self.config = config or ControllerConfig()
        self.ha_config = ha_config or HAConfig(replicas=1)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.solve_fn = solve_fn or (
            lambda units, topo, coverage: solve_nids_lp(units, topo, coverage)
        )
        self.monitor = HeartbeatMonitor(
            topology.node_names, self.config.heartbeat_timeout
        )
        self.stats = ControllerStats()

        self.index = index
        self.name = replica_name(index, self.config.name)
        self.peers: Tuple[str, ...] = tuple(
            replica_name(i, self.config.name)
            for i in range(self.ha_config.replicas)
            if i != index
        )
        self.alive = True
        self.role = "leader" if index == 0 else "standby"
        #: Current election term, stamped into every outbound message
        #: as a fencing token; replica-unique (``term % replicas ==
        #: index`` for every term this replica mints) and 0 forever
        #: without peers.
        self.term = 0
        #: Highest term this process has evidence of: peers' announces
        #: plus agent ``nack``s.  Above ``term`` it deposes a leader.
        self.observed_term = 0
        self.leader_name = replica_name(0, self.config.name)
        #: True between promotion and completed state handoff: the
        #: leader drains claims and refuses to push.
        self.rebuilding = False
        #: Replicated epoch log, keyed by configuration version.
        self.log: Dict[int, EpochLogEntry] = {}
        #: Time of the last completed handoff (``None`` for a bootstrap
        #: leader that never took over).
        self.installed_at: Optional[float] = None
        self._last_heard = 0.0
        self._promoted_at = 0.0

        #: Latest NetFlow report per reporting node (stale entries are
        #: deliberately kept: a dead NIDS does not stop the traffic).
        self.reports: Dict[str, TrafficReport] = {}
        #: Per-node (applied_term, applied_version) claim from the last
        #: heartbeat; a rebuilding leader uses it to decide which delta
        #: bases it may trust across a takeover.
        self.reported_applied: Dict[str, Tuple[int, int]] = {}
        self.version = -1
        self.deployment: Optional[NIDSDeployment] = None
        self.manifests: Dict[str, NodeManifest] = {}
        self.planned_units: List[CoordinationUnit] = []
        self.last_repair: Optional[RepairResult] = None
        #: Manifest content each agent last acknowledged applying.
        self.acked_manifests: Dict[str, NodeManifest] = {}
        self.acked_version: Dict[str, int] = {
            name: -1 for name in topology.node_names
        }
        self.outstanding: Dict[str, PushState] = {}
        self.needs_full: Set[str] = set()
        self._recovered: Set[str] = set()
        #: Live nodes that self-reported edge-only degradation: treated
        #: like failed for planning until they report healthy again.
        self.fenced: Set[str] = set()
        self._fence_event = False
        #: Recently superseded pushes per node, so a late ack for an
        #: old epoch can still establish a delta base.
        self._pushed_history: Dict[str, List[PushState]] = {}
        self._retry_rng = random.Random(self.config.retry_seed)
        self._reference_class_cpu: Dict[str, float] = {}
        self._last_resolve_epoch: Optional[int] = None
        # Per-epoch scratch, reset by step().
        self._epoch = EpochRecord(epoch=-1, time=0.0)
        self._epoch_lags: List[float] = []
        # The health families that only record on rare events are
        # declared here, so every snapshot carries them (value 0 ≠
        # absent).  The failover families exist only with peers to fail
        # over to.
        registry = self.registry
        failover = registry if self.peers else NULL_REGISTRY
        self._push_retries = registry.counter(
            "controller_push_retries_total",
            "unacknowledged pushes retransmitted, by backoff attempt",
            labels=("attempt",),
        )
        self._repairs = registry.counter(
            "controller_repairs_total",
            "targeted failure-repair redistributions",
        )
        self._lease_fences = registry.counter(
            "controller_lease_fences_total",
            "live nodes fenced after self-reporting degradation",
            labels=("node",),
        )
        self._superseded_acks = registry.counter(
            "controller_superseded_acks_total",
            "acknowledgements for superseded epochs credited as"
            " delta bases",
        )
        self._rejections = registry.counter(
            "controller_manifest_rejections_total",
            "configurations refused by the pre-distribution static"
            " verifier, by violated invariant",
            labels=("rule",),
        )
        self._heartbeat_failures = registry.counter(
            "heartbeat_failures_total",
            "nodes declared failed after missed heartbeats",
            labels=("node",),
        )
        self._elections = failover.counter(
            "controller_ha_elections_total",
            "standby promotions to acting leader",
            labels=("replica",),
        )
        self._depositions = failover.counter(
            "controller_ha_depositions_total",
            "acting leaders stepping down on higher-term evidence",
            labels=("replica",),
        )
        self._handoffs = failover.counter(
            "controller_ha_handoffs_total",
            "completed leader state handoffs by outcome",
            labels=("outcome",),
        )

    # -- failure model ----------------------------------------------------
    def crash(self) -> None:
        """Controller process dies: no beats, no sends, inbox lost."""
        self.alive = False

    def restart(self, now: float) -> None:
        """Process returns — as a standby whenever it has peers.  Term,
        epoch log, and planning state survive (warm restart), but
        leadership must be re-earned through an election; the announce
        clock restarts so a live leader's first announce is awaited
        before any candidacy.  A replica without peers resumes as
        leader: nobody could have deposed it."""
        self.alive = True
        if self.peers:
            self.role = "standby"
        self.rebuilding = False
        self._last_heard = now

    # -- inbox ------------------------------------------------------------
    def _drain(self, now: float) -> None:
        """Deliver this process's one inbox.

        The order is a protocol invariant: replica-plane kinds are
        folded first (in delivery order), then the role is decided,
        then the agent-plane kinds are handled by a leader (serving or
        rebuilding) and dropped by a standby — so a leader deposed this
        beat credits nothing it received as leader, and a later
        promotion can never replay a stale backlog.
        """
        agent_plane = []
        for message in self.bus.deliver(self.name, now):
            if message.kind in (
                KIND_TERM_ANNOUNCE, KIND_PROMOTE, KIND_STATE_HANDOFF
            ):
                # Idempotent by construction: a duplicated or reordered
                # message re-delivers a (term, leader) fact; adopting it
                # twice is a no-op, and a *stale* replay (term below the
                # current one) is ignored outright by _witness.
                payload = message.payload
                self._witness(
                    payload.get("term", 0),
                    payload.get("leader", message.src),
                    now,
                )
                if message.kind == KIND_STATE_HANDOFF:
                    self._merge_entries(payload.get("entries", ()))
            else:
                agent_plane.append(message)
        self._maybe_demote(now)
        if self.role != "leader":
            return
        for message in agent_plane:
            if message.kind == KIND_HEARTBEAT:
                node = message.payload["node"]
                self.reported_applied[node] = (
                    message.payload.get("applied_term", 0),
                    message.payload.get("applied", -1),
                )
                if self.monitor.beat(node, now):
                    self._recovered.add(node)
                    self.needs_full.add(node)
                    self.acked_manifests.pop(node, None)
                    self.acked_version[node] = -1
                    self.outstanding.pop(node, None)
                    # Pre-crash pushes must not be credited as bases.
                    self._pushed_history.pop(node, None)
                self._track_degradation(
                    node, bool(message.payload.get("degraded"))
                )
            elif message.kind == KIND_REPORT:
                self.reports[message.src] = message.payload
            elif message.kind == KIND_ACK:
                self._handle_ack(message.payload, now)
            elif message.kind == KIND_RESYNC_REQUEST:
                # Warm-restarted agent refusing its on-disk state: drop
                # everything we believed about it and send a full
                # manifest on the next push beat.
                node = message.payload["node"]
                self.needs_full.add(node)
                self.acked_manifests.pop(node, None)
                self.acked_version[node] = -1
                self.outstanding.pop(node, None)
                self._pushed_history.pop(node, None)
            elif message.kind == KIND_NACK:
                # An agent fenced us for carrying a stale term: a newer
                # leader exists.  Record the evidence; the beat's
                # closing demote steps down on it.
                self.observed_term = max(
                    self.observed_term, message.payload.get("term", 0)
                )

    def _track_degradation(self, node: str, degraded: bool) -> None:
        """Fence/unfence a live node from its self-reported lease state.

        A degraded node is serving edge-only: its coordinated ranges
        are effectively unstaffed, so it is treated like a failed node
        for planning (fenced) until it reports healthy again — at which
        point it re-enters through the same recovery path as a restart.
        """
        if degraded and node not in self.fenced:
            self.fenced.add(node)
            self._fence_event = True
            self.stats.fences += 1
            self._lease_fences.inc(node=node)
        elif not degraded and node in self.fenced:
            self.fenced.discard(node)
            self._recovered.add(node)

    def _handle_ack(self, payload: dict, now: float) -> None:
        node = payload["node"]
        state = self.outstanding.get(node)
        if state is None or payload["version"] != state.version:
            # Ack for a superseded push.  If the agent *applied* that
            # old epoch, remember it: it is a perfectly good delta base
            # for the current push, sparing a full-manifest fallback.
            if payload.get("status") == "applied":
                for old in self._pushed_history.get(node, ()):
                    if old.version != payload["version"]:
                        continue
                    if (
                        node not in self.needs_full
                        and self.acked_version.get(node, -1) < old.version
                    ):
                        self.acked_version[node] = old.version
                        self.acked_manifests[node] = old.manifest
                        self.stats.superseded_acks += 1
                        self._superseded_acks.inc()
                    break
            return
        if payload["status"] == "resync":
            # The agent cannot apply our delta (lost base); switch this
            # node to full pushes and resend immediately-ish.
            self.needs_full.add(node)
            self.acked_manifests.pop(node, None)
            self.outstanding.pop(node, None)
            return
        if state.acked_at is None:
            state.acked_at = now
            self._epoch_lags.append(now - state.first_sent)
        self.acked_version[node] = state.version
        self.acked_manifests[node] = state.manifest
        self.needs_full.discard(node)

    # -- planning ---------------------------------------------------------
    def _estimated_units(self) -> List[CoordinationUnit]:
        merged = merge_reports(self.reports.values())
        return estimate_units(
            self.modules, merged, self.paths, self.config.estimation
        )

    @staticmethod
    def _class_cpu(units: Sequence[CoordinationUnit]) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for unit in units:
            totals[unit.class_name] = totals.get(unit.class_name, 0.0) + unit.cpu_work
        return totals

    def _drift(self, units: Sequence[CoordinationUnit]) -> float:
        """Relative L1 distance of per-class CPU volumes vs. the last
        re-solve's inputs (class-level, so per-unit sampling noise does
        not masquerade as a traffic change)."""
        reference = self._reference_class_cpu
        if not reference:
            return float("inf")
        current = self._class_cpu(units)
        baseline = sum(reference.values())
        if baseline <= 0:
            return float("inf")
        classes = set(reference) | set(current)
        l1 = sum(
            abs(current.get(c, 0.0) - reference.get(c, 0.0)) for c in classes
        )
        return l1 / baseline

    def _unavailable(self) -> Set[str]:
        """Nodes that must not hold coordinated responsibility: failed
        (dead process) or fenced (alive but serving edge-only).

        Exception: when *every* live node is fenced, the degradation
        was caused by the controller's own absence rather than node
        faults, and excluding them all would plan an empty (zero
        coverage) configuration.  Plan over the full live set instead —
        the resulting push re-arms each agent's lease and epoch fence
        in one round, so they exit fallback straight into a complete
        configuration.
        """
        failed = set(self.monitor.failed)
        if any(
            self.monitor.alive(node) and node not in self.fenced
            for node in self.topology.node_names
        ):
            return failed | self.fenced
        return failed

    def _live_fenced(self) -> Set[str]:
        return {n for n in self.fenced if self.monitor.alive(n)}

    def _exclude_failed(
        self, units: Sequence[CoordinationUnit]
    ) -> List[CoordinationUnit]:
        unavailable = self._unavailable()
        if not unavailable:
            return list(units)
        live_fenced = self._live_fenced()
        surviving = []
        for unit in units:
            eligible = tuple(
                n for n in unit.eligible if n not in unavailable
            )
            if not eligible:
                # Sole-eligible holders are fenced but alive: keep the
                # unit planned on them rather than dropping it.  A
                # sole-eligible node is the unit's endpoint, so its
                # edge-only fallback already analyzes the traffic while
                # degraded — and the planned entry means coordinated
                # service resumes the instant the node exits fallback,
                # instead of the unit going dark in the handoff epoch.
                eligible = tuple(
                    n for n in unit.eligible if n in live_fenced
                )
            if not eligible:
                continue  # unobservable while its only nodes are down
            if eligible != unit.eligible:
                unit = dataclasses.replace(unit, eligible=eligible)
            surviving.append(unit)
        return surviving

    def _resolve(
        self,
        now: float,
        reason: str,
        estimated: Optional[List[CoordinationUnit]] = None,
    ) -> None:
        """Full re-plan: estimate → LP → manifests → stabilize.

        *estimated* is this beat's estimate when the trigger check
        already made one from the same reports.
        """
        self.registry.counter(
            "controller_resolves_total",
            "full re-plans by trigger",
            labels=("reason",),
        ).inc(reason=reason)
        if estimated is None:
            estimated = self._estimated_units()
        self._reference_class_cpu = self._class_cpu(estimated)
        units = self._exclude_failed(estimated)
        assignment = self.solve_fn(units, self.topology, self.config.coverage)
        proposed = generate_manifests(units, assignment, self.topology.node_names)
        allowed: Dict[Ident, Set[str]] = {
            unit.ident: set(unit.eligible) for unit in units
        }
        if self.manifests:
            stabilized, _changed = stabilize_manifests(
                self.manifests,
                proposed,
                self.config.stabilize_tolerance,
                allowed=allowed,
            )
        else:
            stabilized = proposed
        if not self._gate(units, stabilized, stage="resolve"):
            # Fail closed: the previous configuration stays active and
            # the next epoch's trigger logic will attempt a fresh plan.
            return
        self._adopt(stabilized, units, assignment, now, reason)
        self.stats.resolves += 1
        self._last_resolve_epoch = self._epoch.epoch

    def _gate(
        self,
        units: Sequence[CoordinationUnit],
        manifests: Dict[str, NodeManifest],
        stage: str,
    ) -> bool:
        """Fail-closed pre-distribution gate (static verification).

        Full re-plans must satisfy the partition *and* on-path
        invariants; failure repairs only the on-path one (a repair may
        legitimately leave orphaned mass uncovered when a unit's whole
        eligible set is down, but must never move mass off-path).  The
        manifest-vs-``d*`` match is deliberately not checked here:
        churn stabilization keeps manifests up to its tolerance away
        from the fresh optimum by design.
        """
        if stage == "repair":
            report = VerificationReport(
                findings=check_on_path(units, manifests), checks=("on-path",)
            )
        else:
            report = verify_deployment(units, manifests)
        if report.ok:
            return True
        self.stats.rejections += 1
        for rule_id in report.rule_ids():
            self._rejections.inc(rule=rule_id)
        return False

    def _repair(self, now: float) -> None:
        """Targeted redistribution of the failed nodes' hash ranges."""
        result = repair_manifests(
            self.manifests, self.planned_units, self.topology, self._unavailable()
        )
        self._restore_fenced_singletons(result)
        self.last_repair = result
        assignment = (
            self.deployment.assignment if self.deployment is not None else None
        )
        if not self._gate(self.planned_units, result.manifests, stage="repair"):
            return
        self._adopt(result.manifests, self.planned_units, assignment, now, "failure")
        self.stats.repairs += 1
        self._repairs.inc()
        if result.orphaned:
            self.registry.gauge(
                "repair_orphaned_mass",
                "hash-space mass with no live eligible node after the last repair",
            ).set(sum(mass for _ident, mass in result.orphaned))

    def _restore_fenced_singletons(self, result: RepairResult) -> None:
        """Re-home repair-orphaned units whose only live eligible node
        is fenced.

        The repair treats fenced nodes like failed ones, so a unit
        observable only at a fenced node comes back orphaned.  But the
        node is *alive* — merely serving edge-only — and, being the
        unit's sole possible observer, it is one of the unit's
        endpoints: its fallback stance analyzes that traffic already.
        Assigning the full hash range back to it keeps the planned
        configuration aligned with that reality, so the unit never goes
        dark in the epoch between the node exiting fallback and the
        recovery re-plan.
        """
        live_fenced = self._live_fenced()
        if not live_fenced or not result.orphaned:
            return
        units_by_ident = {unit.ident: unit for unit in self.planned_units}
        still_orphaned: List[tuple] = []
        for ident, mass in result.orphaned:
            unit = units_by_ident.get(ident)
            holders = sorted(
                n for n in (unit.eligible if unit is not None else ())
                if n in live_fenced
            )
            if not holders:
                still_orphaned.append((ident, mass))
                continue
            result.manifests[holders[0]].entries[ident] = (
                HashRange(0.0, 1.0),
            )
        result.orphaned[:] = still_orphaned

    def _adopt(
        self,
        manifests: Dict[str, NodeManifest],
        units: Sequence[CoordinationUnit],
        assignment: Optional[NIDSAssignment],
        now: float,
        reason: str,
    ) -> None:
        """Install a new configuration version and compute transition
        metrics against the outgoing one."""
        self.version += 1
        previous = self.deployment
        if assignment is not None:
            self.deployment = NIDSDeployment(
                topology=self.topology,
                paths=self.paths,
                modules=self.modules,
                units=list(units),
                assignment=assignment,
                manifests=manifests,
                resolver=UnitResolver(self.topology.node_names),
            )
        old_manifests = self.manifests
        self.manifests = manifests
        self.planned_units = list(units)
        self._epoch.resolved = reason
        self._epoch.config_version = self.version
        if previous is not None and self.deployment is not None:
            plan = plan_transition(previous, self.deployment)
            total = sum(u.pkts for u in self.deployment.units)
            if total > 0:
                duplicated = sum(
                    u.pkts * plan.duplicated_fraction(u.class_name, u.key)
                    for u in self.deployment.units
                )
                self._epoch.duplicated_fraction = duplicated / total
        self._epoch.unchanged_entry_fraction = self._unchanged_fraction(
            old_manifests, manifests
        )

    @staticmethod
    def _unchanged_fraction(
        old: Dict[str, NodeManifest], new: Dict[str, NodeManifest]
    ) -> float:
        """Fraction of (node, unit) entries identical across versions."""
        keys = {
            (node, ident)
            for node, manifest in old.items()
            for ident in manifest.entries
        } | {
            (node, ident)
            for node, manifest in new.items()
            for ident in manifest.entries
        }
        if not keys:
            return 1.0
        unchanged = sum(
            1
            for node, ident in keys
            if node in old
            and node in new
            and old[node].entries.get(ident) == new[node].entries.get(ident)
        )
        return unchanged / len(keys)

    # -- distribution -----------------------------------------------------
    def _sync_pushes(self, now: float) -> None:
        """(Re)send manifests to every live agent not yet holding the
        current configuration.  Pushes are idempotent and versioned, so
        resending after loss is always safe."""
        if self.version < 0 or not self.manifests:
            # A freshly promoted leader can know the cluster reached
            # some version without holding its content (epoch-log gap):
            # refusing to push beats pushing a fabricated manifest.
            return
        for node in self.topology.node_names:
            if not self.monitor.alive(node):
                continue
            target = self.manifests[node]
            acked = self.acked_manifests.get(node)
            if (
                acked is not None
                and acked.entries == target.entries
                and acked.full == target.full
                and self.acked_version.get(node, -1) >= self.version
            ):
                # Agent holds equivalent content at the current version.
                # The version itself is load-bearing (the epoch fence
                # compares it against lease announcements): until it is
                # acknowledged, an empty delta carries it.
                continue
            state = self.outstanding.get(node)
            if state is not None and state.acked_at is None:
                if state.manifest is self.manifests[node] or (
                    state.version == self.version
                    and state.manifest.entries == target.entries
                ):
                    # Current push still in flight; retry once its
                    # backoff deadline passes.
                    if now >= state.next_retry_at:
                        self._transmit(node, state, now, retry=True)
                    continue
            self._push(node, target, now)

    def _push(self, node: str, target: NodeManifest, now: float) -> None:
        full_payload_data = manifest_to_dict(target)
        full_bytes = _json_size(full_payload_data)
        base = self.acked_manifests.get(node)
        mode = "full"
        data = full_payload_data
        size = full_bytes
        base_version: Optional[int] = None
        if base is not None and node not in self.needs_full:
            delta = manifest_diff(base, target)
            delta_bytes = _json_size(delta)
            if delta_bytes < full_bytes:
                mode = "delta"
                data = delta
                size = delta_bytes
                base_version = self.acked_version[node]
        payload = {
            "version": self.version,
            "mode": mode,
            "base": base_version,
            "data": data,
        }
        state = PushState(
            version=self.version,
            mode=mode,
            payload=payload,
            size_bytes=size,
            full_bytes=full_bytes,
            manifest=target,
            first_sent=now,
            last_sent=now,
        )
        superseded = self.outstanding.get(node)
        if superseded is not None:
            # Keep a short memory of superseded pushes: a late
            # "applied" ack for one of them still names a usable delta
            # base (see _handle_ack).
            history = self._pushed_history.setdefault(node, [])
            history.append(superseded)
            del history[:-PUSH_HISTORY_LIMIT]
        self.outstanding[node] = state
        self._transmit(node, state, now, retry=False)
        if mode == "full":
            self.stats.pushes_full += 1
            self._epoch.pushes_full += 1
        else:
            self.stats.pushes_delta += 1
            self._epoch.pushes_delta += 1
        self._epoch.push_bytes += size
        self._epoch.full_equivalent_bytes += full_bytes
        self.stats.push_bytes += size
        self.stats.full_equivalent_bytes += full_bytes

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before retransmission number *attempt* (1-based).

        The first retry fires after exactly ``retry_backoff`` —
        un-jittered, so the two-beat epoch schedule (decision beat
        sends, ack beat retries) is preserved on a healthy plane.
        Later retries double up to ``RETRY_BACKOFF_CAP`` with downward
        jitter, de-synchronizing agents during an outage.
        """
        if attempt <= 1:
            return self.config.retry_backoff
        delay = min(
            RETRY_BACKOFF_CAP,
            self.config.retry_backoff * (2.0 ** (attempt - 1)),
        )
        return delay * (1.0 - RETRY_JITTER * self._retry_rng.random())

    def _transmit(
        self, node: str, state: PushState, now: float, retry: bool
    ) -> None:
        if retry:
            state.attempts += 1
            self.stats.retries += 1
            self._push_retries.inc(
                attempt=str(state.attempts) if state.attempts < 6 else "6+"
            )
            self._epoch.push_bytes += state.size_bytes
            self._epoch.full_equivalent_bytes += state.full_bytes
            self.stats.push_bytes += state.size_bytes
            self.stats.full_equivalent_bytes += state.full_bytes
        state.last_sent = now
        state.next_retry_at = now + self._retry_delay(state.attempts + 1)
        # Stamp the fencing term and a fresh lease expiry on a copy:
        # in-flight messages hold a reference to the payload, so the
        # wire copy must be frozen.
        payload = dict(state.payload)
        payload["term"] = self.term
        payload["lease_expires_at"] = now + self.config.lease_ttl
        self.bus.send(
            self.name,
            node,
            KIND_MANIFEST_UPDATE,
            payload,
            state.size_bytes,
            now,
        )

    def _renew_leases(self, now: float) -> None:
        """Extend the epoch lease of every node the controller still
        trusts.  Failed and fenced nodes are deliberately left out:
        withholding renewal is the mechanism that forces a partitioned
        or stale agent into edge-only fallback within one TTL."""
        if self.version < 0:
            return
        expires = now + self.config.lease_ttl
        for node in self.topology.node_names:
            if not self.monitor.alive(node) or node in self.fenced:
                continue
            self.bus.send(
                self.name,
                node,
                KIND_LEASE_RENEW,
                {
                    "version": self.version,
                    "term": self.term,
                    "lease_expires_at": expires,
                },
                LEASE_BYTES,
                now,
            )

    # -- election ---------------------------------------------------------
    def _next_term(self, floor: int) -> int:
        """Smallest term above *floor* that this replica may mint."""
        n = self.ha_config.replicas
        candidate = floor + 1
        return candidate + ((self.index - candidate) % n)

    def _witness(self, term: int, leader: str, now: float) -> None:
        """Fold one piece of (term, leader) evidence into local state."""
        if term > self.observed_term:
            self.observed_term = term
        if term < self.term:
            return
        if term > self.term:
            if self.role == "leader":
                if not self._ha_fencing:
                    return  # mutation: ignore the depose evidence
                self._depose(now, term, leader)
                return
            self.term = term
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

    def _election_due(self, now: float) -> bool:
        timeout = (
            self.ha_config.leader_lease
            + self.index * self.ha_config.rank_stagger
        )
        return now - self._last_heard > timeout + 1e-9

    def _promote(self, now: float) -> None:
        """Standby takeover: mint a fresh replica-unique term and enter
        the rebuilding phase."""
        self.term = self._next_term(max(self.term, self.observed_term))
        self.role = "leader"
        self.leader_name = self.name
        self.rebuilding = True
        self._promoted_at = now
        self._last_heard = now
        # The promoted monitor knows nothing recent about any node;
        # give every agent a full timeout to heartbeat the new leader
        # before the first sweep can declare it failed.
        for node in self.monitor.last_seen:
            self.monitor.last_seen[node] = now
        self.stats.elections += 1
        self._elections.inc(replica=self.name)
        payload = {"term": self.term, "leader": self.name}
        for peer in self.peers:
            self.bus.send(
                self.name, peer, KIND_PROMOTE, payload, PROMOTE_BYTES, now
            )

    def _depose(self, now: float, term: int, leader: str) -> None:
        """Step down: a higher term exists."""
        self.role = "standby"
        self.rebuilding = False
        self.term = max(self.term, term)
        self.leader_name = leader
        self._last_heard = now
        self.stats.depositions += 1
        self._depositions.inc(replica=self.name)

    def _maybe_demote(self, now: float) -> None:
        """Step down on evidence a peer's announce did not already act
        on: agent ``nack``s.  They carry no leader name, but the term
        arithmetic does (``term % replicas`` names the minting replica)."""
        term = self.observed_term
        if self.role == "leader" and self._ha_fencing and term > self.term:
            leader = replica_name(
                term % self.ha_config.replicas, self.config.name
            )
            self._depose(now, term, leader)

    # -- state handoff ----------------------------------------------------
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

    def _log_epoch(self) -> None:
        """Record the currently adopted configuration in the epoch log."""
        if self.version < 0 or not self.manifests:
            return
        existing = self.log.get(self.version)
        if existing is not None and existing.term >= self.term:
            return
        self.log[self.version] = EpochLogEntry(
            term=self.term,
            version=self.version,
            reason=self._epoch.resolved or "",
            max_acked=max(self.acked_version.values(), default=-1),
            manifests=tuple(
                (node, manifest_to_dict(manifest))
                for node, manifest in sorted(self.manifests.items())
            ),
        )

    def _send_handoff(self, now: float) -> None:
        """Replicate the tail of the epoch log to every peer.  Sent on
        every serving beat; merging is idempotent, so re-sends are the
        reliability mechanism (there are no handoff acks)."""
        if not self.log:
            return
        versions = sorted(self.log)[-self.ha_config.handoff_window:]
        entries = [self.log[v] for v in versions]
        frame = {"term": self.term, "leader": self.name, "entries": []}
        # ``_json_size`` of the payload without encoding it again: the
        # empty frame, each entry's own encoding, and ", " between two.
        size = (
            _json_size(frame)
            + sum(entry.json_size for entry in entries)
            + 2 * (len(entries) - 1)
        )
        payload = dict(frame, entries=[entry.to_dict() for entry in entries])
        for peer in self.peers:
            self.bus.send(
                self.name, peer, KIND_STATE_HANDOFF, payload, size, now
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
            "version": self.version,
            "lease": False,
        }
        for dst in self.peers + tuple(self.topology.node_names):
            self.bus.send(
                self.name,
                dst,
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

    def _highest_observed(self) -> int:
        """Highest applied epoch in sight: agent claims ∪ own log
        (-1 when neither holds one)."""
        claims = [
            version for _term, version in self.reported_applied.values()
        ]
        return max(claims + list(self.log), default=-1)

    def _caught_up(self, now: float) -> bool:
        """Whether the rebuilding leader's view reaches the highest
        applied epoch observed, or the grace for getting there lapsed."""
        if now - self._promoted_at >= HANDOFF_GRACE:
            return True
        if not self.reported_applied:
            # No agent has confirmed its applied state to this leader
            # yet; keep draining until one does.
            return False
        highest = self._highest_observed()
        return highest < 0 or highest in self.log

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
        highest = self._highest_observed()
        entry = self.log.get(highest)
        outcome = "caught-up" if highest < 0 or entry is not None else "log-gap"
        if highest >= 0:
            self.version = max(self.version, highest)
        if entry is not None:
            self.manifests = entry.manifest_objects()
        self.outstanding.clear()
        self._pushed_history.clear()
        self.acked_manifests.clear()
        for node in self.acked_version:
            self.acked_version[node] = -1
        for node in sorted(self.reported_applied):
            claimed_term, claimed_version = self.reported_applied[node]
            source = self.log.get(claimed_version)
            held = (
                dict(source.manifests).get(node)
                if source is not None and source.term == claimed_term
                else None
            )
            if claimed_version >= 0 and held is not None:
                self.acked_manifests[node] = manifest_from_dict(held)
                self.acked_version[node] = claimed_version
            else:
                self.needs_full.add(node)
        self.rebuilding = False
        # The installed configuration is by construction *stale* (it
        # predates the takeover), and the first re-plan after it may
        # still miss agents that have not yet reported to this leader;
        # the chaos monitor excludes that bounded handoff window.
        self.installed_at = now
        self._handoffs.inc(outcome=outcome)

    # -- epoch driver -----------------------------------------------------
    def _serving(self, now: float) -> bool:
        """Shared opening of both beats; True when this process is a
        caught-up leader that should run the beat.

        A standby runs for office once the leader's announces go
        silent; a rebuilding leader installs the handoff once the agent
        claims it drained catch its view up.
        """
        if not self.alive:
            return False
        self._drain(now)
        if self.role != "leader":
            if self._election_due(now):
                self._promote(now)
                self._announce(now)
            return False
        if self.rebuilding:
            self._maybe_demote(now)
            if self.role == "leader" and self._caught_up(now):
                self._install(now)
            self._replicate(now)
            return False
        return True

    def step(self, now: float) -> None:
        """Main per-epoch decision point: ingest, detect, re-plan, push."""
        # Reset before the drain inside _serving, which refills them.
        self._epoch_lags = []
        self._recovered = set()
        if not self._serving(now):
            return
        epoch = int(now / EPOCH_SECONDS)
        self._epoch = EpochRecord(epoch=epoch, time=now)

        newly_failed = self.monitor.sweep(now)
        for node in newly_failed:
            self._heartbeat_failures.inc(node=node)
        fence_event = self._fence_event
        self._fence_event = False

        reason = ""
        estimated = None
        if self.deployment is None:
            if self.reports:
                reason = "bootstrap"
        elif self._recovered:
            reason = "recovery"
        elif newly_failed or fence_event:
            reason = "failure"
        elif self.reports:
            estimated = self._estimated_units()
            drift = self._drift(estimated)
            if drift > DRIFT_THRESHOLD:
                reason = "drift"
            elif (
                self.config.resolve_every > 0
                and self._last_resolve_epoch is not None
                and epoch - self._last_resolve_epoch >= self.config.resolve_every
            ):
                reason = "periodic"

        if reason == "failure":
            self._repair(now)
        elif reason:
            self._resolve(now, reason, estimated)

        self._sync_pushes(now)
        self._renew_leases(now)
        self._maybe_demote(now)
        self._replicate(now, log_epoch=True)

    def finish_epoch(self, now: float) -> Optional[EpochRecord]:
        """Drain late acks, retry stragglers, finalize the record; the
        serving leader returns it, everyone else ``None``."""
        if not self._serving(now):
            return None
        # Second retry beat: anything still unacknowledged (push or ack
        # lost in either direction) goes out again before the epoch
        # closes, roughly doubling per-epoch convergence odds on a
        # lossy bus.
        self._sync_pushes(now)
        self._renew_leases(now)
        # Promoted (or restarted) mid-epoch, this process never took
        # its step beat: there is no epoch record to close, and the
        # runner scores the epoch as a controller-down one.
        record = None
        if self._epoch.epoch == int(now / EPOCH_SECONDS):
            record = self._close_record()
        self._maybe_demote(now)
        self._replicate(now, log_epoch=record is not None)
        return record

    def _close_record(self) -> EpochRecord:
        record = self._epoch
        record.failed_nodes = tuple(sorted(self.monitor.failed))
        record.fenced_nodes = tuple(sorted(self.fenced))
        record.reconfig_lag = max(self._epoch_lags, default=0.0)
        record.converged = not self.unsynced_live_nodes()
        return record

    # -- introspection ----------------------------------------------------
    def unsynced_live_nodes(self) -> List[str]:
        """Live nodes whose applied manifest differs from the current
        configuration (push lost, pending, or not yet sent)."""
        if self.version < 0:
            return [n for n in self.topology.node_names if self.monitor.alive(n)]
        lagging = []
        for node in self.topology.node_names:
            if not self.monitor.alive(node):
                continue
            acked = self.acked_manifests.get(node)
            target = self.manifests.get(node)
            if target is None:
                # Version known but content not yet recovered (handoff
                # log gap): the node cannot be proven in sync.
                lagging.append(node)
            elif (
                acked is None
                or acked.entries != target.entries
                or acked.full != target.full
                # Matching content is not enough: an agent that has not
                # confirmed the current version may still be fenced
                # behind the old one.
                or self.acked_version.get(node, -1) < self.version
            ):
                lagging.append(node)
        return lagging
