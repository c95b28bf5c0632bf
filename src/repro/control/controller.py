"""The operations-center controller (paper §2.2 "operations center",
§5 dynamics).

"A centralized operations center periodically configures the NIDS
responsibilities of the different nodes."  The :class:`Controller`
closes that loop at runtime:

1. **Ingest** — per-agent NetFlow reports and heartbeats arrive over
   the (lossy) management bus; the latest report per ingress is cached
   so a silent node's traffic is still planned from its last word.
2. **Decide** — each epoch the controller re-plans when (a) it has
   never planned ("bootstrap", or "takeover" when it holds a
   configuration installed from a handoff), (b) a failed node recovered
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
   is simply the leader forever.  Election, terms and the epoch-log
   handoff are one state machine,
   :class:`~repro.control.replication.ReplicatedLog`
   (``Controller.replication``): the controller feeds it the inbox
   and carries out what it returns (:meth:`Controller._apply`), and
   stamps every controller→agent message with its term as a fencing
   token (:meth:`Controller._transmit`).  Peers and agents write to
   one address; each beat delivers it once (:meth:`Controller._drain`)
   and folds the replica-plane kinds before deciding its role and only
   then handles — or, as a standby, drops — the agent-plane kinds.

   :class:`~repro.control.ha.HACluster` is the set of such processes;
   ``docs/fault_model.md`` has the failover sequence and invariants.

Re-solving uses the same LP as offline planning; a custom ``solve_fn``
(e.g. an FPL-style adapter from :mod:`repro.core.online` for
adversarially shifting inputs) can be plugged in.  Each process holds
the final simplex basis of its own last re-plan
(:class:`~repro.core.nids_lp.WarmStart`, scoped around ``solve_fn`` by
:func:`~repro.core.nids_lp.hold_start`), and its next re-plan starts
from it when the programs overlap enough
(:data:`WARM_START_OVERLAP`).  Its first plan, and its first as a
promoted leader, solve cold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..analysis.verify import (
    VerificationReport,
    check_on_path,
    verify_deployment,
)
from ..core.manifest import generate_manifests, NodeManifest
from ..core.manifest_io import ConfigurationWire
from ..core.manifest_table import ManifestTable, left_sum
from ..core.nids_lp import NIDSAssignment, WarmStart, hold_start, solve_nids_lp
from ..core.reconfigure import TransitionColumns
from ..core.units import UnitTable
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
    KIND_REPORT,
    KIND_RESYNC_REQUEST,
)
from .bus import Bus
from .epochs import (
    EPOCH_SECONDS,
    LEASE_TTL,
    check_duration,
    EpochRecord,
    Ident,
    merge_reports,
    stabilize_manifests,
)
from .failure import HeartbeatMonitor, RepairResult, repair_manifests
from .replication import Beat, HAConfig, Install, ReplicatedLog

SolveFn = Callable[[UnitTable, Topology, float], NIDSAssignment]

#: Nominal wire size of a lease renewal.
LEASE_BYTES = 48

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
#: Least share of a re-plan's ``d`` columns that the last solve's basis
#: must label for the re-plan to start from it.  Below it the start is
#: more repair than basis: a 766-column re-plan's basis under a
#: 1,749-column one took 742 simplex iterations where a cold solve's
#: presolve left none.
WARM_START_OVERLAP = 0.5


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
        check_duration("lease_ttl", self.lease_ttl)
        if self.resolve_every < 0:
            raise ValueError(
                f"resolve_every must be >= 0, got {self.resolve_every!r}"
            )


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


def failover_registry(
    registry: MetricsRegistry, ha_config: HAConfig
) -> MetricsRegistry:
    """Where the failover families go: nowhere for a lone controller,
    which cannot fail over, so its snapshot stays a plain
    controller's."""
    return registry if ha_config.replicas > 1 else NULL_REGISTRY


class Controller:
    """One epoch-clocked operations-center process over a simulated bus."""

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
        ha_config = ha_config or HAConfig(replicas=1)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.solve_fn = solve_fn or (
            lambda units, topo, coverage: solve_nids_lp(units, topo, coverage)
        )
        self.monitor = HeartbeatMonitor(
            topology.node_names, self.config.heartbeat_timeout
        )
        self.stats = ControllerStats()

        #: Role, term, election and epoch log (see the module doc).
        self.replication = ReplicatedLog(
            index, ha_config, self.config.name, topology.node_names
        )
        self.name = self.replication.name
        self.alive = True

        #: Latest NetFlow report per reporting node (stale entries are
        #: deliberately kept: a dead NIDS does not stop the traffic).
        self.reports: Dict[str, TrafficReport] = {}
        self.version = -1
        #: The last solved ``d*`` (``None``: this process never planned).
        self.assignment: Optional[NIDSAssignment] = None
        self.manifests: Dict[str, NodeManifest] = {}
        self._table: Optional[ManifestTable] = None
        self._wire = ConfigurationWire(self.manifests)
        self.planned_units = UnitTable.of(())
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
        #: This process's own last re-plan basis (see the module doc).
        self._warm = WarmStart(WARM_START_OVERLAP)
        # Per-epoch scratch, reset by step().
        self._epoch = EpochRecord(epoch=-1, time=0.0)
        self._epoch_lags: List[float] = []
        # The health families that only record on rare events are
        # declared here, so every snapshot carries them (value 0 ≠
        # absent).  The failover families exist only with peers to fail
        # over to.
        registry = self.registry
        failover = failover_registry(registry, ha_config)
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
        self._cold_solves = registry.counter(
            "controller_cold_solves_total",
            "re-plans solved without a start basis, by reason",
            labels=("reason",),
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
        """Process returns with its planning state (warm restart); see
        :meth:`ReplicatedLog.restart` for its role."""
        self.alive = True
        self.replication.restart(now)

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
        agent_plane = [
            message
            for message in self.bus.deliver(self.name, now)
            if not self.replication.receive(message, now)
        ]
        self._apply(self.replication.settle(now), now)
        if self.replication.role != "leader":
            return
        for message in agent_plane:
            if message.kind == KIND_HEARTBEAT:
                node = message.payload["node"]
                self.replication.claim(
                    node,
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
                self.replication.nack(message.payload.get("term", 0))

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
    def _estimated_units(self) -> UnitTable:
        merged = merge_reports(self.reports.values())
        return UnitTable.of(
            estimate_units(self.modules, merged, self.paths, self.config.estimation)
        )

    @staticmethod
    def _class_cpu(units: UnitTable) -> Dict[str, float]:
        """Per class, its units' CPU work folded left in unit order."""
        ids: Dict[str, int] = {}
        class_of = [ids.setdefault(name, len(ids)) for name, _key in units.idents]
        totals = np.bincount(
            np.array(class_of, dtype=np.intp), units.cpu_work, len(ids)
        )
        return dict(zip(ids, totals.tolist()))

    def _drift(self, units: UnitTable) -> float:
        """Relative L1 distance of per-class CPU volumes vs. the last
        re-solve's inputs (class-level, so per-unit sampling noise does
        not masquerade as a traffic change)."""
        reference = self._reference_class_cpu
        if not reference:
            return float("inf")
        current = self._class_cpu(units)
        baseline = left_sum(np.array(list(reference.values())))
        if baseline <= 0:
            return float("inf")
        # Sorted: a float fold in set (string-hash) order would differ
        # across processes.
        classes = sorted(set(reference) | set(current))
        gaps = [abs(current.get(c, 0.0) - reference.get(c, 0.0)) for c in classes]
        return left_sum(np.array(gaps)) / baseline

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

    def _exclude_failed(self, units: UnitTable) -> UnitTable:
        """*units* with every unavailable node struck from its eligible
        set, one mask over the entries; a unit left with none is
        dropped."""
        unavailable = self._unavailable()
        if not unavailable:
            return units
        keep = ~units.entries_in(unavailable)
        # Sole-eligible holders are fenced but alive: keep the unit
        # planned on them rather than dropping it.  A sole-eligible
        # node is the unit's endpoint, so its edge-only fallback
        # already analyzes the traffic while degraded — and the planned
        # entry means coordinated service resumes the instant the node
        # exits fallback, instead of the unit going dark in the handoff
        # epoch.  A unit with neither is unobservable while its only
        # nodes are down, and is dropped.
        bare = np.bincount(units.owner[keep], minlength=len(units)) == 0
        keep |= bare[units.owner] & units.entries_in(self._live_fenced())
        return units.where(keep)

    def _resolve(
        self,
        now: float,
        reason: str,
        estimated: Optional[UnitTable] = None,
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
        self._warm.outcome = None
        with hold_start(self._warm):
            assignment = self.solve_fn(units, self.topology, self.config.coverage)
        if self._warm.outcome not in (None, "warm"):
            self._cold_solves.inc(reason=self._warm.outcome)
        proposed = generate_manifests(units, assignment, self.topology.node_names)
        allowed: Dict[Ident, Set[str]] = dict(
            zip(units.idents, map(set, units.eligible))
        )
        if self.manifests:
            stabilized, _changed = stabilize_manifests(
                self.table,
                proposed,
                self.config.stabilize_tolerance,
                allowed=allowed,
            )
        else:
            stabilized = proposed
        table = ManifestTable.of(stabilized)
        if not self._gate(units, table, stage="resolve"):
            # Fail closed: the previous configuration stays active and
            # the next epoch's trigger logic will attempt a fresh plan.
            return
        self._adopt(table, units, assignment, now, reason)
        self.stats.resolves += 1
        self._last_resolve_epoch = self._epoch.epoch

    def _gate(self, units: UnitTable, table: ManifestTable, stage: str) -> bool:
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
                findings=check_on_path(units, table), checks=("on-path",)
            )
        else:
            report = verify_deployment(units, table)
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
        # The restore above is the last in-place writer: the set is final.
        table = ManifestTable.from_manifests(result.manifests)
        if not self._gate(self.planned_units, table, stage="repair"):
            return
        self._adopt(table, self.planned_units, self.assignment, now, "failure")
        self.stats.repairs += 1
        self._repairs.inc()
        if result.orphaned:
            self.registry.gauge(
                "repair_orphaned_mass",
                "hash-space mass with no live eligible node after the last repair",
            ).set(left_sum(np.array([mass for _ident, mass in result.orphaned])))

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
        planned = self.planned_units
        still_orphaned: List[tuple] = []
        for ident, mass in result.orphaned:
            u = planned.by_ident.get(ident)
            holders = sorted(
                n for n in (planned.eligible[u] if u is not None else ())
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
        table: ManifestTable,
        units: UnitTable,
        assignment: Optional[NIDSAssignment],
        now: float,
        reason: str,
    ) -> None:
        """Install a new configuration version and score the transition
        from the configuration held (adopted or installed) to it."""
        columns = TransitionColumns(self.table, table)
        self.version += 1
        self.assignment = assignment
        self.manifests, self._table = table.manifests, table
        self.planned_units = units
        self._epoch.resolved = reason
        self._epoch.config_version = self.version
        self._epoch.unchanged_entry_fraction = columns.unchanged_fraction
        self._epoch.duplicated_fraction = columns.duplicated_share(units)

    @property
    def table(self) -> ManifestTable:
        """``manifests`` read by unit: the adopted set's own table, built
        here only for a set no adopt brought (the empty start, a
        handoff's install)."""
        if self._table is None or self._table.manifests is not self.manifests:
            self._table = ManifestTable.from_manifests(self.manifests)
        return self._table

    # -- distribution -----------------------------------------------------
    @property
    def wire(self) -> ConfigurationWire:
        """``manifests`` on the wire, what pushes and the epoch log send:
        a new configuration's encodings start from the last one's."""
        if self._wire.manifests is not self.manifests:
            self._wire = ConfigurationWire(self.manifests, self._wire)
        return self._wire

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
        full = self.wire.manifest(node)
        base = self.acked_manifests.get(node)
        mode, sent, base_version = "full", full, None
        if base is not None and node not in self.needs_full:
            delta = self.wire.delta(base, node)
            if delta.size < full.size:
                mode, sent, base_version = "delta", delta, self.acked_version[node]
        payload = {
            "version": self.version,
            "mode": mode,
            "base": base_version,
            "data": sent.data,
        }
        state = PushState(
            version=self.version,
            mode=mode,
            payload=payload,
            size_bytes=sent.size,
            full_bytes=full.size,
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
        self._epoch.push_bytes += sent.size
        self._epoch.full_equivalent_bytes += full.size
        self.stats.push_bytes += sent.size
        self.stats.full_equivalent_bytes += full.size

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
        payload["term"] = self.replication.term
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
                    "term": self.replication.term,
                    "lease_expires_at": expires,
                },
                LEASE_BYTES,
                now,
            )

    # -- replication ------------------------------------------------------
    def _apply(self, beat: Beat, now: float) -> bool:
        """Carry out what the replication machine decided; True when
        this process serves the rest of the beat."""
        if beat.deposed:
            self._depositions.inc(replica=self.name)
        if beat.elected:
            # The promoted monitor knows nothing recent about any node;
            # give every agent a full timeout to heartbeat the new
            # leader before the first sweep can declare it failed.
            for node in self.monitor.last_seen:
                self.monitor.last_seen[node] = now
            # A basis from an earlier reign is not this term's plan.
            self._warm.last = None
            self._elections.inc(replica=self.name)
        if beat.install is not None:
            self._install(beat.install)
        for message in beat.sends:
            self.bus.send(
                self.name,
                message.dst,
                message.kind,
                message.payload,
                message.size,
                now,
            )
        return beat.serving

    def _install(self, install: Install) -> None:
        """Reseed push state from a completed handoff: every delta base
        is forgotten except those the machine proved each agent holds."""
        self.version = install.version
        if install.configuration is not None:
            self._wire = install.configuration
            self.manifests = install.configuration.manifests
        self.outstanding.clear()
        self._pushed_history.clear()
        self.acked_manifests.clear()
        for node in self.acked_version:
            self.acked_version[node] = -1
        for node, base in install.bases:
            if base is None:
                self.needs_full.add(node)
            else:
                self.acked_version[node], self.acked_manifests[node] = base
        self._handoffs.inc(outcome=install.outcome)

    def _close(self, now: float, log_epoch: bool) -> None:
        """End a beat in the machine: step down on evidence, else
        replicate — logging the adopted configuration on a beat that
        can adopt one."""
        self._apply(
            self.replication.close(
                now,
                self.version,
                self.wire if log_epoch else None,
                reason=self._epoch.resolved or "",
                max_acked=max(self.acked_version.values(), default=-1),
            ),
            now,
        )

    # -- epoch driver -----------------------------------------------------
    def _serving(self, now: float) -> bool:
        """Shared opening of both beats; True when this process is a
        caught-up leader that should run the beat (the role decision is
        :meth:`ReplicatedLog.open`'s)."""
        if not self.alive:
            return False
        self._drain(now)
        return self._apply(self.replication.open(now, self.version), now)

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
        if self.assignment is None:
            if self.reports:  # a handoff install holds a version
                reason = "bootstrap" if self.version < 0 else "takeover"
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
        self._close(now, log_epoch=True)

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
        self._close(now, log_epoch=record is not None)
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
