"""Scripted end-to-end coordination-plane scenarios.

:func:`run_scenario` drives a full controller–agent deployment through
a schedule of epochs with injected events — traffic shifts, NIDS
process crashes, recoveries — and scores the outcome against the
paper's operational requirements: the live network stays covered, a
failed node's responsibilities move to on-path survivors within a
bounded number of epochs, and steady-state configuration pushes cost
delta-sized, not full-manifest-sized, bytes.

The epochs themselves — four beats over a lone controller, one agent
per node and pooled traffic — are run by
:class:`~repro.control.plane.ControlPlane`; this module applies the
scripted events before each epoch and tracks detection, redistribution
and reintegration after it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..hashing.ranges import HashRange
from ..obs import MetricsRegistry
from ..traffic.dynamics import DiurnalBurstModel
from ..traffic.batch import SessionBatch
from .agent import AgentConfig
from .bus import Bus, BusConfig, BusStats
from .controller import ControllerConfig, ControllerStats
from .epochs import EpochRecord, Ident, ranges_reassigned
from .ha import HAConfig
from .plane import (
    PROFILES,
    ControlPlane,
    profile_pools,
    unit_capacity_topology,
    with_registry,
)

#: Acceptance threshold: volume-weighted coverage required of every
#: epoch that is not part of a transition window.
COVERAGE_FLOOR = 0.99
#: Acceptance threshold: epochs allowed between failure detection and
#: full reassignment of the failed node's hash ranges.
REDISTRIBUTION_DEADLINE_EPOCHS = 2


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted perturbation, applied at the start of *epoch*."""

    epoch: int
    kind: str  # "fail" | "recover" | "shift"
    node: Optional[str] = None  # for fail / recover
    profile: Optional[str] = None  # for shift

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "recover", "shift"):
            raise ValueError(f"unknown event kind: {self.kind!r}")
        if self.kind in ("fail", "recover") and not self.node:
            raise ValueError(f"{self.kind} event needs a node")
        if self.kind == "shift" and self.profile not in PROFILES:
            raise ValueError(
                f"shift event needs a profile in {sorted(PROFILES)}"
            )


@dataclass
class ScenarioConfig:
    """Everything a scripted coordination-plane run needs."""

    topology: str = "Internet2"
    epochs: int = 16
    base_sessions: int = 900
    profile: str = "mixed"
    seed: int = 7
    #: NetFlow sampling rate the agents export at (1.0 = unsampled).
    sampling_rate: float = 1.0
    # Bus conditions.
    latency: float = 0.05
    jitter: float = 0.02
    loss_rate: float = 0.0
    # Traffic dynamics.
    diurnal_amplitude: float = 0.08
    burst_probability: float = 0.0
    # Controller / agent tunables.
    heartbeat_timeout: float = 2.2
    transition_window: float = 2.0
    resolve_every: int = 4
    stabilize_tolerance: float = 0.02
    headroom: float = 1.0
    #: Redundancy level r the controller plans at (paper §3: every
    #: unit analyzed by ``r`` distinct on-path nodes).
    coverage: float = 1.0
    #: Epoch-lease TTL for graceful degradation; ``None`` (default)
    #: runs the plane without leases, the pre-hardening behaviour.
    lease_ttl: Optional[float] = None
    events: Tuple[ScenarioEvent, ...] = ()


def standard_scenario(
    shift_epoch: int = 5,
    fail_epoch: int = 8,
    recover_epoch: int = 12,
    fail_node: str = "NYCM",
    shift_profile: str = "web_heavy",
    **overrides,
) -> ScenarioConfig:
    """The canonical steady → shift → failure → recovery schedule."""
    events = (
        ScenarioEvent(epoch=shift_epoch, kind="shift", profile=shift_profile),
        ScenarioEvent(epoch=fail_epoch, kind="fail", node=fail_node),
        ScenarioEvent(epoch=recover_epoch, kind="recover", node=fail_node),
    )
    return ScenarioConfig(events=events, **overrides)


@dataclass
class ScenarioResult:
    """Everything observed across one scripted run."""

    config: ScenarioConfig
    records: List[EpochRecord]
    #: Epoch at which the controller first marked each node failed.
    detection_epoch: Dict[str, int] = field(default_factory=dict)
    #: Epoch at which the failed node's (repairable) hash ranges were
    #: all observed re-applied on live survivors.
    redistribution_epoch: Dict[str, int] = field(default_factory=dict)
    #: Epoch at which a recovered node was converged back in.
    reintegration_epoch: Dict[str, int] = field(default_factory=dict)
    bus_stats: Optional[BusStats] = None
    controller_stats: Optional[ControllerStats] = None
    #: Hash-space mass that could not be reassigned (no live eligible
    #: node), per failed node — the paper's singleton-unit caveat.
    orphaned_mass: Dict[str, float] = field(default_factory=dict)

    def check_acceptance(self) -> List[str]:
        """Violations of the scenario acceptance criteria (empty = pass)."""
        violations: List[str] = []
        for record in self.records:
            if record.in_transition:
                continue
            if record.coverage < COVERAGE_FLOOR:
                violations.append(
                    f"epoch {record.epoch}: coverage {record.coverage:.4f}"
                    f" < {COVERAGE_FLOOR} outside a transition window"
                )
        for node, detected in self.detection_epoch.items():
            redistributed = self.redistribution_epoch.get(node)
            if redistributed is None:
                violations.append(
                    f"{node}: ranges never fully redistributed after the"
                    f" failure was detected at epoch {detected}"
                )
            elif redistributed - detected > REDISTRIBUTION_DEADLINE_EPOCHS:
                violations.append(
                    f"{node}: redistribution took"
                    f" {redistributed - detected} epochs (detected"
                    f" {detected}, redistributed {redistributed};"
                    f" deadline {REDISTRIBUTION_DEADLINE_EPOCHS})"
                )
        failed_events = [e for e in self.config.events if e.kind == "fail"]
        if failed_events and not self.detection_epoch:
            violations.append("injected failure was never detected")
        # Delta efficiency: on reconfiguration epochs where the majority
        # of manifest entries carried over, the bytes actually pushed
        # must undercut full-manifest distribution.  Bootstrap and
        # recovery epochs are excluded: a cold agent requires a full
        # manifest by protocol, so there is nothing for a delta to win.
        qualifying = [
            r
            for r in self.records
            if r.resolved in ("drift", "periodic", "failure")
            and r.unchanged_entry_fraction >= 0.5
            and r.push_bytes > 0
        ]
        for record in qualifying:
            if record.push_bytes >= record.full_equivalent_bytes:
                violations.append(
                    f"epoch {record.epoch} ({record.resolved}): pushed"
                    f" {record.push_bytes} B >= full-manifest"
                    f" {record.full_equivalent_bytes} B despite"
                    f" {record.unchanged_entry_fraction:.0%} unchanged entries"
                )
        if not qualifying:
            violations.append(
                "no unchanged-majority reconfiguration epoch exercised"
                " delta distribution"
            )
        return violations

    @property
    def ok(self) -> bool:
        return not self.check_acceptance()


def session_pools(
    config: ScenarioConfig,
    topology,
    paths,
    pool_size: int,
) -> Dict[str, SessionBatch]:
    """One session pool per profile the scenario can be in (see
    :func:`~repro.control.plane.profile_pools`)."""
    return profile_pools(
        _profiles(config), config.seed, topology, paths, pool_size
    )


def _profiles(config: ScenarioConfig) -> Set[str]:
    names = {config.profile}
    names.update(e.profile for e in config.events if e.kind == "shift")
    return names


def run_scenario(
    config: ScenarioConfig,
    registry: Optional[MetricsRegistry] = None,
) -> ScenarioResult:
    """Execute *config* and collect per-epoch records + verdicts.

    *registry* (optional) receives control-plane telemetry from every
    component of the run — bus channel counters, controller re-plan and
    push/retry activity, per-agent ingress session counts — and is
    installed as the ambient registry for the duration, so the LP
    solves the controller triggers land in the same snapshot.
    """
    return with_registry(_run_scenario, config, registry)


def _run_scenario(
    config: ScenarioConfig, registry: MetricsRegistry
) -> ScenarioResult:
    topology = unit_capacity_topology(config.topology)
    known = set(topology.node_names)
    for event in config.events:
        if event.node is not None and event.node not in known:
            raise ValueError(
                f"scenario event references unknown node {event.node!r};"
                f" {config.topology} nodes are {sorted(known)}"
            )
    bus = Bus(
        BusConfig(
            latency=config.latency,
            jitter=config.jitter,
            loss_rate=config.loss_rate,
            seed=config.seed,
        ),
        registry=registry,
    )
    plane = ControlPlane(
        topology,
        bus,
        ControllerConfig(
            heartbeat_timeout=config.heartbeat_timeout,
            resolve_every=config.resolve_every,
            stabilize_tolerance=config.stabilize_tolerance,
            headroom=config.headroom,
            coverage=config.coverage,
            lease_ttl=config.lease_ttl,
            retry_seed=config.seed,
        ),
        HAConfig(replicas=1),
        AgentConfig(
            transition_window=config.transition_window,
            lease_ttl=config.lease_ttl,
        ),
        DiurnalBurstModel(
            base_sessions=config.base_sessions,
            diurnal_amplitude=config.diurnal_amplitude,
            burst_probability=config.burst_probability,
            seed=config.seed,
        ),
        epochs=config.epochs,
        profiles=_profiles(config),
        seed=config.seed,
        sampling_rate=config.sampling_rate,
        registry=registry,
    )
    agents = plane.agents

    events_by_epoch: Dict[int, List[ScenarioEvent]] = defaultdict(list)
    for event in config.events:
        events_by_epoch[event.epoch].append(event)

    result = ScenarioResult(config=config, records=[])
    profile = config.profile
    #: Pre-crash manifest entries per failed node, awaiting reassignment.
    pending_redistribution: Dict[str, Dict[Ident, Tuple[HashRange, ...]]] = {}
    pending_recovery: Set[str] = set()

    for epoch in range(config.epochs):
        for event in events_by_epoch.get(epoch, []):
            if event.kind == "shift":
                profile = event.profile
            elif event.kind == "fail":
                agent = agents[event.node]
                pending_redistribution[event.node] = dict(
                    agent.manifest.entries
                )
                agent.crash()
            elif event.kind == "recover":
                agents[event.node].recover()
                pending_recovery.add(event.node)

        facts = plane.run_epoch(epoch, profile)
        record, controller = facts.record, facts.authority

        # A transition window is any epoch where the configuration is
        # still propagating (push unacked) or a crashed node's ranges
        # have not yet been repaired away (including the detection gap
        # between the crash and the heartbeat timeout).
        record.in_transition = (
            not record.converged or facts.failure_unrepaired
        )

        for node in list(pending_redistribution):
            if node in record.failed_nodes:
                result.detection_epoch.setdefault(node, epoch)
            if node not in result.detection_epoch:
                continue  # controller has not noticed yet
            repair = controller.last_repair
            skip: Set[Ident] = set()
            if repair is not None:
                skip = {ident for ident, _mass in repair.orphaned}
                result.orphaned_mass[node] = sum(
                    mass for _ident, mass in repair.orphaned
                )
            survivors = {
                name: agent.manifest
                for name, agent in agents.items()
                if name != node and agent.alive
            }
            if ranges_reassigned(
                pending_redistribution[node], survivors, skip
            ):
                result.redistribution_epoch[node] = epoch
                del pending_redistribution[node]

        for node in sorted(pending_recovery):
            if (
                agents[node].alive
                and node not in controller.monitor.failed
                and node not in controller.unsynced_live_nodes()
            ):
                result.reintegration_epoch[node] = epoch
                pending_recovery.discard(node)

        result.records.append(record)

    result.bus_stats = bus.stats
    result.controller_stats = plane.cluster.authority.stats
    return result
