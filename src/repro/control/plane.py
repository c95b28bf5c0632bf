"""The one control run of the coordination plane (paper §2.2, §5).

The paper has one operations center running one measure → re-plan →
push → ack loop per reporting epoch.  :class:`ControlPlane` is that
loop: it holds the topology, the bus it is handed, an
:class:`~repro.control.ha.HACluster` of ``replicas >= 1`` (a lone
controller is a cluster of one), one :class:`~repro.control.agent.Agent`
per node, and the traffic every epoch draws from, and
:meth:`ControlPlane.run_epoch` runs the four beats::

    t + 0.00   agents measure their ingress traffic, export NetFlow
               reports, and heartbeat
    t + 0.25   controllers drain the bus, sweep for missed heartbeats,
               re-plan if warranted, push manifest (delta) updates
    t + 0.50   agents apply updates (dual-manifest window) and ack
    t + 0.75   controllers collect acks and the epoch record closes

Traffic is drawn from per-profile session *pools* with a volume-scaled
prefix per epoch (:class:`~repro.traffic.dynamics.DiurnalBurstModel`),
so steady-state epochs present near-identical unit sets — the regime
in which delta distribution must win — while a profile switch presents
a genuine drift for the controller to detect.

Every run is one :class:`ScenarioConfig` through :func:`run_plan`.
Its :class:`FaultPlan` says what happens to the plane: :class:`ChaosBus`
applies the channel faults to every admitted message (an empty plan
admits every message unchanged), :func:`run_plan` the crashes,
restarts, controller outages and traffic shifts around each epoch.  The
scripted steady → shift → fail → recover schedule is one such plan, an
adversarial schedule another; the two callers,
:func:`~repro.control.scenarios.run_scenario` and
:func:`~repro.control.chaos.run_chaos`, differ only in how they score
each epoch's :class:`EpochFacts`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.units import build_units
from ..hashing.ranges import HashRange
from ..measurement.flows import FlowExporter
from ..nids.modules import STANDARD_MODULES
from ..obs import MetricsRegistry, NULL_REGISTRY, use_registry
from ..topology import PathSet, by_label
from ..topology.graph import Topology
from ..traffic.batch import SessionBatch
from ..traffic.dynamics import DiurnalBurstModel
from ..traffic.generator import GeneratorConfig, TrafficGenerator
from ..traffic.profiles import (
    attack_heavy_profile,
    mixed_profile,
    web_heavy_profile,
)
from ..traffic.session import Session
from .agent import Agent, AgentConfig
from .bus import Bus, BusConfig, Message
from .controller import Controller, ControllerConfig, replica_name
from .epochs import LEASE_TTL, EpochRecord, check_lease_ttl, coverage_metrics
from .ha import HACluster, HAConfig

PROFILES: Dict[str, Callable] = {
    "mixed": mixed_profile,
    "web_heavy": web_heavy_profile,
    "attack_heavy": attack_heavy_profile,
}

#: Which controller replicas the caller holds dead at a beat time.
DownFn = Callable[[float], frozenset]


def _all_up(now: float) -> frozenset:
    return frozenset()


# ---------------------------------------------------------------------------
# Fault plans

#: Fault kinds the channel layer applies per admitted message.
CHANNEL_FAULTS = ("partition", "loss_burst", "delay_burst", "duplicate", "reorder")
#: Fault kinds the epoch runner applies to processes.
PROCESS_FAULTS = ("crash", "controller_down")
#: Event kinds of a plan: faults, plus the runner-applied traffic shift.
FAULT_KINDS = CHANNEL_FAULTS + PROCESS_FAULTS + ("shift",)


@dataclass(frozen=True)
class FaultEvent:
    """One timed event, active over ``[start, end)`` scenario seconds.

    Field use by kind:

    * ``partition`` — drop messages from *src* to *dst* (either may be
      ``None`` = any): an asymmetric partition drops one direction only.
    * ``loss_burst`` — drop each message with probability *rate*.
    * ``delay_burst`` — delay every message by *delay* extra seconds.
    * ``duplicate`` — with probability *rate*, deliver a second copy
      *delay* seconds after the original.
    * ``reorder`` — with probability *rate*, hold a message back by
      *delay* seconds (beyond channel jitter), overtaking later sends.
    * ``crash`` — *node*'s NIDS process dies at *start* and restarts at
      *end*; ``warm=True`` restarts it holding its pre-crash manifest.
    * ``controller_down`` — a controller process is down: it takes no
      epoch beats and messages addressed to it are lost.  Under HA,
      *node* names the specific replica held down (``None`` = every
      replica).
    * ``shift`` — epochs in the window draw *profile* traffic instead
      of the run's base profile (``end=math.inf``: for good).  Not a
      fault: it never counts towards :attr:`FaultPlan.heal_time`.
    """

    kind: str
    start: float
    end: float
    src: Optional[str] = None
    dst: Optional[str] = None
    node: Optional[str] = None
    rate: float = 0.0
    delay: float = 0.0
    warm: bool = False
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not self.start < self.end:
            raise ValueError(f"fault window must satisfy start < end, got "
                             f"[{self.start}, {self.end})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.kind == "crash" and not self.node:
            raise ValueError("crash fault needs a node")
        if self.kind in ("loss_burst", "duplicate", "reorder") and self.rate <= 0:
            raise ValueError(f"{self.kind} fault needs rate > 0")
        if self.kind in ("delay_burst", "reorder") and self.delay <= 0:
            raise ValueError(f"{self.kind} fault needs delay > 0")
        if self.kind == "shift" and self.profile not in PROFILES:
            raise ValueError(
                f"shift event needs a profile in {sorted(PROFILES)}"
            )

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A named, validated schedule of fault events."""

    name: str
    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        crashed: Set[str] = set()
        for event in self.events:
            if event.kind == "crash":
                if event.node in crashed:
                    raise ValueError(
                        f"plan {self.name!r}: node {event.node!r} has"
                        " overlapping crash events"
                    )
                crashed.add(event.node)

    @property
    def heal_time(self) -> float:
        """When the last fault window closes (0.0 for an empty plan)."""
        return max(
            (event.end for event in self.events if event.kind != "shift"),
            default=0.0,
        )

    def controller_down(self, now: float, name: str) -> bool:
        """Whether controller replica *name* is held down at *now*: an
        event whose ``node`` is ``None`` downs every replica."""
        return any(
            event.kind == "controller_down"
            and event.active(now)
            and event.node in (None, name)
            for event in self.events
        )

    def channel_events(self, now: float) -> List[FaultEvent]:
        return [
            e
            for e in self.events
            if e.kind in CHANNEL_FAULTS + ("controller_down",) and e.active(now)
        ]

    def crash_events(self) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == "crash"]

    def profile_at(self, now: float, base: str) -> str:
        """The traffic profile at *now*: the last active shift's, else
        *base*."""
        profile = base
        for event in self.events:
            if event.kind == "shift" and event.active(now):
                profile = event.profile
        return profile


#: The plan of a run nothing happens to.
NO_FAULTS = FaultPlan(name="none", events=())


class ChaosBus(Bus):
    """A :class:`Bus` whose channel executes a :class:`FaultPlan`.

    Only the ``_admit`` extension point is overridden: the base class
    still accounts every send and applies its own (uniform) loss and
    jitter first; the chaos layer then decides the admitted message's
    fate.  All chaos randomness comes from a dedicated seeded RNG, so
    the fault schedule replays identically for a given seed regardless
    of how much base-channel randomness was consumed.
    """

    def __init__(
        self,
        plan: FaultPlan,
        config: Optional[BusConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        chaos_seed: int = 0,
        controller_names: Sequence[str] = (replica_name(0),),
    ):
        super().__init__(config, registry)
        self.plan = plan
        #: Every controller process identity (HA replicas).
        self.controller_names = tuple(controller_names)
        self._chaos_rng = random.Random(chaos_seed ^ 0x5EED)
        # Pre-declared so a fault-free run still exports the family.
        self._injected = self.registry.counter(
            "chaos_injected_total",
            "fault-plan interventions applied to admitted messages",
            labels=("fault",),
        )

    def _matches_partition(self, event: FaultEvent, message: Message) -> bool:
        return (event.src is None or event.src == message.src) and (
            event.dst is None or event.dst == message.dst
        )

    def _admit(self, message: Message, now: float) -> Optional[Message]:
        rng = self._chaos_rng
        for event in self.plan.channel_events(now):
            kind = event.kind
            if kind == "partition":
                if self._matches_partition(event, message):
                    self._injected.inc(fault="partition")
                    self._drop_admitted(message)
                    return None
            elif kind == "controller_down":
                # A dead process receives nothing; its own sends are
                # suppressed by the runner not stepping it.
                if message.dst in self.controller_names and (
                    event.node is None or event.node == message.dst
                ):
                    self._injected.inc(fault="controller_down")
                    self._drop_admitted(message)
                    return None
            elif kind == "loss_burst":
                if rng.random() < event.rate:
                    self._injected.inc(fault="loss_burst")
                    self._drop_admitted(message)
                    return None
            elif kind == "delay_burst":
                self._injected.inc(fault="delay_burst")
                message = dataclasses.replace(
                    message, deliver_at=message.deliver_at + event.delay
                )
            elif kind == "reorder":
                if rng.random() < event.rate:
                    # Held back past messages sent after it — reordering
                    # beyond anything channel jitter produces.
                    self._injected.inc(fault="reorder")
                    message = dataclasses.replace(
                        message, deliver_at=message.deliver_at + event.delay
                    )
            elif kind == "duplicate":
                if rng.random() < event.rate:
                    self._injected.inc(fault="duplicate")
                    self._seq += 1
                    copy = dataclasses.replace(
                        message,
                        deliver_at=message.deliver_at + max(event.delay, 0.01),
                        seq=self._seq,
                    )
                    self._enqueue(copy)
        return super()._admit(message, now)


# ---------------------------------------------------------------------------
# The run


@dataclass
class ScenarioConfig:
    """Everything one coordination-plane run needs: topology, traffic,
    bus and controller shape, and the :class:`FaultPlan` applied to it.

    The defaults are those of an adversarial (chaos) run; the scripted
    schedule's own shape is :data:`~repro.control.scenarios.SCRIPTED`.
    """

    plan: FaultPlan = NO_FAULTS
    topology: str = "Internet2"
    epochs: int = 18
    base_sessions: int = 600
    profile: str = "mixed"
    seed: int = 7
    # Bus conditions.
    latency: float = 0.05
    jitter: float = 0.02
    loss_rate: float = 0.0
    # Traffic dynamics; the defaults are the volume model's own.
    diurnal_amplitude: float = DiurnalBurstModel.diurnal_amplitude
    burst_probability: float = DiurnalBurstModel.burst_probability
    # Controller / agent tunables.
    heartbeat_timeout: float = 2.2
    transition_window: float = 2.0
    #: Re-plan at least every this many epochs regardless of drift;
    #: 0 re-plans on drift, failure and recovery only.
    resolve_every: int = 0
    #: Redundancy level r the controller plans at (paper §3: every
    #: unit analyzed by ``r`` distinct on-path nodes).
    coverage: float = 1.0
    #: Epoch-lease TTL for graceful degradation.
    lease_ttl: float = LEASE_TTL
    #: Epochs allowed between the last fault healing and a settled,
    #: fully coordinated configuration (the invariant monitor's budget).
    reconverge_epochs: int = 4
    #: Controller replica count; the HA acceptance plans raise this to
    #: their own floor (``chaos.HA_PLAN_REPLICAS``) so they run unchanged.
    replicas: int = 1

    def __post_init__(self) -> None:
        check_lease_ttl(self.lease_ttl)
        if self.replicas < 1:
            raise ValueError("a run needs at least one controller replica")

    @property
    def profiles(self) -> Set[str]:
        """Every traffic profile the run draws: the base and each shift's."""
        return {self.profile} | {
            event.profile for event in self.plan.events if event.kind == "shift"
        }


def unit_capacity_topology(label: str) -> Topology:
    """The topology every control-plane run plans over: *label* with
    uniform unit CPU/memory capacities."""
    return by_label(label).set_uniform_capacities(cpu=1.0, mem=1.0)


def profile_pools(
    names: Iterable[str], seed: int, topology, paths, pool_size: int
) -> Dict[str, SessionBatch]:
    """One session pool per traffic profile in *names*.

    Epochs slice a volume-scaled prefix of the active pool, so the
    steady-state unit set is stable across epochs (the regime where
    manifest deltas must stay small) while still scaling with the
    diurnal volume.
    """
    pools: Dict[str, SessionBatch] = {}
    for offset, name in enumerate(sorted(set(names))):
        generator = TrafficGenerator(
            topology,
            paths,
            profile=PROFILES[name](),
            config=GeneratorConfig(seed=seed + 101 * offset),
        )
        pools[name] = generator.generate(pool_size)
    return pools


@dataclass
class EpochFacts:
    """What one epoch established, for the caller's scorer."""

    #: The acting leader's record, or a placeholder carrying only the
    #: authority's standing view when no controller closed the epoch.
    record: EpochRecord
    sessions: SessionBatch
    #: The controller whose view of the deployment counted at epoch end.
    authority: Controller
    #: A settled leader took both beats and closed the record.
    controller_up: bool
    #: Live agents in edge-only fallback at epoch end.
    degraded: Tuple[str, ...]
    #: A crashed node's ranges are still in the active configuration
    #: (including the gap between the crash and its detection).
    failure_unrepaired: bool
    #: Agents the plan crashed / restarted at the start of the epoch.
    crashed: Tuple[str, ...] = ()
    restarted: Tuple[str, ...] = ()


class ControlPlane:
    """Controllers, agents and traffic of one run, advanced per epoch."""

    def __init__(
        self,
        topology: Topology,
        bus: Bus,
        controller_config: ControllerConfig,
        ha_config: HAConfig,
        agent_config: AgentConfig,
        volume_model: DiurnalBurstModel,
        epochs: int,
        profiles: Iterable[str],
        seed: int,
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        self.topology = topology
        self.paths = PathSet(topology)
        self.modules = list(STANDARD_MODULES)
        self.bus = bus
        self.registry = registry
        self.cluster = HACluster(
            topology,
            self.paths,
            self.modules,
            bus,
            controller_config,
            ha_config,
            registry=registry,
        )
        self.agents: Dict[str, Agent] = {
            node: Agent(
                node,
                bus,
                exporter=FlowExporter(seed=seed + index),
                config=agent_config,
                registry=registry,
            )
            for index, node in enumerate(topology.node_names)
        }
        self.volumes = volume_model.series(epochs)
        self.pools = profile_pools(
            profiles, seed, topology, self.paths, max(self.volumes)
        )

    def _served_manifests(self, units) -> Dict[str, object]:
        """What each live agent actually serves: its applied manifest,
        or — degraded — its edge-only stance (every unit it is an
        endpoint of, in full), not the manifest it distrusts."""
        served = {}
        full = (HashRange(0.0, 1.0),)
        for node, agent in self.agents.items():
            if not agent.alive:
                continue
            if not agent.degraded:
                served[node] = agent.manifest
                continue
            entries = {
                (unit.class_name, unit.key): full
                for unit in units
                if node in unit.key
            }
            served[node] = dataclasses.replace(
                agent.manifest, entries=entries, full=False
            )
        return served

    def run_epoch(
        self, epoch: int, profile: str, down: DownFn = _all_up
    ) -> EpochFacts:
        """Run the four beats of *epoch* on *profile* traffic.

        *down* is asked at each controller beat, so a controller really
        can die between its push beat and its ack beat.
        """
        t = float(epoch)
        agents, cluster, bus = self.agents, self.cluster, self.bus
        sessions = self.pools[profile][: self.volumes[epoch]]
        by_ingress: Dict[str, List[Session]] = defaultdict(list)
        for session in sessions:
            by_ingress[session.ingress].append(session)
        sent_before = bus.stats.sent
        bytes_before = bus.stats.bytes_sent

        for node, agent in agents.items():
            agent.step(t, sessions=by_ingress.get(node, []))
        cluster.step(t + 0.25, down(t + 0.25))
        for agent in agents.values():
            agent.step(t + 0.5)
        record = cluster.finish_epoch(t + 0.75, down(t + 0.75))

        acting = cluster.acting_leader()
        authority = cluster.authority
        controller_up = (
            acting is not None and not acting.rebuilding and record is not None
        )
        if record is None:
            record = EpochRecord(epoch=epoch, time=t)
            record.failed_nodes = tuple(sorted(authority.monitor.failed))
            record.fenced_nodes = tuple(sorted(authority.fenced))
            record.config_version = authority.version
            record.converged = not authority.unsynced_live_nodes()
        record.sessions = len(sessions)
        record.messages_sent = bus.stats.sent - sent_before
        record.bytes_sent = bus.stats.bytes_sent - bytes_before

        # Ground-truth coverage: what the *actually live* agents serve
        # of this epoch's real traffic.
        truth_units = build_units(self.modules, sessions, self.paths)
        live = {node for node, agent in agents.items() if agent.alive}
        summary = coverage_metrics(
            truth_units, self._served_manifests(truth_units), live
        )
        record.coverage = summary.coverage
        record.min_unit_coverage = summary.min_unit_coverage
        record.orphaned_fraction = summary.orphaned_fraction
        self.registry.gauge(
            "epoch_coverage",
            "ground-truth volume-weighted coverage of the latest epoch",
        ).set(record.coverage)

        return EpochFacts(
            record=record,
            sessions=sessions,
            authority=authority,
            controller_up=controller_up,
            degraded=tuple(
                sorted(
                    node
                    for node, agent in agents.items()
                    if agent.alive and agent.degraded
                )
            ),
            failure_unrepaired=any(
                not agent.alive
                and authority.manifests.get(node) is not None
                and authority.manifests[node].entries
                for node, agent in agents.items()
            ),
        )


def run_plan(
    config: ScenarioConfig,
    registry: Optional[MetricsRegistry],
    score: Callable[[ControlPlane, EpochFacts], None],
) -> ControlPlane:
    """Run *config*'s plan against a fresh plane, handing each epoch's
    facts to *score*; returns the plane for the run's totals.

    *registry* (optional) receives the telemetry of every component of
    the run and is installed as the ambient registry for the duration,
    so the LP solves the controller triggers land in the same snapshot.
    """
    if registry is None:
        ambient, registry = contextlib.nullcontext(), NULL_REGISTRY
    else:
        ambient = use_registry(registry)
    plan = config.plan
    topology = unit_capacity_topology(config.topology)
    replica_names = tuple(replica_name(i) for i in range(config.replicas))
    known = set(topology.node_names) | set(replica_names)
    for event in plan.events:
        for name in (event.node, event.src, event.dst):
            if name is not None and name not in known:
                raise ValueError(
                    f"plan references unknown node {name!r};"
                    f" {config.topology} nodes are {sorted(known)}"
                )

    def down(now: float) -> frozenset:
        # Asked per beat: a process fault covers exactly the beats
        # inside its ``[start, end)`` window, for any replica count.
        return frozenset(
            name for name in replica_names if plan.controller_down(now, name)
        )

    crashes: Dict[int, List[FaultEvent]] = defaultdict(list)
    restarts: Dict[int, List[FaultEvent]] = defaultdict(list)
    for event in plan.crash_events():
        crashes[int(math.floor(event.start))].append(event)
        restarts[int(math.ceil(event.end))].append(event)

    with ambient:
        bus = ChaosBus(
            plan,
            BusConfig(config.latency, config.jitter, config.loss_rate, config.seed),
            registry=registry,
            chaos_seed=config.seed,
            controller_names=replica_names,
        )
        plane = ControlPlane(
            topology,
            bus,
            ControllerConfig(
                heartbeat_timeout=config.heartbeat_timeout,
                resolve_every=config.resolve_every,
                lease_ttl=config.lease_ttl,
                coverage=config.coverage,
                retry_seed=config.seed,
            ),
            HAConfig(replicas=config.replicas, leader_lease=config.lease_ttl),
            AgentConfig(config.transition_window, lease_ttl=config.lease_ttl),
            DiurnalBurstModel(
                base_sessions=config.base_sessions,
                diurnal_amplitude=config.diurnal_amplitude,
                burst_probability=config.burst_probability,
                seed=config.seed,
            ),
            epochs=config.epochs,
            profiles=config.profiles,
            seed=config.seed,
            registry=registry,
        )
        for epoch in range(config.epochs):
            crashed, restarted = crashes[epoch], restarts[epoch]
            for event in crashed:
                plane.agents[event.node].crash()
            for event in restarted:
                plane.agents[event.node].recover(warm=event.warm)
            facts = plane.run_epoch(
                epoch, plan.profile_at(epoch, config.profile), down
            )
            facts.crashed = tuple(event.node for event in crashed)
            facts.restarted = tuple(event.node for event in restarted)
            score(plane, facts)
    return plane
