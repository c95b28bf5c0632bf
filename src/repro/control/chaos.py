"""Chaos injection and invariant monitoring for the coordination plane.

The scripted scenarios (:mod:`repro.control.scenarios`) exercise clean
crashes and uniform message loss.  This module subjects the same
controller–agent runtime to *adversarial* fault schedules — the kind
distributed-NIDS deployments actually face — and proves, per epoch,
that graceful degradation holds the paper's coverage guarantees
(``docs/fault_model.md``):

* a deterministic, seeded :class:`FaultPlan` of timed
  :class:`FaultEvent` s: asymmetric partitions, loss and delay bursts,
  message duplication, reordering beyond channel jitter, agent
  crash/warm-restart-with-stale-epoch, controller outage windows;
* :class:`ChaosBus`, a :class:`~repro.control.bus.Bus` subclass that
  applies the plan's channel faults to every admitted message via the
  ``_admit`` extension point (process faults — crashes, controller
  outages — are applied by the runner);
* :class:`InvariantMonitor`, which checks after every epoch that
  (1) no session whose edge-only baseline would cover it goes
  unanalyzed outside a declared transition window, (2) no stale-epoch
  manifest is served past its lease, (3) the plane reconverges to
  a coordinated configuration within a bounded number of epochs after
  the last fault heals, and — under controller HA
  (:mod:`repro.control.ha`) — (4) at most one acting leader exists per
  term at every epoch boundary and no leader ignores higher-term
  evidence, and (5) no agent's applied ``(term, version)`` pair ever
  regresses across a takeover;
* :func:`run_chaos`, which applies the plan's process faults around
  each :class:`~repro.control.plane.ControlPlane` epoch — the same
  driver :func:`~repro.control.scenarios.run_scenario` scores — and
  judges it with the monitor; exposed as ``repro control chaos``.

All randomness is seeded (REP002): the same plan, seed, and topology
replay the exact same fault schedule, so a CI failure is reproducible
locally with the seed it prints.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.manifest_table import ManifestTable
from ..core.units import session_unit_keys
from ..nids.modules.base import ModuleSpec, Scope
from ..obs import MetricsRegistry, NULL_REGISTRY
from ..traffic.batch import SessionBatch
from ..traffic.dynamics import DiurnalBurstModel
from ..traffic.session import Session
from .agent import Agent, AgentConfig
from .bus import Bus, BusConfig, BusStats, Message
from .controller import ControllerConfig, ControllerStats, replica_name
from .epochs import EpochRecord
from .ha import HACluster, HAConfig
from .plane import ControlPlane, unit_capacity_topology, with_registry
from .scenarios import COVERAGE_FLOOR

#: Fault kinds the channel layer applies per admitted message.
CHANNEL_FAULTS = ("partition", "loss_burst", "delay_burst", "duplicate", "reorder")
#: Fault kinds the epoch runner applies to processes.
PROCESS_FAULTS = ("crash", "controller_down")
FAULT_KINDS = CHANNEL_FAULTS + PROCESS_FAULTS


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault, active over ``[start, end)`` scenario seconds.

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
        return max((event.end for event in self.events), default=0.0)

    def controller_down(self, now: float, name: Optional[str] = None) -> bool:
        """Whether a controller process is held down at *now*.

        With *name* the check is per replica: an event whose ``node``
        is ``None`` downs every replica, otherwise only the named one.
        Without *name* (single-controller callers) any active
        ``controller_down`` event counts.
        """
        for event in self.events:
            if event.kind != "controller_down" or not event.active(now):
                continue
            if event.node is None or name is None or event.node == name:
                return True
        return False

    def channel_events(self, now: float) -> List[FaultEvent]:
        return [
            e
            for e in self.events
            if e.kind in CHANNEL_FAULTS + ("controller_down",) and e.active(now)
        ]

    def crash_events(self) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == "crash"]


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
        controller: str = "controller",
        controller_names: Optional[Sequence[str]] = None,
    ):
        super().__init__(config, registry)
        self.plan = plan
        self.controller_name = controller
        #: Every controller process identity (HA replicas).
        self.controller_names: Tuple[str, ...] = (
            tuple(controller_names) if controller_names else (controller,)
        )
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
                    self._in_flight.append(copy)
        return super()._admit(message, now)


# ---------------------------------------------------------------------------
# Named plans


def _controller_outage(epochs: int, nodes: Sequence[str], rng: random.Random
                       ) -> Tuple[FaultEvent, ...]:
    """The acceptance-criterion plan: a total operations-center outage
    long enough that every agent's lease expires mid-window."""
    start = 4.0
    end = min(float(epochs) - 6.0, start + 5.0)
    return (FaultEvent(kind="controller_down", start=start, end=end),)


def _asym_partition(epochs: int, nodes: Sequence[str], rng: random.Random
                    ) -> Tuple[FaultEvent, ...]:
    """Controller→agent direction cut only: the agent's heartbeats
    still arrive (so it is never declared dead) but it hears no
    renewals — the lease is what turns this silent staleness into
    explicit edge-only fallback."""
    node = rng.choice(sorted(nodes))
    return (
        FaultEvent(
            kind="partition", start=4.0, end=min(float(epochs) - 6.0, 9.0),
            src="controller", dst=node,
        ),
    )


def _agent_restart_stale(epochs: int, nodes: Sequence[str], rng: random.Random
                         ) -> Tuple[FaultEvent, ...]:
    """Crash an agent and warm-restart it holding its pre-crash
    manifest, under duplicated delivery — the §5 recovery-with-stale-
    state case plus idempotency stress."""
    node = rng.choice(sorted(nodes))
    return (
        FaultEvent(kind="crash", start=4.0, end=7.0, node=node, warm=True),
        FaultEvent(kind="duplicate", start=3.0, end=min(float(epochs) - 6.0, 10.0),
                   rate=0.5, delay=0.12),
    )


def _lossy_burst(epochs: int, nodes: Sequence[str], rng: random.Random
                 ) -> Tuple[FaultEvent, ...]:
    """Correlated channel degradation: a loss burst overlapping delay,
    duplication, and reordering windows."""
    end = min(float(epochs) - 6.0, 9.0)
    return (
        FaultEvent(kind="loss_burst", start=4.0, end=end, rate=0.3),
        FaultEvent(kind="delay_burst", start=4.5, end=end, delay=0.1),
        FaultEvent(kind="duplicate", start=4.0, end=end, rate=0.3, delay=0.15),
        FaultEvent(kind="reorder", start=4.0, end=end, rate=0.3, delay=0.3),
    )


def _leader_crash_mid_push(epochs: int, nodes: Sequence[str], rng: random.Random
                           ) -> Tuple[FaultEvent, ...]:
    """HA acceptance plan 1: the acting leader dies *between* its push
    beat and its ack beat — agents hold an applied-but-unacknowledged
    configuration the standbys only know through the epoch log.  A
    standby must promote, rebuild from log + heartbeat claims, and
    resume coordinated service without ever regressing an epoch."""
    return (
        FaultEvent(
            kind="controller_down",
            start=0.4,
            end=min(float(epochs) - 6.0, 12.0),
            node=replica_name(0),
        ),
    )


def _leader_partition(epochs: int, nodes: Sequence[str], rng: random.Random
                      ) -> Tuple[FaultEvent, ...]:
    """HA acceptance plan 2: the acting leader is partitioned away with
    a quarter of the agents still on its side — it keeps serving them
    at its old term while a standby promotes for the majority side.
    Dual leadership in *distinct* terms is legal during the partition;
    after it heals the old leader must depose on first higher-term
    evidence (announce or agent nack) and no agent's applied
    ``(term, version)`` may regress."""
    ordered = sorted(nodes)
    old_side = sorted(rng.sample(ordered, max(1, len(ordered) // 4)))
    far_side = [n for n in ordered if n not in set(old_side)]
    leader = replica_name(0)
    standbys = (replica_name(1), replica_name(2))
    start = 4.0
    end = min(float(epochs) - 6.0, 10.0)
    events: List[FaultEvent] = []
    for peer in standbys:
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=leader, dst=peer))
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=peer, dst=leader))
    for node in far_side:
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=leader, dst=node))
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=node, dst=leader))
    for node in old_side:
        for peer in standbys:
            events.append(FaultEvent(kind="partition", start=start, end=end,
                                     src=peer, dst=node))
            events.append(FaultEvent(kind="partition", start=start, end=end,
                                     src=node, dst=peer))
    return tuple(events)


NAMED_PLANS = {
    "controller-outage": _controller_outage,
    "asym-partition": _asym_partition,
    "agent-restart-stale": _agent_restart_stale,
    "lossy-burst": _lossy_burst,
    "leader-crash-mid-push": _leader_crash_mid_push,
    "leader-partition": _leader_partition,
}

#: Minimum replica count a named plan needs; the runner raises the
#: configured count to this floor so the HA acceptance plans run
#: unchanged under ``repro control chaos`` and ``repro sweep``.
HA_PLAN_REPLICAS = {
    "leader-crash-mid-push": 3,
    "leader-partition": 3,
}


def random_fault_plan(
    seed: int, epochs: int, nodes: Sequence[str]
) -> FaultPlan:
    """A seeded adversarial schedule of 2–4 faults.

    Windows all close by ``epochs - 5`` so every plan leaves room for
    the reconvergence invariant to be judged.
    """
    rng = random.Random(seed)
    horizon = float(epochs) - 5.0
    if horizon <= 3.0:
        raise ValueError(
            f"need at least 9 epochs for a random plan, got {epochs}"
        )
    ordered = sorted(nodes)
    events: List[FaultEvent] = []
    crashed: Set[str] = set()
    for _ in range(rng.randint(2, 4)):
        start = round(rng.uniform(2.0, horizon - 1.5), 2)
        end = round(min(horizon, start + rng.uniform(1.0, 4.0)), 2)
        kind = rng.choice(
            ("partition", "loss_burst", "delay_burst", "duplicate",
             "reorder", "crash", "controller_down")
        )
        if kind == "partition":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                src="controller", dst=rng.choice(ordered),
            ))
        elif kind == "loss_burst":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                rate=round(rng.uniform(0.1, 0.4), 2),
            ))
        elif kind == "delay_burst":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                delay=round(rng.uniform(0.05, 0.2), 2),
            ))
        elif kind == "duplicate":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                rate=round(rng.uniform(0.2, 0.6), 2),
                delay=round(rng.uniform(0.05, 0.3), 2),
            ))
        elif kind == "reorder":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                rate=round(rng.uniform(0.2, 0.5), 2),
                delay=round(rng.uniform(0.2, 0.5), 2),
            ))
        elif kind == "crash":
            candidates = [n for n in ordered if n not in crashed]
            if not candidates:
                continue
            node = rng.choice(candidates)
            crashed.add(node)
            events.append(FaultEvent(
                kind=kind, start=start, end=end, node=node,
                warm=rng.random() < 0.5,
            ))
        else:  # controller_down
            events.append(FaultEvent(kind=kind, start=start, end=end))
    return FaultPlan(name=f"random-{seed}", events=tuple(events))


def build_plan(
    name: str, seed: int, epochs: int, nodes: Sequence[str]
) -> FaultPlan:
    """Resolve a plan by name (``random`` uses *seed* as schedule)."""
    if name == "random":
        return random_fault_plan(seed, epochs, nodes)
    try:
        factory = NAMED_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown plan {name!r}; choose from"
            f" {sorted(NAMED_PLANS) + ['random']}"
        ) from None
    if epochs < 14:
        raise ValueError(f"named plans need >= 14 epochs, got {epochs}")
    return FaultPlan(
        name=name, events=factory(epochs, nodes, random.Random(seed))
    )


# ---------------------------------------------------------------------------
# Invariant monitor


@dataclass(frozen=True)
class InvariantViolation:
    """One broken runtime guarantee, attributed to an epoch."""

    epoch: int
    #: "coverage-floor" | "stale-lease" | "reconvergence"
    #: | "leader-uniqueness" | "epoch-regression"
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"epoch {self.epoch} [{self.rule}]: {self.detail}"


@dataclass
class ChaosEpochRecord:
    """One chaos epoch: the plane's record plus ground-truth verdicts."""

    record: EpochRecord
    #: Live agents in edge-only fallback at epoch end.
    degraded_nodes: Tuple[str, ...] = ()
    controller_down: bool = False
    #: Epoch excluded from the coverage-floor assertion (declared
    #: transition window — see ``docs/fault_model.md``).
    excluded: bool = False
    #: (module, session) pairs the edge-only baseline would cover.
    baseline_pairs: int = 0
    #: Of those, pairs no live agent actually analyzed.
    uncovered_pairs: int = 0
    #: Acting leader at epoch end (``None`` without one; a lone
    #: controller is the leader whenever it is up).
    leader: Optional[str] = None
    #: Acting leader's fencing term (0 in single-replica runs).
    term: int = 0
    #: True when the replica set agrees on exactly one caught-up
    #: leader; a lone controller is settled whenever it is up.
    ha_settled: bool = True


class InvariantMonitor:
    """Per-epoch runtime assertions over the live agent/controller state.

    * **coverage-floor** — every (module, session) pair that the
      edge-only baseline deployment would analyze (some live node is an
      endpoint of its unit) is analyzed by at least one live agent,
      outside declared transition windows.
    * **stale-lease** — no live agent serves a coordinated manifest
      past its lease: lease expired ⇒ the agent is degraded.
    * **reconvergence** — within ``reconverge_epochs`` of the plan's
      heal time there is an epoch with no degradation, no fencing, no
      unsynced live node, and coverage at the scenario floor (and,
      under HA, a settled replica set).
    * **leader-uniqueness** — at most one acting leader per epoch
      *term*: two alive replicas never serve in the same term, and no
      replica keeps serving after observing a higher term.
    * **epoch-regression** — a live agent's applied ``(term, version)``
      never moves lexicographically backwards across a takeover.
    """

    def __init__(
        self,
        modules: Sequence[ModuleSpec],
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        self.modules = list(modules)
        self.violations: List[InvariantViolation] = []
        #: Per-agent high-water applied (term, version); cleared on
        #: restart (a cold restart legitimately forgets its manifest).
        self._applied_floor: Dict[str, Tuple[int, int]] = {}
        self._counter = registry.counter(
            "chaos_invariant_violations_total",
            "runtime invariant violations observed by the chaos monitor",
            labels=("rule",),
        )

    def _violate(self, epoch: int, rule: str, detail: str) -> None:
        self.violations.append(InvariantViolation(epoch, rule, detail))
        self._counter.inc(rule=rule)

    # -- per-epoch checks -------------------------------------------------
    def coverage_floor(
        self,
        epoch: int,
        sessions: Union[Sequence[Session], SessionBatch],
        agents: Dict[str, Agent],
        excluded: bool,
    ) -> Tuple[int, int]:
        """Count baseline-covered and baseline-covered-but-unanalyzed
        (module, session) pairs; record a violation when the latter is
        non-zero outside a transition window."""
        batch = SessionBatch.of(sessions)
        # Coordinated service, by unit: the applied manifests of the
        # agents that serve them.  A degraded agent answers from its
        # edge stance instead, a dead one not at all.  Built per call —
        # agents swap and repairs rewrite manifests between epochs.
        table = ManifestTable.from_manifests(
            {
                node: agent.manifest
                for node, agent in agents.items()
                if agent.alive and not agent.degraded
            }
        )
        by_scope: Dict[Scope, tuple] = {}
        baseline = 0
        uncovered = 0
        for spec in self.modules:
            if spec.scope not in by_scope:
                keys, unit_of_session = session_unit_keys(batch, spec.scope)
                # Per unit key, the stances of its live endpoints: the
                # baseline observes a unit that has one, and one in
                # edge-only fallback analyzes all of the unit.
                stances = [
                    [
                        agents[n].degraded
                        for n in key
                        if n in agents and agents[n].alive
                    ]
                    for key in keys
                ]
                by_scope[spec.scope] = (
                    keys,
                    unit_of_session,
                    np.array([bool(degraded) for degraded in stances], dtype=bool),
                    np.array([any(degraded) for degraded in stances], dtype=bool),
                )
            keys, unit_of_session, observable, edge = by_scope[spec.scope]
            matched = np.flatnonzero(
                spec.traffic_filter.matches_sessions_batch(batch.proto, batch.dport)
            )
            unit = unit_of_session[matched]
            seen = observable[unit]
            matched, unit = matched[seen], unit[seen]
            baseline += len(matched)
            analyzed = edge[unit] | table.contains_batch(
                table.unit_ids((spec.name, key) for key in keys)[unit],
                batch.hash_column(spec.aggregation, 0)[matched],
            )
            uncovered += len(matched) - int(np.count_nonzero(analyzed))
        # Tolerance mirrors the scenario COVERAGE_FLOOR: sessions whose
        # unit keys post-date the last re-plan are uncoverable by any
        # coordinated manifest until the next epoch's plan (planning
        # lag, not a fault) — while a real degradation failure uncovers
        # a large fraction at once.
        if uncovered > (1.0 - COVERAGE_FLOOR) * baseline and not excluded:
            self._violate(
                epoch,
                "coverage-floor",
                f"{uncovered}/{baseline} baseline-covered (module, session)"
                " pairs unanalyzed outside a transition window",
            )
        return baseline, uncovered

    def stale_leases(
        self, epoch: int, now: float, agents: Dict[str, Agent]
    ) -> None:
        """A lease that lapsed must have forced edge-only fallback."""
        for node, agent in agents.items():
            if not agent.alive or agent.config.lease_ttl is None:
                continue
            if (
                not agent.degraded
                and agent.applied_version >= 0
                and not agent.lease_valid(now)
            ):
                self._violate(
                    epoch,
                    "stale-lease",
                    f"{node} serves manifest v{agent.applied_version} with"
                    f" lease expired at {agent.lease_expires_at:.2f}"
                    f" (now {now:.2f})",
                )

    def leader_uniqueness(self, epoch: int, cluster: HACluster) -> None:
        """At most one acting leader per *term*, and no replica keeps
        serving after observing a higher term.

        Dual leadership in distinct terms is legal mid-partition (the
        deposed side simply has not heard the news yet) — split brain
        is two leaders in the *same* term, or a leader that saw
        higher-term evidence and kept serving anyway.
        """
        serving = cluster.leaders()
        by_term: Dict[int, List[str]] = defaultdict(list)
        for replica in serving:
            by_term[replica.term].append(replica.name)
        for term in sorted(by_term):
            names = by_term[term]
            if len(names) > 1:
                self._violate(
                    epoch,
                    "leader-uniqueness",
                    f"replicas {sorted(names)} both act as leader in"
                    f" term {term}",
                )
        for replica in serving:
            if replica.observed_term > replica.term:
                self._violate(
                    epoch,
                    "leader-uniqueness",
                    f"{replica.name} keeps serving term {replica.term}"
                    f" after observing term {replica.observed_term}",
                )

    def note_restart(self, node: str) -> None:
        """Forget an agent's applied floor across a restart — a cold
        restart legitimately returns at version -1."""
        self._applied_floor.pop(node, None)

    def epoch_regression(self, epoch: int, agents: Dict[str, Agent]) -> None:
        """No live agent's applied ``(term, version)`` moves backwards.

        A stale-term delta slipping past the fence shows up here: the
        deposed leader's push carries an older term (or rewinds the
        version), dragging the agent's applied pair below its
        high-water mark.
        """
        for node in sorted(agents):
            agent = agents[node]
            if not agent.alive:
                continue
            if agent.applied_version < 0:
                self._applied_floor.pop(node, None)
                continue
            pair = (agent.applied_term, agent.applied_version)
            floor = self._applied_floor.get(node)
            if floor is not None and pair < floor:
                self._violate(
                    epoch,
                    "epoch-regression",
                    f"{node} applied (term, version) regressed from"
                    f" {floor} to {pair}",
                )
            self._applied_floor[node] = max(pair, floor or pair)

    # -- end-of-run check -------------------------------------------------
    def reconvergence(
        self,
        chaos_records: Sequence[ChaosEpochRecord],
        heal_epoch: int,
        budget: int,
    ) -> Optional[int]:
        """The plane must settle within *budget* epochs of heal time;
        returns the first settled epoch at or after it, if any."""
        deadline = heal_epoch + budget
        for chaos_record in chaos_records:
            record = chaos_record.record
            if record.epoch < heal_epoch:
                continue
            if (
                record.converged
                and not chaos_record.degraded_nodes
                and not record.fenced_nodes
                and not chaos_record.controller_down
                and chaos_record.ha_settled
                and record.coverage >= COVERAGE_FLOOR
            ):
                if record.epoch > deadline:
                    self._violate(
                        record.epoch,
                        "reconvergence",
                        f"first settled epoch {record.epoch} is past the"
                        f" deadline {deadline} (heal {heal_epoch}, budget"
                        f" {budget})",
                    )
                return record.epoch
        last = chaos_records[-1].record.epoch if chaos_records else heal_epoch
        self._violate(
            last,
            "reconvergence",
            f"never settled after heal epoch {heal_epoch}"
            f" (deadline {deadline})",
        )
        return None


# ---------------------------------------------------------------------------
# Chaos runner


@dataclass
class ChaosConfig:
    """One chaos run: a scenario-shaped base plus a fault plan."""

    plan: FaultPlan
    topology: str = "Internet2"
    epochs: int = 18
    base_sessions: int = 600
    profile: str = "mixed"
    seed: int = 7
    latency: float = 0.05
    jitter: float = 0.02
    loss_rate: float = 0.0
    heartbeat_timeout: float = 2.2
    transition_window: float = 2.0
    resolve_every: int = 0
    #: Epoch-lease TTL: over two epochs, so two consecutive lost
    #: renewal beats do not trigger spurious degradation, but a real
    #: outage fences every agent well before the plan heals.
    lease_ttl: float = 2.5
    #: Epochs allowed between the last fault healing and a settled,
    #: fully coordinated configuration.
    reconverge_epochs: int = 4
    #: Redundancy level r the controller plans at.
    coverage: float = 1.0
    #: Controller replica count; the HA acceptance plans raise this to
    #: their own floor (``HA_PLAN_REPLICAS``) so they run unchanged.
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ValueError("chaos runs require a positive lease_ttl")
        if self.replicas < 1:
            raise ValueError("chaos runs need at least one controller replica")
        if self.epochs < self.plan.heal_time + 2:
            raise ValueError(
                f"plan {self.plan.name!r} heals at"
                f" {self.plan.heal_time:.1f} but the run is only"
                f" {self.epochs} epochs"
            )


@dataclass
class ChaosResult:
    """Everything observed across one chaos run."""

    config: ChaosConfig
    records: List[ChaosEpochRecord]
    violations: List[InvariantViolation]
    #: Epoch at which the first agent entered edge-only fallback.
    first_degraded_epoch: Optional[int] = None
    #: Epoch of the first settled (fully coordinated) state at or
    #: after the plan's heal time.
    reconverged_epoch: Optional[int] = None
    bus_stats: Optional[BusStats] = None
    controller_stats: Optional[ControllerStats] = None
    #: :meth:`HACluster.summary` snapshot (for every replica count).
    ha_summary: Optional[dict] = None

    def check_acceptance(self) -> List[str]:
        """Human-readable invariant violations (empty = pass)."""
        return [str(violation) for violation in self.violations]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_chaos(
    config: ChaosConfig,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosResult:
    """Execute the fault plan against a live coordination plane and
    judge every epoch with the invariant monitor."""
    return with_registry(_run_chaos, config, registry)


def _run_chaos(config: ChaosConfig, registry: MetricsRegistry) -> ChaosResult:
    topology = unit_capacity_topology(config.topology)
    replica_count = max(
        config.replicas, HA_PLAN_REPLICAS.get(config.plan.name, 1)
    )
    replica_names = tuple(replica_name(i) for i in range(replica_count))
    known = set(topology.node_names) | set(replica_names)
    for event in config.plan.events:
        for name in (event.node, event.src, event.dst):
            if name is not None and name not in known:
                raise ValueError(
                    f"plan references unknown node {name!r};"
                    f" {config.topology} nodes are {sorted(known)}"
                )
    bus = ChaosBus(
        config.plan,
        BusConfig(
            latency=config.latency,
            jitter=config.jitter,
            loss_rate=config.loss_rate,
            seed=config.seed,
        ),
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
        HAConfig(replicas=replica_count, leader_lease=config.lease_ttl),
        AgentConfig(
            transition_window=config.transition_window,
            lease_ttl=config.lease_ttl,
        ),
        DiurnalBurstModel(base_sessions=config.base_sessions, seed=config.seed),
        epochs=config.epochs,
        profiles=(config.profile,),
        seed=config.seed,
        registry=registry,
    )
    agents, cluster = plane.agents, plane.cluster

    def down(now: float) -> frozenset:
        # Asked per beat: a process fault covers exactly the beats
        # inside its ``[start, end)`` window, for any replica count.
        return frozenset(
            name for name in replica_names
            if config.plan.controller_down(now, name)
        )

    crashes_by_epoch: Dict[int, List[FaultEvent]] = defaultdict(list)
    restarts_by_epoch: Dict[int, List[FaultEvent]] = defaultdict(list)
    for event in config.plan.crash_events():
        crashes_by_epoch[int(math.floor(event.start))].append(event)
        restarts_by_epoch[int(math.ceil(event.end))].append(event)

    monitor = InvariantMonitor(plane.modules, registry=registry)
    result = ChaosResult(config=config, records=[], violations=monitor.violations)

    for epoch in range(config.epochs):
        for event in crashes_by_epoch.get(epoch, []):
            agents[event.node].crash()
        for event in restarts_by_epoch.get(epoch, []):
            agents[event.node].recover(warm=event.warm)
            monitor.note_restart(event.node)

        facts = plane.run_epoch(epoch, config.profile, down)
        record, controller = facts.record, facts.authority
        degraded, controller_up = facts.degraded, facts.controller_up
        if degraded and result.first_degraded_epoch is None:
            result.first_degraded_epoch = epoch

        # Transition windows excluded from the coverage-floor check
        # (docs/fault_model.md): a configuration still propagating, a
        # crashed node's ranges not yet repaired away, an expired agent
        # the controller has not yet fenced, or an outage epoch where
        # agents are (by design) serving lease-sanctioned *stale*
        # configuration — the controller cannot react to traffic drift
        # while down, and that bounded staleness is exactly what the
        # lease TTL prices in.  Once the leases expire, the whole plane
        # degrades atomically (absolute expiry) and the floor IS
        # asserted on every all-degraded outage epoch.
        fence_pending = any(
            node not in controller.fenced
            for node in degraded
        ) and controller_up
        mixed_versions = (
            len(
                {
                    (agent.applied_term, agent.applied_version)
                    for agent in agents.values()
                    if agent.alive and not agent.degraded
                }
            )
            > 1
        )
        stale_leased = (not controller_up) and any(
            agent.alive and not agent.degraded for agent in agents.values()
        )
        # A freshly promoted leader serves the configuration it rebuilt
        # from the epoch log — by construction pre-takeover — until its
        # first re-plan lands; that staleness is handoff transition.
        handoff_pending = cluster.handoff_stale(epoch)
        excluded = (
            (not record.converged)
            or facts.failure_unrepaired
            or fence_pending
            or mixed_versions
            or stale_leased
            or handoff_pending
        )
        record.in_transition = excluded

        baseline, uncovered = monitor.coverage_floor(
            epoch, facts.sessions, agents, excluded
        )
        monitor.stale_leases(epoch, epoch + 0.5, agents)
        monitor.epoch_regression(epoch, agents)
        monitor.leader_uniqueness(epoch, cluster)
        acting = cluster.acting_leader()

        result.records.append(
            ChaosEpochRecord(
                record=record,
                degraded_nodes=degraded,
                controller_down=not controller_up,
                excluded=excluded,
                baseline_pairs=baseline,
                uncovered_pairs=uncovered,
                leader=acting.name if acting is not None else None,
                term=acting.term if acting is not None else 0,
                ha_settled=cluster.settled(),
            )
        )

    heal_epoch = int(math.ceil(config.plan.heal_time))
    result.reconverged_epoch = monitor.reconvergence(
        result.records, heal_epoch, config.reconverge_epochs
    )

    result.bus_stats = bus.stats
    result.controller_stats = cluster.authority.stats
    result.ha_summary = cluster.summary()
    return result
