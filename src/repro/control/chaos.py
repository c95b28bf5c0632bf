"""Adversarial fault plans and the invariant monitor that scores them.

Every run drives the same controller–agent runtime through a
:class:`~repro.control.plane.FaultPlan` (:func:`~repro.control.plane.run_plan`);
this module supplies the *adversarial* plans — the kind distributed-NIDS
deployments actually face — and proves, per epoch, that graceful
degradation holds the paper's coverage guarantees
(``docs/fault_model.md``):

* named and seeded-random plans of timed
  :class:`~repro.control.plane.FaultEvent` s: asymmetric partitions,
  loss and delay bursts, message duplication, reordering beyond channel
  jitter, agent crash/warm-restart-with-stale-epoch, controller outage
  windows;
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
* :func:`run_chaos`, the monitor's scorer over
  :func:`~repro.control.plane.run_plan` — the loop
  :func:`~repro.control.scenarios.run_scenario` scores too; exposed as
  ``repro control chaos``.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..nids.modules import STANDARD_MODULES
from ..nids.modules.base import ModuleSpec
from ..obs import MetricsRegistry, NULL_REGISTRY
from .agent import Agent
from .bus import BusStats
from .controller import ControllerStats
from .epochs import EpochRecord, GroundTruth
from .ha import HACluster
from .replication import replica_name
from .plane import (  # ChaosBus: re-exported for bench/
    ChaosBus,
    ControlPlane,
    EpochFacts,
    FaultEvent,
    FaultPlan,
    ScenarioConfig,
    run_plan,
)
from .scenarios import COVERAGE_FLOOR

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
    def pair_counts(self, truth: GroundTruth) -> Tuple[int, int]:
        """Baseline-covered and baseline-covered-but-unanalyzed
        (module, session) pairs of *truth*'s sessions."""
        sessions = truth.sessions
        baseline = 0
        uncovered = 0
        for spec in self.modules:
            rows = truth.rows(spec)
            # Per unit key, the stances of its live endpoints: the
            # baseline observes a unit that has one, and one in
            # edge-only fallback analyzes all of the unit.
            ends = rows.eligibility.ends
            seen = truth.alive[ends].any(axis=1)[rows.unit]
            matched, unit = rows.matched[seen], rows.unit[seen]
            baseline += len(matched)
            # Coordinated service, by unit: the served table's pieces
            # (every row counts, on the unit's path or not).
            edge = truth.edge[ends].any(axis=1)[unit]
            analyzed = edge | truth.served.contains_batch(
                rows.group[unit], sessions.hash_column(spec.aggregation, 0)[matched]
            )
            uncovered += len(matched) - int(np.count_nonzero(analyzed))
        return baseline, uncovered

    def coverage_floor(
        self, epoch: int, truth: GroundTruth, excluded: bool
    ) -> Tuple[int, int]:
        """:meth:`pair_counts`, recording a violation when uncovered
        pairs exceed the floor's tolerance outside a transition window."""
        baseline, uncovered = self.pair_counts(truth)
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
            if not agent.alive:
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
            by_term[replica.replication.term].append(replica.name)
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
            machine = replica.replication
            if machine.observed_term > machine.term:
                self._violate(
                    epoch,
                    "leader-uniqueness",
                    f"{replica.name} keeps serving term {machine.term}"
                    f" after observing term {machine.observed_term}",
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
# Chaos scorer

#: An alias of :class:`~repro.control.plane.ScenarioConfig`, kept only
#: for ``bench/`` until ROADMAP item 1's ``[benchmark]`` PR.
ChaosConfig = ScenarioConfig


@dataclass
class ChaosResult:
    """Everything observed across one chaos run."""

    config: ScenarioConfig
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
    config: ScenarioConfig,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosResult:
    """Execute the fault plan against a live coordination plane and
    judge every epoch with the invariant monitor (*registry*: see
    :func:`~repro.control.plane.run_plan`)."""
    if config.epochs < config.plan.heal_time + 2:
        raise ValueError(
            f"plan {config.plan.name!r} heals at"
            f" {config.plan.heal_time:.1f} but the run is only"
            f" {config.epochs} epochs"
        )
    monitor = InvariantMonitor(
        STANDARD_MODULES, registry if registry is not None else NULL_REGISTRY
    )
    result = ChaosResult(config=config, records=[], violations=monitor.violations)

    def score(plane: ControlPlane, facts: EpochFacts) -> None:
        agents, cluster = plane.agents, plane.cluster
        record, controller = facts.record, facts.authority
        epoch = record.epoch
        degraded, controller_up = facts.degraded, facts.controller_up
        for node in facts.restarted:
            monitor.note_restart(node)
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

        baseline, uncovered = monitor.coverage_floor(epoch, facts.truth, excluded)
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
                term=acting.replication.term if acting is not None else 0,
                ha_settled=cluster.settled(),
            )
        )

    replicas = max(config.replicas, HA_PLAN_REPLICAS.get(config.plan.name, 1))
    plane = run_plan(
        dataclasses.replace(config, replicas=replicas), registry, score
    )

    heal_epoch = int(math.ceil(config.plan.heal_time))
    result.reconverged_epoch = monitor.reconvergence(
        result.records, heal_epoch, config.reconverge_epochs
    )

    result.bus_stats = plane.bus.stats
    result.controller_stats = plane.cluster.authority.stats
    result.ha_summary = plane.cluster.summary()
    return result
