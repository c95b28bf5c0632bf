"""The set of controller processes behind one operations center.

The paper's operations center is a single logical entity; at ISP scale
a lone controller process is the deployment's single point of failure.
PR 5's fault model only *survives* a controller outage — agents degrade
to edge-only fallback when their epoch lease lapses — it never
*recovers* coordinated operation until the same process returns.
Term-fenced standby failover closes that gap, and lives where the
state it fences lives: each :class:`~repro.control.controller.Controller`
is one controller *process* that knows its replica index, its peers,
its role and term, and how to elect, replicate and hand off (see that
module's docstring for the protocol).

:class:`HACluster` is only the set of those processes on one
:class:`~repro.control.bus.Bus`: it builds ``HAConfig.replicas`` of
them, crashes and restarts the ones the fault plan holds down, gives
every running one its beat in index order, and answers the questions
an observer asks of the set — who leads, whose view counts, is the
takeover settled.  A lone controller is a cluster of one.  See
``docs/fault_model.md`` for the failover sequence and invariants, and
:mod:`repro.control.chaos` for the acceptance plans
(``leader-crash-mid-push``, ``leader-partition``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..nids.modules.base import ModuleSpec
from ..obs import MetricsRegistry, NULL_REGISTRY
from ..topology.graph import Topology
from ..topology.routing import PathSet
from .bus import Bus
from .controller import (
    Controller,
    ControllerConfig,
    HAConfig,
    SolveFn,
    replica_name,  # re-exported: callers name a cluster's processes with it
)
from .epochs import EpochRecord


class HACluster:
    """N controller processes presenting a single-controller surface.

    The epoch driver calls :meth:`step` and :meth:`finish_epoch` where
    a lone controller's would go, passing the set of replicas the fault
    plan currently holds down.
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
        ha_config = ha_config or HAConfig()
        self.bus = bus
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.replicas: List[Controller] = [
            Controller(
                topology,
                paths,
                modules,
                bus,
                controller_config,
                solve_fn,
                registry,
                index,
                ha_config,
            )
            for index in range(ha_config.replicas)
        ]
        #: Where the cluster-level failover gauge goes.  A lone
        #: controller cannot fail over, so it exports none of the
        #: failover families and its snapshot stays a plain controller's.
        self._failover_registry = (
            self.registry if len(self.replicas) > 1 else NULL_REGISTRY
        )

    # -- leadership views --------------------------------------------------
    def leaders(self) -> List[Controller]:
        """Every alive replica currently acting as leader (more than
        one only mid-partition, in distinct terms)."""
        return [
            replica
            for replica in self.replicas
            if replica.alive and replica.role == "leader"
        ]

    def acting_leader(self) -> Optional[Controller]:
        """The alive leader with the highest term (None while the
        cluster is leaderless)."""
        return max(
            self.leaders(), key=lambda replica: replica.term, default=None
        )

    @property
    def authority(self) -> Controller:
        """The controller whose view of the deployment currently
        counts: the acting leader, else (leaderless) the most advanced
        alive replica — purely for observation; a standby never
        acts."""
        acting = self.acting_leader()
        if acting is not None:
            return acting
        alive = [replica for replica in self.replicas if replica.alive]
        if alive:
            return max(alive, key=lambda replica: replica.term)
        return self.replicas[0]

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
        in *down* is crashed and its inbox discarded (a dead process's
        queue drains to nowhere); one no longer held is restarted
        first."""
        for replica in self.replicas:
            if replica.name in down:
                self.bus.deliver(replica.name, now)
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
        # Else the lowest-index replica that closed one (index order).
        return next(iter(records.values()), None)

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
                    "elections": replica.stats.elections,
                    "depositions": replica.stats.depositions,
                    "handoff_entries": replica.stats.handoff_entries,
                    "handoffs_sent": replica.stats.handoffs_sent,
                }
                for replica in self.replicas
            ],
        }
