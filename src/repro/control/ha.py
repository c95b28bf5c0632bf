"""The set of controller processes behind one operations center.

The paper's operations center is a single logical entity; at ISP scale
a lone controller process is the deployment's single point of failure.
PR 5's fault model only *survives* a controller outage — agents degrade
to edge-only fallback when their epoch lease lapses — it never
*recovers* coordinated operation until the same process returns.
Term-fenced standby failover closes that gap: each
:class:`~repro.control.controller.Controller` is one controller
*process*, and its role, term, election and epoch-log handoff are one
state machine, :class:`~repro.control.replication.ReplicatedLog`
(``Controller.replication``; that module's docstring has the protocol).

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
    failover_registry,
)
from .replication import (
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
        #: Where the cluster-level failover gauge goes.
        self._failover_registry = failover_registry(self.registry, ha_config)

    # -- leadership views --------------------------------------------------
    def leaders(self) -> List[Controller]:
        """Every alive replica currently acting as leader (more than
        one only mid-partition, in distinct terms)."""
        return [
            replica
            for replica in self.replicas
            if replica.alive and replica.replication.role == "leader"
        ]

    def acting_leader(self) -> Optional[Controller]:
        """The alive leader with the highest term (None while the
        cluster is leaderless)."""
        return max(
            self.leaders(),
            key=lambda replica: replica.replication.term,
            default=None,
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
            return max(alive, key=lambda replica: replica.replication.term)
        return self.replicas[0]

    def settled(self) -> bool:
        """Exactly one alive leader, and it is done rebuilding."""
        leaders = self.leaders()
        return len(leaders) == 1 and not leaders[0].replication.rebuilding

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
        if acting is None or acting.replication.rebuilding:
            return False
        installed_at = acting.replication.installed_at
        return installed_at is not None and epoch <= int(installed_at) + 1

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
        self._failover_registry.gauge(
            "controller_ha_term",
            "current acting-leader election term",
        ).set(self._term())

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
    def _term(self) -> int:
        """The acting leader's term; the highest any replica holds
        while leaderless."""
        acting = self.acting_leader()
        if acting is not None:
            return acting.replication.term
        return max(replica.replication.term for replica in self.replicas)

    def summary(self) -> dict:
        """JSON-compatible snapshot of the cluster's failover history."""
        acting = self.acting_leader()
        machines = [replica.replication for replica in self.replicas]
        return {
            "leader": acting.name if acting is not None else None,
            "term": self._term(),
            "settled": self.settled(),
            "elections": sum(m.elections for m in machines),
            "depositions": sum(m.depositions for m in machines),
            "replicas": [
                {
                    "name": replica.name,
                    "role": machine.role,
                    "term": machine.term,
                    "alive": replica.alive,
                    "rebuilding": machine.rebuilding,
                    "log_size": len(machine.log),
                    "elections": machine.elections,
                    "depositions": machine.depositions,
                    "handoff_entries": machine.handoff_entries,
                    "handoffs_sent": machine.handoffs_sent,
                }
                for replica, machine in zip(self.replicas, machines)
            ],
        }
