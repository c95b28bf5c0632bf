"""The one epoch driver of the coordination plane (paper §2.2, §5).

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

The two callers, :func:`~repro.control.scenarios.run_scenario` and
:func:`~repro.control.chaos.run_chaos`, differ only in what they do
around an epoch: which bus they hand over, which events they apply
before it, and how they score the :class:`EpochFacts` afterwards.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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
from .bus import Bus
from .controller import Controller, ControllerConfig
from .epochs import EpochRecord, coverage_metrics
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


def with_registry(run, config, registry: Optional[MetricsRegistry]):
    """Call ``run(config, registry)`` with *registry* installed as the
    ambient registry for the duration, so the LP solves the controller
    triggers land in the same snapshot as the control-plane telemetry
    (``None`` or a disabled registry runs against the null one)."""
    if registry is not None and registry.enabled:
        with use_registry(registry):
            return run(config, registry)
    return run(config, NULL_REGISTRY)


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
        sampling_rate: float = 1.0,
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
                exporter=FlowExporter(
                    sampling_rate=sampling_rate, seed=seed + index
                ),
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
