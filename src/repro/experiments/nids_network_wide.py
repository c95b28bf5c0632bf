"""Network-wide NIDS experiments (paper Figs. 6, 7, 8).

Each driver builds the paper's Internet2 setup — gravity-model traffic
matrix from city populations, shortest-path routing on link distances,
uniform node capacities — plans the coordinated deployment, emulates
both the edge-only and coordinated configurations, and returns the
series the corresponding figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.nids_deployment import NIDSDeployment, plan_deployment
from ..nids.emulation import (
    ComparisonRow,
    DeploymentUsage,
    EmulationConfig,
    Traffic,
    run_emulation,
)
from ..nids.modules import module_set
from ..nids.resources import CostModel, DEFAULT_COST_MODEL
from ..topology.datasets import internet2
from ..topology.graph import Topology
from ..topology.routing import PathSet
from ..traffic.generator import GeneratorConfig, TrafficGenerator
from ..traffic.profiles import mixed_profile
from .config import scaled

#: The paper's experiment constants.
PAPER_SESSIONS = 100_000
PAPER_MODULE_COUNTS = (8, 10, 12, 14, 16, 18, 21)
PAPER_VOLUME_POINTS = (20_000, 40_000, 60_000, 80_000, 100_000)
FULL_MODULES = 21


@dataclass
class NetworkWideSetup:
    """Shared fixture for the Figs. 6–8 experiments."""

    topology: Topology
    paths: PathSet
    generator: TrafficGenerator

    @classmethod
    def internet2(cls, seed: int = 42) -> "NetworkWideSetup":
        """The paper's Internet2 setup with a seeded generator."""
        topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
        paths = PathSet(topology)
        generator = TrafficGenerator(
            topology,
            paths,
            profile=mixed_profile(),
            config=GeneratorConfig(seed=seed),
        )
        return cls(topology=topology, paths=paths, generator=generator)

    def deployment(self, sessions, num_modules: int) -> NIDSDeployment:
        """Plan a coordinated deployment for *sessions* (a ``Session``
        list, or the ``SessionBatch`` the emulation also reads)."""
        return plan_deployment(
            self.topology, self.paths, module_set(num_modules), sessions
        )


def fig6_module_scaling(
    seed: int = 42,
    sessions_total: Optional[int] = None,
    module_counts: Sequence[int] = PAPER_MODULE_COUNTS,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[ComparisonRow]:
    """Fig. 6: max per-node memory/CPU as the module count grows.

    Traffic volume is fixed (paper: 100,000 sessions) while duplicate
    HTTP/IRC/Login/TFTP instances grow the module set from 8 to 21.
    """
    setup = NetworkWideSetup.internet2(seed)
    config = EmulationConfig(cost_model=cost_model)
    total = sessions_total if sessions_total is not None else scaled(PAPER_SESSIONS)
    batch = setup.generator.generate(total)
    traffic = Traffic.materialized(setup.generator, batch)
    rows = []
    for count in module_counts:
        deployment = setup.deployment(batch, count)
        edge = run_emulation(traffic, deployment.modules, config=config)
        coord = run_emulation(traffic, deployment, config=config)
        rows.append(
            ComparisonRow(
                x=count,
                edge_cpu=edge.max_cpu,
                coord_cpu=coord.max_cpu,
                edge_mem_mb=edge.max_mem_mb,
                coord_mem_mb=coord.max_mem_mb,
            )
        )
    return rows


def fig7_volume_scaling(
    seed: int = 42,
    volume_points: Sequence[int] = PAPER_VOLUME_POINTS,
    num_modules: int = FULL_MODULES,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[ComparisonRow]:
    """Fig. 7: max per-node memory/CPU as traffic volume grows.

    The 21-module deployment is re-planned per volume (the operations
    center would re-run the LP as traffic reports change).
    """
    setup = NetworkWideSetup.internet2(seed)
    config = EmulationConfig(cost_model=cost_model)
    rows = []
    for volume in volume_points:
        batch = setup.generator.generate(scaled(volume))
        traffic = Traffic.materialized(setup.generator, batch)
        deployment = setup.deployment(batch, num_modules)
        edge = run_emulation(traffic, deployment.modules, config=config)
        coord = run_emulation(traffic, deployment, config=config)
        rows.append(
            ComparisonRow(
                x=volume,
                edge_cpu=edge.max_cpu,
                coord_cpu=coord.max_cpu,
                edge_mem_mb=edge.max_mem_mb,
                coord_mem_mb=coord.max_mem_mb,
            )
        )
    return rows


@dataclass
class PerNodeProfile:
    """Fig. 8: per-node CPU/memory under both deployments."""

    nodes: List[str]
    edge: DeploymentUsage
    coordinated: DeploymentUsage

    def rows(self) -> List[Tuple[str, float, float, float, float]]:
        """(node, edge cpu, coord cpu, edge mem MB, coord mem MB)."""
        return [
            (
                node,
                self.edge.cpu(node),
                self.coordinated.cpu(node),
                self.edge.mem_mb(node),
                self.coordinated.mem_mb(node),
            )
            for node in self.nodes
        ]


def fig8_per_node_profile(
    seed: int = 42,
    sessions_total: Optional[int] = None,
    num_modules: int = FULL_MODULES,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PerNodeProfile:
    """Fig. 8: how coordination redistributes load across the 11 nodes.

    In the edge-only deployment New York (the paper's node 11, the
    heaviest gravity-model endpoint) is the hottest; coordination
    offloads its responsibilities to transit nodes.
    """
    setup = NetworkWideSetup.internet2(seed)
    config = EmulationConfig(cost_model=cost_model)
    total = sessions_total if sessions_total is not None else scaled(PAPER_SESSIONS)
    batch = setup.generator.generate(total)
    traffic = Traffic.materialized(setup.generator, batch)
    deployment = setup.deployment(batch, num_modules)
    edge = run_emulation(traffic, deployment.modules, config=config)
    coord = run_emulation(traffic, deployment, config=config)
    return PerNodeProfile(
        nodes=setup.topology.node_names, edge=edge, coordinated=coord
    )


def format_comparison_table(rows: Sequence[ComparisonRow], x_label: str) -> str:
    """Render a Fig. 6/7 series as an aligned text table."""
    header = (
        f"{x_label:>12} {'edge cpu':>12} {'coord cpu':>12} {'cpu red':>8}"
        f" {'edge MB':>9} {'coord MB':>9} {'mem red':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.x:>12.0f} {row.edge_cpu:>12.0f} {row.coord_cpu:>12.0f}"
            f" {row.cpu_reduction:>7.1%} {row.edge_mem_mb:>9.1f}"
            f" {row.coord_mem_mb:>9.1f} {row.mem_reduction:>7.1%}"
        )
    return "\n".join(lines)
