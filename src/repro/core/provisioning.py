"""What-if provisioning analysis (paper Section 5).

"We can also extend the formulations ... to describe what-if
provisioning scenarios: where should an administrator add more
resources or augment existing deployments with more powerful
hardware."  Because both formulations are solved from explicit
capacity inputs, a what-if is simply a re-solve under hypothetical
capacities; this module packages the two analyses administrators ask
for:

* :func:`rank_nids_upgrades` — which single node's CPU/memory upgrade
  lowers the NIDS max-load objective the most;
* :func:`nips_tcam_sweep` — the footprint-reduction return curve of
  provisioning more TCAM per node (diminishing returns locate the
  knee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..topology.graph import Topology
from .nips_milp import NIPSProblem, solve_relaxation
from .nids_lp import solve_nids_lp
from .units import Units, UnitTable


@dataclass
class UpgradeOutcome:
    """Effect of one hypothetical node upgrade on the NIDS objective."""

    node: str
    baseline_objective: float
    upgraded_objective: float

    @property
    def improvement(self) -> float:
        """Fractional objective reduction the upgrade buys."""
        if self.baseline_objective <= 0:
            return 0.0
        return 1.0 - self.upgraded_objective / self.baseline_objective


def rank_nids_upgrades(
    units: Units,
    topology: Topology,
    cpu_factor: float = 2.0,
    mem_factor: float = 2.0,
    coverage: float = 1.0,
) -> List[UpgradeOutcome]:
    """Rank single-node upgrades by max-load improvement.

    Re-solves the Section 2.2 LP once per candidate node with that
    node's capacities scaled; the ranking tells the administrator where
    added hardware actually moves the bottleneck.
    """
    units = UnitTable.of(units)
    baseline = solve_nids_lp(units, topology, coverage).objective
    outcomes: List[UpgradeOutcome] = []
    for name in topology.node_names:
        candidate = topology.copy()
        candidate.scale_capacity(name, cpu_factor=cpu_factor, mem_factor=mem_factor)
        upgraded = solve_nids_lp(units, candidate, coverage).objective
        outcomes.append(
            UpgradeOutcome(
                node=name,
                baseline_objective=baseline,
                upgraded_objective=upgraded,
            )
        )
    outcomes.sort(key=lambda o: o.upgraded_objective)
    return outcomes


@dataclass
class BottleneckReport:
    """Dual-value sensitivity of the NIDS objective to each node."""

    objective: float
    #: Per node: how much of the objective's pressure comes from this
    #: node's CPU / memory max-constraints (LP duals; they sum to ~1).
    cpu_pressure: Dict[str, float]
    mem_pressure: Dict[str, float]

    def binding_nodes(self, threshold: float = 1e-6) -> List[str]:
        """Nodes whose constraints actually shape the optimum."""
        return sorted(
            {
                node
                for node, value in self.cpu_pressure.items()
                if value > threshold
            }
            | {
                node
                for node, value in self.mem_pressure.items()
                if value > threshold
            }
        )


def bottleneck_analysis(
    units: Units,
    topology: Topology,
    coverage: float = 1.0,
) -> BottleneckReport:
    """Locate the binding nodes from one LP solve's dual values.

    Where :func:`rank_nids_upgrades` re-solves the LP per candidate,
    this reads the answer off the duals of the per-node max-load
    constraints: only nodes with positive dual pressure constrain the
    objective, so only their upgrades can improve it.  One solve
    instead of ``N+1``.
    """
    from ..lp.solver import solve_or_raise
    from .nids_lp import build_nids_lp

    built = build_nids_lp(units, topology, coverage)
    solution = solve_or_raise(built.program)
    cpu_pressure = {}
    mem_pressure = {}
    for name in topology.node_names:
        cpu_pressure[name] = abs(solution.dual_by_name(f"cpu-max[{name}]"))
        mem_pressure[name] = abs(solution.dual_by_name(f"mem-max[{name}]"))
    return BottleneckReport(
        objective=solution.objective,
        cpu_pressure=cpu_pressure,
        mem_pressure=mem_pressure,
    )


@dataclass
class TCAMSweepPoint:
    """OptLP at one uniform TCAM capacity level."""

    cam_capacity: float
    objective: float


def nips_tcam_sweep(
    problem: NIPSProblem,
    cam_capacities: Sequence[float],
) -> List[TCAMSweepPoint]:
    """Footprint-reduction upper bound as TCAM capacity grows.

    Solves the LP relaxation for each uniform per-node ``CamCap``
    level.  Capacities are restored afterwards; the input problem is
    not left mutated.
    """
    saved = {
        name: problem.topology.node(name).cam_capacity
        for name in problem.topology.node_names
    }
    points: List[TCAMSweepPoint] = []
    try:
        for cap in cam_capacities:
            problem.topology.set_uniform_capacities(cam=cap)
            relaxed = solve_relaxation(problem)
            points.append(TCAMSweepPoint(cam_capacity=cap, objective=relaxed.objective))
    finally:
        for name, cap in saved.items():
            problem.topology.node(name).cam_capacity = cap
    return points
