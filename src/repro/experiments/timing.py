"""Optimization-time measurements (paper §2.4 and §3.4).

The paper reports 0.42 s to solve the NIDS LP for a 50-node topology
(CPLEX) and ~220 s for the full NIPS rounding pipeline on the same
scale — both fast enough to re-run every few minutes as traffic
reports arrive.  These drivers measure the same quantities on our
HiGHS-backed solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core.nids_lp import solve_nids_lp
from ..core.units import build_units
from ..nids.modules import module_set
from ..topology.datasets import random_pop_topology
from ..topology.routing import PathSet
from ..traffic.generator import GeneratorConfig, TrafficGenerator
from ..traffic.profiles import mixed_profile
from .config import scaled


@dataclass
class NIDSTimingResult:
    """Wall-clock of the NIDS LP on one topology size."""

    num_nodes: int
    num_units: int
    num_variables: int
    build_seconds: float
    solve_seconds: float

    @property
    def total_seconds(self) -> float:
        """Model build plus LP solve wall-clock."""
        return self.build_seconds + self.solve_seconds


def time_nids_lp(
    num_nodes: int = 50,
    num_modules: int = 21,
    num_sessions: Optional[int] = None,
    seed: int = 3,
) -> NIDSTimingResult:
    """Measure the NIDS LP solve on a *num_nodes* random topology.

    The session trace only determines the unit volumes; its size does
    not change the LP dimensions, so a scaled trace measures the same
    solve the paper timed.
    """
    sessions_total = (
        num_sessions if num_sessions is not None else scaled(20_000, minimum=2_000)
    )
    topology = random_pop_topology(num_nodes, seed=seed).set_uniform_capacities(
        cpu=1.0, mem=1.0
    )
    paths = PathSet(topology)
    generator = TrafficGenerator(
        topology, paths, profile=mixed_profile(), config=GeneratorConfig(seed=seed)
    )
    sessions = generator.generate(sessions_total)
    modules = module_set(num_modules)

    started = time.perf_counter()
    units = build_units(modules, sessions, paths)
    build_elapsed = time.perf_counter() - started

    assignment = solve_nids_lp(units, topology)
    num_variables = len(units.codes)
    return NIDSTimingResult(
        num_nodes=num_nodes,
        num_units=len(units),
        num_variables=num_variables,
        build_seconds=build_elapsed,
        solve_seconds=assignment.solve_seconds,
    )
