"""End-to-end NIDS deployment planning.

Ties the pipeline together: measure coordination-unit volumes from a
session trace, solve the Section 2.2 LP, translate the optimum into
per-node sampling manifests (Fig. 2), and hand out per-node
dispatchers (Fig. 3).  This is the operations-center role the paper
envisions: "a centralized operations center periodically configures
the NIDS responsibilities of the different nodes".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..nids.modules.base import ModuleSpec
from ..topology.graph import Topology
from ..topology.routing import PathSet
from ..traffic.batch import SessionBatch
from ..traffic.session import Session
from .dispatch import CoordinatedDispatcher, UnitResolver
from .manifest import (
    NodeManifest,
    generate_manifests,
    verify_manifests,
)
from .nids_lp import NIDSAssignment, solve_nids_lp
from .units import UnitTable, Units, build_units


@dataclass
class NIDSDeployment:
    """A planned network-wide NIDS configuration."""

    topology: Topology
    paths: PathSet
    modules: List[ModuleSpec]
    units: UnitTable
    assignment: NIDSAssignment
    manifests: Dict[str, NodeManifest]
    resolver: UnitResolver
    hash_seed: int = 0
    _shared_hash_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.units = UnitTable.of(self.units)

    def dispatcher(self, node: str) -> CoordinatedDispatcher:
        """The Fig. 3 dispatcher for *node*.

        Dispatchers share one hash cache: hash values depend only on
        header fields, so recomputing them per node would only slow the
        emulation down without changing any decision.
        """
        return CoordinatedDispatcher(
            node=node,
            manifest=self.manifests[node],
            modules=self.modules,
            resolver=self.resolver,
            hash_seed=self.hash_seed,
            hash_cache=self._shared_hash_cache,
        )

    @property
    def objective(self) -> float:
        """The planned max-load objective."""
        return self.assignment.objective


def plan_deployment(
    topology: Topology,
    paths: PathSet,
    modules: Sequence[ModuleSpec],
    sessions: Union[Sequence[Session], SessionBatch],
    coverage: float = 1.0,
    hash_seed: int = 0,
    units: Optional[Units] = None,
) -> NIDSDeployment:
    """Plan a coordinated deployment for *sessions* on *topology*.

    *sessions* is the measured trace, as ``Session`` objects or as the
    :class:`~repro.traffic.batch.SessionBatch` already built from them
    — a caller that goes on to emulate the trace passes the same batch
    to both, so one measurement feeds planner and emulator.
    ``coverage`` > 1 plans r-fold redundant analysis (Section 2.5).
    The manifest invariants are re-checked before returning, which is
    cheap relative to the LP solve.  ``units`` may supply
    pre-computed coordination-unit volumes (e.g. estimated from NetFlow
    by :func:`repro.measurement.estimate_units`) in place of measuring
    *sessions* directly.
    """
    modules = list(modules)
    if units is None:
        units = build_units(modules, sessions, paths)
    units = UnitTable.of(units)
    assignment = solve_nids_lp(units, topology, coverage)
    manifests = generate_manifests(units, assignment, topology.node_names)
    verify_manifests(units, manifests)
    return NIDSDeployment(
        topology=topology,
        paths=paths,
        modules=modules,
        units=units,
        assignment=assignment,
        manifests=manifests,
        resolver=UnitResolver(topology.node_names),
        hash_seed=hash_seed,
    )
