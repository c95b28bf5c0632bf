"""Network topology substrate: graphs, datasets, routing, gravity TMs."""

from .datasets import (
    EVALUATION_TOPOLOGIES,
    ROCKETFUEL_SIZES,
    by_label,
    geant,
    internet2,
    random_pop_topology,
    rocketfuel,
)
from .graph import LinkSpec, NodeSpec, Topology
from .gravity import (
    PairFractions,
    gravity_fractions,
    gravity_matrix,
    heaviest_pair,
    ingress_fractions,
)
from .routing import DistanceMetric, Path, PathSet

__all__ = [
    "DistanceMetric",
    "EVALUATION_TOPOLOGIES",
    "LinkSpec",
    "NodeSpec",
    "PairFractions",
    "Path",
    "PathSet",
    "ROCKETFUEL_SIZES",
    "Topology",
    "by_label",
    "geant",
    "gravity_fractions",
    "gravity_matrix",
    "heaviest_pair",
    "ingress_fractions",
    "internet2",
    "random_pop_topology",
    "rocketfuel",
]
