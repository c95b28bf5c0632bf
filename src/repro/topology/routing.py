"""Shortest-path routing and downstream-distance computation.

The paper constructs ingress–egress paths for each pair of nodes using
shortest-path routing on link distances (Section 2.4 uses link
distances for Internet2; Section 3.4 uses inferred weights for the ISP
topologies).  A :class:`PathSet` materializes one path per ordered
ingress–egress pair and provides the ``Dist_ikj`` values — the
downstream distance remaining on a path from each node — needed by the
NIPS objective (Eq. 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import networkx as nx

from .graph import Topology


class DistanceMetric(enum.Enum):
    """How ``Dist_ikj`` is measured (paper Section 3.2).

    ``HOPS``: remaining router hops including the node itself — a node
    that is the last on the path still removes one hop of footprint by
    dropping there.  ``FIBER``: remaining fiber distance plus one unit
    for the local hop.  ``UNIT``: all distances are 1, reducing the
    objective to total volume of unwanted traffic dropped.
    """

    HOPS = "hops"
    FIBER = "fiber"
    UNIT = "unit"


@dataclass(frozen=True)
class Path:
    """An ordered ingress-to-egress router path."""

    ingress: str
    egress: str
    nodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("empty path")
        if self.nodes[0] != self.ingress or self.nodes[-1] != self.egress:
            raise ValueError("path endpoints disagree with ingress/egress")

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def position(self, node: str) -> int:
        """0-based index of *node* on the path."""
        return self.nodes.index(node)

    def downstream_nodes(self, node: str) -> Tuple[str, ...]:
        """Nodes strictly after *node* on the path."""
        return self.nodes[self.position(node) + 1 :]

    def upstream_nodes(self, node: str) -> Tuple[str, ...]:
        """Nodes strictly before *node* on the path."""
        return self.nodes[: self.position(node)]

    @property
    def pair(self) -> Tuple[str, str]:
        """The (ingress, egress) tuple."""
        return (self.ingress, self.egress)


class PathSet:
    """All ingress–egress routing paths for a topology.

    Paths are computed once with Dijkstra on link ``distance`` and
    cached; ties are broken deterministically by networkx's traversal
    order so repeated runs see identical routing.  Intra-node "paths"
    (ingress == egress) are single-node paths: such traffic is only
    observable at its own PoP, exactly as in the paper's model.

    Routing never changes once built, so :meth:`observers` resolves each
    location pair once and keeps the answer here (never pickled).
    """

    def __init__(self, topology: Topology, include_self_pairs: bool = True):
        self.topology = topology
        self._paths: Dict[Tuple[str, str], Path] = {}
        shortest = dict(
            nx.all_pairs_dijkstra_path(topology.graph(), weight="distance")
        )
        for src in topology.node_names:
            for dst in topology.node_names:
                if src == dst and not include_self_pairs:
                    continue
                nodes = tuple(shortest[src][dst]) if src != dst else (src,)
                self._paths[(src, dst)] = Path(src, dst, nodes)
        self._observers: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_observers"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._observers = {}

    def path(self, ingress: str, egress: str) -> Path:
        """The routing path for an ordered (ingress, egress) pair."""
        return self._paths[(ingress, egress)]

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths.values())

    def observers(self, a: str, b: str) -> Tuple[str, ...]:
        """The nodes on both directed routes between *a* and *b*, in
        ``a → b`` path order (memoised per pair).

        Symmetric shortest paths make this the full path; degenerate
        asymmetric ties still leave the endpoints, which always qualify.
        """
        nodes = self._observers.get((a, b))
        if nodes is None:
            backward = set(self._paths[(b, a)].nodes)
            nodes = tuple(n for n in self._paths[(a, b)].nodes if n in backward)
            nodes = self._observers[(a, b)] = nodes if nodes else (a, b)
        return nodes

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        """All ordered pairs with materialized paths."""
        return list(self._paths)

    def paths_through(self, node: str) -> List[Path]:
        """All paths on which *node* lies (it can observe that traffic)."""
        return [p for p in self._paths.values() if node in p]

    # -- distances ----------------------------------------------------------
    def downstream_distance(
        self, path: Path, node: str, metric: DistanceMetric = DistanceMetric.HOPS
    ) -> float:
        """``Dist_ikj``: footprint removed by dropping at *node* on *path*.

        With ``HOPS`` and the paper's example (path R1,R2,R3):
        ``Dist = 3, 2, 1`` for R1, R2, R3 respectively.
        """
        position = path.position(node)
        if metric is DistanceMetric.UNIT:
            return 1.0
        if metric is DistanceMetric.HOPS:
            return float(len(path) - position)
        remaining = 0.0
        for a, b in zip(path.nodes[position:], path.nodes[position + 1 :]):
            remaining += self.topology.link_distance(a, b)
        return remaining + 1.0  # the local hop itself

    def distance_table(
        self, metric: DistanceMetric = DistanceMetric.HOPS
    ) -> Dict[Tuple[str, str], Dict[str, float]]:
        """``{(ingress, egress): {node: Dist}}`` for every path."""
        return {
            pair: {
                node: self.downstream_distance(path, node, metric) for node in path.nodes
            }
            for pair, path in self._paths.items()
        }

    # -- statistics ----------------------------------------------------------
    def mean_path_length(self) -> float:
        """Mean hop count over inter-node paths (sanity metric for tests)."""
        lengths = [len(p) for p in self._paths.values() if p.ingress != p.egress]
        return sum(lengths) / len(lengths) if lengths else 0.0
