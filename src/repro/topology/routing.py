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
import heapq
from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

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


def _settle(
    adjacency: Mapping[str, Mapping[str, float]], source: str
) -> Dict[str, Tuple[str, ...]]:
    """Every node's route from *source*, ties broken as
    :func:`shortest_routes` states."""
    routes = {source: (source,)}
    best = {source: 0.0}
    settled = set()
    pushes = count()
    heap = [(0.0, next(pushes), source)]
    while heap:
        reach, _, node = heapq.heappop(heap)
        if node in settled:
            continue  # an entry superseded by a shorter push
        settled.add(node)
        for neighbor, length in adjacency[node].items():
            further = reach + length
            if further < best.get(neighbor, np.inf):
                best[neighbor] = further
                heapq.heappush(heap, (further, next(pushes), neighbor))
                routes[neighbor] = routes[node] + (neighbor,)
    return routes


def shortest_routes(topology: Topology) -> List[List[Tuple[str, ...]]]:
    """``routes[i][j]``: the shortest route from node *i* to node *j*
    (indices into ``topology.node_names``) on link ``distance``.

    The tie rule (networkx's): equal distances settle in the order they
    were first reached, and a node's route extends the neighbour's that
    first strictly improved its distance, links relaxed in
    ``topology.adjacency`` order.  The distances come from one C
    shortest-path pass.  A predecessor is *tight* when its distance plus
    the link's equals the node's.  From a source where every node has
    one tight predecessor, nearer than the node, that predecessor is the
    route's; a source with a tie is settled by :func:`_settle`.
    """
    adjacency = topology.adjacency
    names = topology.node_names
    index = {name: k for k, name in enumerate(names)}
    n = len(names)
    tail, head, weight = [], [], []
    for name in names:
        for neighbor, distance in adjacency[name].items():
            tail.append(index[name])
            head.append(index[neighbor])
            weight.append(distance)
    tails, heads = np.array(tail, dtype=np.intp), np.array(head, dtype=np.intp)
    weights = np.array(weight, dtype=np.float64)
    dist = dijkstra(csr_matrix((weights, (tails, heads)), shape=(n, n)), directed=True)
    sources, edges = np.nonzero(dist[:, tails] + weights == dist[:, heads])
    tight = np.bincount(sources * n + heads[edges], minlength=n * n).reshape(n, n)
    pred = np.full((n, n), -1, dtype=np.intp)
    pred[sources, heads[edges]] = tails[edges]
    tied = (tight > 1).any(axis=1)
    # A link too short to change a float distance ties its two ends.
    level = dist[sources, tails[edges]] == dist[sources, heads[edges]]
    tied[sources[level]] = True
    nearest = np.argsort(dist, axis=1, kind="stable")
    routes = []
    for source in range(n):
        if tied[source]:
            settled = _settle(adjacency, names[source])
            routes.append([settled[name] for name in names])
            continue
        row = pred[source].tolist()
        held: List[Tuple[str, ...]] = [()] * n
        for node in nearest[source].tolist():  # every predecessor comes first
            step = (names[node],)
            held[node] = held[row[node]] + step if row[node] >= 0 else step
        routes.append(held)
    return routes


class PathSet:
    """All ingress–egress routing paths for a topology.

    Paths are shortest on link ``distance``, computed once per topology
    by :func:`shortest_routes` — one C shortest-path pass, ties settled
    in first-reached order with links relaxed in adjacency order — so
    repeated runs see identical routing, and a copy of the topology
    routes as the original does.
    Intra-node "paths" (ingress == egress) are single-node paths: such
    traffic is only observable at its own PoP, exactly as in the paper's
    model.

    Each :class:`Path` record is built on first use.  Routing never
    changes once built, so :meth:`observers` resolves each location pair
    once and keeps the answer here; neither memo is pickled.
    """

    def __init__(self, topology: Topology, include_self_pairs: bool = True):
        self.topology = topology
        names = topology.node_names
        self._routes: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for src, routes in zip(names, shortest_routes(topology)):
            for dst, nodes in zip(names, routes):
                if src != dst or include_self_pairs:
                    self._routes[(src, dst)] = nodes
        self._paths: Dict[Tuple[str, str], Path] = {}
        self._observers: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_paths"], state["_observers"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._paths = {}
        self._observers = {}

    def path(self, ingress: str, egress: str) -> Path:
        """The routing path for an ordered (ingress, egress) pair."""
        path = self._paths.get((ingress, egress))
        if path is None:
            nodes = self._routes[(ingress, egress)]
            path = self._paths[(ingress, egress)] = Path(ingress, egress, nodes)
        return path

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Path]:
        return (self.path(*pair) for pair in self._routes)

    def observers(self, a: str, b: str) -> Tuple[str, ...]:
        """The nodes on both directed routes between *a* and *b*, in
        ``a → b`` path order (memoised per pair).

        Symmetric shortest paths make this the full path; degenerate
        asymmetric ties still leave the endpoints, which always qualify.
        """
        nodes = self._observers.get((a, b))
        if nodes is None:
            backward = set(self._routes[(b, a)])
            nodes = tuple(n for n in self._routes[(a, b)] if n in backward)
            nodes = self._observers[(a, b)] = nodes if nodes else (a, b)
        return nodes

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        """All ordered pairs with materialized paths."""
        return list(self._routes)

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
