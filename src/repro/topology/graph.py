"""Network topology model.

A :class:`Topology` is an undirected graph of NIDS/NIPS-capable nodes
(PoPs or routers) with per-node resource capacities and per-link
distances.  It is a thin, typed wrapper over :mod:`networkx` so routing
can reuse the library's shortest-path machinery while the rest of the
code sees a stable domain vocabulary.

Capacities follow the paper's general heterogeneous model: each node
``R_j`` carries ``CpuCap_j`` (packets or CPU-seconds per interval),
``MemCap_j`` (flows or bytes), and — for NIPS — ``CamCap_j`` (TCAM rule
slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import networkx as nx


@dataclass
class NodeSpec:
    """A network location capable of hosting NIDS/NIPS functions."""

    name: str
    city: str = ""
    population: float = 1.0
    cpu_capacity: float = 1.0
    mem_capacity: float = 1.0
    cam_capacity: float = 0.0
    latitude: float = 0.0
    longitude: float = 0.0


@dataclass(frozen=True)
class LinkSpec:
    """An undirected link with a routing distance (km, weight, or hops)."""

    a: str
    b: str
    distance: float = 1.0

    def endpoints(self) -> Tuple[str, str]:
        """The link's two node names."""
        return (self.a, self.b)


class Topology:
    """Undirected capacitated network of candidate NIDS/NIPS locations."""

    def __init__(self, name: str, nodes: Iterable[NodeSpec], links: Iterable[LinkSpec]):
        self.name = name
        self._nodes: Dict[str, NodeSpec] = {}
        self._graph = nx.Graph()
        for node in nodes:
            if node.name in self._nodes:
                raise ValueError(f"duplicate node {node.name!r}")
            self._nodes[node.name] = node
            self._graph.add_node(node.name)
        for link in links:
            if link.a not in self._nodes or link.b not in self._nodes:
                raise ValueError(f"link {link} references unknown node")
            if link.distance <= 0:
                raise ValueError(f"link {link} has non-positive distance")
            self._graph.add_edge(link.a, link.b, distance=float(link.distance))
        if len(self._nodes) and not nx.is_connected(self._graph):
            raise ValueError(f"topology {name!r} is not connected")

    # -- node access ------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        """Node names in insertion order (stable across runs)."""
        return list(self._nodes)

    def node(self, name: str) -> NodeSpec:
        """The :class:`NodeSpec` named *name*."""
        return self._nodes[name]

    def nodes(self) -> Iterator[NodeSpec]:
        """Iterate all node specs in insertion order."""
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    # -- link access ------------------------------------------------------
    @property
    def links(self) -> List[LinkSpec]:
        """All links as :class:`LinkSpec` values."""
        return [
            LinkSpec(a, b, data["distance"]) for a, b, data in self._graph.edges(data=True)
        ]

    def degree(self, name: str) -> int:
        """Number of links incident to *name*."""
        return int(self._graph.degree[name])

    def neighbors(self, name: str) -> List[str]:
        """Sorted adjacent node names."""
        return sorted(self._graph.neighbors(name))

    def link_distance(self, a: str, b: str) -> float:
        """Routing distance of the (a, b) link."""
        return float(self._graph.edges[a, b]["distance"])

    # -- capacity mutation --------------------------------------------------
    def set_uniform_capacities(
        self,
        cpu: Optional[float] = None,
        mem: Optional[float] = None,
        cam: Optional[float] = None,
    ) -> "Topology":
        """Set the same capacity on every node (the paper's default setup).

        Returns ``self`` for chaining.  ``None`` leaves a dimension
        untouched, so NIDS experiments can set CPU/memory while NIPS
        experiments later add TCAM capacities.
        """
        for node in self._nodes.values():
            if cpu is not None:
                node.cpu_capacity = float(cpu)
            if mem is not None:
                node.mem_capacity = float(mem)
            if cam is not None:
                node.cam_capacity = float(cam)
        return self

    def scale_capacity(self, name: str, cpu_factor: float = 1.0, mem_factor: float = 1.0) -> None:
        """Scale one node's capacities (used by provisioning what-ifs)."""
        node = self._nodes[name]
        node.cpu_capacity *= cpu_factor
        node.mem_capacity *= mem_factor

    # -- populations --------------------------------------------------------
    @property
    def populations(self) -> Dict[str, float]:
        """City populations keyed by node name (gravity-model input)."""
        return {name: spec.population for name, spec in self._nodes.items()}

    # -- interop ------------------------------------------------------------
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (treat as read-only)."""
        return self._graph

    def copy(self) -> "Topology":
        """Deep copy (capacity edits on the copy leave the original alone)."""
        nodes = [
            NodeSpec(
                name=n.name,
                city=n.city,
                population=n.population,
                cpu_capacity=n.cpu_capacity,
                mem_capacity=n.mem_capacity,
                cam_capacity=n.cam_capacity,
                latitude=n.latitude,
                longitude=n.longitude,
            )
            for n in self._nodes.values()
        ]
        return Topology(self.name, nodes, self.links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology({self.name!r}, nodes={len(self)}, links={len(self.links)})"
