"""Network topology model.

A :class:`Topology` is an undirected graph of NIDS/NIPS-capable nodes
(PoPs or routers) with per-node resource capacities and per-link
distances.  It holds its own adjacency — for each node, neighbour →
distance in the order the links were first added — which routing reads
directly (:func:`repro.topology.routing.shortest_routes`).

Capacities follow the paper's general heterogeneous model: each node
``R_j`` carries ``CpuCap_j`` (packets or CPU-seconds per interval),
``MemCap_j`` (flows or bytes), and — for NIPS — ``CamCap_j`` (TCAM rule
slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


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


class Topology:
    """Undirected capacitated network of candidate NIDS/NIPS locations.

    ``adjacency[a][b]`` is the (a, b) link's distance (read-only), each
    node's neighbours in first-added order: a link given again, either
    way round, keeps its place and takes the last distance.
    """

    def __init__(self, name: str, nodes: Iterable[NodeSpec], links: Iterable[LinkSpec]):
        self.name = name
        self._nodes: Dict[str, NodeSpec] = {}
        self.adjacency: Dict[str, Dict[str, float]] = {}
        self._links: List[Tuple[str, str]] = []  # first-added orientation
        for node in nodes:
            if node.name in self._nodes:
                raise ValueError(f"duplicate node {node.name!r}")
            self._nodes[node.name] = node
            self.adjacency[node.name] = {}
        for link in links:
            if link.a not in self._nodes or link.b not in self._nodes:
                raise ValueError(f"link {link} references unknown node")
            if link.distance <= 0:
                raise ValueError(f"link {link} has non-positive distance")
            if link.b not in self.adjacency[link.a]:
                self._links.append((link.a, link.b))
            distance = float(link.distance)
            self.adjacency[link.a][link.b] = self.adjacency[link.b][link.a] = distance
        reached = set(self.node_names[:1])
        stack = list(reached)
        while stack:  # a walk over the links from the first node
            for b in self.adjacency[stack.pop()]:
                if b not in reached:
                    reached.add(b)
                    stack.append(b)
        if len(reached) < len(self._nodes):
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
        """All links as :class:`LinkSpec` values, in first-added order."""
        return [LinkSpec(a, b, self.adjacency[a][b]) for a, b in self._links]

    def degree(self, name: str) -> int:
        """Number of link ends at *name* (a self-loop counts twice)."""
        return len(self.adjacency[name]) + (name in self.adjacency[name])

    def neighbors(self, name: str) -> List[str]:
        """Sorted adjacent node names."""
        return sorted(self.adjacency[name])

    def link_distance(self, a: str, b: str) -> float:
        """Routing distance of the (a, b) link."""
        return self.adjacency[a][b]

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

    def copy(self) -> "Topology":
        """Deep copy (capacity edits on the copy leave the original alone);
        replaying :attr:`links` rebuilds the same adjacency."""
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
