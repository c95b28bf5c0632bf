"""Built-in evaluation topologies.

The paper evaluates on the Internet2 (Abilene) backbone, the Geant
educational backbone, and three tier-1 ISP topologies inferred by
Rocketfuel (AS 1221 Telstra, AS 1239 Sprint, AS 3257 Tiscali).

* :func:`internet2` encodes the real 11-PoP Abilene topology with its
  14 links, approximate fiber distances, and metro populations — node
  11 is New York, matching the paper's Fig. 8 discussion.
* :func:`geant` encodes a 22-PoP GÉANT-era European backbone.
* :func:`rocketfuel` substitutes seeded synthetic PoP-level topologies
  with node counts matching the published Rocketfuel PoP maps (44, 52,
  41 PoPs); the exact inferred maps are not redistributable, but the
  optimization behaviour depends only on path structure, scale, and
  population gravity, which the generator preserves (see DESIGN.md).
* :func:`random_pop_topology` produces topologies of any size, used for
  the paper's 50-node optimization-timing measurements.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graph import LinkSpec, NodeSpec, Topology

# name, city, metro population (millions), latitude, longitude
_INTERNET2_NODES: Sequence[Tuple[str, str, float, float, float]] = (
    ("STTL", "Seattle", 3.44, 47.61, -122.33),
    ("SNVA", "Sunnyvale", 4.46, 37.37, -122.04),
    ("LOSA", "Los Angeles", 12.83, 34.05, -118.24),
    ("DNVR", "Denver", 2.54, 39.74, -104.99),
    ("KSCY", "Kansas City", 2.04, 39.10, -94.58),
    ("HSTN", "Houston", 5.95, 29.76, -95.37),
    ("IPLS", "Indianapolis", 1.76, 39.77, -86.16),
    ("ATLA", "Atlanta", 5.27, 33.75, -84.39),
    ("CHIN", "Chicago", 9.46, 41.88, -87.63),
    ("WASH", "Washington", 5.58, 38.91, -77.04),
    ("NYCM", "New York", 18.90, 40.71, -74.01),
)

# Abilene's 14 backbone links with approximate fiber distances (km).
_INTERNET2_LINKS: Sequence[Tuple[str, str, float]] = (
    ("STTL", "SNVA", 1110.0),
    ("STTL", "DNVR", 1650.0),
    ("SNVA", "LOSA", 550.0),
    ("SNVA", "DNVR", 1530.0),
    ("LOSA", "HSTN", 2210.0),
    ("DNVR", "KSCY", 900.0),
    ("KSCY", "HSTN", 1170.0),
    ("KSCY", "IPLS", 720.0),
    ("HSTN", "ATLA", 1130.0),
    ("IPLS", "ATLA", 690.0),
    ("IPLS", "CHIN", 265.0),
    ("ATLA", "WASH", 870.0),
    ("CHIN", "NYCM", 1150.0),
    ("WASH", "NYCM", 330.0),
)

_GEANT_NODES: Sequence[Tuple[str, str, float, float, float]] = (
    ("AT", "Vienna", 2.40, 48.21, 16.37),
    ("BE", "Brussels", 1.83, 50.85, 4.35),
    ("HR", "Zagreb", 0.79, 45.81, 15.98),
    ("CZ", "Prague", 1.32, 50.08, 14.44),
    ("DK", "Copenhagen", 1.91, 55.68, 12.57),
    ("FR", "Paris", 10.52, 48.86, 2.35),
    ("DE", "Frankfurt", 5.55, 50.11, 8.68),
    ("GR", "Athens", 3.75, 37.98, 23.73),
    ("HU", "Budapest", 2.52, 47.50, 19.04),
    ("IE", "Dublin", 1.67, 53.35, -6.26),
    ("IL", "Tel Aviv", 3.21, 32.08, 34.78),
    ("IT", "Milan", 4.34, 45.46, 9.19),
    ("LU", "Luxembourg", 0.50, 49.61, 6.13),
    ("NL", "Amsterdam", 2.43, 52.37, 4.90),
    ("PL", "Poznan", 1.00, 52.41, 16.93),
    ("PT", "Lisbon", 2.82, 38.72, -9.14),
    ("SK", "Bratislava", 0.61, 48.15, 17.11),
    ("SI", "Ljubljana", 0.53, 46.06, 14.51),
    ("ES", "Madrid", 6.05, 40.42, -3.70),
    ("SE", "Stockholm", 2.05, 59.33, 18.07),
    ("CH", "Geneva", 1.24, 46.20, 6.14),
    ("UK", "London", 13.01, 51.51, -0.13),
)

_GEANT_LINKS: Sequence[Tuple[str, str]] = (
    ("UK", "IE"),
    ("UK", "FR"),
    ("UK", "NL"),
    ("UK", "BE"),
    ("FR", "BE"),
    ("FR", "CH"),
    ("FR", "ES"),
    ("FR", "LU"),
    ("ES", "PT"),
    ("ES", "IT"),
    ("PT", "UK"),
    ("CH", "IT"),
    ("CH", "DE"),
    ("IT", "GR"),
    ("IT", "AT"),
    ("GR", "IL"),
    ("IL", "IT"),
    ("AT", "HU"),
    ("AT", "SI"),
    ("AT", "CZ"),
    ("AT", "DE"),
    ("SI", "HR"),
    ("HR", "HU"),
    ("HU", "SK"),
    ("SK", "CZ"),
    ("CZ", "DE"),
    ("CZ", "PL"),
    ("PL", "DE"),
    ("PL", "SE"),
    ("DE", "NL"),
    ("DE", "DK"),
    ("NL", "BE"),
    ("DK", "SE"),
    ("SE", "DE"),
    ("LU", "DE"),
    ("NL", "DK"),
)

#: Published Rocketfuel PoP-level sizes for the three evaluated ASes.
ROCKETFUEL_SIZES: Dict[int, int] = {1221: 44, 1239: 52, 3257: 41}


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers."""
    radius = 6371.0
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * radius * math.asin(math.sqrt(a))


def internet2() -> Topology:
    """The 11-node Internet2 (Abilene) backbone.

    Node order matches the paper's numbering: index 10 (the paper's
    "node 11") is New York, the hottest node under the gravity model.
    """
    nodes = [
        NodeSpec(name=name, city=city, population=pop, latitude=lat, longitude=lon)
        for name, city, pop, lat, lon in _INTERNET2_NODES
    ]
    links = [LinkSpec(a, b, dist) for a, b, dist in _INTERNET2_LINKS]
    return Topology("internet2", nodes, links)


def geant() -> Topology:
    """A 22-node GÉANT-era European research backbone."""
    nodes = [
        NodeSpec(name=name, city=city, population=pop, latitude=lat, longitude=lon)
        for name, city, pop, lat, lon in _GEANT_NODES
    ]
    coords = {name: (lat, lon) for name, _, _, lat, lon in _GEANT_NODES}
    links = []
    for a, b in _GEANT_LINKS:
        distance = max(1.0, _haversine_km(*coords[a], *coords[b]))
        links.append(LinkSpec(a, b, distance))
    return Topology("geant", nodes, links)


def _spanning_tree(
    num_nodes: int, distance: Callable[[int, int], float]
) -> List[Tuple[int, int]]:
    """Prim's minimum spanning tree from node 0, as ``(tree node, new
    node)`` edges in the order they join.

    Each outside node keeps its nearest ``(distance, tree node)``; the
    next to join is the smallest ``(distance, tree node, node)``, so
    distance ties break by node id.  O(n²) distance calls.
    """
    nearest = {j: (distance(0, j), 0) for j in range(1, num_nodes)}
    edges: List[Tuple[int, int]] = []
    while nearest:
        (_, i), j = min((best, j) for j, best in nearest.items())
        del nearest[j]
        edges.append((i, j))
        for k, best in nearest.items():
            offer = (distance(j, k), j)
            if offer < best:
                nearest[k] = offer
    return edges


def random_pop_topology(
    num_nodes: int,
    seed: int = 0,
    name: Optional[str] = None,
    extra_edge_fraction: float = 0.6,
    region_size_km: float = 4000.0,
) -> Topology:
    """A seeded synthetic PoP-level ISP topology.

    Construction mirrors the statistical shape of inferred PoP maps:
    PoPs scattered over a geographic region, populations drawn from a
    heavy-tailed (log-normal) distribution, connectivity formed by a
    Euclidean minimum spanning tree (every real backbone is connected
    and distance-driven) densified with shortcut edges biased toward
    high-population PoPs (backbones over-connect big cities).  The
    result is deterministic in *seed*.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = random.Random(seed)
    positions: List[Tuple[float, float]] = [
        (rng.random() * region_size_km, rng.random() * region_size_km)
        for _ in range(num_nodes)
    ]
    populations = [math.exp(rng.gauss(0.6, 0.9)) for _ in range(num_nodes)]

    nodes = [
        NodeSpec(
            name=f"n{i:03d}",
            city=f"pop-{i}",
            population=populations[i],
            latitude=positions[i][0],
            longitude=positions[i][1],
        )
        for i in range(num_nodes)
    ]

    def euclid(i: int, j: int) -> float:
        (x1, y1), (x2, y2) = positions[i], positions[j]
        return max(1.0, math.hypot(x1 - x2, y1 - y2))

    # A minimum spanning tree over Euclidean distances guarantees
    # connectivity.
    edges = _spanning_tree(num_nodes, euclid)

    # Shortcut edges: sample endpoints weighted by population so hubs
    # emerge, reject duplicates, prefer mid-range distances.
    existing = {tuple(sorted(e)) for e in edges}
    num_extra = int(extra_edge_fraction * num_nodes)
    weights = [p / sum(populations) for p in populations]
    attempts = 0
    while num_extra > 0 and attempts < 50 * num_nodes:
        attempts += 1
        i = rng.choices(range(num_nodes), weights=weights)[0]
        j = rng.choices(range(num_nodes), weights=weights)[0]
        if i == j or tuple(sorted((i, j))) in existing:
            continue
        existing.add(tuple(sorted((i, j))))
        edges.append((i, j))
        num_extra -= 1

    links = [LinkSpec(nodes[i].name, nodes[j].name, euclid(i, j)) for i, j in edges]
    return Topology(name or f"random-{num_nodes}-s{seed}", nodes, links)


def rocketfuel(asn: int) -> Topology:
    """A synthetic PoP-level stand-in for a Rocketfuel-inferred AS.

    Supported ASes and sizes: 1221 (Telstra, 44 PoPs), 1239 (Sprint,
    52 PoPs), 3257 (Tiscali, 41 PoPs).  See DESIGN.md for why the
    substitution preserves the evaluation's behaviour.
    """
    if asn not in ROCKETFUEL_SIZES:
        raise ValueError(
            f"unknown AS {asn}; supported: {sorted(ROCKETFUEL_SIZES)}"
        )
    return random_pop_topology(
        ROCKETFUEL_SIZES[asn], seed=asn, name=f"as{asn}"
    )


#: The five topologies of the paper's NIPS evaluation (Fig. 10), by label.
EVALUATION_TOPOLOGIES: Tuple[str, ...] = (
    "Abilene",
    "Geant",
    "AS1221",
    "AS1239",
    "AS3257",
)


def by_label(label: str) -> Topology:
    """Fetch an evaluation topology by the label used in paper figures."""
    normalized = label.strip().lower().replace(" ", "")
    if normalized in ("abilene", "internet2"):
        return internet2()
    if normalized == "geant":
        return geant()
    if normalized.startswith("as"):
        return rocketfuel(int(normalized[2:]))
    if normalized.startswith("pop"):
        # Sized synthetic backbones ("pop50", "pop200") for scaling
        # studies that need agent counts no real dataset provides.
        return random_pop_topology(int(normalized[3:]), name=normalized)
    raise ValueError(f"unknown topology label {label!r}")
