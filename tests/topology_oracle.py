"""The O(n³) Prim loop ``random_pop_topology`` used to run, verbatim.

Every step rescanned every (tree node, outside node) pair in sorted
order and kept the first strictly smaller distance, so the edge that
joins is the smallest ``(distance, tree node, node)``.
``repro.topology.datasets._spanning_tree`` keeps one nearest tree node
per outside node instead; ``tests/test_epoch_references.py`` checks
that both build the same edges in the same order.
"""

from typing import Callable, List, Optional, Tuple


def prim_cubic(
    num_nodes: int, euclid: Callable[[int, int], float]
) -> List[Tuple[int, int]]:
    in_tree = {0}
    edges: List[Tuple[int, int]] = []
    candidates = set(range(1, num_nodes))
    while candidates:
        best: Optional[Tuple[float, int, int]] = None
        # Sorted: distance ties must break by node id, not set order.
        for i in sorted(in_tree):
            for j in sorted(candidates):
                d = euclid(i, j)
                if best is None or d < best[0]:
                    best = (d, i, j)
        assert best is not None
        _, i, j = best
        edges.append((i, j))
        in_tree.add(j)
        candidates.discard(j)
    return edges
