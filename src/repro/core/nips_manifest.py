"""NIPS rule placements and sampling manifests (paper Section 3.2).

"We want to generate rule placements specifying which rules are enabled
on each NIPS node and sampling manifests specifying what fraction of
the traffic the node should process for each enabled rule."

A solved :class:`~repro.core.nips_milp.NIPSSolution` carries the ``e``
and ``d`` vectors; this module lays each path's ``d_ikj`` fractions out as
non-overlapping hash ranges along the path (the same Fig. 2 procedure
the NIDS side uses) and packages, per node, the TCAM rule set plus the
per-(rule, path) ranges — the configuration a NIPS box actually needs.
:class:`NIPSDispatcher` then answers the per-packet question: "should
this node apply rule ``C_i`` to this packet?"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..hashing.bobhash import hash_unit
from ..hashing.keys import Aggregation, key_for
from ..hashing.ranges import EPSILON, HashRange
from ..traffic.generator import home_node_index
from ..traffic.packet import Packet
from .manifest import (
    MASS_TOL,
    REP107,
    REP108,
    Finding,
    check_disjoint,
    raise_first,
)
from .nips_milp import NIPSProblem, NIPSSolution, d_subject

Pair = Tuple[str, str]


@dataclass
class NIPSNodeManifest:
    """One NIPS node's configuration: TCAM rules + sampling ranges."""

    node: str
    enabled_rules: Tuple[int, ...]
    #: Hash ranges per (rule index, path pair).
    ranges: Dict[Tuple[int, Pair], Tuple[HashRange, ...]] = field(default_factory=dict)

    def sampled_fraction(self, rule_index: int, pair: Pair) -> float:
        """Hash-space share held for (rule, path)."""
        return sum(r.length for r in self.ranges.get((rule_index, pair), ()))

    def contains(self, rule_index: int, pair: Pair, hash_value: float) -> bool:
        """Whether *hash_value* falls in this node's range."""
        return any(
            r.contains(hash_value) for r in self.ranges.get((rule_index, pair), ())
        )


def generate_nips_manifests(
    problem: NIPSProblem, solution: NIPSSolution
) -> Dict[str, NIPSNodeManifest]:
    """Translate ``(e, d)`` into per-node NIPS manifests.

    For each (rule, path), the responsible nodes' fractions are laid
    end to end over ``[0, 1]`` in path order — Eq. 11 guarantees they
    sum to at most 1, so the ranges are disjoint and no flow is
    inspected twice (which is also what makes the conservative load
    model of Eqs. 9-10 exact; see :mod:`repro.nips.enforcement`).
    An infeasible ``(e, d)`` is refused (``ValueError``).
    """
    raise_first(problem.check(solution.e, solution.d))
    manifests = {
        node: NIPSNodeManifest(
            node=node, enabled_rules=tuple(solution.enabled_rules(node))
        )
        for node in problem.topology.node_names
    }

    # ``d`` runs (rule, pair) by (rule, pair), each path's nodes in path order.
    layout = problem.layout
    path, position = None, 0.0
    for t in np.flatnonzero(solution.d > EPSILON).tolist():
        i, pair = layout.rule_ids[layout.rule_of[t]], layout.pairs[layout.pair_of[t]]
        if (i, pair) != path:
            path, position = (i, pair), 0.0
        fraction = float(solution.d[t])
        piece = HashRange(position, min(1.0, position + fraction))
        manifests[layout.nodes[layout.node_of[t]]].ranges[(i, pair)] = (piece,)
        position += fraction
    return manifests


def check_nips_manifests(
    solution: NIPSSolution, manifests: Mapping[str, NIPSNodeManifest]
) -> List[Finding]:
    """The NIPS-manifest invariants, one finding per violation.

    (1) A node samples for a rule only if the rule is in its TCAM
    (REP108).  (2) Per (rule, path), ranges are disjoint within each
    node and across nodes (REP102).  (3) Each node holds exactly its
    solved ``d_ikj``, and each path's ranges total the path's solved
    mass (REP107).
    """
    layout = solution.polytope.layout
    rule_at = {i: r for r, i in enumerate(layout.rule_ids)}
    hop_at = {
        (layout.pairs[p], layout.nodes[j]): h
        for h, (p, j) in enumerate(
            zip(layout.pair_of[: layout.hops].tolist(), layout.node_of[: layout.hops].tolist())
        )
    }
    findings: List[Finding] = []
    per_path: Dict[Tuple[int, Pair], List[HashRange]] = {}
    for node in sorted(manifests):
        manifest = manifests[node]
        for (i, pair), pieces in sorted(manifest.ranges.items()):
            subject = d_subject(i, pair, node)
            if i not in manifest.enabled_rules:
                findings.append(
                    Finding(
                        REP108,
                        subject,
                        "manifest samples a rule outside the node's TCAM set",
                    )
                )
            findings.extend(
                check_disjoint(subject, pieces, "node's own ranges overlap")
            )
            held = sum(p.length for p in pieces)
            hop = hop_at.get((pair, node))
            solved = (
                0.0
                if hop is None or i not in rule_at
                else float(solution.d[rule_at[i] * layout.hops + hop])
            )
            if abs(held - solved) > MASS_TOL:
                findings.append(
                    Finding(
                        REP107,
                        subject,
                        f"manifest holds {held:.8f}, solution assigned"
                        f" {solved:.8f}",
                    )
                )
            per_path.setdefault((i, pair), []).extend(pieces)
    heavy = np.flatnonzero(solution.d > EPSILON)
    path_of, width = layout.rule_pair_of[heavy], len(layout.pairs)
    mass = np.bincount(path_of, solution.d[heavy], minlength=len(layout.rule_ids) * width)
    expected = {
        (layout.rule_ids[c // width], layout.pairs[c % width]): float(mass[c])
        for c in np.unique(path_of).tolist()
    }
    for i, pair in sorted(set(per_path) | set(expected)):
        subject = d_subject(i, pair)
        pieces = per_path.get((i, pair), [])
        findings.extend(
            check_disjoint(
                subject, pieces, "nodes hold overlapping ranges on one path"
            )
        )
        total = sum(p.length for p in pieces)
        solved = expected.get((i, pair), 0.0)
        if abs(total - solved) > MASS_TOL:
            findings.append(
                Finding(
                    REP107,
                    subject,
                    f"ranges cover {total:.8f} of the path, solution"
                    f" assigned {solved:.8f}",
                )
            )
    return findings


def verify_nips_manifests(
    solution: NIPSSolution, manifests: Mapping[str, NIPSNodeManifest]
) -> None:
    """Raising view of :func:`check_nips_manifests` (``ValueError``)."""
    raise_first(check_nips_manifests(solution, manifests))


class NIPSDispatcher:
    """Per-packet filtering decision at one NIPS node.

    Flow-level sampling over the unidirectional 5-tuple (NIPS rules
    operate per packet/flow — Section 3.1); the path is recovered from
    the host identifiers' home PoPs.
    """

    def __init__(
        self,
        manifest: NIPSNodeManifest,
        node_names: Sequence[str],
        hash_seed: int = 0,
    ):
        self.manifest = manifest
        self.node_names = list(node_names)
        self.hash_seed = hash_seed

    def _pair_of(self, packet: Packet) -> Pair:
        src_home = self.node_names[home_node_index(packet.tuple.src)]
        dst_home = self.node_names[home_node_index(packet.tuple.dst)]
        return (src_home, dst_home)

    def rules_to_apply(self, packet: Packet) -> List[int]:
        """Rule indices this node applies to *packet*."""
        pair = self._pair_of(packet)
        t = packet.tuple
        hash_value = hash_unit(
            key_for(Aggregation.FLOW, t.src, t.dst, t.sport, t.dport, t.proto),
            self.hash_seed,
        )
        return [
            i
            for i in self.manifest.enabled_rules
            if self.manifest.contains(i, pair, hash_value)
        ]
