"""NIPS rule placements and sampling manifests (paper Section 3.2).

"We want to generate rule placements specifying which rules are enabled
on each NIPS node and sampling manifests specifying what fraction of
the traffic the node should process for each enabled rule."

A solved :class:`~repro.core.nips_milp.NIPSSolution` carries both.  Its
``e`` vector is the rule placement (:meth:`NIPSSolution.enabled_rules`,
the TCAM set).  This module lays each path's ``d_ikj`` fractions out as
non-overlapping hash ranges along the path — the Fig. 2 layout at depth
at most 1 — into plain :class:`~repro.core.manifest.NodeManifest`
rows, one entry per (rule, path) keyed :func:`rule_unit`.  "Should node ``j``
apply rule ``C_i`` to this flow?" is then the NIDS question asked of
the NIPS set: ``NodeManifest.contains`` for one flow,
:meth:`~repro.core.manifest_table.ManifestTable.contains_batch` for many.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..hashing.ranges import EPSILON, HashRange
from .manifest import (
    MASS_TOL,
    REP102,
    REP107,
    REP108,
    Finding,
    NodeManifest,
    overlaps,
    raise_first,
)
from .manifest_table import EntryKey, Manifests, ManifestTable, fold_segments, row_mass
from .nips_milp import NIPSLayout, NIPSProblem, NIPSSolution, d_subject

Pair = Tuple[str, str]


def rule_unit(i: int, pair: Pair) -> EntryKey:
    """The manifest entry of rule ``C_i`` on the path of *pair*."""
    return (f"rule{i}", pair)


def lay_paths(
    layout: NIPSLayout, d: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(entries, lo, hi)``: the hash range of each ``d`` entry over
    ``EPSILON`` (an index into *d*), in ``d`` order.

    Per (rule, path), the fractions are laid end to end from 0.0 in path
    order.  Eq. 11 keeps a path's mass at most 1, so nothing wraps and
    no flow is inspected twice (which is also what makes the
    conservative load model of Eqs. 9-10 exact; see
    :mod:`repro.nips.enforcement`).  A piece starts at
    ``min(1.0, cursor)``: mass past the top, which the feasibility
    check tolerates up to ``MASS_TOL``, lays nothing.
    """
    laid = np.flatnonzero(d > EPSILON)
    lo, hi = np.empty(len(laid)), np.empty(len(laid))
    path, position = -1, 0.0
    for k, (c, fraction) in enumerate(
        zip(layout.rule_pair_of[laid].tolist(), d[laid].tolist())
    ):
        if c != path:
            path, position = c, 0.0
        lo[k] = min(1.0, position)
        position += fraction
        hi[k] = min(1.0, position)
    return laid, lo, hi


def generate_nips_manifests(
    problem: NIPSProblem, solution: NIPSSolution
) -> Dict[str, NodeManifest]:
    """Translate ``(e, d)`` into per-node NIPS sampling manifests: each
    node's :func:`lay_paths` ranges, one entry per (rule, path) it
    samples.  An infeasible ``(e, d)`` is refused (``ValueError``).
    """
    raise_first(problem.check(solution.e, solution.d))
    layout = problem.layout
    manifests = {node: NodeManifest(node=node) for node in problem.topology.node_names}
    laid, lo, hi = lay_paths(layout, solution.d)
    for t, a, b in zip(laid.tolist(), lo.tolist(), hi.tolist()):
        ident = rule_unit(layout.rule_ids[layout.rule_of[t]], layout.pairs[layout.pair_of[t]])
        manifests[layout.nodes[layout.node_of[t]]].entries[ident] = (HashRange(a, b),)
    return manifests


def check_nips_manifests(
    solution: NIPSSolution, manifests: Manifests
) -> List[Finding]:
    """The NIPS-manifest invariants, one finding per violation.

    (1) A node has an entry, even an empty one, only for a rule its
    TCAM holds in ``solution.e`` (REP108).  (2) Per (rule, path),
    ranges are disjoint within each node and across nodes (REP102).
    (3) Each node holds exactly its solved ``d_ikj``, and each path's
    ranges total the path's solved mass (REP107).

    Everything is read from the set's one
    :class:`~repro.core.manifest_table.ManifestTable`: a row is a
    (rule, path) entry on one node, a row group a (rule, path).
    Findings come row by row in (node, rule, path) order, then path by
    path in (rule, path) order.
    """
    table = ManifestTable.of(manifests)
    layout = solution.polytope.layout
    d, width, columns = solution.d, len(layout.pairs), table.columns
    # Eq. 11's (rule, path) rows, rule-major, as row groups, and the
    # layout's nodes as the table's (-1: not in the set).
    path_group = table.unit_ids(
        rule_unit(i, pair) for i in layout.rule_ids for pair in layout.pairs
    )
    node_k = table.node_ids(layout.nodes)
    # (1) Each row's rule on its node, as NIPSSolution.enabled_rules reads e.
    group_rule = np.full(len(table.units), -1)
    group_rule[path_group[path_group >= 0]] = np.flatnonzero(path_group >= 0) // width
    node_j = np.full(len(table.nodes), -1)
    node_j[node_k[node_k >= 0]] = np.flatnonzero(node_k >= 0)
    rule, j = group_rule[columns.row_unit], node_j[columns.row_node]
    on = np.append(solution.e >= 0.5, False)
    enabled = on[np.where((rule >= 0) & (j >= 0), rule * len(layout.nodes) + j, -1)]
    # (3) What each row holds against its solved d_ikj (0.0 for none).
    d_row = table.find_rows(path_group[layout.rule_pair_of], node_k[layout.node_of])
    solved = np.zeros(len(columns.row_unit))
    solved[d_row[d_row >= 0]] = d[d_row >= 0]
    held = row_mass(columns)
    drifted = np.abs(held - solved) > MASS_TOL

    # (2) Overlaps within a row (within a row group below).
    pieces = table.pieces(np.arange(len(table.units)))
    nonempty = pieces.take(pieces.hi - pieces.lo > EPSILON)
    clash = overlaps(nonempty)
    overlapped = np.zeros(len(held), dtype=bool)
    overlapped[table.find_rows(nonempty.owner[clash], nonempty.node[clash])] = True

    # Per path: the row groups, then every path with solved mass and no row.
    heavy = np.flatnonzero(d > EPSILON)
    path_mass = np.bincount(layout.rule_pair_of[heavy], d[heavy], minlength=len(path_group))
    massive = np.unique(layout.rule_pair_of[heavy])
    rowless = massive[path_group[massive] < 0]
    idents = list(table.units) + [
        rule_unit(layout.rule_ids[c // width], layout.pairs[c % width])
        for c in rowless.tolist()
    ]
    # A path's pieces added left to right across its rows, as the
    # manifests list them (Pieces.mass would add each row's first).
    total = fold_segments(
        np.maximum(pieces.hi - pieces.lo, 0.0), pieces.owner, len(idents)
    )
    expected = np.zeros(len(idents))
    expected[path_group[path_group >= 0]] = path_mass[path_group >= 0]
    expected[len(table.units):] = path_mass[rowless]
    path_drift = np.abs(total - expected) > MASS_TOL
    path_clash = np.zeros(len(idents), dtype=bool)
    path_clash[
        nonempty.owner[overlaps(nonempty._replace(node=np.zeros_like(nonempty.node)))]
    ] = True

    keys = [(int(name.removeprefix("rule")), pair) for name, pair in idents]
    findings: List[Finding] = []
    for r in sorted(
        np.flatnonzero(~enabled | overlapped | drifted).tolist(),
        key=lambda r: (columns.row_node[r], keys[columns.row_unit[r]]),
    ):
        subject = d_subject(*keys[columns.row_unit[r]], table.nodes[columns.row_node[r]])
        for rule_id, failed, message in (
            (REP108, not enabled[r], "manifest samples a rule outside the node's TCAM set"),
            (REP102, overlapped[r], "node's own ranges overlap"),
            (
                REP107,
                drifted[r],
                f"manifest holds {held[r]:.8f}, solution assigned {solved[r]:.8f}",
            ),
        ):
            if failed:
                findings.append(Finding(rule_id, subject, message))
    for g in sorted(np.flatnonzero(path_clash | path_drift).tolist(), key=keys.__getitem__):
        for rule_id, failed, message in (
            (REP102, path_clash[g], "nodes hold overlapping ranges on one path"),
            (
                REP107,
                path_drift[g],
                f"ranges cover {total[g]:.8f} of the path, solution assigned {expected[g]:.8f}",
            ),
        ):
            if failed:
                findings.append(Finding(rule_id, d_subject(*keys[g]), message))
    return findings


def verify_nips_manifests(solution: NIPSSolution, manifests: Manifests) -> None:
    """Raising view of :func:`check_nips_manifests` (``ValueError``)."""
    raise_first(check_nips_manifests(solution, manifests))
