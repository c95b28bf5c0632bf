"""Sampling-manifest generation (paper Fig. 2 and Section 2.5).

``GenerateNIDSManifest`` converts the LP's optimal ``d*`` fractions
into hash ranges: for each coordination unit the eligible nodes' ranges
are laid end to end over ``[0, coverage]``, guaranteeing that the
ranges are non-overlapping and exactly cover the space.  With the
redundancy extension (coverage ``r`` > 1) positions beyond 1 wrap
around modulo 1; because every ``d_ikj <= 1``, a node's arc never
overlaps itself, so every point of the hash space is covered by ``r``
*distinct* nodes.

:func:`check_partition` is the one statement of that invariant;
:func:`verify_manifests` is its raising view, and
:mod:`repro.analysis.verify` composes it into reports.  :class:`Finding`
and the REP1xx rule IDs every deployment check reports with live here,
beside the first artifact they constrain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hashing.ranges import EPSILON, HashRange, are_disjoint
from ..obs import COUNT_BUCKETS, get_registry
from .manifest_table import (
    WHOLE,
    EntryKey,
    Manifests,
    ManifestTable,
    Pieces,
    fold_segments,
    row_mass,
)
from .nids_lp import NIDSAssignment
from .units import CoordinationUnit, UnitKey, Units, UnitTable, unit_label


@dataclass
class NodeManifest:
    """The sampling manifest for one node ``R_j``.

    Maps each (class, coordination unit) this node participates in to
    the hash ranges it is responsible for.  ``full=True`` builds the
    degenerate standalone manifest in which the node analyzes all
    traffic for every class — the configuration used for the paper's
    single-node microbenchmarks.
    """

    node: str
    entries: Dict[EntryKey, Tuple[HashRange, ...]] = field(default_factory=dict)
    full: bool = False

    def ranges(self, class_name: str, key: UnitKey) -> Tuple[HashRange, ...]:
        """Hash ranges held for (class, unit key)."""
        if self.full:
            return (HashRange(0.0, 1.0),)
        return self.entries.get((class_name, key), ())

    def responsible(self, class_name: str, key: UnitKey) -> bool:
        """Whether this node has any positive range for the unit."""
        if self.full:
            return True
        return any(not r.empty for r in self.entries.get((class_name, key), ()))

    def contains(self, class_name: str, key: UnitKey, hash_value: float) -> bool:
        """The Fig. 3 check: does *hash_value* fall in this node's range?"""
        if self.full:
            return True
        return any(r.contains(hash_value) for r in self.entries.get((class_name, key), ()))

    def assigned_fraction(self, class_name: str, key: UnitKey) -> float:
        """Total hash-space share held for the unit (equals ``d_ikj``)."""
        if self.full:
            return 1.0
        return sum(r.length for r in self.entries.get((class_name, key), ()))

    def same_ranges(self, other: "NodeManifest") -> bool:
        """Whether both manifests assign identical ranges everywhere.

        Content equality only — the owning node name is not compared.
        Used by the agent to skip the §5 dual-manifest window when a
        push changes the version but not the responsibilities.
        """
        if self.full or other.full:
            return self.full == other.full
        mine = {k: v for k, v in self.entries.items() if v}
        theirs = {k: v for k, v in other.entries.items() if v}
        return mine == theirs

    @property
    def num_entries(self) -> int:
        """Number of (class, unit) entries in the manifest."""
        return len(self.entries)


def full_manifest(node: str) -> NodeManifest:
    """Standalone manifest: *node* processes all traffic for all classes."""
    return NodeManifest(node=node, full=True)


def generate_manifests(
    units: Units,
    assignment: NIDSAssignment,
    node_names: Iterable[str],
) -> Dict[str, NodeManifest]:
    """Translate ``d*`` into per-node sampling manifests (Fig. 2).

    The order of nodes within a unit does not matter (Fig. 2 comment);
    we use the unit's eligible-node order, which is deterministic.
    Coverage per unit comes from the assignment (1 for the base
    formulation, up to ``r`` under redundancy); ranges past 1.0 wrap.

    Every unit is laid out at once: ``d*`` is gathered in the units'
    (unit, eligible node) order into a units × path-position grid, and
    one vector step per path position applies the scalar layout's float
    operations to every unit's cursor, in the same order, so each
    boundary comes out bit-identical to laying the units one by one.
    """
    manifests: Dict[str, NodeManifest] = {
        name: NodeManifest(node=name) for name in node_names
    }
    units = UnitTable.of(units)
    d_star = assignment.gather(units)
    grid = np.zeros((len(units), int(units.sizes.max(initial=0))))
    owner = units.owner
    grid[owner, np.arange(len(d_star)) - units.offsets[owner]] = d_star
    # A fraction at or under EPSILON lays nothing.  NaN is not under it
    # (as in the scalar skip); it then fails the sum check below.
    laid = ~(grid <= EPSILON)

    # Track the wrapped layout position incrementally instead of
    # recomputing ``position % 1.0``: ``(lo % 1) + f`` and
    # ``(lo + f) % 1`` can differ by an ulp, and a boundary float
    # mismatch between consecutive ranges would open an ulp-wide
    # sliver that no node's half-open range contains.  Chaining the
    # cursor makes each range's lo bit-identical to its predecessor's hi.
    cursor = np.zeros(len(units))
    position = np.zeros(len(units))
    starts = np.zeros_like(grid)
    for step in range(grid.shape[1]):
        fraction, on = grid[:, step], laid[:, step]
        starts[:, step] = cursor
        position = np.where(on, position + fraction, position)
        moved = cursor + fraction
        # A lap boundary within EPSILON of the top, below it or above
        # it, ends the piece just laid at exactly 1.0 (closed top), so
        # the next range must start at exactly 0.0: below, it would lay
        # a sliver under the snapped band and cover it fold+1 times;
        # above, it would start an ulp up and leave [0, ulp) one short.
        # A whole lap returns to its start: ``(c + 1) - 1`` can miss
        # ``c`` by an ulp, opening a sliver at the boundary.
        moved = np.where(
            moved > 1.0 + EPSILON,
            moved - 1.0,
            np.where(moved >= 1.0 - EPSILON, 0.0, moved),
        )
        moved = np.where(fraction >= 1.0 - EPSILON, cursor, moved)
        cursor = np.where(on, moved, cursor)

    expected = [assignment.coverage.get(ident, 1.0) for ident in units.idents]
    off = ~(np.abs(position - np.array(expected, dtype=np.float64)) <= 1e-6)
    if off.any():
        u = int(np.argmax(off))
        raise ValueError(
            f"unit {units.idents[u]} fractions sum to {float(position[u])},"
            f" expected {expected[u]}"
        )

    # The laid arcs, unit-major.  An arc of min(1, f) from the cursor
    # is the whole space, one piece, or two pieces wrapping past 1.0
    # (f <= 1, so it never overlaps itself: r distinct nodes cover each
    # point); every piece's top goes through _snap_top.
    unit_of, step_of = np.nonzero(laid)
    fraction = grid[unit_of, step_of]
    length = np.where(fraction < 1.0, fraction, 1.0)
    lo = np.mod(starts[unit_of, step_of], 1.0)
    hi = lo + length
    whole = length >= 1.0 - EPSILON
    split = ~whole & ~(hi <= 1.0 + EPSILON)
    first_lo = np.where(whole, 0.0, lo)
    first_hi = _snap_top(np.where(whole | split, 1.0, np.where(1.0 < hi, 1.0, hi)))
    second_hi = _snap_top(hi - 1.0)
    # The layout must end exactly at the top of the hash space.
    # Accumulated float error (up to the solver tolerance checked
    # above) can leave the final piece short of 1.0, which would
    # otherwise leak an uncovered sliver into dispatch; snap it.
    last = np.ones(len(unit_of), dtype=bool)
    last[:-1] = unit_of[1:] != unit_of[:-1]
    second_hi = np.where(
        last & split & (1.0 - 1e-6 < second_hi) & (second_hi < 1.0), 1.0, second_hi
    )
    first_hi = np.where(
        last & ~split & (1.0 - 1e-6 < first_hi) & (first_hi < 1.0), 1.0, first_hi
    )

    idents, names = units.idents, units.nodes
    for u, node, a, b, lap, wraps, c in zip(
        unit_of.tolist(),
        units.codes[units.offsets[unit_of] + step_of].tolist(),
        first_lo.tolist(),
        first_hi.tolist(),
        whole.tolist(),
        split.tolist(),
        second_hi.tolist(),
    ):
        if lap:
            pieces = WHOLE
        elif wraps:
            pieces = (HashRange(a, b), HashRange(0.0, c))
        else:
            pieces = (HashRange(a, b),)
        manifests[names[node]].entries[idents[u]] = pieces
    registry = get_registry()
    registry.counter(
        "manifest_generations_total", "Fig. 2 manifest-generation runs"
    ).inc()
    registry.histogram(
        "manifest_entries_per_generation",
        "(node, unit) entries produced per generation run",
        buckets=COUNT_BUCKETS,
    ).observe(sum(m.num_entries for m in manifests.values()))
    return manifests


def _snap_top(top: np.ndarray) -> np.ndarray:
    """Snap laid ranges ending within ``EPSILON`` of 1.0 to exactly 1.0.

    Wrapped arcs split at the top of the hash space; float error in the
    split position must not leave a piece at ``1.0 - epsilon`` where the
    generator intended exactly 1.0.
    """
    return np.where((1.0 - EPSILON <= top) & (top < 1.0), 1.0, top)


#: Numeric tolerance for mass sums in every deployment check.
MASS_TOL = 1e-6

# -- the deployment-invariant rule catalogue (docs/static_analysis.md) ----
REP101 = "REP101"
REP102 = "REP102"
REP103 = "REP103"
REP104 = "REP104"
REP105 = "REP105"
REP106 = "REP106"
REP107 = "REP107"
REP108 = "REP108"

VERIFIER_RULES: Dict[str, str] = {
    REP101: "unit coverage mass does not sum to the expected fold",
    REP102: "overlapping hash ranges",
    REP103: "range union does not top out at exactly 1.0",
    REP104: "mass assigned to a node off the unit's forwarding path",
    REP105: "per-node TCAM, memory or CPU capacity exceeded",
    REP106: "manifest delta does not apply cleanly to its base epoch",
    REP107: "manifest mass disagrees with the solved d* fractions",
    REP108: "node samples for a rule it never enabled",
}


@dataclass(frozen=True)
class Finding:
    """One violated invariant: *rule_id* at *subject*."""

    rule_id: str
    subject: str
    message: str

    def render(self) -> str:
        """``REPnnn [subject] message`` (the text output row)."""
        return f"{self.rule_id} [{self.subject}] {self.message}"


def raise_first(findings: Sequence[Finding]) -> None:
    """The raising view of a check: ``ValueError`` on the first finding."""
    if findings:
        raise ValueError(findings[0].render())


def check_disjoint(
    subject: str, pieces: Sequence[HashRange], message: str
) -> List[Finding]:
    """REP102 at *subject* unless *pieces* are pairwise disjoint."""
    if are_disjoint(pieces):
        return []
    return [Finding(REP102, subject, message)]


def overlaps(held: Pieces) -> np.ndarray:
    """Where a piece of *held* overlaps the next one of its ``(owner,
    node)`` row in ``lo`` order by more than ``EPSILON``: the first
    piece of each such pair.  Adjacent pairs suffice, as in
    :func:`~repro.hashing.ranges.are_disjoint`; empty pieces are the
    caller's to drop."""
    owner, node, lo, hi = held
    by_lo = np.lexsort((lo, node, owner))
    same_row = (owner[by_lo][1:] == owner[by_lo][:-1]) & (
        node[by_lo][1:] == node[by_lo][:-1]
    )
    return by_lo[:-1][same_row & (hi[by_lo][:-1] - lo[by_lo][1:] > EPSILON)]


def check_partition(units: Units, manifests: Manifests) -> List[Finding]:
    """Fig. 2 partition: disjoint per node, exact r-fold cover, top at 1.0.

    (1) No node's own ranges for a unit overlap (a node never analyzes
    the same traffic twice).  (2) The union of all nodes' ranges covers
    the unit hash space exactly ``coverage`` times, for a positive
    integer coverage, and no range starts within ``EPSILON`` above 0.0
    (the sweep would tolerate the sliver under it).  (3) The union
    reaches 1.0 *exactly*: the sweep tolerates an ``EPSILON`` shortfall
    at the top, but generation snaps it, so a solver-epsilon gap can
    never reach dispatch.  (4) Every eligible node has a manifest.

    Ranges are collected from **every** manifest in the set — each
    unit's holders' pieces as its
    :class:`~repro.core.manifest_table.ManifestTable` gathers them, a
    ``full`` node's ``[0, 1)`` included — so a corrupted entry on a
    non-eligible node must not escape the count.  Every unit is checked
    at once: the holders' masses fold in sorted node order, overlaps
    are adjacent pairs after a sort by ``lo``, and the cover is one
    sweep over the sorted endpoints, each segmented by unit.  Findings
    are rendered for failing units only.
    """
    table = ManifestTable.of(manifests)
    units = UnitTable.of(units)
    count = len(units)
    # Each checked unit's pieces, from every holder (the rows written
    # for it and the full nodes).
    held = table.pieces(table.unit_ids(units.idents))
    held = held.take(held.hi - held.lo > EPSILON)  # not HashRange.empty
    owner, node, lo, hi = held

    # (1) Per (unit, node) row, adjacent pieces in lo order overlap.
    clash = overlaps(held)
    overlapping: Dict[int, List[int]] = {}
    for u, k in sorted(set(zip(owner[clash].tolist(), node[clash].tolist()))):
        overlapping.setdefault(u, []).append(k)

    # (2) The mass: each row's pieces in entry order, rows in node order.
    total = held.mass(count)
    fold = np.rint(total)
    massless = (np.abs(total - fold) > MASS_TOL) | (fold < 1)

    # (2) The cover: sweep the endpoints, +1 before -1 at a tie; a gap
    # is an advance while the depth is not the fold, or a last
    # endpoint short of 1.0.  (3) The top is the last endpoint.
    at = np.concatenate((lo, hi))
    step = np.repeat(np.array([1, -1]), len(lo))
    who = np.concatenate((owner, owner))
    order = np.lexsort((-step, at, who))
    at, step, who = at[order], step[order], who[order]
    head = np.ones(len(at), dtype=bool)
    head[1:] = who[1:] != who[:-1]
    tail = np.ones(len(at), dtype=bool)
    tail[:-1] = head[1:]
    cursor = np.zeros(len(at))
    cursor[1:] = np.maximum(at[:-1], 0.0)
    cursor[head] = 0.0
    depth = np.cumsum(step) - step
    uncovered = np.zeros(count, dtype=bool)
    uncovered[who[(at - cursor > EPSILON) & (depth != fold[who])]] = True
    uncovered[who[tail]] |= 1.0 - np.maximum(at[tail], 0.0) > EPSILON
    top = np.ones(count)
    top[who[tail]] = at[tail]
    # (2) A piece starting within EPSILON above 0.0 leaves the sliver
    # under it held one time short, below the sweep's tolerance: the
    # bottom-end twin of (3)'s exact top.
    sliver = (0.0 < lo) & (lo <= EPSILON)
    seam = np.full(count, np.inf)
    np.minimum.at(seam, owner[sliver], lo[sliver])

    failing = massless | uncovered | (seam <= EPSILON) | (top != 1.0)  # repnoqa: REP001 -- generation snaps the top exactly
    failing[list(overlapping)] = True
    present = set(table.nodes)
    absent = ~units.entries_in(present)
    failing[units.owner[absent]] = True

    findings: List[Finding] = []
    for u in np.flatnonzero(failing).tolist():
        label = unit_label(units.idents[u])
        for name in units.eligible[u]:
            if name not in present:
                findings.append(
                    Finding(
                        REP101,
                        f"{label}@{name}",
                        "eligible node has no manifest in the set",
                    )
                )
        for k in overlapping.get(u, ()):
            findings.append(
                Finding(
                    REP102,
                    f"{label}@{table.nodes[k]}",
                    "node's own ranges overlap (same traffic analyzed"
                    " twice at one node)",
                )
            )
        if massless[u]:
            findings.append(
                Finding(
                    REP101,
                    label,
                    f"total coverage mass {float(total[u])!r} is not a positive"
                    " integer fold",
                )
            )
            continue
        if uncovered[u]:
            findings.append(
                Finding(
                    REP101,
                    label,
                    f"ranges do not cover [0,1] exactly {int(fold[u])}-fold"
                    " (gap or uneven depth)",
                )
            )
        if seam[u] <= EPSILON:
            findings.append(
                Finding(
                    REP101,
                    label,
                    f"a range starts at {float(seam[u])!r}, not exactly 0.0"
                    " (ulp sliver under the lap seam)",
                )
            )
        if top[u] != 1.0:  # repnoqa: REP001 -- generation snaps the top exactly
            findings.append(
                Finding(
                    REP103,
                    label,
                    f"range union tops out at {float(top[u])!r}, not exactly 1.0"
                    " (ulp sliver above the last boundary)",
                )
            )
    return findings


def check_on_path(units: Units, manifests: Manifests) -> List[Finding]:
    """Section 2.3: positive mass only on nodes of the unit's path.

    Every entry's mass folds from its table's flat columns at once;
    only entries holding mass are looked up in their unit's path.  Entries
    written on a ``full`` manifest are no rows of the set's table, but
    they are entries all the same: they are read through a table of
    their own.
    """
    table = ManifestTable.of(manifests)
    units = UnitTable.of(units)
    written = {
        node: NodeManifest(node=node, entries=table.manifests[node].entries)
        for node in table.full_nodes
        if table.manifests[node].entries
    }
    stray = _off_path(table, units)
    if written:
        stray.extend(_off_path(ManifestTable.from_manifests(written), units))
    findings: List[Finding] = []
    for node, ident, mass, planned in sorted(stray, key=lambda row: row[:2]):
        subject = f"{unit_label(ident)}@{node}"
        if not planned:
            findings.append(
                Finding(
                    REP104,
                    subject,
                    "manifest entry for a unit absent from the plan",
                )
            )
        else:
            findings.append(
                Finding(
                    REP104,
                    subject,
                    f"node holds {mass:.6f} of the unit's hash space"
                    " but is not on its forwarding path",
                )
            )
    return findings


def _planned_paths(
    units: UnitTable, groups: np.ndarray, count: int, nodes: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(planned, on_path)`` over *count* row groups of another table.

    ``groups[u]`` is unit *u*'s group (``-1``: none).  ``planned[g]``
    says whether a unit names group *g*; ``on_path`` holds
    ``g * len(nodes) + k`` for each ``nodes[k]`` on its path — the path
    of the last unit naming it, so a unit listed twice counts as its last.
    """
    planned = np.zeros(count, dtype=bool)
    planned[groups[groups >= 0]] = True
    last = np.zeros(len(units), dtype=bool)
    last[list(units.by_ident.values())] = True
    code, group = units.codes_in(nodes), groups[units.owner]
    entry = last[units.owner] & (code >= 0) & (group >= 0)
    return planned, group[entry] * len(nodes) + code[entry]


def _off_path(
    table: ManifestTable, units: UnitTable
) -> List[Tuple[str, EntryKey, float, bool]]:
    """``(node, unit, mass, planned)`` of every row of *table* holding
    more than ``EPSILON`` of a unit it is not eligible for — or of a
    unit absent from *units* (``planned`` false)."""
    columns = table.columns
    mass = row_mass(columns)
    planned, on_path = _planned_paths(
        units, table.unit_ids(units.idents), len(table.units), table.nodes
    )
    heavy = np.flatnonzero(mass > EPSILON)
    unit, node = columns.row_unit[heavy], columns.row_node[heavy]
    stray = ~np.isin(unit * len(table.nodes) + node, on_path)
    idents, nodes = table.units, table.nodes
    return [
        (nodes[k], idents[u], m, p)
        for u, k, m, p in zip(
            unit[stray].tolist(),
            node[stray].tolist(),
            mass[heavy][stray].tolist(),
            planned[unit[stray]].tolist(),
        )
    ]


def check_assignment(
    units: Units,
    assignment: NIDSAssignment,
) -> List[Finding]:
    """Eqs. 1 and 6 on the raw ``d*`` profile, plus the path constraint.

    One pass over the assignment's columns in ``(class, key, node)``
    order renders each entry's findings; each unit's mass folds left to
    right in that order, and a unit of *units* that the assignment
    lacks sums to 0.0.
    """
    units = UnitTable.of(units)
    order = assignment.sorted_order()
    unit_of, node_of = assignment.unit_of[order], assignment.node_of[order]
    value = assignment.value[order]
    # Eq. 6 first, and written so that NaN fails it: a negative or NaN
    # fraction carries no mass, so the mass test below would hide it.
    outside = ~((-EPSILON <= value) & (value <= 1.0 + EPSILON))
    heavy = value > EPSILON
    # The path of each planned unit of the assignment; a unit listed
    # twice in *units* counts as its last.
    planned = assignment.unit_ids(units.idents)
    nodes = assignment.nodes
    has_path, on_path = _planned_paths(units, planned, len(assignment.units), nodes)
    off = np.zeros(len(value), dtype=bool)
    off[heavy] = has_path[unit_of[heavy]] & ~np.isin(
        unit_of[heavy] * len(nodes) + node_of[heavy], on_path
    )

    findings: List[Finding] = []
    flagged = np.flatnonzero(outside | off)
    for t, u, k, fraction in zip(
        flagged.tolist(),
        unit_of[flagged].tolist(),
        node_of[flagged].tolist(),
        value[flagged].tolist(),
    ):
        subject = f"{unit_label(assignment.units[u])}@{nodes[k]}"
        if outside[t]:
            findings.append(
                Finding(
                    REP101, subject, f"fraction {fraction!r} outside [0, 1] (Eq. 6)"
                )
            )
        if off[t]:
            findings.append(
                Finding(
                    REP104,
                    subject,
                    f"d* assigns {fraction:.6f} to a node off the unit's"
                    " forwarding path",
                )
            )

    # Eq. 1: each unit's heavy entries, folded in node order.
    held_by, mass = unit_of[heavy], value[heavy]
    first = np.ones(len(held_by), dtype=bool)
    first[1:] = held_by[1:] != held_by[:-1]
    sums = np.zeros(len(assignment.units) + 1)  # the last slot: absent
    sums[held_by[first]] = fold_segments(mass, np.cumsum(first) - 1, int(first.sum()))
    totals = sums[planned].tolist()
    for ident, total in zip(units.idents, totals):
        expected = assignment.coverage.get(ident, 1.0)
        if not abs(total - expected) <= MASS_TOL:
            findings.append(
                Finding(
                    REP101,
                    unit_label(ident),
                    f"d* sums to {total!r}, coverage requires {expected!r}"
                    " (Eq. 1)",
                )
            )
    return findings


def check_manifests_match_assignment(
    units: Units, assignment: NIDSAssignment, manifests: Manifests
) -> List[Finding]:
    """Per (unit, node): manifest mass must equal the solved ``d*``.

    Only meaningful for *unstabilized* manifests — the controller's
    churn suppression deliberately keeps manifests up to its tolerance
    away from the fresh optimum, so its gate skips this check.

    Both sides come in the units' (unit, eligible node) order: ``d*``
    through :meth:`NIDSAssignment.gather`, the held mass as the node's
    own pieces of the unit folded from the set's table (a ``full`` node
    holds 1.0, a node without an entry 0.0).  Nodes without a manifest
    are skipped.
    """
    table = ManifestTable.of(manifests)
    units = UnitTable.of(units)
    solved = assignment.gather(units)
    # Per (unit, eligible node), the pieces that node holds of the unit.
    node = units.codes_in(table.nodes)
    pieces = table.pieces(table.unit_ids(units.idents)[units.owner])
    held = pieces.take(pieces.node == node[pieces.owner]).mass(len(node))

    drift = (node >= 0) & ~(np.abs(held - solved) <= MASS_TOL)
    findings: List[Finding] = []
    for t in np.flatnonzero(drift).tolist():
        findings.append(
            Finding(
                REP107,
                f"{unit_label(units.idents[units.owner[t]])}"
                f"@{units.nodes[units.codes[t]]}",
                f"manifest holds {held[t]:.8f} of the hash space but"
                f" the solution assigned {solved[t]:.8f}",
            )
        )
    return findings


def check_deployment(
    units: Units,
    manifests: Manifests,
    assignment: Optional[NIDSAssignment] = None,
) -> List[Finding]:
    """:func:`check_partition` then :func:`check_on_path` and, with
    *assignment*, :func:`check_assignment` then
    :func:`check_manifests_match_assignment` — read through one
    :class:`~repro.core.manifest_table.ManifestTable` of *manifests*."""
    units = UnitTable.of(units)
    table = ManifestTable.of(manifests)
    findings = check_partition(units, table)
    findings.extend(check_on_path(units, table))
    if assignment is not None:
        findings.extend(check_assignment(units, assignment))
        findings.extend(check_manifests_match_assignment(units, assignment, table))
    return findings


def verify_manifests(units: Units, manifests: Manifests) -> None:
    """Raising view of :func:`check_partition` and :func:`check_on_path`
    over one table: ``ValueError`` on the first finding."""
    units = UnitTable.of(units)
    table = ManifestTable.of(manifests)
    raise_first(check_partition(units, table) or check_on_path(units, table))


def sampled_node(
    unit: CoordinationUnit,
    manifests: Mapping[str, NodeManifest],
    hash_value: float,
) -> List[str]:
    """All nodes whose range for *unit* contains *hash_value*.

    Length 1 in the base formulation, ``r`` under redundancy level r.
    """
    return [
        node
        for node in unit.eligible
        if manifests[node].contains(unit.class_name, unit.key, hash_value)
    ]
