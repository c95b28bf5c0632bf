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

from ..hashing.ranges import (
    EPSILON,
    HashRange,
    WrappedRange,
    are_disjoint,
    covers_unit_interval,
)
from ..obs import COUNT_BUCKETS, get_registry
from .manifest_table import EntryKey, ManifestTable
from .nids_lp import NIDSAssignment
from .units import CoordinationUnit, UnitKey


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
    units: Sequence[CoordinationUnit],
    assignment: NIDSAssignment,
    node_names: Iterable[str],
) -> Dict[str, NodeManifest]:
    """Translate ``d*`` into per-node sampling manifests (Fig. 2).

    The order of nodes within a unit does not matter (Fig. 2 comment);
    we use the unit's eligible-node order, which is deterministic.
    Coverage per unit comes from the assignment (1 for the base
    formulation, up to ``r`` under redundancy); ranges past 1.0 wrap.
    """
    manifests: Dict[str, NodeManifest] = {
        name: NodeManifest(node=name) for name in node_names
    }
    for unit in units:
        position = 0.0
        # Track the wrapped layout position incrementally instead of
        # recomputing ``position % 1.0``: ``(lo % 1) + f`` and
        # ``(lo + f) % 1`` can differ by an ulp, and a boundary float
        # mismatch between consecutive ranges would open an
        # ulp-wide sliver that no node's half-open range contains.
        # Chaining the cursor makes each range's lo bit-identical to
        # its predecessor's hi.
        cursor = 0.0
        last_entry: Optional[Tuple[str, EntryKey]] = None
        for node in unit.eligible:
            fraction = assignment.fraction(unit.class_name, unit.key, node)
            if fraction <= EPSILON:
                continue
            arc = WrappedRange(start=cursor, length=min(1.0, fraction))
            pieces = tuple(_snap_top(piece) for piece in arc.pieces())
            if pieces:
                manifests[node].entries[(unit.class_name, unit.key)] = pieces
                last_entry = (node, (unit.class_name, unit.key))
            position += fraction
            cursor += fraction
            if cursor >= 1.0:
                cursor -= 1.0
            elif cursor >= 1.0 - EPSILON:
                # The lap boundary landed within EPSILON of the top, so
                # the piece just laid was snapped to end at exactly 1.0
                # (closed top).  The next range must start at the
                # bottom, or it would lay a sliver under the snapped
                # band and cover it fold+1 times.
                cursor = 0.0
        expected = assignment.coverage.get(unit.ident, 1.0)
        if abs(position - expected) > 1e-6:
            raise ValueError(
                f"unit {unit.ident} fractions sum to {position}, expected {expected}"
            )
        # The layout must end exactly at the top of the hash space.
        # Accumulated float error (up to the solver tolerance checked
        # above) can leave the final piece short of 1.0, which would
        # otherwise leak an uncovered sliver into dispatch; snap it.
        if last_entry is not None:
            node, key = last_entry
            entry = manifests[node].entries[key]
            tail = entry[-1]
            if 1.0 - 1e-6 < tail.hi < 1.0:
                manifests[node].entries[key] = entry[:-1] + (
                    HashRange(tail.lo, 1.0),
                )
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


def _snap_top(piece: HashRange) -> HashRange:
    """Snap a laid range ending within ``EPSILON`` of 1.0 to exactly 1.0.

    Wrapped arcs split at the top of the hash space; float error in the
    split position must not leave a piece at ``1.0 - epsilon`` where the
    generator intended exactly 1.0.
    """
    if 1.0 - EPSILON <= piece.hi < 1.0:
        return HashRange(piece.lo, 1.0)
    return piece


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


def unit_label(ident: EntryKey) -> str:
    """``class/key,key`` — the subject prefix of a unit's findings."""
    class_name, key = ident
    return f"{class_name}/{','.join(key)}"


def check_disjoint(
    subject: str, pieces: Sequence[HashRange], message: str
) -> List[Finding]:
    """REP102 at *subject* unless *pieces* are pairwise disjoint."""
    if are_disjoint(pieces):
        return []
    return [Finding(REP102, subject, message)]


def check_partition(
    units: Sequence[CoordinationUnit],
    manifests: Mapping[str, NodeManifest],
) -> List[Finding]:
    """Fig. 2 partition: disjoint per node, exact r-fold cover, top at 1.0.

    (1) No node's own ranges for a unit overlap (a node never analyzes
    the same traffic twice).  (2) The union of all nodes' ranges covers
    the unit hash space exactly ``coverage`` times, for a positive
    integer coverage.  (3) The union reaches 1.0 *exactly*: the sweep
    tolerates an ``EPSILON`` shortfall at the top, but generation snaps
    it, so a solver-epsilon gap can never reach dispatch.  (4) Every
    eligible node has a manifest.

    Ranges are collected from **every** manifest in the set
    (:class:`~repro.core.manifest_table.ManifestTable`) — a corrupted
    entry on a non-eligible node must not escape the count.
    """
    table = ManifestTable.from_manifests(manifests)
    findings: List[Finding] = []
    for unit in units:
        label = unit_label(unit.ident)
        for node in unit.eligible:
            if node not in manifests:
                findings.append(
                    Finding(
                        REP101,
                        f"{label}@{node}",
                        "eligible node has no manifest in the set",
                    )
                )
        all_pieces: List[HashRange] = []
        total = 0.0
        for node, entry in table.holders(unit.ident):
            pieces = [p for p in entry if not p.empty]
            findings.extend(
                check_disjoint(
                    f"{label}@{node}",
                    pieces,
                    "node's own ranges overlap (same traffic analyzed"
                    " twice at one node)",
                )
            )
            all_pieces.extend(pieces)
            total += sum(p.length for p in pieces)
        fold = int(round(total))
        if abs(total - fold) > MASS_TOL or fold < 1:
            findings.append(
                Finding(
                    REP101,
                    label,
                    f"total coverage mass {total!r} is not a positive"
                    " integer fold",
                )
            )
            continue
        if not covers_unit_interval(all_pieces, fold=fold):
            findings.append(
                Finding(
                    REP101,
                    label,
                    f"ranges do not cover [0,1] exactly {fold}-fold"
                    " (gap or uneven depth)",
                )
            )
        top = max(p.hi for p in all_pieces)
        if top != 1.0:  # repnoqa: REP001 -- generation snaps the top exactly
            findings.append(
                Finding(
                    REP103,
                    label,
                    f"range union tops out at {top!r}, not exactly 1.0"
                    " (ulp sliver above the last boundary)",
                )
            )
    return findings


def check_on_path(
    units: Sequence[CoordinationUnit],
    manifests: Mapping[str, NodeManifest],
) -> List[Finding]:
    """Section 2.3: positive mass only on nodes of the unit's path."""
    findings: List[Finding] = []
    eligible: Dict[EntryKey, Tuple[str, ...]] = {
        unit.ident: unit.eligible for unit in units
    }
    for node in sorted(manifests):
        for ident, pieces in sorted(manifests[node].entries.items()):
            mass = sum(p.length for p in pieces)
            if mass <= EPSILON:
                continue
            subject = f"{unit_label(ident)}@{node}"
            if ident not in eligible:
                findings.append(
                    Finding(
                        REP104,
                        subject,
                        "manifest entry for a unit absent from the plan",
                    )
                )
            elif node not in eligible[ident]:
                findings.append(
                    Finding(
                        REP104,
                        subject,
                        f"node holds {mass:.6f} of the unit's hash space"
                        " but is not on its forwarding path",
                    )
                )
    return findings


def check_assignment(
    units: Sequence[CoordinationUnit],
    assignment: NIDSAssignment,
) -> List[Finding]:
    """Eqs. 1 and 6 on the raw ``d*`` profile, plus the path constraint."""
    findings: List[Finding] = []
    eligible: Dict[EntryKey, Tuple[str, ...]] = {
        unit.ident: unit.eligible for unit in units
    }
    sums: Dict[EntryKey, float] = {}
    for (class_name, key, node), fraction in sorted(assignment.fractions.items()):
        if fraction <= EPSILON:
            continue
        ident = (class_name, key)
        label = unit_label(ident)
        if fraction < -EPSILON or fraction > 1.0 + EPSILON:
            findings.append(
                Finding(
                    REP101,
                    f"{label}@{node}",
                    f"fraction {fraction!r} outside [0, 1] (Eq. 6)",
                )
            )
        if ident in eligible and node not in eligible[ident]:
            findings.append(
                Finding(
                    REP104,
                    f"{label}@{node}",
                    f"d* assigns {fraction:.6f} to a node off the unit's"
                    " forwarding path",
                )
            )
        sums[ident] = sums.get(ident, 0.0) + fraction
    for unit in units:
        expected = assignment.coverage.get(unit.ident, 1.0)
        total = sums.get(unit.ident, 0.0)
        if abs(total - expected) > MASS_TOL:
            findings.append(
                Finding(
                    REP101,
                    unit_label(unit.ident),
                    f"d* sums to {total!r}, coverage requires {expected!r}"
                    " (Eq. 1)",
                )
            )
    return findings


def check_manifests_match_assignment(
    units: Sequence[CoordinationUnit],
    assignment: NIDSAssignment,
    manifests: Mapping[str, NodeManifest],
) -> List[Finding]:
    """Per (unit, node): manifest mass must equal the solved ``d*``.

    Only meaningful for *unstabilized* manifests — the controller's
    churn suppression deliberately keeps manifests up to its tolerance
    away from the fresh optimum, so its gate skips this check.
    """
    findings: List[Finding] = []
    for unit in units:
        for node in unit.eligible:
            if node not in manifests:
                continue
            held = manifests[node].assigned_fraction(unit.class_name, unit.key)
            solved = assignment.fraction(unit.class_name, unit.key, node)
            if abs(held - solved) > MASS_TOL:
                findings.append(
                    Finding(
                        REP107,
                        f"{unit_label(unit.ident)}@{node}",
                        f"manifest holds {held:.8f} of the hash space but"
                        f" the solution assigned {solved:.8f}",
                    )
                )
    return findings


def verify_manifests(
    units: Sequence[CoordinationUnit],
    manifests: Mapping[str, NodeManifest],
) -> None:
    """Raising view of :func:`check_partition` and :func:`check_on_path`:
    ``ValueError`` on the first finding."""
    raise_first(
        check_partition(units, manifests) or check_on_path(units, manifests)
    )


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
