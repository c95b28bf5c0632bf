"""All-nodes reference implementation of the by-unit manifest readers.

These are the loops that used to live in the product as
``TransitionPlan.duplicated_fraction`` / ``orphaned_fraction`` /
``handoffs`` (``repro.core.reconfigure``), ``InvariantMonitor.coverage_floor``
(``repro.control.chaos``) and ``stabilize_manifests`` / ``ranges_reassigned``
(``repro.control.epochs``), re-homed verbatim as the tests' oracle (the
``tests/scalar_oracle.py`` / ``tests/planning_oracle.py`` precedent).
Each asks *every* manifest (or every agent) about *every* unit or
session through the per-node scalar surfaces — ``NodeManifest.ranges``
/ ``entries``, ``Agent.responsible_for_new``,
``TrafficFilter.matches_session``, ``key_hash_unit`` — so they share
nothing with :class:`repro.core.manifest_table.ManifestTable`, and
``tests/test_manifest_table.py`` compares the two with ``==``.

Fig. 2 itself is here too: ``repro.core.manifest.generate_manifests``,
``check_partition`` and ``check_on_path`` as one Python loop per unit
and per (node, entry), with the scalar ``WrappedRange`` arc and
``covers_unit_interval`` sweep (once ``repro.hashing.ranges``) they
were written in, verbatim but for generation's metrics counters;
``tests/test_fig2_columns.py`` compares them with ``==``.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.control.agent import Agent
from repro.control.epochs import Ident, _ranges_close
from repro.core.manifest import (
    MASS_TOL,
    REP101,
    REP103,
    REP104,
    EntryKey,
    Finding,
    NodeManifest,
    check_disjoint,
    unit_label,
)
from repro.core.manifest_table import ManifestTable
from repro.core.nids_deployment import NIDSDeployment
from repro.core.nids_lp import NIDSAssignment
from repro.core.units import CoordinationUnit, UnitKey, unit_key_for_session
from repro.hashing.keys import key_hash_unit
from repro.hashing.ranges import EPSILON, HashRange, union_length
from repro.nids.modules.base import ModuleSpec
from repro.traffic.session import Session


def holders(
    manifests: Mapping[str, NodeManifest], ident: EntryKey
) -> Tuple[Tuple[str, Tuple[HashRange, ...]], ...]:
    """Brute force: ask every manifest, in sorted node order, whether it
    answers for *ident* (a ``full`` one always does; otherwise only a
    written entry counts, even an empty one)."""
    found = []
    for node in sorted(manifests):
        manifest = manifests[node]
        if manifest.full:
            found.append((node, (HashRange(0.0, 1.0),)))
        elif ident in manifest.entries:
            found.append((node, manifest.entries[ident]))
    return tuple(found)


# -- repro.core.reconfigure.TransitionPlan --------------------------------
def duplicated_fraction(
    old: NIDSDeployment, new: NIDSDeployment, class_name: str, key: UnitKey
) -> float:
    duplicated = 0.0
    nodes = set(old.manifests) | set(new.manifests)
    # Sorted: the float fold below must not depend on set order.
    for node in sorted(nodes):
        old_ranges = old.manifests[node].ranges(class_name, key)
        new_ranges = new.manifests[node].ranges(class_name, key)
        # Mass held under either manifest, minus the overlap the
        # node keeps under both (not duplicated anywhere else).
        old_mass = sum(r.length for r in old_ranges)
        overlap = sum(
            old_piece.intersection_length(new_piece)
            for old_piece in old_ranges
            for new_piece in new_ranges
        )
        duplicated += old_mass - overlap
    return duplicated


def orphaned_fraction(
    old: NIDSDeployment, new: NIDSDeployment, class_name: str, key: UnitKey
) -> float:
    new_unit = next(
        (
            u
            for u in new.units
            if u.class_name == class_name and u.key == key
        ),
        None,
    )
    if new_unit is None:
        return 0.0
    reachable = set(new_unit.eligible)
    orphaned = 0.0
    for node, manifest in old.manifests.items():
        if node in reachable:
            continue
        orphaned += sum(
            r.length for r in manifest.ranges(class_name, key)
        )
    return orphaned


def handoffs(
    old: NIDSDeployment, new: NIDSDeployment
) -> List[Tuple[str, UnitKey, str, str, float]]:
    transfers: List[Tuple[str, UnitKey, str, str, float]] = []
    idents = {
        (u.class_name, u.key) for u in old.units
    } | {(u.class_name, u.key) for u in new.units}
    nodes = set(old.manifests) | set(new.manifests)
    for class_name, key in idents:
        for donor in nodes:
            old_ranges = old.manifests[donor].ranges(class_name, key)
            if not old_ranges:
                continue
            for receiver in nodes:
                if receiver == donor:
                    continue
                new_ranges = new.manifests[receiver].ranges(class_name, key)
                mass = sum(
                    o.intersection_length(n)
                    for o in old_ranges
                    for n in new_ranges
                )
                if mass > 1e-9:
                    transfers.append((class_name, key, donor, receiver, mass))
    transfers.sort(key=lambda t: -t[4])
    return transfers


# -- repro.control.chaos.InvariantMonitor ---------------------------------
def coverage_floor(
    modules: Sequence[ModuleSpec],
    sessions: Sequence[Session],
    agents: Dict[str, Agent],
) -> Tuple[int, int]:
    """``(baseline, uncovered)`` (module, session) pair counts."""
    baseline = 0
    uncovered = 0
    agent_list = list(agents.values())
    for spec in modules:
        for session in sessions:
            if not spec.traffic_filter.matches_session(session):
                continue
            key = unit_key_for_session(spec, session)
            if not any(
                agents[n].alive for n in key if n in agents
            ):
                continue  # baseline itself cannot observe it
            baseline += 1
            t = session.tuple
            h = key_hash_unit(
                spec.aggregation, t.src, t.dst, t.sport, t.dport, t.proto
            )
            if not any(
                agent.responsible_for_new(spec.name, key, h)
                for agent in agent_list
            ):
                uncovered += 1
    return baseline, uncovered


# -- repro.control.epochs -------------------------------------------------
def stabilize_manifests(
    previous: Dict[str, NodeManifest],
    proposed: Dict[str, NodeManifest],
    tolerance: float,
    allowed: Optional[Dict[Ident, Set[str]]] = None,
) -> Tuple[Dict[str, NodeManifest], Set[Ident]]:
    idents: Set[Ident] = set()
    for manifest in proposed.values():
        idents.update(manifest.entries)

    result = {
        node: NodeManifest(node=node, full=manifest.full)
        for node, manifest in proposed.items()
    }
    changed: Set[Ident] = set()
    # Sorted so per-node entry dicts build in one canonical order for
    # every input ordering (REP202: sets iterate in hash order).
    for ident in sorted(idents):
        old_holders = {
            node: manifest.entries[ident]
            for node, manifest in previous.items()
            if ident in manifest.entries
        }
        new_holders = {
            node: manifest.entries[ident]
            for node, manifest in proposed.items()
            if ident in manifest.entries
        }
        reusable = (
            bool(old_holders)
            and set(old_holders) == set(new_holders)
            and (allowed is None or set(old_holders) <= allowed.get(ident, set()))
            and all(
                _ranges_close(old_holders[node], new_holders[node], tolerance)
                for node in old_holders
            )
        )
        source = old_holders if reusable else new_holders
        if not reusable:
            changed.add(ident)
        for node, ranges in source.items():
            result[node].entries[ident] = ranges
    return result, changed


def ranges_reassigned(
    snapshot: Mapping[Ident, Tuple[HashRange, ...]],
    survivors: Mapping[str, NodeManifest],
    skip: Set[Ident],
) -> bool:
    for ident, ranges in snapshot.items():
        if ident in skip:
            continue
        held: List[HashRange] = []
        for manifest in survivors.values():
            held.extend(manifest.ranges(*ident))
        for piece in ranges:
            if piece.empty:
                continue
            if union_length(held, clip=piece) < piece.length - 1e-9:
                return False
    return True


# -- repro.hashing.ranges: the scalar arc and cover sweep ------------------
@dataclass(frozen=True)
class WrappedRange:
    """An arc ``[start, start + length)`` on the unit circle.

    ``length`` must be at most 1 (as guaranteed by ``d_ikj <= 1``);
    arcs of length exactly 1 cover the full circle.
    """

    start: float
    length: float

    def __post_init__(self) -> None:
        if self.length < -EPSILON or self.length > 1.0 + EPSILON:
            raise ValueError(f"arc length {self.length} outside [0, 1]")
        if self.start < -EPSILON:
            raise ValueError(f"arc start {self.start} negative")

    def pieces(self) -> List[HashRange]:
        """Materialize the arc as one or two disjoint unit-space ranges."""
        lo = self.start % 1.0
        length = min(max(self.length, 0.0), 1.0)
        if length <= EPSILON:
            return []
        if length >= 1.0 - EPSILON:
            return [HashRange(0.0, 1.0)]
        hi = lo + length
        if hi <= 1.0 + EPSILON:
            return [HashRange(lo, min(hi, 1.0))]
        return [HashRange(lo, 1.0), HashRange(0.0, hi - 1.0)]

    def contains(self, value: float) -> bool:
        """Whether *value* (in ``[0, 1)``) lies on the arc."""
        return any(piece.contains(value) for piece in self.pieces())


def covers_unit_interval(ranges: Sequence[HashRange], fold: int = 1) -> bool:
    """Whether *ranges* cover ``[0, 1]`` exactly *fold* times.

    This is the invariant established by manifest generation: for
    redundancy level ``r``, every point of the hash space must be
    covered by exactly ``r`` ranges.  Implemented as a sweep over the
    sorted interval endpoints.
    """
    events: List[Tuple[float, int]] = []
    for r in ranges:
        if r.empty:
            continue
        events.append((r.lo, +1))
        events.append((r.hi, -1))
    if not events:
        return fold == 0
    events.sort(key=lambda e: (e[0], -e[1]))
    depth = 0
    cursor = 0.0
    for position, delta in events:
        if position - cursor > EPSILON and depth != fold:
            return False
        depth += delta
        cursor = max(cursor, position)
    if 1.0 - cursor > EPSILON:
        return False
    return True


# -- repro.core.manifest (Fig. 2) -----------------------------------------
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
