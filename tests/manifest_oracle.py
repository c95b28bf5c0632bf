"""All-nodes reference implementation of the by-unit manifest readers.

These are the loops that used to live in the product as
``TransitionPlan.duplicated_fraction`` / ``orphaned_fraction`` /
``handoffs`` (``repro.core.reconfigure``), the controller's per-unit
fold of it and its unchanged-entry count (``Controller._adopt`` /
``_unchanged_fraction``), ``InvariantMonitor.coverage_floor``
(``repro.control.chaos``), ``stabilize_manifests`` / ``ranges_reassigned`` /
``coverage_metrics`` (``repro.control.epochs``) and the control plane's
``_served_manifests`` (``repro.control.plane``), re-homed verbatim as the
tests' oracle (the ``tests/scalar_oracle.py`` / ``tests/planning_oracle.py``
precedent).
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

So are the two checks that read the solved ``d*``,
``repro.core.manifest.check_assignment`` and
``check_manifests_match_assignment``: the loops over the dict the
assignment carried before it held the solver's columns (which
``tests.planning_oracle.fractions_of`` rebuilds);
``tests/test_dstar_columns.py`` compares them finding for finding.

The NIPS manifests of Section 3.2 before they became plain
``NodeManifest`` rows: ``NIPSNodeManifest`` (a TCAM rule set plus range
dicts keyed ``(rule index, pair)``), the per-entry layout loop of
``repro.core.nips_manifest.generate_nips_manifests``, the per-node and
per-path ``check_nips_manifests`` walk, the per-packet
``NIPSDispatcher`` and ``repro.nips.enforcement``'s own
``_disjoint_ranges`` layout with the ``enforce`` that read it, verbatim
(``enforce`` without its unused random generator);
``tests/test_nips_manifest.py`` compares them with the product.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.control.agent import Agent
from repro.control.epochs import CoverageSummary, Ident
from repro.core.manifest import (
    MASS_TOL,
    REP101,
    REP103,
    REP104,
    REP107,
    REP108,
    EntryKey,
    Finding,
    NodeManifest,
    check_disjoint,
    raise_first,
    unit_label,
)
from repro.core.nids_deployment import NIDSDeployment
from repro.core.nips_milp import NIPSProblem, NIPSSolution, d_subject
from repro.core.nids_lp import NIDSAssignment
from repro.core.units import CoordinationUnit, UnitKey, unit_key_for_session
from repro.hashing.bobhash import hash_unit
from repro.hashing.keys import Aggregation, key_for, key_hash_unit
from repro.hashing.ranges import EPSILON, HashRange, union_length
from repro.nids.modules.base import ModuleSpec
from repro.topology.routing import PathSet
from repro.nips.enforcement import EnforcementReport
from repro.traffic.generator import home_node_index
from repro.traffic.packet import Packet
from repro.traffic.session import Session
from tests.planning_oracle import build_units, fractions_of


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
def _left_sum(terms: Iterable[float]) -> float:
    """``((0.0 + t0) + t1) + ...``: builtin ``sum`` is compensated from
    Python 3.12 on, and the reference must not depend on the interpreter."""
    total = 0.0
    for term in terms:
        total += term
    return total


def duplicated_fraction(
    old: NIDSDeployment, new: NIDSDeployment, class_name: str, key: UnitKey
) -> float:
    return _duplicated(old.manifests, new.manifests, class_name, key)


def _duplicated(
    old: Mapping[str, NodeManifest],
    new: Mapping[str, NodeManifest],
    class_name: str,
    key: UnitKey,
) -> float:
    duplicated = 0.0
    nodes = set(old) | set(new)
    # Sorted: the float fold below must not depend on set order.  A node
    # missing from one set (the empty set before a bootstrap) holds nothing.
    for node in sorted(nodes):
        old_ranges = old[node].ranges(class_name, key) if node in old else ()
        new_ranges = new[node].ranges(class_name, key) if node in new else ()
        # Mass held under either manifest, minus the overlap the
        # node keeps under both (not duplicated anywhere else).
        old_mass = _left_sum(r.length for r in old_ranges)
        overlap = _left_sum(
            old_piece.intersection_length(new_piece)
            for old_piece in old_ranges
            for new_piece in new_ranges
        )
        duplicated += old_mass - overlap
    return duplicated


# -- repro.control.controller.Controller._adopt ----------------------------
def duplicated_share(
    old: Mapping[str, NodeManifest],
    new: Mapping[str, NodeManifest],
    units: Iterable[CoordinationUnit],
) -> float:
    """The epoch's packet-weighted duplicated fraction from the set the
    controller held to the one it adopted: one :func:`duplicated_fraction`
    per adopted unit."""
    units = list(units)
    total = sum(u.pkts for u in units)
    if total <= 0:
        return 0.0
    duplicated = sum(
        u.pkts * _duplicated(old, new, u.class_name, u.key) for u in units
    )
    return duplicated / total


def unchanged_fraction(
    old: Dict[str, NodeManifest], new: Dict[str, NodeManifest]
) -> float:
    """Fraction of (node, unit) entries identical across versions."""
    keys = {
        (node, ident)
        for node, manifest in old.items()
        for ident in manifest.entries
    } | {
        (node, ident)
        for node, manifest in new.items()
        for ident in manifest.entries
    }
    if not keys:
        return 1.0
    unchanged = sum(
        1
        for node, ident in keys
        if node in old
        and node in new
        and old[node].entries.get(ident) == new[node].entries.get(ident)
    )
    return unchanged / len(keys)


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
def served_manifests(
    agents: Dict[str, Agent], units: Sequence[CoordinationUnit]
) -> Dict[str, NodeManifest]:
    """What each live agent actually serves: its applied manifest,
    or — degraded — its edge-only stance (every unit it is an
    endpoint of, in full), not the manifest it distrusts."""
    served = {}
    full = (HashRange(0.0, 1.0),)
    for node, agent in agents.items():
        if not agent.alive:
            continue
        if not agent.degraded:
            served[node] = agent.manifest
            continue
        entries = {
            (unit.class_name, unit.key): full
            for unit in units
            if node in unit.key
        }
        served[node] = dataclasses.replace(
            agent.manifest, entries=entries, full=False
        )
    return served


def coverage_metrics(
    units: Sequence[CoordinationUnit],
    manifests: Dict[str, NodeManifest],
    live: Set[str],
) -> CoverageSummary:
    total = sum(unit.pkts for unit in units)
    observable = 0.0
    covered_mass = 0.0
    orphaned_mass = 0.0
    min_cov = 1.0
    for unit in units:
        live_eligible = [node for node in unit.eligible if node in live]
        if not live_eligible:
            orphaned_mass += unit.pkts
            continue
        held: List[HashRange] = []
        for node in live_eligible:
            manifest = manifests.get(node)
            if manifest is not None:
                held.extend(manifest.ranges(unit.class_name, unit.key))
        covered = min(1.0, union_length(held))
        observable += unit.pkts
        covered_mass += unit.pkts * covered
        if covered < min_cov:
            min_cov = covered
    coverage = covered_mass / observable if observable > 0 else 1.0
    return CoverageSummary(
        coverage=coverage,
        min_unit_coverage=min_cov,
        orphaned_fraction=orphaned_mass / total if total > 0 else 0.0,
    )


def epoch_coverage(
    modules: Sequence[ModuleSpec],
    sessions: Sequence[Session],
    paths: PathSet,
    agents: Dict[str, Agent],
) -> CoverageSummary:
    """``ControlPlane.run_epoch``'s ground truth as it was: the epoch's
    units rebuilt (by the per-session loop), scored against the served
    manifests."""
    truth_units = build_units(modules, sessions, paths)
    live = {node for node, agent in agents.items() if agent.alive}
    return coverage_metrics(truth_units, served_manifests(agents, truth_units), live)


def _ranges_close(
    a: Tuple[HashRange, ...], b: Tuple[HashRange, ...], tolerance: float
) -> bool:
    if len(a) != len(b):
        return False
    a_sorted = sorted(a, key=lambda r: r.lo)
    b_sorted = sorted(b, key=lambda r: r.lo)
    return all(
        abs(x.lo - y.lo) <= tolerance and abs(x.hi - y.hi) <= tolerance
        for x, y in zip(a_sorted, b_sorted)
    )


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
    fractions = fractions_of(assignment)
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
            fraction = fractions.get((unit.class_name, unit.key, node), 0.0)
            if fraction <= EPSILON:
                continue
            arc = WrappedRange(start=cursor, length=min(1.0, fraction))
            pieces = tuple(_snap_top(piece) for piece in arc.pieces())
            if pieces:
                manifests[node].entries[(unit.class_name, unit.key)] = pieces
                last_entry = (node, (unit.class_name, unit.key))
            position += fraction
            if fraction >= 1.0 - EPSILON:
                # A whole lap returns to its start; ``(c + 1) - 1`` can
                # miss ``c`` by an ulp and open a sliver.
                continue
            cursor += fraction
            if cursor > 1.0 + EPSILON:
                cursor -= 1.0
            elif cursor >= 1.0 - EPSILON:
                # The lap boundary landed within EPSILON of the top, so
                # the piece just laid was snapped to end at exactly 1.0
                # (closed top).  The next range must start at exactly
                # 0.0: below the top it would lay a sliver under the
                # snapped band and cover it fold+1 times, above it an
                # ulp up and leave [0, ulp) one short.
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
    integer coverage, and no range starts within ``EPSILON`` above 0.0
    (the sweep would tolerate the sliver under it).  (3) The union
    reaches 1.0 *exactly*: the sweep tolerates an ``EPSILON`` shortfall
    at the top, but generation snaps it, so a solver-epsilon gap can
    never reach dispatch.  (4) Every eligible node has a manifest.

    Ranges are collected from **every** manifest in the set
    (:func:`holders`) — a corrupted entry on a non-eligible node must
    not escape the count.
    """
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
        for node, entry in holders(manifests, unit.ident):
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
        seam = min(
            (p.lo for p in all_pieces if 0.0 < p.lo <= EPSILON), default=None
        )
        if seam is not None:
            findings.append(
                Finding(
                    REP101,
                    label,
                    f"a range starts at {seam!r}, not exactly 0.0"
                    " (ulp sliver under the lap seam)",
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


# -- repro.core.manifest (the d* checks) ------------------------------------
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
    for (class_name, key, node), fraction in sorted(fractions_of(assignment).items()):
        ident = (class_name, key)
        label = unit_label(ident)
        # Eq. 6 first, and written so that NaN fails it: a negative or
        # NaN fraction carries no mass, so the skip below would hide it.
        if not -EPSILON <= fraction <= 1.0 + EPSILON:
            findings.append(
                Finding(
                    REP101,
                    f"{label}@{node}",
                    f"fraction {fraction!r} outside [0, 1] (Eq. 6)",
                )
            )
        if not fraction > EPSILON:
            continue
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
        if not abs(total - expected) <= MASS_TOL:
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
    """Per (unit, node): manifest mass must equal the solved ``d*``."""
    fractions = fractions_of(assignment)
    findings: List[Finding] = []
    for unit in units:
        for node in unit.eligible:
            if node not in manifests:
                continue
            held = manifests[node].assigned_fraction(unit.class_name, unit.key)
            solved = fractions.get((unit.class_name, unit.key, node), 0.0)
            if not abs(held - solved) <= MASS_TOL:
                findings.append(
                    Finding(
                        REP107,
                        f"{unit_label(unit.ident)}@{node}",
                        f"manifest holds {held:.8f} of the hash space but"
                        f" the solution assigned {solved:.8f}",
                    )
                )
    return findings


# -- NIPS manifests (Section 3.2) -------------------------------------------
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
    """Translate ``(e, d)`` into per-node NIPS manifests."""
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
    """The NIPS-manifest invariants, one finding per violation."""
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


class NIPSDispatcher:
    """Per-packet filtering decision at one NIPS node."""

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


def _disjoint_ranges(
    path_nodes: Tuple[str, ...], fractions: Mapping[str, float]
) -> Dict[str, Tuple[float, float]]:
    """Lay per-node fractions as consecutive ranges over [0, 1]."""
    ranges = {}
    position = 0.0
    for node in path_nodes:
        fraction = fractions.get(node, 0.0)
        if fraction > 0.0:
            ranges[node] = (position, min(1.0, position + fraction))
            position += fraction
    return ranges


def enforce(
    problem: NIPSProblem,
    solution: NIPSSolution,
    disjoint: bool = True,
) -> EnforcementReport:
    """Simulate *solution* over the problem's traffic."""
    footprint = 0.0
    dropped = 0.0
    total_unwanted = 0.0
    cpu_load: Dict[str, float] = {}
    mem_load: Dict[str, float] = {}
    modeled_cpu: Dict[str, float] = {}
    modeled_mem: Dict[str, float] = {}

    layout = problem.layout
    per_path: Dict[Tuple[int, Pair], Dict[str, float]] = {}
    for t in np.flatnonzero(solution.d > 0.0).tolist():
        i, pair = layout.rule_ids[layout.rule_of[t]], layout.pairs[layout.pair_of[t]]
        per_path.setdefault((i, pair), {})[layout.nodes[layout.node_of[t]]] = float(solution.d[t])

    for pair in problem.pairs:
        path = problem.paths[pair]
        items = problem.items[pair]
        pkts = problem.pkts[pair]
        for rule in problem.rules:
            rate = problem.match.rate(rule.index, pair)
            unwanted = items * rate
            total_unwanted += unwanted
            fractions = per_path.get((rule.index, pair), {})
            if not fractions:
                continue

            # Modeled (conservative) load: full T * d at every node.
            for node, fraction in fractions.items():
                modeled_mem[node] = modeled_mem.get(node, 0.0) + (
                    items * rule.mem_req * fraction
                )
                modeled_cpu[node] = modeled_cpu.get(node, 0.0) + (
                    pkts * rule.cpu_req * fraction
                )

            if disjoint:
                ranges = _disjoint_ranges(path.nodes, fractions)
                for node, (lo, hi) in ranges.items():
                    share = hi - lo
                    # Disjoint ranges: flows in this node's range were
                    # never dropped upstream, so realized load = model.
                    cpu_load[node] = cpu_load.get(node, 0.0) + pkts * rule.cpu_req * share
                    mem_load[node] = mem_load.get(node, 0.0) + items * rule.mem_req * share
                    removed = unwanted * share
                    dropped += removed
                    footprint += removed * problem.dist[pair][node]
            else:
                # Independent sampling: each node samples its fraction
                # of whatever unwanted traffic survives upstream.
                surviving = 1.0
                for node in path.nodes:
                    fraction = fractions.get(node, 0.0)
                    if fraction <= 0.0:
                        continue
                    # Unmatched traffic always arrives; matched only if
                    # it survived upstream drops.
                    arriving_matched = surviving
                    cpu_load[node] = cpu_load.get(node, 0.0) + (
                        pkts * rule.cpu_req * fraction
                        * (1.0 - rate + rate * arriving_matched)
                    )
                    mem_load[node] = mem_load.get(node, 0.0) + (
                        items * rule.mem_req * fraction
                        * (1.0 - rate + rate * arriving_matched)
                    )
                    removed = unwanted * arriving_matched * fraction
                    dropped += removed
                    footprint += removed * problem.dist[pair][node]
                    surviving *= 1.0 - fraction

    return EnforcementReport(
        footprint_removed=footprint,
        modeled_objective=problem.objective(solution.d),
        flows_dropped=dropped,
        total_unwanted_flows=total_unwanted,
        node_cpu_load=cpu_load,
        node_mem_load=mem_load,
        modeled_cpu_load=modeled_cpu,
        modeled_mem_load=modeled_mem,
    )
