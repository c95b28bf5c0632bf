"""All-nodes reference implementation of the by-unit manifest readers.

These are the loops that used to live in the product as
``TransitionPlan.duplicated_fraction`` / ``orphaned_fraction`` /
``handoffs`` (``repro.core.reconfigure``), ``InvariantMonitor.coverage_floor``
(``repro.control.chaos``), ``stabilize_manifests`` / ``ranges_reassigned``
(``repro.control.epochs``) and the ``held`` pass of
``repro.core.manifest.check_partition``, re-homed verbatim as the tests'
oracle (the ``tests/scalar_oracle.py`` / ``tests/planning_oracle.py``
precedent).  Each asks *every* manifest (or every agent) about *every*
unit or session through the per-node scalar surfaces —
``NodeManifest.ranges`` / ``entries``, ``Agent.responsible_for_new``,
``TrafficFilter.matches_session``, ``key_hash_unit`` — so they share
nothing with :class:`repro.core.manifest_table.ManifestTable`, and
``tests/test_manifest_table.py`` compares the two with ``==``.
"""

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.control.agent import Agent
from repro.control.epochs import Ident, _ranges_close
from repro.core.manifest import EntryKey, NodeManifest
from repro.core.nids_deployment import NIDSDeployment
from repro.core.units import UnitKey, unit_key_for_session
from repro.hashing.keys import key_hash_unit
from repro.hashing.ranges import HashRange, union_length
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
