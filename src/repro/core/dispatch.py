"""The coordinated-NIDS decision procedure (paper Fig. 3).

On node ``R_j``, for each arriving packet:

1. ``GET_CLASS`` — find the modules whose traffic specification the
   packet matches (a packet may be analyzed by several modules);
2. ``GET_COORD_UNIT`` — find the packet's coordination unit for each
   such module;
3. ``HASH`` — hash the class-appropriate header fields into ``[0, 1)``;
4. analyze with module ``C_i`` iff the hash falls in this node's
   assigned range for the unit.

:class:`CoordinatedDispatcher` implements this against a node's
:class:`~repro.core.manifest.NodeManifest`.  Unit resolution uses the
host-to-home-PoP mapping embedded in host identifiers, standing in for
the paper's prefix-to-ingress configuration files.

Session-level dispatch (:meth:`decide_session`) is exact for every
scope.  Packet-level dispatch (:meth:`decide_packet`) is exact for
path-scoped classes (the unordered location pair is direction
independent); for ingress/egress-scoped classes it orients the
connection like Bro does — by connection record, here approximated by
the canonical tuple — and is used by the per-packet engine tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hashing.keys import Aggregation, key_hash_unit
from ..nids.modules.base import ModuleSpec, Scope
from ..traffic.batch import SessionBatch
from ..traffic.generator import home_node_index
from ..traffic.packet import Packet
from ..traffic.session import Session
from .manifest import NodeManifest
from .manifest_table import ManifestTable
from .units import UnitKey, unit_key, unit_key_for_session

#: Raw 5-tuple fields, the per-aggregation hash-cache key.
FieldKey = Tuple[int, int, int, int, int]


class UnitResolver:
    """``GET_COORD_UNIT``: map traffic to coordination-unit keys.

    Holds the node-name table needed to translate a host identifier's
    home-PoP index back to a node name.
    """

    def __init__(self, node_names: Sequence[str]):
        self._node_names = list(node_names)

    def home_of(self, host: int) -> str:
        """Node name of the host's home PoP."""
        return self._node_names[home_node_index(host)]

    def packet_unit(self, spec: ModuleSpec, packet: Packet) -> UnitKey:
        """Unit key for a bare packet.

        Path scope is direction-independent.  For ingress/egress scope
        the initiator is taken from the canonical orientation (in the
        engine, the connection record supplies the true initiator).
        """
        oriented = packet.tuple.canonical()
        return unit_key(
            spec.scope, self.home_of(oriented.src), self.home_of(oriented.dst)
        )


@dataclass
class DispatchDecision:
    """Outcome of the Fig. 3 procedure for one module on one packet."""

    module: ModuleSpec
    unit: UnitKey
    hash_value: float
    analyze: bool


@dataclass
class ModuleBatchDecision:
    """Per-module full-length masks over one :class:`SessionBatch`.

    ``match`` is the traffic-filter predicate, ``analyze`` the Fig. 3
    sampling verdict, and ``responsible`` whether this node holds any
    range for the session's coordination unit (regardless of where the
    hash lands) — the three per-(module, session) booleans the engine
    consumes.
    """

    spec: ModuleSpec
    match: np.ndarray
    analyze: np.ndarray
    responsible: np.ndarray


class CoordinatedDispatcher:
    """Per-node implementation of the coordinated-NIDS algorithm."""

    def __init__(
        self,
        node: str,
        manifest: NodeManifest,
        modules: Sequence[ModuleSpec],
        resolver: UnitResolver,
        hash_seed: int = 0,
        hash_cache: Optional[Dict[Aggregation, Dict[FieldKey, float]]] = None,
    ):
        if manifest.node != node:
            raise ValueError(
                f"manifest belongs to {manifest.node!r}, dispatcher is {node!r}"
            )
        self.node = node
        self.manifest = manifest
        self.modules = list(modules)
        self.resolver = resolver
        self.hash_seed = hash_seed
        # Hash values depend only on (aggregation, key fields); cache
        # them per canonical tuple the way the Bro extension caches
        # hashes in the connection record (Section 2.3).  The cache may
        # be shared across nodes — values are node independent — and is
        # nested per aggregation so batch lookups probe one sub-dict.
        self._hash_cache: Dict[Aggregation, Dict[FieldKey, float]] = (
            hash_cache if hash_cache is not None else {}
        )
        # The manifest read by unit, for batch dispatch: one ragged probe
        # of its flat pieces per (trace, module).
        self._table = ManifestTable.from_manifests({node: manifest})

    # -- hashing ------------------------------------------------------------
    def _hash(self, aggregation: Aggregation, src: int, dst: int, sport: int,
              dport: int, proto: int) -> float:
        from ..hashing.keys import key_for
        from ..hashing.bobhash import hash_unit

        # Cache on the raw fields: serializing the key bytes is itself
        # the dominant cost on cache hits, which dominate in network-
        # wide emulation (the same session is checked at every node on
        # its path).
        sub = self._hash_cache.get(aggregation)
        if sub is None:
            sub = self._hash_cache.setdefault(aggregation, {})
        cache_key = (src, dst, sport, dport, proto)
        cached = sub.get(cache_key)
        if cached is None:
            key = key_for(aggregation, src, dst, sport, dport, proto)
            cached = hash_unit(key, self.hash_seed)
            sub[cache_key] = cached
        return cached

    def session_hash(self, spec: ModuleSpec, session: Session) -> float:
        """HASH over the session's class-appropriate key fields."""
        t = session.tuple
        return self._hash(spec.aggregation, t.src, t.dst, t.sport, t.dport, t.proto)

    def packet_hash(self, spec: ModuleSpec, packet: Packet) -> float:
        """HASH over the packet's class-appropriate key fields."""
        t = packet.tuple
        return self._hash(spec.aggregation, t.src, t.dst, t.sport, t.dport, t.proto)

    # -- decisions ------------------------------------------------------------
    def decide_session(self, session: Session) -> List[DispatchDecision]:
        """Fig. 3 at connection granularity (the engine's fast path)."""
        decisions = []
        for spec in self.modules:
            if not spec.traffic_filter.matches_session(session):
                continue
            unit = unit_key_for_session(spec, session)
            hash_value = self.session_hash(spec, session)
            decisions.append(
                DispatchDecision(
                    module=spec,
                    unit=unit,
                    hash_value=hash_value,
                    analyze=self.manifest.contains(spec.name, unit, hash_value),
                )
            )
        return decisions

    def decide_packet(self, packet: Packet) -> List[DispatchDecision]:
        """Fig. 3 at packet granularity."""
        decisions = []
        for spec in self.modules:
            if not spec.traffic_filter.matches_packet(packet):
                continue
            unit = self.resolver.packet_unit(spec, packet)
            hash_value = self.packet_hash(spec, packet)
            decisions.append(
                DispatchDecision(
                    module=spec,
                    unit=unit,
                    hash_value=hash_value,
                    analyze=self.manifest.contains(spec.name, unit, hash_value),
                )
            )
        return decisions

    # -- batch decisions -----------------------------------------------------
    def _units_by_scope(self, batch: SessionBatch) -> Dict[Scope, List[UnitKey]]:
        """Per-scope gid-to-unit-key tables for the batch's pair groups.

        Unit keys depend only on the routing pair and the module scope,
        so resolving once per distinct pair (instead of once per
        (module, session)) collapses GET_COORD_UNIT to a table lookup.
        """
        return {
            scope: [unit_key(scope, *pair) for pair in batch.pairs]
            for scope in Scope
        }

    def _decide_batch_raw(
        self, sessions
    ) -> List[
        Tuple[np.ndarray, np.ndarray, np.ndarray, List[UnitKey], np.ndarray, np.ndarray]
    ]:
        """Vectorized Fig. 3 over a session batch (or :class:`SessionBatch`).

        Returns, per module (in module order): the full-length match
        mask, the matched session indices, their unit-group ids, the
        scope's gid-to-unit-key table, their hash values, and the
        analyze flags.  Semantics are identical to running
        :meth:`decide_session` per session.
        """
        batch = SessionBatch.of(sessions)
        n = len(batch)
        if n == 0:
            return [
                (
                    np.empty(0, dtype=bool),
                    np.empty(0, dtype=np.intp),
                    np.empty(0, dtype=np.intp),
                    [],
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=bool),
                )
                for _ in self.modules
            ]
        group_ids = batch.group_ids
        units_by_scope = self._units_by_scope(batch)
        table = self._table

        results = []
        for spec in self.modules:
            # HASH and GET_CLASS: memoised on the batch's root, so a
            # session is hashed and filtered once per trace however
            # many nodes decide on it.
            all_hashes = batch.hash_column(spec.aggregation, self.hash_seed)
            mask = batch.match_mask(spec.traffic_filter)
            matched = np.flatnonzero(mask)
            unit_table = units_by_scope[spec.scope]
            matched_gids = group_ids[matched]
            matched_hashes = all_hashes[matched]
            # Each pair's unit resolved to its table row group once,
            # then one probe of every matched session against its
            # group's pieces.
            pair_units = table.unit_ids((spec.name, unit) for unit in unit_table)
            flags = table.contains_batch(pair_units[matched_gids], matched_hashes)
            results.append(
                (mask, matched, matched_gids, unit_table, matched_hashes, flags)
            )
        return results

    def decide_batch(
        self, sessions: Sequence[Session]
    ) -> List[List[DispatchDecision]]:
        """Fig. 3 over a batch: per-session decision lists.

        Produces exactly ``[self.decide_session(s) for s in sessions]``
        (same modules, units, bit-identical hash values, same analyze
        verdicts) via the vectorized fast path.
        """
        decisions: List[List[DispatchDecision]] = [[] for _ in sessions]
        for spec, (_mask, matched, gids, unit_table, hashes, flags) in zip(
            self.modules, self._decide_batch_raw(sessions)
        ):
            for j, i in enumerate(matched):
                decisions[i].append(
                    DispatchDecision(
                        module=spec,
                        unit=unit_table[gids[j]],
                        hash_value=float(hashes[j]),
                        analyze=bool(flags[j]),
                    )
                )
        return decisions

    def batch_decisions(self, batch: SessionBatch) -> List["ModuleBatchDecision"]:
        """Full-length per-module masks for the vectorized engine.

        For each module (in module order): the traffic-filter match
        mask, the Fig. 3 analyze mask (match AND hash-in-range), and
        the responsibility mask (this node holds *some* range for the
        session's unit, ``NodeManifest.responsible``).  All element-wise
        identical to the scalar predicates.
        """
        raw = self._decide_batch_raw(batch)
        n = len(batch)
        out: List[ModuleBatchDecision] = []
        for spec, (mask, matched, _gids, unit_table, _hashes, flags) in zip(
            self.modules, raw
        ):
            analyze = np.zeros(n, dtype=bool)
            if len(matched):
                analyze[matched[flags]] = True
            if unit_table:
                table = np.fromiter(
                    (self.manifest.responsible(spec.name, unit) for unit in unit_table),
                    dtype=bool,
                    count=len(unit_table),
                )
                responsible = table[batch.group_ids]
            else:
                responsible = np.zeros(n, dtype=bool)
            out.append(ModuleBatchDecision(spec, mask, analyze, responsible))
        return out

    def should_analyze(self, spec: ModuleSpec, session: Session) -> bool:
        """Single-module convenience wrapper over :meth:`decide_session`."""
        if not spec.traffic_filter.matches_session(session):
            return False
        unit = unit_key_for_session(spec, session)
        return self.manifest.contains(
            spec.name, unit, self.session_hash(spec, session)
        )
