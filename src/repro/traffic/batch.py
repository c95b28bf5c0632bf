"""Columnar view of a session trace for vectorized processing.

The batch engine and batch dispatcher both need the same field arrays
(5-tuple columns, packet counts, half-open flags) and the same
routing-pair grouping.  :class:`SessionBatch` extracts them from the
``Session`` objects **once per trace** (or per streamed chunk): that
Python-side sweep is the expensive part, so everything downstream works
on index views of the one *root* batch —

* :meth:`SessionBatch.take` gathers a sub-batch with NumPy ``take`` on
  the root's columns; the per-node traces of paper §2.4 are such takes
  (``TrafficGenerator.split_batch``), never per-node ``Session`` lists;
* :meth:`SessionBatch.hash_column` memoises the lookup3 hash column per
  ``(aggregation, seed)`` on the root and slices it for a child, so a
  session is hashed once per trace and not once per node on its path —
  the vector form of §2.3's "store the hash in the connection record";
* ``batch.sessions[i]`` on a child resolves lazily to the root's
  ``Session`` object, for the consumers (detectors, the tests' scalar
  oracle) that want objects rather than columns.

Group ids: unit keys depend only on a session's (ingress, egress)
pair, so sessions are bucketed by pair; dispatch resolves units once
per distinct pair instead of once per (module, session).
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .session import Session

#: Per-session columns a child gathers from its parent.
_COLUMNS = (
    "src",
    "dst",
    "sport",
    "dport",
    "proto",
    "pkts",
    "pkts_f",
    "half_open",
    "session_ids",
)


class _Rows(_SequenceABC):
    """``Session`` objects of a taken batch, resolved on access."""

    __slots__ = ("_sessions", "_index")

    def __init__(self, sessions: Sequence[Session], index):
        self._sessions = sessions
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, i) -> Session:
        return self._sessions[self._index[i]]

    def __iter__(self) -> Iterator[Session]:
        sessions = self._sessions
        return (sessions[i] for i in self._index.tolist())


class SessionBatch:
    """Field arrays for one session trace (built once, read many)."""

    __slots__ = _COLUMNS + (
        "sessions",
        "group_ids",
        "pairs",
        "hashes_computed",
        "_root",
        "_index",
        "_hashes",
    )

    def __init__(self, sessions: Sequence[Session]):
        import numpy as np

        self.sessions = sessions
        n = len(sessions)
        tuples = [session.tuple for session in sessions]
        self.src = np.fromiter((t.src for t in tuples), dtype=np.uint64, count=n)
        self.dst = np.fromiter((t.dst for t in tuples), dtype=np.uint64, count=n)
        self.sport = np.fromiter((t.sport for t in tuples), dtype=np.int64, count=n)
        self.dport = np.fromiter((t.dport for t in tuples), dtype=np.int64, count=n)
        self.proto = np.fromiter((t.proto for t in tuples), dtype=np.int64, count=n)
        self.pkts = np.fromiter(
            (s.num_packets for s in sessions), dtype=np.int64, count=n
        )
        #: float64 packet counts; exact (packet counts are far below 2**53),
        #: so vectorized per-packet charges round identically to scalar.
        self.pkts_f = self.pkts.astype(np.float64)
        self.half_open = np.fromiter(
            (s.half_open for s in sessions), dtype=bool, count=n
        )
        self.session_ids = np.fromiter(
            (s.session_id for s in sessions), dtype=np.int64, count=n
        )
        group_ids = np.empty(n, dtype=np.intp)
        seen: Dict[Tuple[str, str], int] = {}
        pairs: List[Tuple[str, str]] = []
        for i, session in enumerate(sessions):
            pair = (session.ingress, session.egress)
            gid = seen.get(pair)
            if gid is None:
                gid = len(pairs)
                seen[pair] = gid
                pairs.append(pair)
            group_ids[i] = gid
        #: Per-session index into :attr:`pairs`.
        self.group_ids = group_ids
        #: Distinct (ingress, egress) routing pairs in this trace
        #: (first-seen order on a root, the parent's order on a child).
        self.pairs = pairs
        #: lookup3 evaluations :meth:`hash_column` performed on this
        #: batch's columns (children never hash; read it on the root).
        self.hashes_computed = 0
        self._root: Optional[SessionBatch] = None
        self._index = None
        self._hashes: Dict[tuple, "object"] = {}

    @property
    def root(self) -> "SessionBatch":
        """The batch whose columns were built from ``Session`` objects."""
        return self._root if self._root is not None else self

    def take(self, index) -> "SessionBatch":
        """The sub-batch at positions *index* — a gather, not a rebuild.

        Element-equal to ``SessionBatch([self.sessions[i] for i in
        index])`` in every column and in the pair each group id resolves
        to, at NumPy speed.  The child stays attached to this batch's
        root: its ``sessions`` resolve lazily and its hash columns are
        slices of the root's (:meth:`hash_column`).
        """
        import numpy as np

        index = np.asarray(index, dtype=np.intp)
        child = object.__new__(SessionBatch)
        for name in _COLUMNS:
            setattr(child, name, getattr(self, name).take(index))
        # Keep ``pairs`` to the pairs present, as on a built batch —
        # dispatch builds per-pair tables, and a node sees a fraction
        # of a large topology's pairs.  ``remap`` is monotone, so the
        # child's pair order is this batch's.
        gids = self.group_ids.take(index)
        present = np.zeros(len(self.pairs), dtype=bool)
        present[gids] = True
        remap = np.cumsum(present) - 1
        child.group_ids = remap.take(gids)
        child.pairs = [self.pairs[g] for g in np.flatnonzero(present).tolist()]
        root = self.root
        root_index = index if self._index is None else self._index.take(index)
        child.sessions = _Rows(root.sessions, root_index)
        child.hashes_computed = 0
        child._root = root
        child._index = root_index
        child._hashes = {}
        return child

    def hash_column(self, aggregation, seed: int):
        """Per-session ``HASH`` values in ``[0, 1)`` at *aggregation*.

        Computed with one vector sweep over the root's columns the
        first time any batch of the family asks — one NumPy pass is
        cheaper than per-element probes of a dict cache (measured: the
        probe loop, not hashing, dominated a cache-aware variant) — and
        memoised there; a child gathers its rows from the root's
        column.  Values are bit-identical to the scalar
        ``hash_unit(key_for(...), seed)``.
        """
        from ..hashing.vectorized import key_hash_unit_batch

        key = (aggregation, seed)
        values = self._hashes.get(key)
        if values is None:
            if self._root is None:
                values = key_hash_unit_batch(
                    aggregation,
                    self.src,
                    self.dst,
                    self.sport,
                    self.dport,
                    self.proto,
                    seed,
                )
                self.hashes_computed += len(values)
            else:
                values = self._root.hash_column(aggregation, seed).take(self._index)
            self._hashes[key] = values
        return values

    def item_keys(self, aggregation):
        """Per-session state-table keys at *aggregation* (int64 array).

        Mirrors :meth:`repro.nids.modules.base.ModuleSpec.item_key`
        elementwise: source host, destination host, or session id.
        """
        import numpy as np

        from ..hashing.keys import Aggregation

        if aggregation is Aggregation.SOURCE:
            return self.src.astype(np.int64)
        if aggregation is Aggregation.DESTINATION:
            return self.dst.astype(np.int64)
        return self.session_ids

    def __len__(self) -> int:
        return len(self.sessions)

    # A pickled batch stands alone: a child carries its own rows and
    # hash slices, not the root it was taken from.
    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__}
        state.update(
            sessions=list(self.sessions), hashes_computed=0, _root=None, _index=None
        )
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
