"""The session trace, as columns.

:class:`SessionBatch` is the trace type of the whole pipeline: the
generator draws whole columns and hands them to
:meth:`SessionBatch.from_columns`, and the planner (``build_units``),
the dispatcher and the engine read those arrays — no ``Session`` object
exists on the generate → plan / emulate path.  A batch is also a
``Sequence[Session]`` (``len``, ``batch[i]``, ``batch[a:b]``,
iteration) for the consumers that want objects: detectors, the flow
exporter, the control plane's per-ingress lists, the tests.

What is a **root**.  A batch that owns its rows: built from columns
(``from_columns``; the generator's chunks), from a list of ``Session``
objects (``SessionBatch(sessions)``; hand-built or filtered traces), or
unpickled.  Everything else is an index **view** of a root —

* :meth:`take` (and a slice, which is a ``take`` of a range) gathers the
  nine engine columns with NumPy ``take`` and remembers its root and its
  row positions there; the per-node traces of paper §2.4 are such takes
  (``TrafficGenerator.split_batch``), as is ``generate()``'s start-time
  order and ``SessionBatch(batch)``.

What is **lazy**, and cached where.

* ``Session`` objects.  A column-born root builds all of its objects on
  the first ``batch[i]`` / iteration anywhere in its family (one bulk
  ``tolist()`` per column, so the fields are Python ``int`` / ``float``
  / ``bool``) and keeps the list; a list-born root's cache is the list
  it was given.  A view resolves ``batch[i]`` through its row positions
  into the root's list, so an object is built at most once per root
  however many views iterate it.
* The columns only the object view reads — ``start_time``,
  ``num_bytes``, ``malicious`` and ``template_ids`` into the small
  ``templates`` table (``app``, ``payload_tag``, ``probe``) — live on
  the column-born root alone; a view never copies them.
* :meth:`hash_column` memoises the lookup3 hash column per
  ``(aggregation, seed)`` on the root and slices it for a view, so a
  session is hashed once per trace and not once per node on its path —
  the vector form of §2.3's "store the hash in the connection record".
  Under the same rule the root memoises each traffic filter's match
  mask (:meth:`match_mask`), each aggregation's item-key
  factorisation (:meth:`item_key_ids`) and what other modules ask of
  it through :meth:`rooted` / :meth:`rooted_rows` (each scope's unit
  key ids, ``repro.core.units.session_unit_keys``, and their eligible
  sets); those live on the root only — a view gathers its rows at
  every call and caches nothing — and are never pickled.

Group ids: unit keys depend only on a session's (ingress, egress)
pair, so sessions are bucketed by pair; dispatch resolves units once
per distinct pair instead of once per (module, session).
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .packet import FiveTuple
from .profiles import SessionTemplate
from .session import Session

#: Per-session columns the engine reads; a view gathers them.
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

#: Per-session columns only the ``Session`` view reads; they stay on
#: the column-born root (``None`` on a view and on a list-born root).
_DETAIL = ("start_time", "num_bytes", "malicious", "template_ids")


class SessionBatch(_SequenceABC):
    """Field arrays for one session trace (built once, read many)."""

    __slots__ = (
        _COLUMNS
        + _DETAIL
        + (
            "templates",
            "group_ids",
            "pairs",
            "hashes_computed",
            "_objects",
            "_root",
            "_index",
            "_hashes",
            "_memo",
        )
    )

    def __init__(self, sessions: Sequence[Session]):
        """Columns extracted from ``Session`` objects (or, given a
        batch, an index view of it)."""
        import numpy as np

        if isinstance(sessions, SessionBatch):
            self._init_view(sessions, np.arange(len(sessions)))
            return
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
        self._init_root(group_ids, pairs)
        self._objects = sessions

    @classmethod
    def from_columns(
        cls,
        *,
        src,
        dst,
        sport,
        dport,
        proto,
        pkts,
        half_open,
        session_ids,
        group_ids,
        pairs: List[Tuple[str, str]],
        start_time,
        num_bytes,
        malicious,
        template_ids,
        templates: Tuple[SessionTemplate, ...],
    ) -> "SessionBatch":
        """A root born as columns (no ``Session`` behind it).

        Arrays are taken as given — the dtypes are the caller's to get
        right (``uint64`` hosts, ``int64`` ports / protocol / packets /
        bytes / ids, ``bool`` flags, ``float64`` start times, ``intp``
        group and template ids); ``pairs`` holds the distinct routing
        pairs in first-seen order and ``templates[template_ids[i]]``
        names row *i*'s application.
        """
        batch = object.__new__(cls)
        batch.src, batch.dst, batch.sport, batch.dport = src, dst, sport, dport
        batch.proto, batch.pkts, batch.half_open = proto, pkts, half_open
        batch.session_ids = session_ids
        batch._init_root(group_ids, pairs)
        batch.start_time, batch.num_bytes = start_time, num_bytes
        batch.malicious, batch.template_ids = malicious, template_ids
        batch.templates = templates
        return batch

    @classmethod
    def of(cls, sessions) -> "SessionBatch":
        """*sessions* as a batch: itself if it is one, built if a list."""
        return sessions if isinstance(sessions, SessionBatch) else cls(sessions)

    def _init_root(self, group_ids, pairs: List[Tuple[str, str]]) -> None:
        import numpy as np

        #: float64 packet counts; exact (packet counts are far below 2**53),
        #: so vectorized per-packet charges round identically to scalar.
        self.pkts_f = self.pkts.astype(np.float64)
        #: Per-session index into :attr:`pairs`.
        self.group_ids = group_ids
        #: Distinct (ingress, egress) routing pairs in this trace
        #: (first-seen order on a root, the parent's order on a view).
        self.pairs = pairs
        self._attach(None, None)

    def _attach(self, root: Optional["SessionBatch"], index) -> None:
        """The state every new batch starts from: row *index* into
        *root* (``None`` on a root), nothing hashed, nothing cached."""
        #: lookup3 evaluations :meth:`hash_column` performed on this
        #: batch's columns (views never hash; read it on the root).
        self.hashes_computed = 0
        for name in _DETAIL:
            setattr(self, name, None)
        self.templates = None
        self._objects = None
        self._root = root
        self._index = index
        self._hashes: Dict[tuple, "object"] = {}
        self._memo: Dict[tuple, "object"] = {}

    def _init_view(self, parent: "SessionBatch", index) -> None:
        import numpy as np

        for name in _COLUMNS:
            setattr(self, name, getattr(parent, name).take(index))
        # Keep ``pairs`` to the pairs present, as on a built batch —
        # dispatch builds per-pair tables, and a node sees a fraction
        # of a large topology's pairs.  ``remap`` is monotone, so the
        # view's pair order is its parent's.
        gids = parent.group_ids.take(index)
        present = np.zeros(len(parent.pairs), dtype=bool)
        present[gids] = True
        remap = np.cumsum(present) - 1
        self.group_ids = remap.take(gids)
        self.pairs = [parent.pairs[g] for g in np.flatnonzero(present).tolist()]
        self._attach(
            parent.root, index if parent._index is None else parent._index.take(index)
        )

    @property
    def root(self) -> "SessionBatch":
        """The batch that owns this batch's rows (itself, unless a view)."""
        return self._root if self._root is not None else self

    def take(self, index) -> "SessionBatch":
        """The sub-batch at positions *index* — a gather, not a rebuild.

        Element-equal to ``SessionBatch([self[i] for i in index])`` in
        every column and in the pair each group id resolves to, at NumPy
        speed.  The view stays attached to this batch's root: its
        ``Session`` objects resolve lazily there and its hash columns
        are slices of the root's (:meth:`hash_column`).
        """
        import numpy as np

        view = object.__new__(SessionBatch)
        view._init_view(self, np.asarray(index, dtype=np.intp))
        return view

    def hash_column(self, aggregation, seed: int):
        """Per-session ``HASH`` values in ``[0, 1)`` at *aggregation*.

        Computed with one vector sweep over the root's columns the
        first time any batch of the family asks — one NumPy pass is
        cheaper than per-element probes of a dict cache (measured: the
        probe loop, not hashing, dominated a cache-aware variant) — and
        memoised there; a view gathers its rows from the root's
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
                values = self._gather(self._root.hash_column(aggregation, seed))
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

    def rooted(self, key: tuple, build):
        """``build(root)``, computed once per root and kept there (never
        pickled).  *key* is ``(kind, argument)`` and names what *build*
        computes."""
        root = self.root
        value = root._memo.get(key)
        if value is None:
            value = root._memo[key] = build(root)
        return value

    def rooted_rows(self, key: tuple, build):
        """``(table, ids)`` where ``build(root)`` returns a table and one
        id per root row: memoised by :meth:`rooted`, the ids gathered at
        this batch's rows."""
        table, ids = self.rooted(key, build)
        return table, self._gather(ids)

    def _gather(self, column):
        """This batch's rows of a root-length *column*."""
        return column if self._index is None else column.take(self._index)

    def match_mask(self, traffic_filter):
        """``traffic_filter.matches_sessions_batch`` over this batch's
        rows: evaluated once over the root, gathered for a view."""
        return self._gather(
            self.rooted(
                ("match", traffic_filter),
                lambda root: traffic_filter.matches_sessions_batch(
                    root.proto, root.dport
                ),
            )
        )

    def item_key_ids(self, aggregation):
        """``(distinct, ids)``: the root's sorted distinct
        :meth:`item_keys` at *aggregation*, and per row of this batch the
        ``uint32`` position of its key there, so ``distinct[ids]`` equals
        ``item_keys(aggregation)``.  The distinct keys of any subset of
        rows are ``distinct`` at the ids it holds — already sorted."""
        import numpy as np

        def factorise(root):
            distinct, inverse = np.unique(
                root.item_keys(aggregation), return_inverse=True
            )
            return distinct, inverse.astype(np.uint32)

        return self.rooted_rows(("keys", aggregation), factorise)

    # -- the Sequence[Session] view -------------------------------------------
    def _session_objects(self) -> Sequence[Session]:
        """This root's ``Session`` objects, built from the columns once."""
        objects = self._objects
        if objects is None:
            pairs = [self.pairs[g] for g in self.group_ids.tolist()]
            templates = [self.templates[t] for t in self.template_ids.tolist()]
            objects = self._objects = [
                Session(
                    session_id=session_id,
                    tuple=FiveTuple(src, dst, sport, dport, proto),
                    app=template.name,
                    ingress=pair[0],
                    egress=pair[1],
                    start_time=start_time,
                    num_packets=pkts,
                    num_bytes=num_bytes,
                    malicious=malicious,
                    payload_tag=template.payload_tag,
                    half_open=half_open,
                    probe=template.probe,
                )
                for (
                    session_id, src, dst, sport, dport, proto, template, pair,
                    start_time, pkts, num_bytes, malicious, half_open,
                ) in zip(
                    self.session_ids.tolist(),
                    self.src.tolist(),
                    self.dst.tolist(),
                    self.sport.tolist(),
                    self.dport.tolist(),
                    self.proto.tolist(),
                    templates,
                    pairs,
                    self.start_time.tolist(),
                    self.pkts.tolist(),
                    self.num_bytes.tolist(),
                    self.malicious.tolist(),
                    self.half_open.tolist(),
                )
            ]
        return objects

    def __len__(self) -> int:
        return len(self.session_ids)

    def __getitem__(self, i):
        """``batch[i]`` is a ``Session``; ``batch[a:b:c]`` a view."""
        import numpy as np

        if isinstance(i, slice):
            return self.take(np.arange(*i.indices(len(self))))
        objects = self.root._session_objects()
        return objects[i] if self._index is None else objects[self._index[i]]

    def __iter__(self) -> Iterator[Session]:
        objects = self.root._session_objects()
        if self._index is None:
            return iter(objects)
        return map(objects.__getitem__, self._index.tolist())

    # A pickled batch stands alone, and as columns: a view carries its
    # own rows (the root's detail columns gathered at them) and hash
    # slices, not the root it was taken from.  Only a list-born family
    # has no columns to rebuild ``Session`` objects from and ships them.
    # The root memo is not shipped; the receiver rebuilds it on use.
    def __getstate__(self) -> dict:
        root = self.root
        state = {
            name: getattr(self, name) for name in self.__slots__ if name != "_memo"
        }
        state.update(hashes_computed=0, _root=None, _index=None, _objects=None)
        if root.templates is None:
            state["_objects"] = list(self)
        else:
            state["templates"] = root.templates
            for name in _DETAIL:
                column = getattr(root, name)
                state[name] = column if self._index is None else column.take(self._index)
        return state

    def __setstate__(self, state: dict) -> None:
        self._memo = {}
        for name, value in state.items():
            setattr(self, name, value)
