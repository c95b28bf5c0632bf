"""Columnar view of a session trace for vectorized processing.

The batch engine and batch dispatcher both need the same field arrays
(5-tuple columns, packet counts, half-open flags) and the same
routing-pair grouping.  :class:`SessionBatch` extracts them once per
trace so the two layers never duplicate the Python-side column build —
at 100k+ sessions the ``fromiter`` sweeps are a measurable share of
the batch path.

Group ids: unit keys depend only on a session's (ingress, egress)
pair, so sessions are bucketed by first-seen pair; dispatch resolves
units once per distinct pair instead of once per (module, session).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .session import Session


class SessionBatch:
    """Field arrays for one session trace (built once, read many)."""

    __slots__ = (
        "sessions",
        "src",
        "dst",
        "sport",
        "dport",
        "proto",
        "pkts",
        "pkts_f",
        "half_open",
        "session_ids",
        "group_ids",
        "pairs",
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
        #: Per-session index into :attr:`pairs` (first-seen order).
        self.group_ids = group_ids
        #: Distinct (ingress, egress) routing pairs in this trace.
        self.pairs = pairs

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
