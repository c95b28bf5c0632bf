"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, name, parent, workload, rep, start, end, calls)``.
Spans nest through a stack (the benchmark is single-threaded), stay in
memory while the run measures, and are written out once at exit.  A
layer's *self time* is its duration minus what its child spans cover.

Two span flavours exist beside the plain one:

* ``add`` records an *aggregated* child: a layer function called
  thousands of times per parent (``ManifestIndex.contains_batch``) is
  timed call by call but stored as one span with ``calls = n``, laid at
  the parent's start — only its duration and count are meaningful;
* spans below a ``*.replay`` parent time a layer's public function on
  the inputs a real call just used, for layers the benchmark cannot
  reach in place (they run inside one public entry point).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.rep = 0
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[dict]]:
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": self.rep,
            "start": 0.0,
            "end": 0.0,
            "calls": 1,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def add(self, name: str, seconds: float, calls: int) -> None:
        """Record *calls* timed calls totalling *seconds* under the open span."""
        if not self.enabled or not self._stack:
            return
        parent = self.spans[self._stack[-1]]
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent["id"],
                "workload": self.workload,
                "rep": self.rep,
                "start": parent["start"],
                "end": parent["start"] + seconds,
                "calls": calls,
            }
        )

    # -- derived views -----------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return {
            span["id"]: (span["end"] - span["start"]) - covered[span["id"]]
            for span in self.spans
        }

    def per_rep(self, name: str, self_time: bool = False) -> List[float]:
        """Summed seconds of the spans called *name*, one value per rep."""
        own = self.self_times() if self_time else None
        totals: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["name"] == name:
                totals[span["rep"]] += (
                    own[span["id"]] if own is not None else span["end"] - span["start"]
                )
        return [totals[rep] for rep in sorted(totals)]

    def calls(self, name: str) -> List[int]:
        """Summed call counts of the spans called *name*, one value per rep."""
        totals: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span["name"] == name:
                totals[span["rep"]] += span["calls"]
        return [totals[rep] for rep in sorted(totals)]


def check_spans(spans: List[dict], tolerance: float = 1e-6) -> List[str]:
    """Well-formedness problems of a span list (empty when sound)."""
    problems: List[str] = []
    by_id = {span["id"]: span for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} {span['name']} ends before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {span['id']} {span['name']} has no parent {parent_id}")
            continue
        if (
            span["start"] < parent["start"] - tolerance
            or span["end"] > parent["end"] + tolerance
        ):
            problems.append(
                f"span {span['id']} {span['name']} leaves its parent {parent['name']}"
            )
        covered[parent_id] += span["end"] - span["start"]
    for span_id, total in covered.items():
        parent = by_id[span_id]
        if total > (parent["end"] - parent["start"]) + tolerance:
            problems.append(f"span {span_id} {parent['name']} has negative self time")
    return problems
