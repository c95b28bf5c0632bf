"""SYN-flood detection (per-destination half-open counting).

Counts half-open connection attempts per destination host and alerts
when the count crosses a threshold.  Aggregating per destination, the
module is placed at the destination's egress node — "inbound floods are
best detected close to network gateways" (paper Section 1).
"""

from __future__ import annotations

from typing import Dict, Set

from ...traffic.session import Session
from .base import Alert, Detector, ModuleSpec

#: Half-open attempts before a destination is flagged as flooded.
DEFAULT_FLOOD_THRESHOLD = 15


class SynFloodDetector(Detector):
    """Per-destination half-open connection counting."""

    def __init__(self, spec: ModuleSpec, threshold: int = DEFAULT_FLOOD_THRESHOLD):
        super().__init__(spec)
        self.threshold = threshold
        self._half_open: Dict[int, int] = {}
        self._alerted: Set[int] = set()

    def on_session(self, session: Session) -> None:
        if not session.half_open:
            return
        destination = session.tuple.dst
        count = self._half_open.get(destination, 0) + 1
        self._half_open[destination] = count
        if count >= self.threshold and destination not in self._alerted:
            self._alerted.add(destination)
            self.alerts.append(
                Alert(
                    module=self.spec.name,
                    subject=f"dst:{destination}",
                    detail=f"{count} half-open connection attempts",
                )
            )
