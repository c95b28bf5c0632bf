"""Scan detection (per-source fan-out counting).

Tracks, per source host, the set of distinct destination hosts it has
contacted, and raises an alert when the fan-out crosses a threshold —
the classic Bro ``scan.bro`` policy.  Because the module aggregates per
source, its coordination unit is the source's ingress node: only the
ingress observes *all* traffic a host initiates (paper Section 2.1).
"""

from __future__ import annotations

from typing import Dict, Set

from ...traffic.session import Session
from .base import Alert, Detector, ModuleSpec

#: Distinct destinations before a source is flagged as a scanner.
DEFAULT_SCAN_THRESHOLD = 12


class ScanDetector(Detector):
    """Per-source distinct-destination counting."""

    def __init__(self, spec: ModuleSpec, threshold: int = DEFAULT_SCAN_THRESHOLD):
        super().__init__(spec)
        self.threshold = threshold
        self._destinations: Dict[int, Set[int]] = {}
        self._alerted: Set[int] = set()

    def on_session(self, session: Session) -> None:
        source = session.tuple.src
        seen = self._destinations.setdefault(source, set())
        seen.add(session.tuple.dst)
        if len(seen) >= self.threshold and source not in self._alerted:
            self._alerted.add(source)
            self.alerts.append(
                Alert(
                    module=self.spec.name,
                    subject=f"src:{source}",
                    detail=f"contacted {len(seen)} distinct destinations",
                )
            )
