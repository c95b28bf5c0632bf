"""List-scan reference for the control bus's per-receiver queues.

Until the queues, :class:`repro.control.bus.Bus` kept every message in
flight in one list and ``deliver(dst)`` filtered the whole list for
each receiver.  :class:`ListScan` re-homes that store verbatim over the
bus's one enqueue point, so :class:`ListScanBus` and
:class:`ListScanChaosBus` are the channel and the fault-plan channel
as they were, and ``tests/test_epoch_references.py`` compares them with
the queued ones message for message.
"""

from typing import List, Optional

from repro.control.bus import Bus, Message
from repro.control.plane import ChaosBus


class ListScan:
    """One list of every undelivered message, scanned per delivery."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._in_flight: List[Message] = []

    def _enqueue(self, message: Message) -> None:
        self._in_flight.append(message)

    def deliver(self, dst: str, now: float) -> List[Message]:
        due = [
            m for m in self._in_flight if m.dst == dst and m.deliver_at <= now
        ]
        if due:
            remaining = {id(m) for m in due}
            self._in_flight = [
                m for m in self._in_flight if id(m) not in remaining
            ]
            due.sort(key=lambda m: (m.deliver_at, m.seq))
            self.stats.delivered += len(due)
        return due

    def pending(self, dst: Optional[str] = None) -> int:
        if dst is None:
            return len(self._in_flight)
        return sum(1 for m in self._in_flight if m.dst == dst)


class ListScanBus(ListScan, Bus):
    pass


class ListScanChaosBus(ListScan, ChaosBus):
    pass
