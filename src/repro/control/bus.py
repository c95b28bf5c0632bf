"""Simulated control-plane message bus.

The paper's operations center and the NIDS nodes exchange manifests,
measurement reports, and liveness signals over the management network.
:class:`Bus` models that channel as a discrete-event queue with
configurable one-way latency, jitter, and loss, so the coordination
plane can be exercised under realistic distribution conditions
(reordering falls out of jitter: a message sent later can arrive
earlier).

The bus is deliberately unreliable-datagram-shaped — no retransmission,
no ordering guarantee.  Reliability is the controller's job (epoch
versioning plus acknowledgement-driven retry), which mirrors how a real
deployment would layer idempotent config pushes over a lossy management
channel.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import MetricsRegistry, NULL_REGISTRY


@dataclass(frozen=True)
class Message:
    """One in-flight control-plane message."""

    src: str
    dst: str
    kind: str
    payload: object
    size_bytes: int
    sent_at: float
    deliver_at: float
    seq: int


@dataclass
class BusConfig:
    """Channel model parameters (times in seconds)."""

    #: Mean one-way delivery latency.
    latency: float = 0.05
    #: Uniform extra delay in ``[0, jitter]`` — the source of reordering.
    jitter: float = 0.0
    #: Probability that a message is silently dropped.
    loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")


@dataclass
class BusStats:
    """Cumulative channel counters."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    sent_by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-compatible dict of the cumulative counters."""
        return dataclasses.asdict(self)


class Bus:
    """Discrete-event message channel between controller and agents."""

    def __init__(
        self,
        config: Optional[BusConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or BusConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.stats = BusStats()
        self._rng = random.Random(self.config.seed)
        self._in_flight: List[Message] = []
        self._seq = 0

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: object,
        size_bytes: int,
        now: float,
    ) -> Optional[Message]:
        """Enqueue a message; returns ``None`` if the channel drops it.

        Dropped messages still count toward ``sent`` / ``bytes_sent``:
        the sender paid for the transmission either way, which is what
        the per-epoch byte accounting must reflect.
        """
        self.stats.sent += 1
        self.stats.bytes_sent += size_bytes
        self.stats.sent_by_kind[kind] = self.stats.sent_by_kind.get(kind, 0) + 1
        self.stats.bytes_by_kind[kind] = (
            self.stats.bytes_by_kind.get(kind, 0) + size_bytes
        )
        registry = self.registry
        registry.counter(
            "bus_messages_total", "control-plane messages sent", labels=("kind",)
        ).inc(kind=kind)
        registry.counter(
            "bus_bytes_total", "control-plane bytes sent", labels=("kind",)
        ).inc(size_bytes, kind=kind)
        if self.config.loss_rate > 0 and self._rng.random() < self.config.loss_rate:
            self.stats.dropped += 1
            registry.counter(
                "bus_dropped_total",
                "control-plane messages lost in the channel",
                labels=("kind",),
            ).inc(kind=kind)
            return None
        delay = self.config.latency
        if self.config.jitter > 0:
            delay += self._rng.random() * self.config.jitter
        self._seq += 1
        message = Message(
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=now,
            deliver_at=now + delay,
            seq=self._seq,
        )
        return self._admit(message, now)

    def _admit(self, message: Message, now: float) -> Optional[Message]:
        """Place an already-built message into the channel.

        Extension point for fault injection: a subclass may drop the
        message (return ``None``), retime it, or enqueue duplicates —
        see :class:`repro.control.chaos.ChaosBus`.  The base channel
        admits everything unchanged.
        """
        self._in_flight.append(message)
        return message

    def _drop_admitted(self, message: Message) -> None:
        """Account an admitted-then-dropped message as channel loss."""
        self.stats.dropped += 1
        self.registry.counter(
            "bus_dropped_total",
            "control-plane messages lost in the channel",
            labels=("kind",),
        ).inc(kind=message.kind)

    def deliver(self, dst: str, now: float) -> List[Message]:
        """Messages for *dst* whose delivery time has arrived.

        Returned in delivery-time order (not send order), removed from
        the channel.
        """
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
        """Number of undelivered messages (optionally for one receiver)."""
        if dst is None:
            return len(self._in_flight)
        return sum(1 for m in self._in_flight if m.dst == dst)
