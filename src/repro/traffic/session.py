"""Session model.

A :class:`Session` is one end-to-end application conversation between
two hosts, routed along an ingress–egress path.  Sessions are the
generator's unit of output and the NIDS emulation's unit of work: the
emulator processes sessions (with per-packet costs applied
arithmetically) for speed, while :meth:`Session.packets` materializes
the actual packet stream when per-packet fidelity is needed (dispatch
tests, the micro-benchmarks' event engine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .packet import FLAG_ACK, FLAG_FIN, FLAG_SYN, FiveTuple, Packet, TCP, UDP
from .profiles import SessionTemplate


@dataclass(frozen=True)
class Session:
    """One generated application session."""

    session_id: int
    tuple: FiveTuple
    app: str
    ingress: str
    egress: str
    start_time: float
    num_packets: int
    num_bytes: int
    malicious: bool = False
    payload_tag: str = ""
    half_open: bool = False
    probe: bool = False

    @property
    def server_port(self) -> int:
        """The session's destination (service) port."""
        return self.tuple.dport

    @property
    def pair(self) -> Tuple[str, str]:
        """The (ingress, egress) routing pair."""
        return (self.ingress, self.egress)

    def packets(self, inter_arrival: float = 0.01) -> Iterator[Packet]:
        """Materialize the session's packet stream.

        TCP sessions open with a SYN / SYN-ACK handshake and close with
        a FIN; UDP sessions are plain datagrams.  Half-open (SYN flood)
        sessions emit only the initial SYN.  Packet directions alternate
        for bidirectional templates, approximating request/response
        traffic; sizes split the session byte count evenly.
        """
        size = max(40, self.num_bytes // max(1, self.num_packets))
        forward = self.tuple
        reverse = self.tuple.reversed()
        clock = self.start_time
        tag = self.payload_tag if self.malicious else ""

        if self.tuple.proto == TCP:
            yield Packet(forward, clock, size=40, flags=FLAG_SYN, payload_tag=tag)
            if self.half_open:
                return
            clock += inter_arrival
            yield Packet(reverse, clock, size=40, flags=FLAG_SYN | FLAG_ACK)
            emitted = 2
        else:
            emitted = 0

        remaining = max(0, self.num_packets - emitted)
        for index in range(remaining):
            clock += inter_arrival
            direction = forward if index % 2 == 0 else reverse
            flags = FLAG_ACK
            if self.tuple.proto == TCP and index == remaining - 1:
                flags |= FLAG_FIN
            yield Packet(direction, clock, size=size, flags=flags, payload_tag=tag)


def merge_packet_streams(sessions: List[Session]) -> List[Packet]:
    """Interleave the packet streams of *sessions* in timestamp order.

    Used by the micro-benchmarks to feed a single Bro instance a
    realistic mixed trace rather than one session at a time.
    """
    packets = list(itertools.chain.from_iterable(s.packets() for s in sessions))
    packets.sort(key=lambda p: p.timestamp)
    return packets
