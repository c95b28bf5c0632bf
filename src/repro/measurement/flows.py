"""Flow reports and their exporter (NetFlow-style measurement substrate).

The paper's optimization inputs come from operational measurement:
"ISPs typically collect traffic reports (e.g., NetFlow, SNMP) every few
minutes, and since NIDS configurations would typically be driven from
such reports, we envision needing to reconfigure NIDS with roughly the
same frequency."

This module provides that feed: a :class:`FlowExporter` that turns
observed sessions into an (optionally *sampled*) per-interval
:class:`TrafficReport` — real routers export 1-in-N sampled NetFlow —
holding the per-pair and per-(pair, port) flow and packet sums the
planner consumes.  Each exported session is folded into the report's
sums as it passes; no per-flow record is kept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from ..traffic.session import Session

Pair = Tuple[str, str]


@dataclass
class TrafficReport:
    """Aggregated measurement for one reporting interval."""

    interval_seconds: float
    sampling_rate: float
    pair_flows: Dict[Pair, float] = field(default_factory=dict)
    pair_packets: Dict[Pair, float] = field(default_factory=dict)
    pair_port_flows: Dict[Tuple[Pair, int], float] = field(default_factory=dict)
    pair_port_packets: Dict[Tuple[Pair, int], float] = field(default_factory=dict)

    @property
    def total_flows(self) -> float:
        """Estimated flows across all pairs."""
        return sum(self.pair_flows.values())

    @property
    def total_packets(self) -> float:
        """Estimated packets across all pairs."""
        return sum(self.pair_packets.values())

    def port_share(self, pair: Pair, port: int) -> float:
        """Estimated fraction of the pair's flows on *port*."""
        flows = self.pair_flows.get(pair, 0.0)
        if flows <= 0:
            return 0.0
        return self.pair_port_flows.get((pair, port), 0.0) / flows


class FlowExporter:
    """Turn observed sessions into sampled NetFlow-style reports.

    ``sampling_rate=1/N`` models packet-sampled NetFlow's flow-level
    effect approximately: each flow is exported independently with the
    configured probability and the report scales counts back up by
    ``1/sampling_rate`` — the standard inversion estimator.
    """

    def __init__(self, sampling_rate: float = 1.0, seed: int = 0):
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        self.sampling_rate = sampling_rate
        self._rng = random.Random(seed)

    def measure(
        self, sessions: Iterable[Session], interval_seconds: float = 300.0
    ) -> TrafficReport:
        """The report of *sessions* over one interval: each session is
        exported with probability ``sampling_rate`` (one draw per
        session, none when every flow is exported) and counted
        ``1/sampling_rate`` times."""
        rate = self.sampling_rate
        scale = 1.0 / rate
        report = TrafficReport(interval_seconds=interval_seconds, sampling_rate=rate)
        flows, packets = report.pair_flows, report.pair_packets
        port_flows, port_packets = report.pair_port_flows, report.pair_port_packets
        draw = self._rng.random if rate < 1.0 else None
        for session in sessions:
            if draw is not None and draw() >= rate:
                continue
            pair = (session.ingress, session.egress)
            key = (pair, session.tuple.dport)
            scaled = scale * session.num_packets
            flows[pair] = flows.get(pair, 0.0) + scale
            packets[pair] = packets.get(pair, 0.0) + scaled
            port_flows[key] = port_flows.get(key, 0.0) + scale
            port_packets[key] = port_packets.get(key, 0.0) + scaled
        return report
