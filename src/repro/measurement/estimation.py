"""Planning inputs from measurement (paper Section 2.2, "Inputs").

"Note that these inputs are already available or can be inferred from
existing measurements.  Network operations centers typically know the
traffic matrix, routing policy, and node hardware configurations.
Similarly, the resource footprints of the NIDS modules can be obtained
from offline profiles."

:func:`estimate_units` builds the LP's coordination-unit volumes from a
:class:`~repro.measurement.flows.TrafficReport` instead of ground-truth
sessions — the production path, where the operations center only sees
(possibly sampled) NetFlow.  Quantities a flow report cannot carry
(distinct-host ratios, the half-open share) come from an
:class:`EstimationModel` whose defaults reflect the mixed profile; in
operation they would come from the same offline profiling the paper
cites for module footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.units import CoordinationUnit, UnitKey, unit_key, units_from_volumes
from ..hashing.keys import Aggregation
from ..nids.modules.base import ModuleSpec
from ..topology.routing import PathSet
from ..traffic.packet import TCP
from .flows import Pair, TrafficReport


@dataclass
class EstimationModel:
    """Profile-derived ratios a flow report cannot express."""

    #: Distinct sources per flow observed at an ingress (drives the
    #: per-source memory estimate for scan detection).
    distinct_source_ratio: float = 0.15
    #: Distinct destinations per flow at an egress.
    distinct_dest_ratio: float = 0.15
    #: Share of TCP flows that never complete a handshake.
    half_open_fraction: float = 0.07
    #: TCP share of total flows (for protocol-wide TCP filters).
    tcp_fraction: float = 0.85


def _matched_volumes(
    spec: ModuleSpec, report: TrafficReport, pair: Pair, model: EstimationModel
) -> Tuple[float, float]:
    """Estimated (flows, packets) on *pair* that ``spec`` analyzes.

    Port-filtered modules read the exact per-port flow and packet
    sums the flow records carry; protocol-wide filters scale the
    pair totals by the profiled TCP share.
    """
    total_flows = report.pair_flows.get(pair, 0.0)
    total_packets = report.pair_packets.get(pair, 0.0)
    if total_flows <= 0:
        return 0.0, 0.0
    traffic_filter = spec.traffic_filter
    if traffic_filter.server_ports:
        flows = sum(
            report.pair_port_flows.get((pair, port), 0.0)
            for port in traffic_filter.server_ports
        )
        packets = sum(
            report.pair_port_packets.get((pair, port), 0.0)
            for port in traffic_filter.server_ports
        )
        return flows, packets
    if traffic_filter.proto == TCP:
        return total_flows * model.tcp_fraction, total_packets * model.tcp_fraction
    return total_flows, total_packets


def _cpu_per_flow(
    spec: ModuleSpec, avg_packets: float, model: EstimationModel
) -> float:
    """Expected analysis cost per matched flow (offline-profile form)."""
    events = spec.events_per_packet * avg_packets + spec.events_per_session
    if spec.half_open_events_only:
        events = (
            spec.events_per_packet * avg_packets
            + spec.events_per_session * model.half_open_fraction
        )
    return spec.event_cpu_per_packet * avg_packets + spec.policy_cpu_per_event * events


def _items_for(spec: ModuleSpec, flows: float, model: EstimationModel) -> float:
    if spec.aggregation is Aggregation.SOURCE:
        return flows * model.distinct_source_ratio
    if spec.aggregation is Aggregation.DESTINATION:
        return flows * model.distinct_dest_ratio
    return flows


def estimate_units(
    modules: Sequence[ModuleSpec],
    report: TrafficReport,
    paths: PathSet,
    model: EstimationModel = EstimationModel(),
) -> List[CoordinationUnit]:
    """Estimate coordination-unit volumes from a flow report.

    Returns units in the same form :func:`repro.core.units.build_units`
    derives from ground truth, so the LP, manifest generation, and
    dispatch pipeline are oblivious to whether they were planned from
    measurements or from a trace.
    """
    accumulators: Dict[Tuple[str, UnitKey], Dict[str, float]] = {}
    for spec in modules:
        for pair, total_flows in report.pair_flows.items():
            if total_flows <= 0:
                continue
            flows, packets = _matched_volumes(spec, report, pair, model)
            if flows <= 0:
                continue
            avg_packets = packets / flows
            key = unit_key(spec.scope, *pair)
            acc = accumulators.setdefault(
                (spec.name, key), {"flows": 0.0, "pkts": 0.0, "cpu": 0.0}
            )
            acc["flows"] += flows
            acc["pkts"] += packets
            acc["cpu"] += flows * _cpu_per_flow(spec, avg_packets, model)

    by_name = {spec.name: spec for spec in modules}
    return units_from_volumes(
        (
            (
                by_name[class_name],
                key,
                acc["pkts"],
                _items_for(by_name[class_name], acc["flows"], model),
                acc["cpu"],
            )
            for (class_name, key), acc in accumulators.items()
        ),
        paths,
    )
