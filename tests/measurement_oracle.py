"""Per-record reference implementation of the NetFlow → planning-input path.

These are the loops that used to live in the product, re-homed verbatim
as the tests' oracle (the ``tests/planning_oracle.py`` precedent):

* ``FlowRecord`` and ``FlowExporter.export`` / ``build_report`` /
  ``measure`` (``repro.measurement.flows``) — one frozen record per
  exported session, then one pass over the records into the report's
  four dicts.  They are functions of the exporter here, so they draw
  from its RNG exactly as the methods did.
* ``estimate_units`` with ``_matched_volumes``, ``_cpu_per_flow`` and
  ``_items_for`` (``repro.measurement.estimation``) — per module, per
  report pair, a dict accumulator per unit.
* ``pair_unit_keys`` (``repro.core.units``) — one ``unit_key`` call
  per pair, a dict giving each new key the next index.
* ``eligible_nodes`` (``repro.core.units``) as it was before routing
  memoised the observers of a location pair: both directed paths walked
  on every call.

``tests/test_measurement_columns.py`` compares them with the product
using ``==`` (units, report dicts and their key order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.units import CoordinationUnit, UnitKey, unit_key
from repro.hashing.keys import Aggregation
from repro.measurement.estimation import EstimationModel
from repro.measurement.flows import FlowExporter, Pair, TrafficReport
from repro.nids.modules.base import ModuleSpec, Scope
from repro.topology.routing import PathSet
from repro.traffic.packet import TCP
from repro.traffic.session import Session
from tests.planning_oracle import units_from_volumes


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow record (NetFlow-v5-like field subset)."""

    src: int
    dst: int
    sport: int
    dport: int
    proto: int
    packets: int
    octets: int
    first: float
    last: float
    ingress: str
    egress: str

    @property
    def pair(self) -> Pair:
        """The record's (ingress, egress) pair."""
        return (self.ingress, self.egress)


def export(exporter: FlowExporter, sessions: Iterable[Session]) -> List[FlowRecord]:
    """Export (possibly sampled) flow records for *sessions*."""
    records = []
    for session in sessions:
        if exporter.sampling_rate < 1.0 and exporter._rng.random() >= exporter.sampling_rate:
            continue
        t = session.tuple
        records.append(
            FlowRecord(
                src=t.src,
                dst=t.dst,
                sport=t.sport,
                dport=t.dport,
                proto=t.proto,
                packets=session.num_packets,
                octets=session.num_bytes,
                first=session.start_time,
                last=session.start_time + 0.01 * session.num_packets,
                ingress=session.ingress,
                egress=session.egress,
            )
        )
    return records


def build_report(
    exporter: FlowExporter, records: Sequence[FlowRecord], interval_seconds: float = 300.0
) -> TrafficReport:
    """Assemble a per-pair traffic report, inverting the sampling."""
    scale = 1.0 / exporter.sampling_rate
    report = TrafficReport(
        interval_seconds=interval_seconds, sampling_rate=exporter.sampling_rate
    )
    for record in records:
        pair = record.pair
        report.pair_flows[pair] = report.pair_flows.get(pair, 0.0) + scale
        report.pair_packets[pair] = (
            report.pair_packets.get(pair, 0.0) + scale * record.packets
        )
        key = (pair, record.dport)
        report.pair_port_flows[key] = report.pair_port_flows.get(key, 0.0) + scale
        report.pair_port_packets[key] = (
            report.pair_port_packets.get(key, 0.0) + scale * record.packets
        )
    return report


def measure(
    exporter: FlowExporter, sessions: Iterable[Session], interval_seconds: float = 300.0
) -> TrafficReport:
    """Convenience: export + assemble in one step."""
    return build_report(exporter, export(exporter, sessions), interval_seconds)


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


def pair_unit_keys(
    pairs: Sequence[Pair], scope: Scope
) -> Tuple[List[UnitKey], np.ndarray]:
    """The distinct *scope* unit keys of routing *pairs* (first-seen order)
    and each pair's index into them."""
    ids: Dict[UnitKey, int] = {}
    pair_unit = [ids.setdefault(unit_key(scope, *pair), len(ids)) for pair in pairs]
    return list(ids), np.array(pair_unit, dtype=np.intp)


def eligible_nodes(key: UnitKey, paths: PathSet) -> Tuple[str, ...]:
    """``P_ik``: the nodes able to observe all of the unit's traffic.

    The key alone decides: a single location (ingress or egress scope)
    is its own only observer; a location pair is path-scoped.
    """
    if len(key) == 1:
        return key
    a, b = key
    forward = paths.path(a, b)
    backward = set(paths.path(b, a).nodes)
    observers = tuple(node for node in forward.nodes if node in backward)
    # Symmetric shortest paths make this the full path; degenerate
    # asymmetric ties still leave the endpoints, which always qualify.
    return observers if observers else (a, b)
