"""Planning inputs from measurement (paper Section 2.2, "Inputs").

"Note that these inputs are already available or can be inferred from
existing measurements.  Network operations centers typically know the
traffic matrix, routing policy, and node hardware configurations.
Similarly, the resource footprints of the NIDS modules can be obtained
from offline profiles."

:func:`estimate_units` builds the LP's coordination-unit volumes from a
:class:`~repro.measurement.flows.TrafficReport` instead of ground-truth
sessions — the production path, where the operations center only sees
(possibly sampled) NetFlow.  It runs on every re-plan, so it reads the
report once into per-pair columns (report order) and estimates each
module with array passes over them: matched volumes, the per-flow cost
and one ``np.bincount`` fold per unit volume, in pair order.  A report
volume that is negative or not finite is refused, naming its pair, and
so is an estimated unit volume that is not finite (a near-zero flow
count overflows its pair's packets per flow), naming its unit.
Quantities a flow report cannot carry (distinct-host ratios, the
half-open share) come from an :class:`EstimationModel` whose defaults
reflect the mixed profile; in operation they would come from the same
offline profiling the paper cites for module footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import AbstractSet, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.units import UnitBlock, UnitKey, UnitTable, assemble_units, pair_unit_keys
from ..hashing.keys import Aggregation
from ..nids.modules.base import ModuleSpec, Scope
from ..topology.routing import PathSet
from ..traffic.packet import TCP
from .flows import Pair, TrafficReport


@dataclass(frozen=True)
class EstimationModel:
    """Profile-derived ratios a flow report cannot express; each is a
    share, a finite value in ``[0, 1]``."""

    #: Distinct sources per flow observed at an ingress (drives the
    #: per-source memory estimate for scan detection).
    distinct_source_ratio: float = 0.15
    #: Distinct destinations per flow at an egress.
    distinct_dest_ratio: float = 0.15
    #: Share of TCP flows that never complete a handshake.
    half_open_fraction: float = 0.07
    #: TCP share of total flows (for protocol-wide TCP filters).
    tcp_fraction: float = 0.85

    def __post_init__(self) -> None:
        for ratio in fields(self):
            value = getattr(self, ratio.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"EstimationModel.{ratio.name} must be a finite value"
                    f" in [0, 1], got {value!r}"
                )


def _cpu_per_flow(
    spec: ModuleSpec, avg_packets: np.ndarray, model: EstimationModel
) -> np.ndarray:
    """Expected analysis cost per matched flow (offline-profile form),
    elementwise over per-pair average packet counts."""
    events = spec.events_per_packet * avg_packets + spec.events_per_session
    if spec.half_open_events_only:
        events = (
            spec.events_per_packet * avg_packets
            + spec.events_per_session * model.half_open_fraction
        )
    return spec.event_cpu_per_packet * avg_packets + spec.policy_cpu_per_event * events


def _items_for(
    spec: ModuleSpec, flows: np.ndarray, model: EstimationModel
) -> np.ndarray:
    if spec.aggregation is Aggregation.SOURCE:
        return flows * model.distinct_source_ratio
    if spec.aggregation is Aggregation.DESTINATION:
        return flows * model.distinct_dest_ratio
    return flows


def _checked(name: str, volumes: Mapping) -> np.ndarray:
    """*volumes*' values as one column, refusing a negative or non-finite
    one by its key: ``<= 0`` would drop it silently, or the LP meet it."""
    column = np.fromiter(volumes.values(), dtype=float, count=len(volumes))
    bad = ~np.isfinite(column) | (column < 0.0)
    if bad.any():
        key = list(volumes)[int(np.argmax(bad))]
        raise ValueError(
            f"traffic report {name}[{key!r}] = {volumes[key]!r}:"
            " a volume must be finite and non-negative"
        )
    return column


def _require_finite(
    spec: ModuleSpec, name: str, column: np.ndarray, keys: Sequence[UnitKey]
) -> None:
    """Refuse a non-finite estimated unit volume by module and unit key:
    a pair whose packets per flow overflow, or volumes summing past the
    float range, must not reach the LP as ``inf`` or ``nan``."""
    bad = ~np.isfinite(column)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"estimated {name} of {spec.name} unit {keys[k]!r} = {float(column[k])!r}:"
            " a unit volume must be finite"
        )


def _port_columns(
    name: str,
    rows: Mapping[Tuple[Pair, int], float],
    index: Mapping[Pair, int],
    ports: AbstractSet[int],
) -> Dict[int, np.ndarray]:
    """Per port in *ports*, the per-port rows of the pairs in *index* as
    one column (``0.0`` where a pair has no row)."""
    columns = {port: np.zeros(len(index)) for port in ports}
    values = _checked(name, rows).tolist()
    for (pair, port), value in zip(rows, values):
        column = columns.get(port)
        if column is not None and pair in index:
            column[index[pair]] = value
    return columns


def estimate_units(
    modules: Sequence[ModuleSpec],
    report: TrafficReport,
    paths: PathSet,
    model: EstimationModel = EstimationModel(),
) -> UnitTable:
    """Estimate coordination-unit volumes from a flow report.

    Returns units in the same form :func:`repro.core.units.build_units`
    derives from ground truth, so the LP, manifest generation, and
    dispatch pipeline are oblivious to whether they were planned from
    measurements or from a trace.

    Per module, a pair's matched flows and packets are the exact per-port
    sums the report carries for a port-filtered module, the pair
    totals scaled by the profiled TCP share for a protocol-wide TCP one,
    and the totals otherwise; pairs with no matched flow are left out.
    Each unit's volumes are summed over its pairs in report order; one
    that is not finite raises a :class:`ValueError` naming the unit.
    """
    flows = _checked("pair_flows", report.pair_flows)
    _checked("pair_packets", report.pair_packets)
    kept = flows > 0
    pairs = [pair for pair, keep in zip(report.pair_flows, kept.tolist()) if keep]
    index = {pair: i for i, pair in enumerate(pairs)}
    total_flows = flows[kept]
    total_packets = np.array(
        [report.pair_packets.get(pair, 0.0) for pair in pairs], dtype=float
    )
    ports = {port for spec in modules for port in spec.traffic_filter.server_ports}
    port_flows = _port_columns("pair_port_flows", report.pair_port_flows, index, ports)
    port_packets = _port_columns(
        "pair_port_packets", report.pair_port_packets, index, ports
    )

    scope_keys: Dict[Scope, Tuple[List[UnitKey], np.ndarray]] = {}
    blocks: List[UnitBlock] = []
    for spec in modules:
        traffic_filter = spec.traffic_filter
        if traffic_filter.server_ports:
            matched_flows, matched_packets = 0.0, 0.0
            for port in traffic_filter.server_ports:
                matched_flows = matched_flows + port_flows[port]
                matched_packets = matched_packets + port_packets[port]
        elif traffic_filter.proto == TCP:
            matched_flows = total_flows * model.tcp_fraction
            matched_packets = total_packets * model.tcp_fraction
        else:
            matched_flows, matched_packets = total_flows, total_packets
        matched = matched_flows > 0
        matched_flows = matched_flows[matched]
        matched_packets = matched_packets[matched]

        if spec.scope not in scope_keys:
            scope_keys[spec.scope] = pair_unit_keys(pairs, spec.scope)
        keys, pair_units = scope_keys[spec.scope]
        unit = pair_units[matched]
        n = len(keys)
        # A flow count near zero can overflow a pair's packets per flow;
        # the unit check below refuses what that yields.
        with np.errstate(over="ignore", invalid="ignore"):
            cpu = matched_flows * _cpu_per_flow(
                spec, matched_packets / matched_flows, model
            )
        # ``np.bincount`` adds in pair order from 0.0: the same left fold
        # as summing the pairs one by one.
        present = np.flatnonzero(np.bincount(unit, minlength=n))
        unit_flows = np.bincount(unit, weights=matched_flows, minlength=n)
        unit_packets = np.bincount(unit, weights=matched_packets, minlength=n)
        unit_cpu = np.bincount(unit, weights=cpu, minlength=n)
        for name, column in (
            ("flows", unit_flows),
            ("packets", unit_packets),
            ("cpu", unit_cpu),
        ):
            _require_finite(spec, name, column, keys)
        blocks.append(
            UnitBlock(
                spec,
                keys,
                present,
                unit_packets[present],
                _items_for(spec, unit_flows[present], model),
                unit_cpu[present],
            )
        )
    return assemble_units(blocks, paths)
