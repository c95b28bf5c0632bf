"""Report artifacts for the reproduced figures.

Every figure artifact is a :class:`Report`: a named table with a
``header()`` and ``rows()``, written through one
``write(stream, fmt=...)`` interface (CSV for plotting pipelines, JSON
for programmatic consumers).  Telemetry snapshots ride the same
interface via :class:`MetricsSnapshotReport`, which adds the
Prometheus text format.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence, TextIO, Tuple

from .control.epochs import EpochRecord
from .experiments.nids_network_wide import PerNodeProfile
from .experiments.nips_rounding import RoundingStats
from .experiments.online_adaptation import OnlineEvaluation
from .nids.emulation import ComparisonRow
from .nids.microbench import MicrobenchRow
from .obs import (
    CSV_HEADER as _METRICS_CSV_HEADER,
    MetricsRegistry,
    csv_rows as _metrics_csv_rows,
    snapshot as _metrics_snapshot,
    write_prometheus as _write_prometheus,
)


class Report:
    """A named table that can be written in multiple formats.

    Subclasses provide :meth:`header` and :meth:`rows`; ``write``
    renders them as CSV (one row per plotted point — the historical
    artifact format) or JSON (``{"name", "header", "rows"}``).
    """

    #: Artifact identifier, used as the JSON envelope name.
    name = "report"

    def header(self) -> Sequence[str]:
        """Column names, in order."""
        raise NotImplementedError

    def rows(self) -> Iterable[Sequence]:
        """Data rows matching :meth:`header`."""
        raise NotImplementedError

    def formats(self) -> Tuple[str, ...]:
        """Formats :meth:`write` accepts, first is the default."""
        return ("csv", "json")

    def write(self, stream: TextIO, fmt: str = "csv") -> None:
        """Render the report to *stream* in *fmt*."""
        if fmt == "csv":
            writer = csv.writer(stream)
            writer.writerow(self.header())
            for row in self.rows():
                writer.writerow(row)
        elif fmt == "json":
            json.dump(
                {
                    "name": self.name,
                    "header": list(self.header()),
                    "rows": [list(row) for row in self.rows()],
                },
                stream,
                indent=2,
            )
            stream.write("\n")
        else:
            raise ValueError(
                f"unsupported format {fmt!r} for {self.name};"
                f" expected one of {self.formats()}"
            )

    def to_string(self, fmt: str = None) -> str:
        """Render to a string (convenience for tests and notebooks).

        Defaults to the report's preferred format, ``formats()[0]``.
        """
        stream = io.StringIO()
        self.write(stream, fmt=fmt if fmt is not None else self.formats()[0])
        return stream.getvalue()


class ComparisonReport(Report):
    """Figs. 6/7 series: x, max loads, and reductions per deployment."""

    name = "comparison"

    def __init__(self, rows: Sequence[ComparisonRow], x_label: str):
        self._rows = list(rows)
        self.x_label = x_label

    def header(self) -> Sequence[str]:
        return (
            self.x_label,
            "edge_max_cpu",
            "coord_max_cpu",
            "cpu_reduction",
            "edge_max_mem_mb",
            "coord_max_mem_mb",
            "mem_reduction",
        )

    def rows(self) -> Iterable[Sequence]:
        for row in self._rows:
            yield (
                row.x,
                row.edge_cpu,
                row.coord_cpu,
                row.cpu_reduction,
                row.edge_mem_mb,
                row.coord_mem_mb,
                row.mem_reduction,
            )


class PerNodeReport(Report):
    """Fig. 8: per-node loads under both deployments."""

    name = "per_node"

    def __init__(self, profile: PerNodeProfile):
        self.profile = profile

    def header(self) -> Sequence[str]:
        return (
            "node_index",
            "node",
            "edge_cpu",
            "coord_cpu",
            "edge_mem_mb",
            "coord_mem_mb",
        )

    def rows(self) -> Iterable[Sequence]:
        for index, (node, edge_cpu, coord_cpu, edge_mb, coord_mb) in enumerate(
            self.profile.rows(), start=1
        ):
            yield (index, node, edge_cpu, coord_cpu, edge_mb, coord_mb)


class MicrobenchReport(Report):
    """Fig. 5: per-module coordination overheads (mean/min/max)."""

    name = "microbench"

    def __init__(self, rows: Sequence[MicrobenchRow]):
        self._rows = list(rows)

    def header(self) -> Sequence[str]:
        return (
            "module",
            "cpu_policy_mean",
            "cpu_policy_min",
            "cpu_policy_max",
            "cpu_event_mean",
            "cpu_event_min",
            "cpu_event_max",
            "mem_policy_mean",
            "mem_event_mean",
        )

    def rows(self) -> Iterable[Sequence]:
        for row in self._rows:
            yield (
                row.module,
                row.cpu_policy.mean,
                row.cpu_policy.minimum,
                row.cpu_policy.maximum,
                row.cpu_event.mean,
                row.cpu_event.minimum,
                row.cpu_event.maximum,
                row.mem_policy.mean,
                row.mem_event.mean,
            )


class RoundingReport(Report):
    """Fig. 10: fraction-of-OptLP per topology/capacity/variant."""

    name = "rounding"

    def __init__(self, stats: Sequence[RoundingStats]):
        self._stats = list(stats)

    def header(self) -> Sequence[str]:
        return ("topology", "capacity_fraction", "variant", "mean", "min", "max")

    def rows(self) -> Iterable[Sequence]:
        for s in self._stats:
            yield (
                s.topology,
                s.capacity_fraction,
                s.variant.value,
                s.mean,
                s.minimum,
                s.maximum,
            )


class RegretReport(Report):
    """Fig. 11: normalized regret per epoch per run."""

    name = "regret"

    def __init__(self, evaluation: OnlineEvaluation):
        self.evaluation = evaluation

    def header(self) -> Sequence[str]:
        return ("run", "epoch", "normalized_regret")

    def rows(self) -> Iterable[Sequence]:
        for run_index, run in enumerate(self.evaluation.runs, start=1):
            for point in run.points:
                yield (run_index, point.epoch, point.normalized_regret)


class ControlEpochsReport(Report):
    """Coordination-plane run: one row per epoch (``repro control run``)."""

    name = "control_epochs"

    def __init__(self, records: Sequence[EpochRecord]):
        self._records = list(records)

    def header(self) -> Sequence[str]:
        return (
            "epoch",
            "sessions",
            "failed_nodes",
            "resolved",
            "config_version",
            "pushes_full",
            "pushes_delta",
            "push_bytes",
            "full_equivalent_bytes",
            "unchanged_entry_fraction",
            "messages_sent",
            "bytes_sent",
            "coverage",
            "min_unit_coverage",
            "orphaned_fraction",
            "duplicated_fraction",
            "reconfig_lag",
            "converged",
            "in_transition",
            "fenced_nodes",
        )

    def rows(self) -> Iterable[Sequence]:
        for r in self._records:
            yield (
                r.epoch,
                r.sessions,
                ";".join(r.failed_nodes),
                r.resolved,
                r.config_version,
                r.pushes_full,
                r.pushes_delta,
                r.push_bytes,
                r.full_equivalent_bytes,
                f"{r.unchanged_entry_fraction:.4f}",
                r.messages_sent,
                r.bytes_sent,
                f"{r.coverage:.6f}",
                f"{r.min_unit_coverage:.6f}",
                f"{r.orphaned_fraction:.6f}",
                f"{r.duplicated_fraction:.6f}",
                f"{r.reconfig_lag:.4f}",
                int(r.converged),
                int(r.in_transition),
                ";".join(r.fenced_nodes),
            )


class MetricsSnapshotReport(Report):
    """A telemetry registry snapshot on the shared report interface.

    ``csv`` emits the flat one-row-per-field table from
    :mod:`repro.obs.export`; ``json`` the nested self-describing
    snapshot (the ``--metrics-out`` artifact); ``prom`` the Prometheus
    text exposition.
    """

    name = "metrics"

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def header(self) -> Sequence[str]:
        return _METRICS_CSV_HEADER

    def rows(self) -> Iterable[Sequence]:
        return _metrics_csv_rows(self.registry)

    def formats(self) -> Tuple[str, ...]:
        return ("json", "csv", "prom")

    def write(self, stream: TextIO, fmt: str = "json") -> None:
        if fmt == "json":
            json.dump(_metrics_snapshot(self.registry), stream, indent=2, sort_keys=True)
            stream.write("\n")
        elif fmt == "prom":
            _write_prometheus(self.registry, stream)
        else:
            super().write(stream, fmt=fmt)
