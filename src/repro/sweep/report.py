"""Consolidation of per-cell sweep results into one report.

:func:`consolidate` folds the cells of a :class:`~.executor.SweepRun`
into a single JSON-compatible report: per-cell verdict rows, per-axis
aggregates (how did each topology / plan / dynamics preset /
redundancy level / seed fare across the rest of the grid), worst-cell
highlighting, a violation summary, and the spec-order fold of every
cell's metric snapshot.

The report is **deterministic by construction** so that the
sequential and parallel executors produce byte-identical output:

* cells are folded and listed in spec order, never completion order;
* wall-clock fields (``duration_seconds``) are excluded, and the
  metric fold carries only :data:`REPORTED_FAMILIES` — none of them a
  timing family (names ending ``_seconds`` / ``_per_second``, the only
  nondeterministic values a run produces) or runner-side ``sweep_*``
  telemetry (cache hit/miss counts legitimately differ between a cold
  run and a warm re-run that must still render the same report);
* the JSON writer sorts keys.

The family list is explicit so that the report's bytes do not follow
the metric catalogue: a family nobody reads can be retired without
re-baselining every report.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..core.manifest_table import left_sum
from ..obs import MetricsRegistry
from .executor import SweepRun
from .worker import CellResult

#: Metric-family name suffixes of wall-clock derived families, which are
#: nondeterministic across runs/executors and never reported.
NONDETERMINISTIC_SUFFIXES: Tuple[str, ...] = ("_seconds", "_per_second")

#: The cell-telemetry families the consolidated report carries: each
#: has a reader — a sweep verdict, a doc, a test, the CLI or the
#: benchmark (``docs/sweep.md`` names them).
REPORTED_FAMILIES: Tuple[str, ...] = (
    "agent_degraded_epochs_total",
    "agent_dispatch_sessions_total",
    "agent_duplicate_suppressions_total",
    "agent_lease_expirations_total",
    "agent_resync_requests_total",
    "agent_stale_term_rejections_total",
    "bus_bytes_total",
    "bus_dropped_total",
    "bus_messages_total",
    "chaos_injected_total",
    "chaos_invariant_violations_total",
    "controller_ha_depositions_total",
    "controller_ha_elections_total",
    "controller_ha_handoffs_total",
    "controller_ha_term",
    "controller_lease_fences_total",
    "controller_manifest_rejections_total",
    "controller_push_retries_total",
    "controller_repairs_total",
    "controller_resolves_total",
    "controller_superseded_acks_total",
    "epoch_coverage",
    "heartbeat_failures_total",
    "lp_iterations",
    "lp_solves_total",
    "lp_variables",
    "manifest_delta_entries",
    "manifest_deltas_total",
    "manifest_entries_per_generation",
    "manifest_generations_total",
    "repair_orphaned_mass",
)

#: How many lowest-coverage cells the report highlights.
WORST_CELLS = 3


def _deterministic_metrics(snapshots: List[dict]) -> dict:
    """Fold cell snapshots (in the given order) and keep the reported
    families."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        if snapshot:
            registry.merge_from(snapshot)
    merged = registry.snapshot()
    metrics = {
        name: family
        for name, family in merged.get("metrics", {}).items()
        if name in REPORTED_FAMILIES
    }
    return {"version": merged.get("version", 1), "metrics": metrics}


def _cell_row(result: CellResult) -> dict:
    """The report row for one cell (no wall-clock fields)."""
    cell = result.cell
    return {
        "cell_id": cell.cell_id,
        "topology": cell.topology,
        "plan": cell.plan,
        "dynamics": cell.dynamics,
        "redundancy": cell.redundancy,
        "seed": cell.seed,
        "derived_seed": result.derived_seed,
        "kind": result.kind,
        "ok": result.ok,
        "violations": list(result.violations),
        "epochs_run": result.epochs_run,
        "coverage_mean": result.coverage_mean,
        "coverage_min": result.coverage_min,
        "push_bytes": result.push_bytes,
        "full_equivalent_bytes": result.full_equivalent_bytes,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "detection_epoch": dict(result.detection_epoch),
        "redistribution_epoch": dict(result.redistribution_epoch),
        "first_degraded_epoch": result.first_degraded_epoch,
        "reconverged_epoch": result.reconverged_epoch,
    }


def _axis_aggregates(results: List[CellResult]) -> dict:
    """Per-axis marginals: how each axis value fared across the grid."""
    axes = {
        "topology": lambda cell: cell.topology,
        "plan": lambda cell: cell.plan,
        "dynamics": lambda cell: cell.dynamics,
        "redundancy": lambda cell: f"{cell.redundancy:g}",
        "seed": lambda cell: str(cell.seed),
    }
    aggregates: Dict[str, dict] = {}
    for axis, keyer in axes.items():
        groups: Dict[str, List[CellResult]] = {}
        for result in results:
            groups.setdefault(keyer(result.cell), []).append(result)
        aggregates[axis] = {
            value: {
                "cells": len(group),
                "ok": sum(1 for r in group if r.ok),
                "violations": sum(len(r.violations) for r in group),
                "coverage_min": min(r.coverage_min for r in group),
                # Display-only mean, folded over cells in spec order; the
                # per-cell values live in the rows themselves.
                "coverage_mean": left_sum([r.coverage_mean for r in group]) / len(group),
            }
            for value, group in sorted(groups.items())
        }
    return aggregates


def consolidate(run: SweepRun) -> dict:
    """The consolidated report for *run* (JSON-compatible dict)."""
    results = run.results
    rows = [_cell_row(result) for result in results]
    worst = sorted(
        results, key=lambda r: (r.coverage_min, r.cell.cell_id)
    )[:WORST_CELLS]
    return {
        "name": run.spec.name,
        "spec": run.spec.to_dict(),
        "cells": rows,
        "summary": {
            "cells": len(results),
            "ok": sum(1 for r in results if r.ok),
            "violating_cells": sum(1 for r in results if not r.ok),
            "violations_total": sum(len(r.violations) for r in results),
            "coverage_min": min(
                (r.coverage_min for r in results), default=1.0
            ),
        },
        "axes": _axis_aggregates(results),
        "worst_cells": [
            {
                "cell_id": r.cell.cell_id,
                "coverage_min": r.coverage_min,
                "ok": r.ok,
            }
            for r in worst
        ],
        "violations": [
            {"cell_id": cell_id, "violation": violation}
            for cell_id, violation in run.violations
        ],
        "metrics": _deterministic_metrics([r.metrics for r in results]),
    }


def render_report(report: dict) -> str:
    """Canonical byte-stable JSON text for *report*."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path: str) -> None:
    """Write the canonical JSON text of *report* to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(report))


def format_summary(run: SweepRun, report: Optional[dict] = None) -> str:
    """Human-readable digest of a sweep for terminal output."""
    report = report if report is not None else consolidate(run)
    summary = report["summary"]
    lines = [
        f"sweep {report['name']}: {summary['cells']} cells"
        f" ({len(run.executed)} executed, {len(run.cached)} cached,"
        f" jobs={run.jobs})",
        f"  ok: {summary['ok']}/{summary['cells']}"
        f"  violations: {summary['violations_total']}"
        f"  coverage min: {summary['coverage_min']:.4f}",
    ]
    for entry in report["worst_cells"]:
        flag = "ok" if entry["ok"] else "VIOLATING"
        lines.append(
            f"  worst: {entry['cell_id']}"
            f" coverage_min={entry['coverage_min']:.4f} [{flag}]"
        )
    for item in report["violations"]:
        lines.append(f"  violation: {item['cell_id']}: {item['violation']}")
    return "\n".join(lines)
