"""Command-line front end for the sweep runner.

Three subcommands under ``repro sweep`` (also reachable via
``python -m repro.sweep``):

* ``run`` — execute a grid (spec file or axis flags) across worker
  processes, consolidate, and optionally write the report/metrics;
* ``status`` — audit the artifact cache for a grid without executing
  anything: which cells are cached, which would run;
* ``report`` — re-render the consolidated report purely from cached
  artifacts (errors if any cell is missing).

Exit codes: 0 clean, 1 cell violations (``run``) or incomplete cache
(``report``), 2 usage/load errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .cache import ArtifactCache
from .executor import DEFAULT_CACHE_DIR, SweepRun, run_sweep
from .report import consolidate, format_summary, write_report
from .spec import (
    DYNAMICS_PRESETS,
    PLAN_AXIS_VALUES,
    SweepSpec,
    load_spec,
)
from .worker import CellResult


def _spec_from_args(args) -> SweepSpec:
    """Build the grid spec: from ``--spec FILE`` or the axis flags."""
    if args.spec:
        return load_spec(args.spec)
    return SweepSpec(
        name=args.name,
        topologies=tuple(args.topologies),
        plans=tuple(args.plans),
        dynamics=tuple(args.dynamics),
        redundancy=tuple(args.redundancy),
        seeds=tuple(args.seeds),
        epochs=args.epochs,
        base_sessions=args.sessions,
        seed=args.seed,
    )


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    """Grid-shape options shared by ``run``/``status``/``report``."""
    parser.add_argument(
        "--spec",
        help="sweep file (TOML on Python 3.11+, or JSON);"
        " overrides the axis flags",
    )
    parser.add_argument("--name", default="sweep", help="grid name")
    parser.add_argument(
        "--topologies", nargs="+", default=["internet2"],
        help="topology labels (axis)",
    )
    parser.add_argument(
        "--plans", nargs="+", default=["none"],
        choices=sorted(PLAN_AXIS_VALUES),
        help="fault-condition axis: 'none' = scripted scenario,"
        " otherwise a chaos plan",
    )
    parser.add_argument(
        "--dynamics", nargs="+", default=["diurnal"],
        choices=sorted(DYNAMICS_PRESETS),
        help="traffic/adversary dynamics presets (axis)",
    )
    parser.add_argument(
        "--redundancy", nargs="+", type=float, default=[1.0],
        help="redundancy levels r (axis)",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0], help="seed axis"
    )
    parser.add_argument("--epochs", type=int, default=16)
    parser.add_argument(
        "--sessions", type=int, default=300,
        help="base sessions per epoch",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed mixed into every cell's derived seed",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="artifact cache directory",
    )


def cmd_run(args) -> int:
    """Handle ``sweep run``."""
    try:
        spec = _spec_from_args(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = None
    if args.metrics_out:
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
    run = run_sweep(
        spec,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        registry=registry,
        force=args.force,
    )
    report = consolidate(run)
    print(format_summary(run, report))
    print(f"  wall time: {run.duration_seconds:.2f}s")
    if args.report:
        write_report(report, args.report)
        print(f"wrote consolidated report to {args.report}")
    if registry is not None:
        from ..reporting import MetricsSnapshotReport

        fmt = "prom" if args.metrics_out.endswith(".prom") else "json"
        with open(args.metrics_out, "w") as stream:
            MetricsSnapshotReport(registry).write(stream, fmt=fmt)
        print(f"wrote telemetry snapshot ({fmt}) to {args.metrics_out}")
    return 0 if run.ok else 1


def cmd_status(args) -> int:
    """Handle ``sweep status``: cache audit, no execution."""
    try:
        spec = _spec_from_args(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cells = spec.cells()
    cache = ArtifactCache(args.cache_dir)
    hits, missing = cache.partition(cells)
    print(
        f"sweep {spec.name}: {len(cells)} cells,"
        f" {len(hits)} cached, {len(missing)} to run"
        f" (cache: {args.cache_dir})"
    )
    for cell in cells:
        state = "cached" if cell.cell_id in hits else "missing"
        print(f"  {state:>7}  {cell.cell_id}")
    return 0


def cmd_report(args) -> int:
    """Handle ``sweep report``: consolidate from cache only."""
    try:
        spec = _spec_from_args(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cells = spec.cells()
    cache = ArtifactCache(args.cache_dir)
    hits, missing = cache.partition(cells)
    if missing:
        print(
            f"error: {len(missing)} of {len(cells)} cells not cached;"
            " run `repro sweep run` first:",
            file=sys.stderr,
        )
        for cell in missing:
            print(f"  missing  {cell.cell_id}", file=sys.stderr)
        return 1
    results = [CellResult.from_dict(hits[cell.cell_id]) for cell in cells]
    run = SweepRun(
        spec=spec,
        results=results,
        executed=(),
        cached=tuple(sorted(hits)),
        jobs=0,
        violations=[
            (cell.cell_id, violation)
            for cell, result in zip(cells, results)
            for violation in result.violations
        ],
    )
    report = consolidate(run)
    if args.output:
        write_report(report, args.output)
        print(f"wrote consolidated report to {args.output}")
    else:
        from .report import render_report

        print(render_report(report), end="")
    return 0


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach ``run`` / ``status`` / ``report`` subcommands to *parser*."""
    sub = parser.add_subparsers(dest="sweep_command", required=True)

    run = sub.add_parser(
        "run", help="execute the grid across worker processes"
    )
    _add_spec_options(run)
    run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (default: CPU count)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache entirely",
    )
    run.add_argument(
        "--force", action="store_true",
        help="re-execute every cell even if cached",
    )
    run.add_argument(
        "--report", help="write the consolidated report (JSON) here"
    )
    run.add_argument(
        "--metrics-out",
        help="enable telemetry and write the snapshot here"
        " (JSON; Prometheus text if the path ends in .prom)",
    )
    run.set_defaults(func=cmd_run)

    status = sub.add_parser(
        "status", help="audit the artifact cache without executing"
    )
    _add_spec_options(status)
    status.set_defaults(func=cmd_status)

    report = sub.add_parser(
        "report", help="consolidate a report purely from cached artifacts"
    )
    _add_spec_options(report)
    report.add_argument(
        "--output", help="write the report here instead of stdout"
    )
    report.set_defaults(func=cmd_report)


def build_parser() -> argparse.ArgumentParser:
    """Standalone parser for ``python -m repro.sweep``."""
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Sharded scenario sweeps with cached artifacts",
    )
    configure_parser(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
