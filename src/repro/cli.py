"""Command-line interface.

Gives operators the paper's workflow without writing Python:

* ``plan-nids`` — plan a coordinated NIDS deployment and emit the
  per-node sampling manifests as JSON;
* ``emulate`` — compare edge-only vs. coordinated deployments on a
  generated trace (``--execution inline|streamed`` picks the
  execution policy; both produce bit-identical reports);
* ``solve-nips`` — TCAM-constrained rule placement via the rounding
  pipeline;
* ``microbench`` — the Fig. 5 coordination-overhead table;
* ``online`` — FPL adaptation regret over time;
* ``control run`` — run the controller–agent coordination plane
  through a scripted traffic-shift / failure / recovery scenario;
* ``sweep run`` / ``status`` / ``report`` — execute a declarative
  scenario grid across worker processes with a content-addressed
  artifact cache, and consolidate one deterministic report;
* ``analysis lint`` / ``analysis verify`` — domain static analysis:
  AST lint rules (REP001/REP002/REP004) and offline verification of planning
  artifacts against the deployment invariants (REP101-REP108);
* ``figures`` — write per-figure CSV artifacts.

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List, Optional

from .core.manifest_io import dump_assignment, dump_manifests
from .core.nids_deployment import plan_deployment
from .core.nips_milp import (
    DEFAULT_CPU_CAP_PACKETS,
    DEFAULT_MEM_CAP_FLOWS,
    build_nips_problem,
    solve_relaxation,
)
from .core.online import FPLConfig, run_online_adaptation
from .core.rounding import RoundingVariant, best_of_roundings
from .nids.emulation import Traffic, run_emulation
from .nids.engine import EmulationConfig, ExecutionPolicy
from .nids.microbench import format_microbench_table, run_microbenchmark
from .nids.modules import module_set
from .nips.adversary import UniformProcess
from .nips.rules import MatchRateMatrix, unit_rules
from .obs import MetricsRegistry
from .topology.datasets import by_label
from .topology.routing import PathSet
from .traffic.generator import GeneratorConfig, TrafficGenerator
from .traffic.profiles import (
    attack_heavy_profile,
    mixed_profile,
    web_heavy_profile,
)

_PROFILES = {
    "mixed": mixed_profile,
    "web-heavy": web_heavy_profile,
    "attack-heavy": attack_heavy_profile,
}


def _build_world(args):
    """Topology + paths + generator + sessions from common arguments."""
    topology = by_label(args.topology).set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(
        topology,
        paths,
        profile=_PROFILES[args.profile](),
        config=GeneratorConfig(seed=args.seed),
    )
    sessions = generator.generate(args.sessions)
    return topology, paths, generator, sessions


def cmd_plan_nids(args) -> int:
    """Handle ``plan-nids``: solve the LP and optionally emit manifests."""
    topology, paths, _, sessions = _build_world(args)
    modules = module_set(args.modules)
    units = None
    if args.netflow_sampling is not None:
        # Production path: plan from a (sampled) NetFlow report rather
        # than ground-truth sessions.
        from .measurement import FlowExporter, estimate_units

        report = FlowExporter(
            sampling_rate=args.netflow_sampling, seed=args.seed
        ).measure(sessions)
        units = estimate_units(modules, report, paths)
        print(
            f"planning from NetFlow (1-in-{1 / args.netflow_sampling:.0f}"
            f" sampling): {report.total_flows:,.0f} estimated flows"
        )
    try:
        deployment = plan_deployment(
            topology, paths, modules, sessions, coverage=args.coverage, units=units
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    assignment = deployment.assignment
    print(
        f"planned {len(modules)}-module deployment on {topology.name}"
        f" ({len(sessions)} sessions, coverage={args.coverage:g})"
    )
    print(
        f"LP: objective={assignment.objective:.6g}"
        f" solve={assignment.solve_seconds:.3f}s"
    )
    print(f"{'node':<8} {'cpu load':>12} {'mem load':>12}")
    for node in topology.node_names:
        print(
            f"{node:<8} {assignment.cpu_load[node]:>12.5g}"
            f" {assignment.mem_load[node]:>12.5g}"
        )
    if args.output:
        text = dump_manifests(deployment.manifests)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(deployment.manifests)} node manifests to {args.output}")
    if args.assignment_output:
        with open(args.assignment_output, "w") as handle:
            handle.write(dump_assignment(assignment))
        print(f"wrote solved assignment to {args.assignment_output}")
    return 0


def cmd_emulate(args) -> int:
    """Handle ``emulate``: edge-only vs. coordinated comparison."""
    if args.execution == "streamed":
        try:
            policy = ExecutionPolicy.streamed(chunk_size=args.chunk_size)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        policy = ExecutionPolicy.inline()
    config = EmulationConfig(policy=policy)
    topology, paths, generator, sessions = _build_world(args)
    modules = module_set(args.modules)
    # One trace: the planner and both emulations read the same batch.
    deployment = plan_deployment(topology, paths, modules, sessions)
    traffic = Traffic.materialized(generator, sessions)
    edge = run_emulation(traffic, modules, config=config)
    coordinated = run_emulation(traffic, deployment, config=config)
    print(
        f"{len(sessions)} sessions, {len(modules)} modules on"
        f" {topology.name} ({args.execution})"
    )
    print(f"{'deployment':<12} {'max cpu':>14} {'max mem (MB)':>14}")
    print(f"{'edge-only':<12} {edge.max_cpu:>14.0f} {edge.max_mem_mb:>14.1f}")
    print(
        f"{'coordinated':<12} {coordinated.max_cpu:>14.0f}"
        f" {coordinated.max_mem_mb:>14.1f}"
    )
    print(
        f"{'reduction':<12} {1 - coordinated.max_cpu / edge.max_cpu:>13.1%}"
        f" {1 - coordinated.max_mem_mb / edge.max_mem_mb:>13.1%}"
    )
    if args.output:
        import json

        payload = {
            "edge": edge.to_dict(),
            "coordinated": coordinated.to_dict(),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote emulation report to {args.output}")
    return 0


def cmd_solve_nips(args) -> int:
    """Handle ``solve-nips``: relaxation bound plus one rounding variant."""
    topology = by_label(args.topology).set_uniform_capacities(
        cpu=DEFAULT_CPU_CAP_PACKETS,
        mem=DEFAULT_MEM_CAP_FLOWS,
        cam=args.cam_fraction * args.rules,
    )
    rules = unit_rules(args.rules)
    pairs = [
        (a, b) for a in topology.node_names for b in topology.node_names if a != b
    ]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(args.seed))
    problem = build_nips_problem(topology, rules, match)
    relaxed = solve_relaxation(problem)
    print(
        f"{args.rules} rules on {topology.name},"
        f" TCAM={args.cam_fraction:.0%} of ruleset"
    )
    print(f"OptLP upper bound: {relaxed.objective:,.0f} ({relaxed.solve_seconds:.1f}s)")
    variant = RoundingVariant(args.variant)
    best = best_of_roundings(
        problem, variant, iterations=args.iterations, seed=args.seed, relaxed=relaxed
    )
    print(
        f"{variant.value}: objective={best.solution.objective:,.0f}"
        f" ({best.fraction_of_lp:.1%} of OptLP)"
    )
    return 0


def cmd_microbench(args) -> int:
    """Handle ``microbench``: print the Fig. 5 overhead table."""
    rows = run_microbenchmark(num_sessions=args.sessions, runs=args.runs)
    print(format_microbench_table(rows))
    return 0


def cmd_online(args) -> int:
    """Handle ``online``: print the FPL regret trajectory."""
    from .experiments.online_adaptation import build_online_problem

    problem = build_online_problem(num_rules=args.rules)
    process = UniformProcess(problem, seed=args.seed)
    config = FPLConfig(
        epochs=args.epochs, perturbation_scale=1e6, seed=args.seed
    )
    result = run_online_adaptation(
        problem, process, config, report_every=max(1, args.epochs // 10)
    )
    print(f"{'epoch':>7} {'normalized regret':>18}")
    for point in result.points:
        print(f"{point.epoch:>7} {point.normalized_regret:>18.4f}")
    return 0


def _control_common(args) -> dict:
    """The run-config fields both ``control`` subcommands take from
    their shared flags."""
    return dict(
        topology=args.topology,
        epochs=args.epochs,
        base_sessions=args.sessions,
        profile=args.profile.replace("-", "_"),
        seed=args.seed,
        latency=args.latency,
        jitter=args.jitter,
        loss_rate=args.loss_rate,
    )


def _control_epilogue(args, registry, violations, heading: str, ok: str) -> int:
    """Write the ``--metrics-out`` snapshot, print the verdict, and
    return the exit status both ``control`` subcommands share."""
    if registry is not None:
        from .reporting import MetricsSnapshotReport

        fmt = "prom" if args.metrics_out.endswith(".prom") else "json"
        with open(args.metrics_out, "w") as stream:
            MetricsSnapshotReport(registry).write(stream, fmt=fmt)
        print(f"wrote telemetry snapshot ({fmt}) to {args.metrics_out}")
    if violations:
        print(heading)
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(ok)
    return 0


def cmd_control_run(args) -> int:
    """Handle ``control run``: scripted coordination-plane scenario."""
    from .control import ScenarioConfig, run_scenario, standard_scenario
    from .control.scenarios import SCRIPTED

    common = dict(
        _control_common(args),
        resolve_every=args.resolve_every,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    if args.no_events:
        config = ScenarioConfig(**{**SCRIPTED, **common})
    else:
        config = standard_scenario(
            shift_epoch=args.shift_epoch,
            fail_epoch=args.fail_epoch,
            recover_epoch=args.recover_epoch,
            fail_node=args.fail_node,
            **common,
        )
    registry = MetricsRegistry() if args.metrics_out else None
    try:
        result = run_scenario(config, registry=registry)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"coordination plane on {args.topology}: {config.epochs} epochs,"
        f" ~{config.base_sessions} sessions/epoch,"
        f" bus latency={config.latency:g}s loss={config.loss_rate:g}"
    )
    print(
        f"{'epoch':>5} {'resolved':<10} {'push B':>8} {'full-eq B':>9}"
        f" {'coverage':>8} {'lag':>6}  flags"
    )
    for r in result.records:
        flags = []
        if r.failed_nodes:
            flags.append("failed=" + ",".join(r.failed_nodes))
        if r.in_transition:
            flags.append("transition")
        print(
            f"{r.epoch:>5} {r.resolved or '-':<10} {r.push_bytes:>8}"
            f" {r.full_equivalent_bytes:>9} {r.coverage:>8.4f}"
            f" {r.reconfig_lag:>6.2f}  {' '.join(flags)}"
        )
    for node, detected in sorted(result.detection_epoch.items()):
        redistributed = result.redistribution_epoch.get(node)
        reintegrated = result.reintegration_epoch.get(node)
        print(
            f"{node}: failure detected at epoch {detected},"
            f" ranges redistributed at epoch {redistributed},"
            f" reintegrated at epoch {reintegrated}"
        )
    stats = result.controller_stats
    print(
        f"controller: {stats.resolves} re-solves, {stats.repairs} repairs,"
        f" {stats.pushes_delta} delta + {stats.pushes_full} full pushes,"
        f" {stats.retries} retries;"
        f" {stats.push_bytes:,} B pushed vs {stats.full_equivalent_bytes:,} B"
        f" full-equivalent"
    )
    if args.output:
        from . import reporting

        with open(args.output, "w", newline="") as stream:
            reporting.control_epochs_csv(result.records, stream)
        print(f"wrote per-epoch records to {args.output}")
    return _control_epilogue(
        args,
        registry,
        result.check_acceptance(),
        "ACCEPTANCE VIOLATIONS:",
        "acceptance criteria: all satisfied",
    )


def cmd_control_chaos(args) -> int:
    """Handle ``control chaos``: fault injection + invariant monitor."""
    from .control import ScenarioConfig, build_plan, run_chaos
    from .topology import by_label

    try:
        topology = by_label(args.topology)
        plan = build_plan(
            args.plan, args.seed, args.epochs, topology.node_names
        )
        config = ScenarioConfig(
            plan=plan,
            lease_ttl=args.lease_ttl,
            reconverge_epochs=args.reconverge_epochs,
            replicas=args.replicas,
            **_control_common(args),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = MetricsRegistry() if args.metrics_out else None
    try:
        result = run_chaos(config, registry=registry)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"chaos plan {plan.name!r} on {args.topology}: {config.epochs}"
        f" epochs, lease TTL {config.lease_ttl:g}s, heal at"
        f" t={plan.heal_time:g}, seed {config.seed}"
    )
    for event in plan.events:
        target = event.node or (
            f"{event.src or '*'}->{event.dst or '*'}"
            if event.kind == "partition"
            else "-"
        )
        print(
            f"  fault {event.kind:<16} [{event.start:>5.2f}, {event.end:>5.2f})"
            f" target={target} rate={event.rate:g} delay={event.delay:g}"
        )
    print(
        f"{'epoch':>5} {'coverage':>8} {'baseline':>8} {'uncov':>5}"
        f" {'degraded':>8} {'fenced':>6}  flags"
    )
    for chaos_record in result.records:
        r = chaos_record.record
        flags = []
        if chaos_record.controller_down:
            flags.append("controller-down")
        if not r.converged:
            flags.append("unconverged")
        if chaos_record.excluded:
            flags.append("transition")
        if r.failed_nodes:
            flags.append("failed=" + ",".join(r.failed_nodes))
        if chaos_record.leader is not None and chaos_record.term > 0:
            flags.append(
                f"leader={chaos_record.leader}@t{chaos_record.term}"
            )
        print(
            f"{r.epoch:>5} {r.coverage:>8.4f} {chaos_record.baseline_pairs:>8}"
            f" {chaos_record.uncovered_pairs:>5}"
            f" {len(chaos_record.degraded_nodes):>8}"
            f" {len(r.fenced_nodes):>6}  {' '.join(flags)}"
        )
    print(
        f"first degraded epoch: {result.first_degraded_epoch};"
        f" reconverged at epoch: {result.reconverged_epoch}"
    )
    summary = result.ha_summary
    print(
        f"HA: {len(summary['replicas'])} replica(s), leader"
        f" {summary['leader']} at term {summary['term']},"
        f" settled={summary['settled']},"
        f" elections={summary['elections']},"
        f" depositions={summary['depositions']}"
    )
    return _control_epilogue(
        args,
        registry,
        result.check_acceptance(),
        "INVARIANT VIOLATIONS:",
        "invariants held: coverage never below the edge-only baseline,"
        " no stale-epoch manifest outlived its lease, reconvergence"
        " within budget",
    )


def cmd_figures(args) -> int:
    """Regenerate figure data as CSV artifacts."""
    import os

    from . import reporting
    from .experiments import (
        fig6_module_scaling,
        fig7_volume_scaling,
        fig8_per_node_profile,
        fig11_online_regret,
    )

    os.makedirs(args.output_dir, exist_ok=True)
    wanted = set(args.only) if args.only else {"fig5", "fig6", "fig7", "fig8", "fig11"}

    def emit(name: str, writer, *writer_args) -> None:
        path = os.path.join(args.output_dir, f"{name}.csv")
        with open(path, "w", newline="") as stream:
            writer(*writer_args, stream)
        print(f"wrote {path}")

    if "fig5" in wanted:
        rows = run_microbenchmark(num_sessions=args.sessions, runs=args.runs)
        emit("fig5_overheads", reporting.microbench_csv, rows)
    if "fig6" in wanted:
        rows = fig6_module_scaling(sessions_total=args.sessions)
        emit("fig6_modules", reporting.comparison_csv, rows, "num_modules")
    if "fig7" in wanted:
        rows = fig7_volume_scaling()
        emit("fig7_volume", reporting.comparison_csv, rows, "num_sessions")
    if "fig8" in wanted:
        profile = fig8_per_node_profile(sessions_total=args.sessions)
        emit("fig8_per_node", reporting.per_node_csv, profile)
    if "fig11" in wanted:
        evaluation = fig11_online_regret(num_runs=args.runs, epochs=args.epochs)
        emit("fig11_regret", reporting.regret_csv, evaluation)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network-wide NIDS/NIPS deployment (CoNEXT 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_world(p):
        p.add_argument("--topology", default="internet2", help="topology label")
        p.add_argument("--sessions", type=int, default=5000)
        p.add_argument("--profile", choices=sorted(_PROFILES), default="mixed")
        p.add_argument("--seed", type=int, default=1)

    plan = sub.add_parser("plan-nids", help="plan a coordinated NIDS deployment")
    common_world(plan)
    plan.add_argument("--modules", type=int, default=8)
    plan.add_argument(
        "--coverage",
        type=float,
        default=1.0,
        help="redundancy level r, an integer >= 1 (each hash lands at r distinct nodes)",
    )
    plan.add_argument(
        "--netflow-sampling",
        type=float,
        default=None,
        help="plan from NetFlow sampled at this rate instead of ground truth",
    )
    plan.add_argument("--output", help="write per-node manifests JSON here")
    plan.add_argument(
        "--assignment-output",
        help="write the solved d* assignment JSON here (enables"
        " `repro analysis verify --assignment`)",
    )
    plan.set_defaults(func=cmd_plan_nids)

    emulate = sub.add_parser("emulate", help="edge-only vs. coordinated emulation")
    common_world(emulate)
    emulate.add_argument("--modules", type=int, default=21)
    emulate.add_argument(
        "--execution",
        choices=["inline", "streamed"],
        default="inline",
        help="execution policy (both are bit-identical)",
    )
    emulate.add_argument(
        "--chunk-size",
        type=int,
        default=50_000,
        help="sessions per streamed chunk",
    )
    emulate.add_argument(
        "--output",
        help="write the edge/coordinated usage reports as deterministic JSON",
    )
    emulate.set_defaults(func=cmd_emulate)

    nips = sub.add_parser("solve-nips", help="TCAM-constrained rule placement")
    nips.add_argument("--topology", default="internet2")
    nips.add_argument("--rules", type=int, default=100)
    nips.add_argument("--cam-fraction", type=float, default=0.10)
    nips.add_argument(
        "--variant",
        choices=[v.value for v in RoundingVariant],
        default=RoundingVariant.GREEDY_LP.value,
    )
    nips.add_argument("--iterations", type=int, default=5)
    nips.add_argument("--seed", type=int, default=1)
    nips.set_defaults(func=cmd_solve_nips)

    micro = sub.add_parser("microbench", help="Fig. 5 coordination overheads")
    micro.add_argument("--sessions", type=int, default=8000)
    micro.add_argument("--runs", type=int, default=2)
    micro.set_defaults(func=cmd_microbench)

    online = sub.add_parser("online", help="FPL online-adaptation regret")
    online.add_argument("--epochs", type=int, default=100)
    online.add_argument("--rules", type=int, default=6)
    online.add_argument("--seed", type=int, default=1)
    online.set_defaults(func=cmd_online)

    control = sub.add_parser(
        "control", help="coordination-plane (controller-agent) runtime"
    )
    control_sub = control.add_subparsers(dest="control_command", required=True)

    def control_common(epochs: int, sessions: int) -> argparse.ArgumentParser:
        """The flags both control subcommands take, with one
        subcommand's run-length defaults."""
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--topology", default="internet2", help="topology label")
        common.add_argument("--epochs", type=int, default=epochs)
        common.add_argument(
            "--sessions", type=int, default=sessions, help="base sessions per epoch"
        )
        common.add_argument("--profile", choices=sorted(_PROFILES), default="mixed")
        common.add_argument(
            "--seed", type=int, default=7,
            help="seeds traffic, channel, and fault randomness (and the"
            " schedule itself for chaos --plan random)",
        )
        common.add_argument("--latency", type=float, default=0.05)
        common.add_argument("--jitter", type=float, default=0.02)
        common.add_argument("--loss-rate", type=float, default=0.0)
        common.add_argument(
            "--metrics-out",
            help="enable telemetry and write the snapshot here"
            " (JSON; Prometheus text if the path ends in .prom)",
        )
        return common

    run = control_sub.add_parser(
        "run",
        parents=[control_common(epochs=16, sessions=900)],
        help="run a scripted scenario through the coordination plane",
    )
    run.add_argument("--resolve-every", type=int, default=4)
    run.add_argument("--heartbeat-timeout", type=float, default=2.2)
    run.add_argument("--shift-epoch", type=int, default=5)
    run.add_argument("--fail-epoch", type=int, default=8)
    run.add_argument("--recover-epoch", type=int, default=12)
    run.add_argument("--fail-node", default="NYCM")
    run.add_argument(
        "--no-events",
        action="store_true",
        help="steady-state run without scripted shift/failure/recovery",
    )
    run.add_argument("--output", help="write per-epoch records CSV here")
    run.set_defaults(func=cmd_control_run)

    chaos = control_sub.add_parser(
        "chaos",
        parents=[control_common(epochs=18, sessions=600)],
        help="inject a seeded fault plan and assert the degradation"
        " invariants per epoch",
    )
    chaos.add_argument(
        "--plan",
        default="controller-outage",
        help="named fault plan (controller-outage, asym-partition,"
        " agent-restart-stale, lossy-burst, leader-crash-mid-push,"
        " leader-partition) or 'random'",
    )
    chaos.add_argument(
        "--lease-ttl", type=float, default=2.5,
        help="epoch-lease TTL before edge-only fallback (seconds)",
    )
    chaos.add_argument(
        "--reconverge-epochs", type=int, default=4,
        help="epochs allowed between fault heal and a settled plane",
    )
    chaos.add_argument(
        "--replicas", type=int, default=1,
        help="controller replicas (HA standby failover; the"
        " leader-crash-mid-push and leader-partition plans force >= 3)",
    )
    chaos.set_defaults(func=cmd_control_chaos)

    from .analysis.cli import configure_parser as configure_analysis

    analysis = sub.add_parser(
        "analysis",
        help="domain static analysis: AST lint + artifact verification",
    )
    configure_analysis(analysis)

    from .sweep.cli import configure_parser as configure_sweep

    sweep = sub.add_parser(
        "sweep",
        help="sharded scenario sweeps with cached artifacts and one"
        " consolidated report",
    )
    configure_sweep(sweep)

    figures = sub.add_parser("figures", help="write figure data as CSV artifacts")
    figures.add_argument("--output-dir", default="figures")
    figures.add_argument(
        "--only",
        nargs="*",
        choices=["fig5", "fig6", "fig7", "fig8", "fig11"],
        help="restrict to specific figures (default: all)",
    )
    figures.add_argument("--sessions", type=int, default=4000)
    figures.add_argument("--runs", type=int, default=2)
    figures.add_argument("--epochs", type=int, default=60)
    figures.set_defaults(func=cmd_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
