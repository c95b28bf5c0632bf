"""``control-pop100``: the coordination plane under a leader crash.

``run_chaos`` drives 100 agents and three controller replicas through
the ``leader-crash-mid-push`` plan: the bus, the agents, the verify
gate, the HA hand-off and the delta pushes do the work, and the LP
little.  The controller re-plans every epoch (``resolve_every=1``), so
the number of re-plans — and with it the run time — does not depend on
whether a seed's traffic happens to cross the drift threshold.

The traced pass cannot see inside ``run_chaos``, so it drives the same
four beats per epoch itself over the public ``ChaosBus`` / ``HACluster``
/ ``Agent`` classes with a timing ``solve_fn``, checks that its bus
counts equal the untraced run's, and replays the layers a re-plan
hides (estimate, generate, stabilise, gate, diff) on the same inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from typing import Dict, List

from repro.analysis.verify import check_partition, verify_deployment
from repro.control.agent import Agent, AgentConfig
from repro.control.bus import BusConfig
from repro.control.chaos import ChaosBus, ChaosConfig, build_plan, run_chaos
from repro.control.controller import ControllerConfig
from repro.control.epochs import coverage_metrics, merge_reports, stabilize_manifests
from repro.control.ha import HACluster, HAConfig, replica_name
from repro.control.protocol import (
    KIND_HEARTBEAT,
    KIND_MANIFEST_UPDATE,
    KIND_REPORT,
    KIND_STATE_HANDOFF,
)
from repro.control.scenarios import ScenarioConfig, session_pools
from repro.core.manifest import NodeManifest, generate_manifests
from repro.core.manifest_io import apply_manifest_delta, manifest_diff, manifest_to_dict
from repro.core.nids_lp import solve_nids_lp
from repro.core.units import build_units
from repro.measurement.estimation import estimate_units
from repro.measurement.flows import FlowExporter
from repro.topology import PathSet, by_label
from repro.traffic.dynamics import DiurnalBurstModel

from ..harness import constant, summarize, timed
from ..trace import Tracer
from .base import MODULES, Workload, digest, family_total, median_of

PLAN = "leader-crash-mid-push"
REPLICAS = 3


def _json_bytes(payload: dict) -> int:
    return len(json.dumps(payload, sort_keys=True))


class ControlPop(Workload):
    name = "control-pop100"
    why = (
        "run_chaos, leader crash mid-push, 100 agents, 3 replicas, re-plan every epoch:"
        " bus, agents, verify gate, HA hand-off and delta push dominate, the LP does not"
    )
    ops = ("plan", "chaos")
    SIZES = {"topology": "pop100", "epochs": 14, "base_sessions": 400,
             "resolve_every": 1, "replicas": REPLICAS, "plan": PLAN, "plan_repeats": 5}
    SMOKE = {"topology": "pop12", "base_sessions": 120, "plan_repeats": 1}

    def steady_seed(self, seed: int) -> int:
        """The first seed at or after *seed* (stride 7919) whose volume
        process draws no burst.  A burst doubles one epoch's sessions,
        and with them the units every later re-plan carries: run time
        would then tell seeds apart, not commits."""
        base = self.sizes["base_sessions"]
        for candidate in itertools.count(seed, 7919):
            volumes = DiurnalBurstModel(base_sessions=base, seed=candidate).series(
                self.sizes["epochs"]
            )
            if max(volumes) < 1.5 * base:
                return candidate

    def setup(self, seed: int, tracer: Tracer) -> None:
        sizes = self.sizes
        seed = self.steady_seed(seed)
        self.topology = by_label(sizes["topology"]).set_uniform_capacities(cpu=1.0, mem=1.0)
        self.paths = PathSet(self.topology)
        self.config = ChaosConfig(
            plan=build_plan(PLAN, seed, sizes["epochs"], self.topology.node_names),
            topology=sizes["topology"],
            epochs=sizes["epochs"],
            base_sessions=sizes["base_sessions"],
            seed=seed,
            resolve_every=sizes["resolve_every"],
            replicas=REPLICAS,
        )
        self.volumes = DiurnalBurstModel(
            base_sessions=sizes["base_sessions"], seed=seed
        ).series(sizes["epochs"])
        scenario = ScenarioConfig(
            topology=sizes["topology"], profile=self.config.profile, seed=seed
        )
        with tracer.span("setup.traffic.generate"):
            self.pool = session_pools(
                scenario, self.topology, self.paths, max(self.volumes)
            )[self.config.profile]

    def plan_inputs(self, rep: int):
        return self.topology, self.paths, self.pool

    # -- untraced -----------------------------------------------------------
    def run(self, op: str, rep: int):
        if op == "plan":
            # One plan of ~430 sessions takes ~50 ms, short enough for a
            # single scheduling hiccup to double it: time a few, report
            # their mean.
            repeats = self.sizes["plan_repeats"]
            runs = [self.run_plan(rep) for _ in range(repeats)]
            return (
                sum(elapsed for elapsed, _ in runs) / repeats,
                [problem for _, found in runs for problem in found],
            )
        elapsed, result = timed(run_chaos, self.config)
        self.result = result
        problems = [f"invariant violated: {v}" for v in result.check_acceptance()]
        if result.ha_summary["elections"] != 1:
            problems.append(f"{result.ha_summary['elections']} elections, expected 1")
        if result.reconverged_epoch is None:
            problems.append("never reconverged after the plan healed")
        problems.extend(self.same_as_before("chaos", digest(result.bus_stats.to_dict())))
        return elapsed, problems

    def end_to_end(self, samples):
        epochs = self.sizes["epochs"]
        result = self.result
        heal = math.ceil(self.config.plan.heal_time)
        out = self.plan_metrics(samples)
        out["run_s"] = summarize(samples["chaos"])
        out["epoch_ms"] = summarize([1000.0 * s / epochs for s in samples["chaos"]])
        out["bus_bytes_per_epoch"] = constant(result.bus_stats.bytes_sent / epochs)
        out["bus_msgs_per_epoch"] = constant(result.bus_stats.sent / epochs)
        out["reconverge_epochs"] = constant(
            (result.reconverged_epoch if result.reconverged_epoch is not None else epochs)
            - heal
        )
        return out

    # -- traced ---------------------------------------------------------------
    def control_loop(self, tracer: Tracer) -> dict:
        """``run_chaos``'s four beats per epoch without its invariant
        monitor, each beat under a span, re-plans timed through
        ``solve_fn`` and their hidden layers replayed afterwards."""
        cfg = self.config
        if cfg.plan.crash_events():
            raise ValueError("the traced loop drives controller faults only")
        topology, paths = self.topology, self.paths
        names = tuple(replica_name(i) for i in range(REPLICAS))
        bus = ChaosBus(
            cfg.plan,
            BusConfig(latency=cfg.latency, jitter=cfg.jitter,
                      loss_rate=cfg.loss_rate, seed=cfg.seed),
            chaos_seed=cfg.seed,
            controller_names=names,
        )
        solved: List[tuple] = []

        def solve_fn(units, topo, coverage):
            with tracer.span("controller.solve"):
                assignment = solve_nids_lp(units, topo, coverage)
            solved.append((units, assignment))
            return assignment

        controller_config = ControllerConfig(
            heartbeat_timeout=cfg.heartbeat_timeout,
            resolve_every=cfg.resolve_every,
            lease_ttl=cfg.lease_ttl,
            coverage=cfg.coverage,
            retry_seed=cfg.seed,
        )
        cluster = HACluster(
            topology, paths, MODULES, bus, controller_config,
            HAConfig(replicas=REPLICAS, leader_lease=cfg.lease_ttl),
            solve_fn=solve_fn,
        )
        agent_config = AgentConfig(
            transition_window=cfg.transition_window, lease_ttl=cfg.lease_ttl
        )
        agents = {
            node: Agent(node, bus, exporter=FlowExporter(seed=cfg.seed + index),
                        config=agent_config)
            for index, node in enumerate(topology.node_names)
        }
        totals = {"delta_bytes": 0, "full_bytes": 0, "resolve_epochs": [], "quiet_epochs": []}

        with tracer.span("control.loop"):
            for epoch in range(cfg.epochs):
                t = float(epoch)
                sessions = self.pool[: self.volumes[epoch]]
                # The controller that acts this epoch; a leader that
                # crashes after its push beat is no longer the
                # authority once the epoch closes.
                controller = cluster.authority
                previous = dict(controller.manifests)
                solves_before = len(solved)
                with tracer.span("control.epoch") as span:
                    by_ingress: Dict[str, list] = defaultdict(list)
                    for session in sessions:
                        by_ingress[session.ingress].append(session)
                    with tracer.span("agent.ingest") as beat:
                        for node, agent in agents.items():
                            agent.step(t, sessions=by_ingress.get(node, []))
                    if beat is not None:
                        beat["calls"] = len(agents)
                    with tracer.span("controller.step"):
                        cluster.step(t + 0.25, frozenset(
                            n for n in names if cfg.plan.controller_down(t + 0.25, n)))
                    with tracer.span("agent.apply") as beat:
                        for agent in agents.values():
                            agent.step(t + 0.5)
                    if beat is not None:
                        beat["calls"] = len(agents)
                    with tracer.span("controller.finish"):
                        cluster.finish_epoch(t + 0.75, frozenset(
                            n for n in names if cfg.plan.controller_down(t + 0.75, n)))
                if span is not None:
                    kind = "resolve_epochs" if len(solved) > solves_before else "quiet_epochs"
                    totals[kind].append(span["end"] - span["start"])
                self.replay_epoch(
                    tracer, controller, agents, sessions, previous,
                    solved[-1] if len(solved) > solves_before else None, totals,
                )
        totals["bus"] = bus.stats
        totals["solves"] = len(solved)
        return totals

    def replay_epoch(self, tracer, controller, agents, sessions, previous, solved, totals):
        """Layers a beat hides, timed on the inputs the beat just used."""
        nodes = self.topology.node_names
        with tracer.span("control.replay"):
            with tracer.span("measurement.export"):
                exporter = FlowExporter(seed=self.config.seed)
                exporter.measure(sessions, interval_seconds=1.0)
            with tracer.span("units.build"):
                truth = build_units(MODULES, sessions, self.paths)
            with tracer.span("epochs.coverage"):
                coverage_metrics(
                    truth,
                    {n: a.manifest for n, a in agents.items() if a.alive},
                    {n for n, a in agents.items() if a.alive},
                )
            if solved is None:
                return
            units, assignment = solved
            with tracer.span("measurement.estimate"):
                estimate_units(
                    MODULES, merge_reports(controller.reports.values()), self.paths,
                    controller.config.estimation,
                )
            with tracer.span("manifest.generate"):
                proposed = generate_manifests(units, assignment, nodes)
            stabilized = proposed
            if previous:
                with tracer.span("epochs.stabilize"):
                    stabilized, _changed = stabilize_manifests(
                        previous, proposed, controller.config.stabilize_tolerance,
                        allowed={unit.ident: set(unit.eligible) for unit in units},
                    )
            with tracer.span("verify.gate"):
                report = verify_deployment(units, stabilized)
            with tracer.span("verify.partition"):
                check_partition(units, stabilized)
            totals["findings"] = totals.get("findings", 0) + len(report.findings)
            bases = {n: previous.get(n) or NodeManifest(node=n) for n in nodes}
            with tracer.span("manifest_io.diff"):
                deltas = {n: manifest_diff(bases[n], stabilized[n]) for n in nodes}
            with tracer.span("manifest_io.apply"):
                for n in nodes:
                    apply_manifest_delta(bases[n], deltas[n])
            totals["delta_bytes"] += sum(_json_bytes(d) for d in deltas.values())
            totals["full_bytes"] += sum(
                _json_bytes(manifest_to_dict(stabilized[n])) for n in nodes
            )

    def traced_rep(self, tracer: Tracer) -> List[str]:
        record = {"plan": self.traced_plan(tracer, 0)}
        registry, result = self.observe(
            tracer, "chaos", lambda live: run_chaos(self.config, live)
        )
        record["result"] = result
        record["loop"] = self.control_loop(tracer)
        record["registries"] = [record["plan"]["registry"], registry]
        record["chaos_registry"] = registry
        self.traced.append(record)
        problems = []
        loop_bus, run_bus = record["loop"]["bus"], self.result.bus_stats
        if (loop_bus.sent, loop_bus.bytes_sent) != (run_bus.sent, run_bus.bytes_sent):
            problems.append(
                f"traced loop bus counts {loop_bus.sent}/{loop_bus.bytes_sent} differ"
                f" from run_chaos {run_bus.sent}/{run_bus.bytes_sent}"
            )
        if digest(result.bus_stats.to_dict()) != digest(run_bus.to_dict()):
            problems.append("live-registry run changed the bus counts")
        return problems

    def layer_metrics(self, tracer: Tracer):
        out = self.plan_layer_metrics(tracer)
        for span in (
            "measurement.export", "measurement.estimate", "epochs.stabilize",
            "epochs.coverage", "manifest_io.diff", "manifest_io.apply",
            "agent.ingest", "agent.apply", "controller.step", "controller.finish",
            "controller.solve",
        ):
            out[f"{span}_s"] = median_of(tracer.per_rep(span))
        last = self.traced[-1]
        loop, result, registry = last["loop"], last["result"], last["chaos_registry"]
        stats = result.controller_stats
        leaders = [record.leader for record in result.records]
        takeover = next(
            (i for i, leader in enumerate(leaders) if leader not in (None, replica_name(0))),
            len(leaders),
        )
        e2e = tracer.per_rep("e2e.chaos")
        loops = tracer.per_rep("control.loop")
        replays = tracer.per_rep("control.replay")
        out.update(
            {
                "verify.findings": constant(
                    out["verify.findings"]["value"] + loop.get("findings", 0)
                ),
                "manifest_io.delta_bytes": constant(loop["delta_bytes"]),
                "manifest_io.full_bytes": constant(loop["full_bytes"]),
                "manifest_io.delta_ratio": constant(
                    loop["delta_bytes"] / loop["full_bytes"] if loop["full_bytes"] else 0.0
                ),
                "agent.steps": median_of(
                    [a + b for a, b in zip(tracer.calls("agent.ingest"), tracer.calls("agent.apply"))]
                ),
                "controller.solves": constant(loop["solves"]),
                "controller.resolve_epoch_ms": median_of(
                    [1000.0 * s for s in loop["resolve_epochs"]]
                ),
                "controller.quiet_epoch_ms": median_of(
                    [1000.0 * s for s in loop["quiet_epochs"]]
                ),
                "controller.pushes_full": constant(stats.pushes_full),
                "controller.pushes_delta": constant(stats.pushes_delta),
                "controller.push_bytes": constant(stats.push_bytes),
                "controller.full_equivalent_bytes": constant(stats.full_equivalent_bytes),
                "controller.retries": constant(stats.retries),
                "controller.rejections": constant(stats.rejections),
                "bus.sent": constant(family_total(registry, "bus_messages_total")),
                "bus.bytes": constant(family_total(registry, "bus_bytes_total")),
                "bus.dropped": constant(family_total(registry, "bus_dropped_total")),
                "bus.bytes_push": constant(
                    family_total(registry, "bus_bytes_total", kind=KIND_MANIFEST_UPDATE)
                ),
                "bus.bytes_report": constant(
                    family_total(registry, "bus_bytes_total", kind=KIND_REPORT)
                ),
                "bus.bytes_heartbeat": constant(
                    family_total(registry, "bus_bytes_total", kind=KIND_HEARTBEAT)
                ),
                "bus.bytes_handoff": constant(
                    family_total(registry, "bus_bytes_total", kind=KIND_STATE_HANDOFF)
                ),
                "ha.elections": constant(
                    family_total(registry, "controller_ha_elections_total")
                ),
                "ha.takeover_epoch": constant(takeover),
                "ha.leaderless_epochs": constant(sum(1 for l in leaders if l is None)),
                "ha.handoff_msgs": constant(
                    family_total(registry, "bus_messages_total", kind=KIND_STATE_HANDOFF)
                ),
                # run_chaos minus the bare loop: invariant monitor plus
                # ground-truth coverage accounting.
                "chaos.harness_s": median_of(
                    [e - (l - r) for e, l, r in zip(e2e, loops, replays)]
                ),
                "obs.overhead_frac": self.overhead(tracer),
            }
        )
        return out, self.registry_summary()
