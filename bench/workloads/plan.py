"""``plan-as1239``: the optimisation layers at the paper's 50-node scale.

NIDS planning on AS1239 (52 nodes, ~5.9k coordination units) over
sliding session windows of one pool — consecutive plans resemble
consecutive epochs, and no two reps plan identical input, so memoising
on the input cannot win — followed by the NIPS relaxation and
randomized rounding on Geant.  The LP layers dominate and emulation
does nothing.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.nips_milp import (
    build_nips_lp,
    build_nips_problem,
    solve_relaxation,
)
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.experiments.nips_rounding import (
    DEFAULT_CPU_CAP_PACKETS,
    DEFAULT_MEM_CAP_FLOWS,
)
from repro.nips.rules import MatchRateMatrix, unit_rules
from repro.obs import use_registry
from repro.topology import PathSet, by_label
from repro.traffic import GeneratorConfig, TrafficGenerator

from ..harness import summarize, timed
from ..trace import Tracer
from .base import Workload, median_of


class PlanAS1239(Workload):
    name = "plan-as1239"
    why = (
        "AS1239 (52 nodes, ~5.9k units) planned over sliding 50k-session windows, then"
        " NIPS relax+round on Geant: the LP layers dominate, emulation does nothing"
    )
    ops = ("plan", "nips")
    SIZES = {"topology": "AS1239", "pool": 95_000, "window": 50_000, "step": 5_000,
             "nips_topology": "Geant", "nips_rules": 20, "capacity_fraction": 0.10,
             "rounding_iterations": 3}
    SMOKE = {"pool": 3_000, "window": 2_000, "step": 500, "nips_rules": 4,
             "rounding_iterations": 2}

    def setup(self, seed: int, tracer: Tracer) -> None:
        sizes = self.sizes
        self.seed = seed
        self.topology = by_label(sizes["topology"]).set_uniform_capacities(cpu=1.0, mem=1.0)
        self.paths = PathSet(self.topology)
        generator = TrafficGenerator(
            self.topology, self.paths, config=GeneratorConfig(seed=seed)
        )
        with tracer.span("setup.traffic.generate"):
            self.pool = generator.generate(sizes["pool"])
        self.windows = (sizes["pool"] - sizes["window"]) // sizes["step"] + 1
        self.nips_topology = by_label(sizes["nips_topology"]).set_uniform_capacities(
            cpu=DEFAULT_CPU_CAP_PACKETS,
            mem=DEFAULT_MEM_CAP_FLOWS,
            cam=sizes["capacity_fraction"] * sizes["nips_rules"],
        )
        self.nips_paths = PathSet(self.nips_topology)
        self.rules = unit_rules(sizes["nips_rules"])
        names = self.nips_topology.node_names
        self.pairs = [(a, b) for a in names for b in names if a != b]
        self.ratios: List[float] = []

    def plan_inputs(self, rep: int):
        start = (rep % self.windows) * self.sizes["step"]
        return self.topology, self.paths, self.pool[start : start + self.sizes["window"]]

    def match_matrix(self, rep: int) -> MatchRateMatrix:
        """A distinct ``M_ik`` draw per rep, fixed by (seed, rep)."""
        return MatchRateMatrix.uniform(
            self.rules, self.pairs, random.Random(self.seed * 1009 + rep)
        )

    def nips(self, match: MatchRateMatrix, rep: int):
        problem = build_nips_problem(
            self.nips_topology, self.rules, match, path_set=self.nips_paths
        )
        relaxed = solve_relaxation(problem)
        best = best_of_roundings(
            problem,
            RoundingVariant.GREEDY_LP,
            iterations=self.sizes["rounding_iterations"],
            seed=self.seed + rep,
            relaxed=relaxed,
        )
        return problem, best

    def run(self, op: str, rep: int):
        if op == "plan":
            # Windows differ, so manifests legitimately differ per rep.
            return self.run_plan(rep, stable=False)
        match = self.match_matrix(rep)
        elapsed, (problem, best) = timed(self.nips, match, rep)
        problems = [
            f"rounded NIPS solution infeasible: {violation}"
            for violation in problem.check_feasible(best.solution.e, best.solution.d)
        ]
        if best.fraction_of_lp > 1.0 + 1e-6:
            problems.append(f"rounded objective exceeds the LP bound ({best.fraction_of_lp})")
        self.ratios.append(best.fraction_of_lp)
        return elapsed, problems

    def end_to_end(self, samples):
        out = self.plan_metrics(samples)
        out["run_s"] = summarize(samples["nips"])
        out["nips_round_s"] = summarize(samples["nips"])
        out["nips_round_ratio"] = summarize(self.ratios)
        return out

    def traced_rep(self, tracer: Tracer) -> List[str]:
        rep = len(self.traced)
        record = {"plan": self.traced_plan(tracer, rep)}
        match = self.match_matrix(rep)

        def nips(live):
            with use_registry(live):
                self.nips(match, rep)

        registry, _ = self.observe(tracer, "nips", nips)
        with tracer.span("nips"):
            with tracer.span("nips_milp.problem"):
                problem = build_nips_problem(
                    self.nips_topology, self.rules, match, path_set=self.nips_paths
                )
            with tracer.span("nips_milp.relax"):
                relaxed = solve_relaxation(problem)
            with tracer.span("rounding.round"):
                best_of_roundings(
                    problem,
                    RoundingVariant.GREEDY_LP,
                    iterations=self.sizes["rounding_iterations"],
                    seed=self.seed + rep,
                    relaxed=relaxed,
                )
        with tracer.span("nips.replay"):
            with tracer.span("nips_milp.build"):
                built = build_nips_lp(problem, integral=False)
            with tracer.span("lp.compile"):
                built.program.compile()
        record["nips_variables"] = built.program.num_variables
        record["registries"] = [record["plan"]["registry"], registry]
        self.traced.append(record)
        return []

    def layer_metrics(self, tracer: Tracer):
        out = self.plan_layer_metrics(tracer)
        build = tracer.per_rep("nips_milp.build")
        relax = tracer.per_rep("nips_milp.relax")
        out.update(
            {
                "nips_milp.build_s": median_of(build),
                # Relaxation minus model building: compile + HiGHS + read-back.
                "nips_milp.relax_solve_s": median_of([r - b for r, b in zip(relax, build)]),
                "nips_milp.variables": median_of(
                    [record["nips_variables"] for record in self.traced]
                ),
                "rounding.round_s": median_of(tracer.per_rep("rounding.round")),
                "obs.overhead_frac": self.overhead(tracer),
            }
        )
        return out, self.registry_summary()
