"""What the four workloads share: the planning operation and its checks."""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.verify import check_partition, verify_deployment
from repro.core.manifest import generate_manifests, verify_manifests
from repro.core.nids_deployment import NIDSDeployment, plan_deployment
from repro.core.nids_lp import build_nids_lp, solve_nids_lp, uniform_assignment
from repro.core.units import build_units
from repro.nids.modules import STANDARD_MODULES
from repro.obs import MetricsRegistry, use_registry

from ..harness import constant, summarize, timed
from ..trace import Tracer

MODULES = list(STANDARD_MODULES)


def digest(payload: object) -> str:
    """Fingerprint of a JSON-compatible value (floats serialise exactly)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def manifests_digest(deployment: NIDSDeployment) -> str:
    return digest(
        {
            node: sorted(
                (cls, list(key), [[r.lo, r.hi] for r in ranges])
                for (cls, key), ranges in manifest.entries.items()
            )
            for node, manifest in deployment.manifests.items()
        }
    )


def family_total(registry: MetricsRegistry, name: str, **labels: object) -> float:
    """Counter total / histogram sum of *name* (0 when never declared)."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    if metric.kind == "histogram":
        return float(metric.sum(**labels))
    return float(metric.value(**labels) if labels else metric.total())


def family_count(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return float(metric.count()) if metric is not None else 0.0


def median_of(values: Sequence[float]) -> dict:
    return constant(statistics.median(values)) if values else constant(0.0)


class Workload:
    """Base: inputs from a seed, operations, checks, traced pass."""

    name = ""
    why = ""
    #: Operation names in round order; ``plan`` comes first so the run
    #: stage can use the deployment planned in the same round.
    ops: Tuple[str, ...] = ()
    SIZES: Dict[str, object] = {}
    SMOKE: Dict[str, object] = {}

    def __init__(self, smoke: bool = False):
        self.sizes = dict(self.SIZES, **(self.SMOKE if smoke else {}))
        self.deployment: Optional[NIDSDeployment] = None
        self.objective = 0.0
        self.objective_ratio = 0.0
        self._seen: Dict[str, str] = {}
        #: One record per traced rep (registry totals, replay outputs).
        self.traced: List[dict] = []

    # -- to implement -------------------------------------------------------
    def setup(self, seed: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def plan_inputs(self, rep: int):
        """(topology, paths, sessions) the ``plan`` operation consumes."""
        raise NotImplementedError

    def run(self, op: str, rep: int) -> Tuple[float, List[str]]:
        raise NotImplementedError

    def cross_checks(self) -> List[Tuple[str, List[str]]]:
        return []

    def end_to_end(self, samples: Dict[str, List[float]]) -> Dict[str, dict]:
        raise NotImplementedError

    def traced_rep(self, tracer: Tracer) -> List[str]:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> Tuple[Dict[str, dict], dict]:
        raise NotImplementedError

    # -- shared -------------------------------------------------------------
    def same_as_before(self, label: str, fingerprint: str) -> List[str]:
        """Outputs of one operation must not change from rep to rep."""
        first = self._seen.setdefault(label, fingerprint)
        return [] if first == fingerprint else [f"{label} digest changed across reps"]

    def run_plan(self, rep: int, stable: bool = True) -> Tuple[float, List[str]]:
        """``plan_deployment`` on this rep's inputs, then its checks."""
        topology, paths, sessions = self.plan_inputs(rep)
        elapsed, deployment = timed(plan_deployment, topology, paths, MODULES, sessions)
        self.deployment = deployment
        problems: List[str] = []
        report = verify_deployment(
            deployment.units, deployment.manifests, deployment.assignment
        )
        problems.extend(f"verify_deployment: {f.render()}" for f in report.findings)
        try:
            verify_manifests(deployment.units, deployment.manifests)
        except ValueError as exc:
            problems.append(f"verify_manifests: {exc}")
        naive = uniform_assignment(deployment.units, topology)
        if deployment.objective > naive.objective * (1 + 1e-9):
            problems.append("LP objective worse than the uniform split")
        if rep == 0:
            self.objective = deployment.objective
            self.objective_ratio = deployment.objective / naive.objective
        if stable:
            problems.extend(self.same_as_before("plan", manifests_digest(deployment)))
        return elapsed, problems

    def plan_metrics(self, samples: Dict[str, List[float]]) -> Dict[str, dict]:
        return {
            "plan_s": summarize(samples["plan"]),
            "nids_objective": constant(self.objective),
            "nids_objective_ratio": constant(self.objective_ratio),
        }

    def traced_plan(self, tracer: Tracer, rep: int) -> dict:
        """The planning pipeline layer by layer, plus one registry run.

        ``solve_nids_lp`` hides model building, compilation, HiGHS and
        read-back behind one call, so the first two are replayed on the
        same units; HiGHS time and iteration counts come from the
        ``lp_*`` families the solver records itself.
        """
        topology, paths, sessions = self.plan_inputs(rep)

        def plan(live):
            with use_registry(live):
                plan_deployment(topology, paths, MODULES, sessions)

        registry, _ = self.observe(tracer, "plan", plan)
        with tracer.span("plan"):
            with tracer.span("units.build"):
                units = build_units(MODULES, sessions, paths)
            with tracer.span("nids_lp.solve"):
                assignment = solve_nids_lp(units, topology)
            with tracer.span("manifest.generate"):
                manifests = generate_manifests(units, assignment, topology.node_names)
            with tracer.span("manifest.verify"):
                verify_manifests(units, manifests)
        with tracer.span("plan.replay"):
            with tracer.span("nids_lp.build"):
                built = build_nids_lp(units, topology)
            with tracer.span("lp.compile"):
                built.program.compile()
            with tracer.span("verify.gate"):
                report = verify_deployment(units, manifests, assignment)
            with tracer.span("verify.partition"):
                check_partition(units, manifests)
        return {
            "registry": registry,
            "units": len(units),
            "variables": built.program.num_variables,
            "constraints": built.program.num_constraints,
            "findings": len(report.findings),
        }

    def plan_layer_metrics(self, tracer: Tracer) -> Dict[str, dict]:
        """Per-layer numbers every workload has (it plans)."""
        out = {
            f"{span}_s": median_of(tracer.per_rep(span))
            for span in (
                "units.build", "nids_lp.build", "lp.compile", "manifest.generate",
                "manifest.verify", "verify.gate", "verify.partition",
            )
        }
        plans = [record["plan"] for record in self.traced]
        registries = [r for record in self.traced for r in record["registries"]]
        per_rep = max(1, len(self.traced))
        out.update(
            {
                "units.count": median_of([p["units"] for p in plans]),
                "nids_lp.variables": median_of([p["variables"] for p in plans]),
                "nids_lp.constraints": median_of([p["constraints"] for p in plans]),
                "verify.findings": constant(sum(p["findings"] for p in plans)),
                "lp.solve_s": constant(
                    sum(family_total(r, "lp_solve_seconds") for r in registries) / per_rep
                ),
                "lp.solves": constant(
                    sum(family_count(r, "lp_solve_seconds") for r in registries) / per_rep
                ),
                "lp.iterations": constant(
                    sum(family_total(r, "lp_iterations") for r in registries) / per_rep
                ),
                "manifest.entries": constant(
                    sum(family_total(r, "manifest_entries_per_generation") for r in registries)
                    / per_rep
                ),
            }
        )
        return out

    def observe(self, tracer: Tracer, op: str, run):
        """``run(registry)`` once bare (``None``) and once under a live
        ``MetricsRegistry``, back to back and in an order that
        alternates by rep: the pair sees the same machine state, which
        runs minutes apart on a shared host do not."""
        registry = MetricsRegistry()
        order = ("e2e", "bare") if tracer.rep % 2 else ("bare", "e2e")
        result = None
        for kind in order:
            gc.collect()
            with tracer.span(f"{kind}.{op}"):
                if kind == "e2e":
                    result = run(registry)
                else:
                    run(None)
        return registry, result

    def overhead(self, tracer: Tracer) -> dict:
        """Live-registry runs over their bare twins, all ops summed."""
        observed = sum(sum(tracer.per_rep(f"e2e.{op}")) for op in self.ops)
        bare = sum(sum(tracer.per_rep(f"bare.{op}")) for op in self.ops)
        return constant(observed / bare - 1.0)

    def registry_summary(self) -> dict:
        """Counter totals / histogram sums of the last traced rep."""
        if not self.traced:
            return {}
        summary: Dict[str, float] = {}
        for registry in self.traced[-1]["registries"]:
            for metric in registry.metrics():
                total = (
                    sum(series.sum for _labels, series in metric.series())
                    if metric.kind == "histogram"
                    else sum(value for _labels, value in metric.series())
                )
                summary[metric.name] = summary.get(metric.name, 0.0) + float(total)
        return dict(sorted(summary.items()))

