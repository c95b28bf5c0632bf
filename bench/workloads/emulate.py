"""The two emulation workloads on Internet2 (11 nodes).

``emulate-inline-internet2`` plans on a materialised trace, then runs
the coordinated and the edge-only emulation over it: hashing, manifest
lookup, dispatch and the cost model do nearly all the work, and the
edge-only run is the same engine with no dispatcher, so a dispatch gain
that taxes the bare cost model shows.

``emulate-stream-internet2`` uses the same engine differently: the
trace is generated chunk by chunk inside the timed region and flows
through persistent instances whose partial reports are merged, so
generation, per-chunk splitting and merging are priced too and memory
is bounded by the chunk.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.dispatch import CoordinatedDispatcher
from repro.core.manifest_index import ManifestIndex
from repro.core.nids_deployment import NIDSDeployment
from repro.hashing.vectorized import key_hash_unit_batch
from repro.nids.emulation import DeploymentUsage, Traffic, run_emulation
from repro.nids.engine import (
    BroInstance,
    BroMode,
    EmulationConfig,
    ExecutionPolicy,
    PartialInstanceReport,
)
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from repro.traffic.batch import SessionBatch

from ..harness import constant, summarize, timed
from ..trace import Tracer
from .base import MODULES, Workload, digest, family_total, median_of


class _TimedIndex(ManifestIndex):
    """A manifest index that times its own batch lookups."""

    def __init__(self, manifest):
        super().__init__(manifest)
        self.seconds = 0.0
        self.calls = 0

    def contains_batch(self, class_name, key, hash_values):
        started = time.perf_counter()
        flags = super().contains_batch(class_name, key, hash_values)
        self.seconds += time.perf_counter() - started
        self.calls += 1
        return flags


class _TracingDispatcher(CoordinatedDispatcher):
    """The public dispatcher with spans around its public seams.

    ``batch_decisions`` and the lazily compiled ``index`` are the two
    places the engine enters the dispatch layer; both are overridden to
    delegate under a span, so decide and lookup time are measured in
    place.  The hash sweep has no public seam inside ``batch_decisions``
    and is replayed afterwards on the columns kept here.
    """

    def __init__(self, tracer: Tracer, tally: dict, **kwargs):
        super().__init__(**kwargs)
        self._tracer = tracer
        self._tally = tally
        self._timed: Optional[_TimedIndex] = None

    @property
    def index(self) -> ManifestIndex:
        if self._timed is None:
            with self._tracer.span("manifest_index.build"):
                self._timed = _TimedIndex(self.manifest)
        return self._timed

    def batch_decisions(self, batch: SessionBatch):
        with self._tracer.span("dispatch.decide"):
            index = self.index
            seconds, calls = index.seconds, index.calls
            decisions = super().batch_decisions(batch)
            self._tracer.add(
                "manifest_index.lookup", index.seconds - seconds, index.calls - calls
            )
        for decision in decisions:
            self._tally["matched"] += int(decision.match.sum())
            self._tally["analysed"] += int(decision.analyze.sum())
        self._tally["columns"].append(
            (batch.src, batch.dst, batch.sport, batch.dport, batch.proto)
        )
        return decisions


def traced_emulation(
    tracer: Tracer,
    generator: TrafficGenerator,
    chunks: Iterable[Sequence],
    deployment: Optional[NIDSDeployment],
) -> Tuple[DeploymentUsage, dict]:
    """``run_emulation``'s loop, rebuilt from the public classes with a
    span at every layer boundary; coordinated when given a deployment,
    edge-only otherwise.  One chunk is the inline shape, several the
    streamed one."""
    coordinated = deployment is not None
    tally = {"matched": 0, "analysed": 0, "columns": []}
    config = EmulationConfig()
    mode = BroMode.COORD_EVENT if coordinated else BroMode.UNMODIFIED
    with tracer.span("emulation.run"):
        hash_cache: dict = {}
        instances: Dict[str, BroInstance] = {}
        for node in generator.topology.node_names:
            dispatcher = None
            if coordinated:
                dispatcher = _TracingDispatcher(
                    tracer,
                    tally,
                    node=node,
                    manifest=deployment.manifests[node],
                    modules=deployment.modules,
                    resolver=deployment.resolver,
                    hash_seed=deployment.hash_seed,
                    hash_cache=hash_cache,
                )
            instances[node] = BroInstance(
                node=node, modules=MODULES, mode=mode, dispatcher=dispatcher, config=config
            )
        partials: Dict[str, PartialInstanceReport] = {}
        stream: Iterator[Sequence] = iter(chunks)
        while True:
            with tracer.span("traffic.generate"):
                chunk = next(stream, None)
            if chunk is None:
                break
            with tracer.span("traffic.split"):
                traces = generator.split_by_node(list(chunk), transit=coordinated)
            for node, trace in traces.items():
                with tracer.span("traffic.batch"):
                    batch = SessionBatch(trace)
                with tracer.span("engine.process"):
                    partial = instances[node].process_sessions_partial(batch)
                held = partials.get(node)
                if held is None:
                    partials[node] = partial
                else:
                    with tracer.span("engine.merge"):
                        held.merge(partial)
        with tracer.span("engine.finalize"):
            reports = {
                node: instance.finalize_partial(
                    partials.get(node)
                    or PartialInstanceReport.empty(node, mode, (s.name for s in MODULES))
                )
                for node, instance in instances.items()
            }
    if coordinated:
        aggregations = sorted({spec.aggregation for spec in MODULES}, key=lambda a: a.name)
        with tracer.span("hashing.replay"):
            for columns in tally.pop("columns"):
                for aggregation in aggregations:
                    with tracer.span("hashing.hash"):
                        key_hash_unit_batch(aggregation, *columns, deployment.hash_seed)
    label = "coordinated" if coordinated else "edge"
    return DeploymentUsage(label=label, reports=reports), tally


class _Emulate(Workload):
    """Shared by the inline and the streamed workload."""

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
        self.paths = PathSet(self.topology)
        self.generator = TrafficGenerator(
            self.topology, self.paths, config=GeneratorConfig(seed=seed)
        )
        with tracer.span("setup.traffic.generate"):
            self.plan_trace = self.generator.generate(self.sizes["plan_sessions"])

    def plan_inputs(self, rep: int):
        return self.topology, self.paths, self.plan_trace

    def fresh_deployment(self) -> NIDSDeployment:
        """The planned deployment with a cold shared hash cache."""
        planned = self.deployment
        return NIDSDeployment(
            topology=planned.topology,
            paths=planned.paths,
            modules=planned.modules,
            units=planned.units,
            assignment=planned.assignment,
            manifests=planned.manifests,
            resolver=planned.resolver,
            hash_seed=planned.hash_seed,
        )

    def emulate(self, label: str, traffic: Traffic, target, config=None):
        elapsed, usage = timed(run_emulation, traffic, target, config=config)
        return elapsed, usage, self.same_as_before(label, digest(usage.to_dict()))

    def emulation_layers(self, tracer: Tracer) -> Dict[str, dict]:
        """Span sums and registry counts of the traced emulation runs."""
        names = (
            "traffic.generate", "traffic.split", "traffic.batch", "hashing.hash",
            "manifest_index.build", "manifest_index.lookup", "dispatch.decide",
            "engine.process", "engine.finalize", "engine.merge", "emulation.run",
        )
        spans = {name: tracer.per_rep(name) for name in names}
        out = {f"{name}_s": median_of(values) for name, values in spans.items()}
        out["emulation.self_s"] = median_of(tracer.per_rep("emulation.run", self_time=True))
        out["dispatch.self_s"] = median_of(
            [
                decide - lookup - build - hashing
                for decide, lookup, build, hashing in zip(
                    spans["dispatch.decide"], spans["manifest_index.lookup"],
                    spans["manifest_index.build"], spans["hashing.hash"],
                )
            ]
        )
        out["engine.cost_model_s"] = median_of(
            [p - d for p, d in zip(spans["engine.process"], spans["dispatch.decide"])]
        )
        out["manifest_index.lookups"] = median_of(tracer.calls("manifest_index.lookup"))
        out["engine.merges"] = median_of(tracer.calls("engine.merge"))
        last = self.traced[-1]
        registry: MetricsRegistry = last["coord_registry"]
        node_sessions = family_total(registry, "dispatch_sessions_total")
        hits = family_total(registry, "hash_cache_hits_total")
        lookups = hits + family_total(registry, "hash_cache_misses_total") + family_total(
            registry, "hash_batch_computed_total"
        )
        per_node = [
            value for _labels, value in registry.get("dispatch_sessions_total").series()
        ]
        tally = last["tally"]
        out.update(
            {
                "traffic.sessions": constant(self.sizes["sessions"]),
                "hashing.keys": constant(family_total(registry, "hash_batch_computed_total")),
                "hashing.cache_hit_ratio": constant(hits / lookups if lookups else 0.0),
                "dispatch.node_sessions": constant(node_sessions),
                "dispatch.sampled_ratio": constant(
                    tally["analysed"] / tally["matched"] if tally["matched"] else 0.0
                ),
                "engine.tracked_ratio": constant(
                    family_total(registry, "sessions_tracked_total") / node_sessions
                ),
                "engine.hottest_node_share": constant(max(per_node) / node_sessions),
            }
        )
        return out

    def layer_metrics(self, tracer: Tracer):
        out = self.plan_layer_metrics(tracer)
        out.update(self.emulation_layers(tracer))
        out["obs.overhead_frac"] = self.overhead(tracer)
        return out, self.registry_summary()


class EmulateInline(_Emulate):
    name = "emulate-inline-internet2"
    why = (
        "materialised 100k-session trace: hashing, manifest lookup, dispatch and the"
        " cost model do the work; the edge-only run is the same engine minus dispatch"
    )
    ops = ("plan", "coord", "edge")
    SIZES = {"topology": "internet2", "sessions": 100_000, "plan_sessions": 100_000,
             "check_chunk": 50_000}
    SMOKE = {"sessions": 4_000, "plan_sessions": 4_000, "check_chunk": 1_500}

    def setup(self, seed: int, tracer: Tracer) -> None:
        super().setup(seed, tracer)
        self.traffic = Traffic.materialized(self.generator, self.plan_trace)

    def run(self, op: str, rep: int):
        if op == "plan":
            return self.run_plan(rep)
        if op == "coord":
            elapsed, self.coord_usage, problems = self.emulate(
                "coord", self.traffic, self.fresh_deployment()
            )
        else:
            elapsed, self.edge_usage, problems = self.emulate("edge", self.traffic, MODULES)
        return elapsed, problems

    def cross_checks(self):
        streamed = run_emulation(
            self.traffic,
            self.fresh_deployment(),
            config=EmulationConfig(
                policy=ExecutionPolicy.streamed(self.sizes["check_chunk"])
            ),
        )
        same = digest(streamed.to_dict()) == digest(self.coord_usage.to_dict())
        return [("inline-vs-streamed", [] if same else ["streamed policy digest differs"])]

    def end_to_end(self, samples):
        n = self.sizes["sessions"]
        out = self.plan_metrics(samples)
        out["run_s"] = summarize(
            [c + e for c, e in zip(samples["coord"], samples["edge"])]
        )
        out["coord_sessions_per_s"] = summarize([n / s for s in samples["coord"]])
        out["edge_sessions_per_s"] = summarize([n / s for s in samples["edge"]])
        out["max_cpu_reduction"] = constant(
            1.0 - self.coord_usage.max_cpu / self.edge_usage.max_cpu
        )
        return out

    def traced_rep(self, tracer: Tracer) -> List[str]:
        record = {"plan": self.traced_plan(tracer, 0)}
        coord_registry, _ = self.observe(
            tracer, "coord",
            lambda live: run_emulation(self.traffic, self.fresh_deployment(), registry=live),
        )
        edge_registry, _ = self.observe(
            tracer, "edge", lambda live: run_emulation(self.traffic, MODULES, registry=live)
        )
        coord, record["tally"] = traced_emulation(
            tracer, self.generator, [self.plan_trace], self.fresh_deployment()
        )
        edge, _ = traced_emulation(tracer, self.generator, [self.plan_trace], None)
        record["coord_registry"] = coord_registry
        record["registries"] = [record["plan"]["registry"], coord_registry, edge_registry]
        self.traced.append(record)
        problems = []
        if digest(coord.to_dict()) != digest(self.coord_usage.to_dict()):
            problems.append("layer-by-layer coordinated run differs from run_emulation")
        if digest(edge.to_dict()) != digest(self.edge_usage.to_dict()):
            problems.append("layer-by-layer edge run differs from run_emulation")
        return problems

    def emulation_layers(self, tracer: Tracer):
        out = super().emulation_layers(tracer)
        # The trace is materialised before the first timed rep, so
        # generation shows in setup_s only; report what it cost there.
        out["traffic.generate_s"] = median_of(tracer.per_rep("setup.traffic.generate"))
        return out


class EmulateStream(_Emulate):
    name = "emulate-stream-internet2"
    why = (
        "150k sessions generated in 50k chunks through persistent instances: generation,"
        " per-chunk split and partial-report merge are inside the timed region"
    )
    ops = ("plan", "stream")
    SIZES = {"topology": "internet2", "sessions": 150_000, "plan_sessions": 50_000,
             "chunk": 50_000}
    SMOKE = {"sessions": 6_000, "plan_sessions": 2_000, "chunk": 2_000}

    def streamed(self, chunk: int, registry: Optional[MetricsRegistry] = None):
        return EmulationConfig(
            policy=ExecutionPolicy.streamed(chunk),
            registry=registry if registry is not None else NULL_REGISTRY,
        )

    def generated(self) -> Traffic:
        return Traffic.generate(self.generator, self.sizes["sessions"])

    def run(self, op: str, rep: int):
        if op == "plan":
            return self.run_plan(rep)
        elapsed, self.usage, problems = self.emulate(
            "stream", self.generated(), self.fresh_deployment(),
            self.streamed(self.sizes["chunk"]),
        )
        return elapsed, problems

    def cross_checks(self):
        halved = run_emulation(
            self.generated(), self.fresh_deployment(),
            config=self.streamed(self.sizes["chunk"] // 2),
        )
        same = digest(halved.to_dict()) == digest(self.usage.to_dict())
        return [("chunk-size", [] if same else ["digest depends on the chunk size"])]

    def end_to_end(self, samples):
        n = self.sizes["sessions"]
        out = self.plan_metrics(samples)
        out["run_s"] = summarize(samples["stream"])
        out["coord_sessions_per_s"] = summarize([n / s for s in samples["stream"]])
        return out

    def traced_rep(self, tracer: Tracer) -> List[str]:
        record = {"plan": self.traced_plan(tracer, 0)}
        registry, _ = self.observe(
            tracer, "stream",
            lambda live: run_emulation(
                self.generated(), self.fresh_deployment(),
                config=self.streamed(self.sizes["chunk"], live),
            ),
        )
        chunks = self.generator.generate_chunks(self.sizes["sessions"], self.sizes["chunk"])
        usage, record["tally"] = traced_emulation(
            tracer, self.generator, chunks, self.fresh_deployment()
        )
        record["coord_registry"] = registry
        record["registries"] = [record["plan"]["registry"], registry]
        self.traced.append(record)
        if digest(usage.to_dict()) != digest(self.usage.to_dict()):
            return ["layer-by-layer streamed run differs from run_emulation"]
        return []
