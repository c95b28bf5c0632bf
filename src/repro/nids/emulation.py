"""Network-wide deployment emulation (paper Section 2.4).

Reproduces the paper's methodology: "From a network-wide trace, we
generate traces that each node sees.  For the coordinated case, this
includes both traffic originating/terminating at a node and transit
traffic.  For the edge-only case, these consist of traffic
originating/terminating at each node."  Each node's trace is then run
through a simulated Bro instance — unmodified for the edge-only
deployment, coordination-enabled (approach 2, checks as early as
possible) for the coordinated deployment — and per-node CPU and memory
footprints are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..core.nids_deployment import NIDSDeployment
from ..obs import MetricsRegistry
from ..traffic.batch import SessionBatch
from ..traffic.generator import TrafficGenerator
from ..traffic.session import Session
from .engine import (
    _resolve_config,
    BroInstance,
    BroMode,
    EmulationConfig,
    ExecutionMode,
    InstanceReport,
    PartialInstanceReport,
)
from .modules.base import Alert, ModuleSpec


@dataclass
class DeploymentUsage:
    """Per-node resource footprints for one deployment style."""

    label: str
    reports: Dict[str, InstanceReport]

    @property
    def nodes(self) -> List[str]:
        """Node names covered by this deployment run."""
        return list(self.reports)

    def cpu(self, node: str) -> float:
        """CPU footprint of *node*."""
        return self.reports[node].cpu

    def mem_bytes(self, node: str) -> float:
        """Memory footprint of *node* in bytes."""
        return self.reports[node].mem_bytes

    def mem_mb(self, node: str) -> float:
        """Memory footprint of *node* in mebibytes."""
        return self.reports[node].mem_bytes / (1024.0 * 1024.0)

    @property
    def max_cpu(self) -> float:
        """Maximum per-node CPU footprint (the figures' y-axis)."""
        return max(r.cpu for r in self.reports.values())

    @property
    def max_mem_bytes(self) -> float:
        """Maximum per-node memory footprint in bytes."""
        return max(r.mem_bytes for r in self.reports.values())

    @property
    def max_mem_mb(self) -> float:
        """Maximum per-node memory footprint in mebibytes."""
        return self.max_mem_bytes / (1024.0 * 1024.0)

    def hottest_cpu_node(self) -> str:
        """Node with the largest CPU footprint."""
        return max(self.reports, key=lambda n: self.reports[n].cpu)

    def alert_keys(self) -> Set[Tuple[str, str]]:
        """Aggregate deduplicated alerts across all nodes."""
        keys: Set[Tuple[str, str]] = set()
        for report in self.reports.values():
            keys.update(alert.key() for alert in report.alerts)
        return keys

    def to_dict(self) -> dict:
        """JSON-compatible dict (CLI ``--json``, report digests)."""
        return {
            "label": self.label,
            "reports": {
                node: report.to_dict()
                for node, report in self.reports.items()
            },
        }


@dataclass
class Traffic:
    """The trace input to :func:`run_emulation`, with its routing context.

    The generator supplies topology and routing (``split_batch``),
    and exactly one of three trace sources supplies the sessions —

    * ``sessions`` — an already-materialized trace: the
      :class:`~repro.traffic.batch.SessionBatch` ``generate()`` returned
      (shared between runs, columns and hash columns built once) or a
      list of ``Session`` objects (:meth:`materialized`);
    * ``chunks`` — an iterable of session chunks, batches or lists
      (:meth:`chunked`; one-shot, as any iterable);
    * ``num_sessions`` — generate the trace lazily from the
      generator's seed (:meth:`generate`).

    All sources describe the same accounting result for the same
    sessions — the engine's reports are order-independent and exact —
    so the choice only affects memory and execution shape.
    """

    generator: TrafficGenerator
    sessions: Optional[Union[Sequence[Session], SessionBatch]] = None
    chunks: Optional[Iterable[Sequence[Session]]] = None
    num_sessions: Optional[int] = None

    def __post_init__(self) -> None:
        sources = [
            source
            for source in (self.sessions, self.chunks, self.num_sessions)
            if source is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "Traffic needs exactly one of sessions=, chunks=, or"
                " num_sessions="
            )

    @classmethod
    def materialized(
        cls,
        generator: TrafficGenerator,
        sessions: Union[Sequence[Session], SessionBatch],
    ) -> "Traffic":
        """An already-generated trace.

        Pass one ``SessionBatch`` to several emulations and its columns
        (and, per hash seed, its hash columns) are built once for all
        of them; a list is turned into columns by each run.
        """
        return cls(generator=generator, sessions=sessions)

    @classmethod
    def chunked(
        cls,
        generator: TrafficGenerator,
        chunks: Iterable[Sequence[Session]],
    ) -> "Traffic":
        """A pre-chunked session stream (one-shot iterable)."""
        return cls(generator=generator, chunks=chunks)

    @classmethod
    def generate(cls, generator: TrafficGenerator, num_sessions: int) -> "Traffic":
        """Generate *num_sessions* lazily from the generator's seed."""
        if num_sessions < 0:
            raise ValueError("num_sessions must be >= 0")
        return cls(generator=generator, num_sessions=num_sessions)

    def batch(self) -> SessionBatch:
        """The full trace as one columnar batch (the caller's, if given;
        consumes a ``chunks`` source)."""
        if self.sessions is not None:
            return SessionBatch.of(self.sessions)
        if self.num_sessions is not None:
            return self.generator.generate(self.num_sessions)
        assert self.chunks is not None
        return SessionBatch([session for chunk in self.chunks for session in chunk])

    def batches(self, chunk_size: int) -> Iterator[SessionBatch]:
        """The trace as columnar batches of at most *chunk_size* sessions
        (the generator's own chunks, or index views of one batch)."""
        if self.chunks is not None:
            yield from map(SessionBatch.of, self.chunks)
        elif self.num_sessions is not None:
            yield from self.generator.generate_chunks(self.num_sessions, chunk_size)
        else:
            batch = self.batch()
            for start in range(0, len(batch), chunk_size):
                yield batch[start : start + chunk_size]


def run_emulation(
    traffic: Traffic,
    modules_or_deployment: Union[Sequence[ModuleSpec], NIDSDeployment],
    *,
    config: Optional[EmulationConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> DeploymentUsage:
    """Emulate one deployment over one trace — the unified entry point.

    The second argument selects the deployment style, mirroring the
    paper's two configurations:

    * a sequence of :class:`~repro.nids.modules.base.ModuleSpec` —
      **edge-only**: every location independently runs stock Bro
      (``UNMODIFIED``) on traffic originating or terminating there;
    * a :class:`~repro.core.nids_deployment.NIDSDeployment` —
      **coordinated**: every node runs a coordination-enabled instance
      over its full trace including transit traffic, sampling per its
      manifest.  ``config.mode`` picks approach 2 (``COORD_EVENT``,
      the paper's choice and the default) or the approach-1 ablation
      (``COORD_POLICY``).

    ``config.policy`` (an :class:`~repro.nids.engine.ExecutionPolicy`)
    selects the execution shape — ``inline`` (materialized) or
    ``streamed`` (chunked through persistent instances, memory bounded
    by the chunk size).  Both produce bit-identical
    :class:`DeploymentUsage` reports.

    ``registry`` (overriding ``config.registry``) receives runtime
    telemetry: per-node dispatch counts, batch hash counts, tracked /
    light connection tallies and trace throughput.
    """
    config = _resolve_config(config, registry)
    coordinated = isinstance(modules_or_deployment, NIDSDeployment)
    if coordinated:
        deployment = modules_or_deployment
        if config.mode is BroMode.UNMODIFIED:
            raise ValueError("coordinated emulation requires a coordinated mode")
        label, transit, mode = "coordinated", True, config.mode
        modules: Sequence[ModuleSpec] = deployment.modules
        run_timer = config.registry.timer(
            "emulate_coordinated_seconds",
            "wall-clock seconds per coordinated emulation",
        )
    else:
        deployment = None
        label, transit, mode = "edge", False, BroMode.UNMODIFIED
        modules = list(modules_or_deployment)
        run_timer = config.registry.timer(
            "emulate_edge_seconds",
            "wall-clock seconds per edge-only emulation",
        )

    generator = traffic.generator
    registry = config.registry
    policy = config.policy
    with run_timer:
        instances = {
            node: BroInstance(
                node=node,
                modules=modules,
                mode=mode,
                dispatcher=deployment.dispatcher(node) if coordinated else None,
                config=config,
            )
            for node in generator.topology.node_names
        }
        if policy.mode is ExecutionMode.STREAMED:
            chunk_counter = registry.counter(
                "engine_stream_chunks_total",
                "traffic chunks streamed through the emulation entry points",
            )
            batches: Iterable[SessionBatch] = traffic.batches(policy.chunk_size)
        else:
            chunk_counter = None
            batches = (traffic.batch(),)

        # One path for both shapes; the inline run is a single chunk.
        # Each chunk's sessions become columns once, every node gets an
        # index view of them, and exact-accounting partials make the
        # merged result bit-identical however the trace was chunked.
        partials: Dict[str, PartialInstanceReport] = {}

        def process_chunk(batch: SessionBatch) -> int:
            """Run every node over its view of *batch*; the lookup3
            evaluations that cost."""
            if chunk_counter is not None:
                chunk_counter.inc()
            root = batch.root
            hashes_before = root.hashes_computed
            for node, trace in generator.split_batch(batch, transit):
                partial = instances[node].process_sessions_partial(trace)
                held = partials.get(node)
                if held is None:
                    partials[node] = partial
                else:
                    held.merge(partial)
            return root.hashes_computed - hashes_before

        # map() holds no chunk once it is processed, so a streamed
        # chunk's columns are freed before the next one is generated.
        hashes = sum(map(process_chunk, batches))
        if coordinated:
            registry.counter(
                "hash_batch_computed_total",
                "lookup3 evaluations performed: one per session and"
                " aggregation, however many nodes see the session",
            ).inc(hashes)
        reports = {
            node: instance.finalize_partial(
                partials.get(node)
                or PartialInstanceReport.empty(
                    node, mode, (spec.name for spec in modules)
                )
            )
            for node, instance in instances.items()
        }
        return DeploymentUsage(label=label, reports=reports)


@dataclass
class ComparisonRow:
    """One (x, edge, coordinated) measurement for the Fig. 6/7 series."""

    x: float
    edge_cpu: float
    coord_cpu: float
    edge_mem_mb: float
    coord_mem_mb: float

    @property
    def cpu_reduction(self) -> float:
        """Fractional reduction in max CPU from coordination."""
        return 1.0 - self.coord_cpu / self.edge_cpu if self.edge_cpu else 0.0

    @property
    def mem_reduction(self) -> float:
        """Fractional reduction in max memory from coordination."""
        return 1.0 - self.coord_mem_mb / self.edge_mem_mb if self.edge_mem_mb else 0.0


def compare_deployments(
    deployment: NIDSDeployment,
    generator: TrafficGenerator,
    sessions: Union[Sequence[Session], SessionBatch],
    x: float,
    *,
    config: Optional[EmulationConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ComparisonRow:
    """Emulate both deployments and return the max-load comparison.

    Hand in the ``SessionBatch`` the deployment was planned from and
    the trace is walked once for planner and both emulations.
    """
    config = _resolve_config(config, registry)
    traffic = Traffic.materialized(generator, SessionBatch.of(sessions))
    edge = run_emulation(traffic, deployment.modules, config=config)
    coordinated = run_emulation(traffic, deployment, config=config)
    return ComparisonRow(
        x=x,
        edge_cpu=edge.max_cpu,
        coord_cpu=coordinated.max_cpu,
        edge_mem_mb=edge.max_mem_mb,
        coord_mem_mb=coordinated.max_mem_mb,
    )
