"""Standalone microbenchmarks (paper Section 2.4, Fig. 5).

Runs each analysis module in isolation over a mixed single-node trace
in three configurations — unmodified Bro, coordination checks in the
policy engine (approach 1), and coordination checks as early as
possible (approach 2) — with a sampling manifest covering all traffic,
and reports the CPU and memory overheads of the coordination
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dispatch import CoordinatedDispatcher, UnitResolver
from ..core.manifest import full_manifest
from ..topology.datasets import internet2
from ..topology.routing import PathSet
from ..traffic.batch import SessionBatch
from ..traffic.generator import GeneratorConfig, TrafficGenerator
from ..traffic.profiles import mixed_profile
from ..traffic.session import Session
from .engine import BroInstance, BroMode, EmulationConfig
from .modules.base import ModuleSpec
from .modules.catalog import STANDARD_MODULES
from .resources import CostModel, DEFAULT_COST_MODEL

#: Fig. 5's x-axis order.
MICROBENCH_ORDER: Tuple[str, ...] = (
    "baseline",
    "scan",
    "irc",
    "login",
    "tftp",
    "http",
    "blaster",
    "signature",
    "synflood",
)


@dataclass
class OverheadStats:
    """Mean/min/max of a relative overhead across runs."""

    mean: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "OverheadStats":
        """Aggregate mean/min/max over per-run samples."""
        return cls(sum(values) / len(values), min(values), max(values))


@dataclass
class MicrobenchRow:
    """Fig. 5 measurements for one module configuration."""

    module: str
    cpu_policy: OverheadStats
    cpu_event: OverheadStats
    mem_policy: OverheadStats
    mem_event: OverheadStats


def _standalone_trace(num_sessions: int, seed: int) -> SessionBatch:
    """A mixed trace as seen by one standalone node."""
    topology = internet2()
    paths = PathSet(topology)
    generator = TrafficGenerator(
        topology,
        paths,
        profile=mixed_profile(),
        config=GeneratorConfig(seed=seed),
    )
    return generator.generate(num_sessions)


def _run_configuration(
    modules: List[ModuleSpec],
    sessions: Sequence[Session],
    mode: BroMode,
    cost_model: CostModel,
) -> Tuple[float, float]:
    """CPU and memory footprint of one instance configuration."""
    node = "standalone"
    dispatcher: Optional[CoordinatedDispatcher] = None
    if mode is not BroMode.UNMODIFIED:
        dispatcher = CoordinatedDispatcher(
            node=node,
            manifest=full_manifest(node),
            modules=modules,
            resolver=UnitResolver(internet2().node_names),
        )
    instance = BroInstance(
        node=node,
        modules=modules,
        mode=mode,
        dispatcher=dispatcher,
        config=EmulationConfig(cost_model=cost_model),
    )
    report = instance.process_sessions(sessions)
    return report.cpu, report.mem_bytes


def run_microbenchmark(
    num_sessions: int = 100_000,
    runs: int = 5,
    base_seed: int = 100,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    modules: Sequence[ModuleSpec] = tuple(STANDARD_MODULES),
) -> List[MicrobenchRow]:
    """Reproduce Fig. 5: per-module coordination overheads.

    Each run uses a fresh trace seed (the paper performs 5 runs and
    reports mean/min/max).  The "baseline" row is the bare engine with
    no analysis modules — its overhead isolates the cost of computing
    and storing the connection-record hashes.
    """
    by_name: Dict[str, Optional[ModuleSpec]] = {"baseline": None}
    for spec in modules:
        by_name[spec.name] = spec

    samples: Dict[str, Dict[str, List[float]]] = {
        name: {"cpu_policy": [], "cpu_event": [], "mem_policy": [], "mem_event": []}
        for name in by_name
    }

    for run in range(runs):
        sessions = _standalone_trace(num_sessions, seed=base_seed + run)
        for name, spec in by_name.items():
            isolated = [spec] if spec is not None else []
            cpu_unmod, mem_unmod = _run_configuration(
                isolated, sessions, BroMode.UNMODIFIED, cost_model
            )
            cpu_policy, mem_policy = _run_configuration(
                isolated, sessions, BroMode.COORD_POLICY, cost_model
            )
            cpu_event, mem_event = _run_configuration(
                isolated, sessions, BroMode.COORD_EVENT, cost_model
            )
            samples[name]["cpu_policy"].append(cpu_policy / cpu_unmod - 1.0)
            samples[name]["cpu_event"].append(cpu_event / cpu_unmod - 1.0)
            samples[name]["mem_policy"].append(mem_policy / mem_unmod - 1.0)
            samples[name]["mem_event"].append(mem_event / mem_unmod - 1.0)

    rows = []
    for name in MICROBENCH_ORDER:
        if name not in samples:
            continue
        data = samples[name]
        rows.append(
            MicrobenchRow(
                module=name,
                cpu_policy=OverheadStats.of(data["cpu_policy"]),
                cpu_event=OverheadStats.of(data["cpu_event"]),
                mem_policy=OverheadStats.of(data["mem_policy"]),
                mem_event=OverheadStats.of(data["mem_event"]),
            )
        )
    return rows


def format_microbench_table(rows: Sequence[MicrobenchRow]) -> str:
    """Render Fig. 5 as an aligned text table."""
    header = (
        f"{'module':<10} {'cpu(policy)':>12} {'cpu(event)':>12}"
        f" {'mem(policy)':>12} {'mem(event)':>12}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.module:<10} {row.cpu_policy.mean:>11.1%} {row.cpu_event.mean:>11.1%}"
            f" {row.mem_policy.mean:>11.1%} {row.mem_event.mean:>11.1%}"
        )
    return "\n".join(lines)
