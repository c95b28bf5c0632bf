"""Shared-nothing execution of one sweep cell.

This module is the process-pool entry point, so everything here must
be **spawn-safe**: :func:`run_cell_payload` is a module-level function
taking and returning plain JSON-compatible dicts, importable by a
freshly spawned interpreter with no inherited state.  Each cell builds
its own topology, bus, controller, and agents from the cell's derived
seed — no sharing, no ordering dependence — which is what makes the
grid embarrassingly parallel and the parallel/sequential consolidated
reports bit-identical.

Every cell is one :class:`~repro.control.plane.ScenarioConfig` on the
one control run (:func:`~repro.control.plane.run_plan`), its traffic
dynamics taken from the cell's preset, and is judged by one of two
scorers:

* ``plan == "none"`` — the scripted steady → shift → failure →
  recovery plan (:func:`~repro.control.scenarios.run_scenario`),
  with the schedule scaled to the cell's epoch count and the
  failed node chosen deterministically from the cell seed;
* any other plan — a chaos run
  (:func:`~repro.control.chaos.run_chaos`) under the named (or
  seeded-``random``) fault plan, judged by the
  :class:`~repro.control.chaos.InvariantMonitor`.

The cell's full telemetry snapshot rides along in the result, so the
parent can fold every worker's metrics into one registry with
:meth:`~repro.obs.MetricsRegistry.merge_from`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..control.chaos import build_plan, run_chaos
from ..control.plane import ScenarioConfig
from ..control.scenarios import SCRIPTED, run_scenario, standard_scenario
from ..core.manifest_table import left_sum
from ..obs import MetricsRegistry
from ..topology import by_label
from .spec import DYNAMICS_PRESETS, SweepCell

#: Minimum epochs for the scripted schedule; shorter cells run the
#: steady-state scenario (no shift/failure/recovery events).
MIN_EVENT_EPOCHS = 12


@dataclass
class CellResult:
    """Everything the merge layer needs from one executed cell.

    Wall-clock ``duration_seconds`` is recorded for ``status`` output
    and benchmarking but deliberately **excluded** from the
    consolidated report, which must be bit-identical across executors
    and runs.
    """

    cell: SweepCell
    derived_seed: int
    kind: str  # "scenario" | "chaos"
    ok: bool
    violations: Tuple[str, ...]
    epochs_run: int
    coverage_mean: float
    coverage_min: float
    push_bytes: int
    full_equivalent_bytes: int
    messages_sent: int
    bytes_sent: int
    #: Scenario verdicts (empty for chaos cells).
    detection_epoch: Dict[str, int]
    redistribution_epoch: Dict[str, int]
    #: Chaos verdicts (``None`` for scenario cells).
    first_degraded_epoch: Optional[int]
    reconverged_epoch: Optional[int]
    #: Full per-cell telemetry snapshot (repro.obs format).
    metrics: dict
    duration_seconds: float

    def to_dict(self) -> dict:
        """JSON-compatible dict (the cache artifact payload)."""
        return {
            "cell": self.cell.to_dict(),
            "derived_seed": self.derived_seed,
            "kind": self.kind,
            "ok": self.ok,
            "violations": list(self.violations),
            "epochs_run": self.epochs_run,
            "coverage_mean": self.coverage_mean,
            "coverage_min": self.coverage_min,
            "push_bytes": self.push_bytes,
            "full_equivalent_bytes": self.full_equivalent_bytes,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "detection_epoch": dict(self.detection_epoch),
            "redistribution_epoch": dict(self.redistribution_epoch),
            "first_degraded_epoch": self.first_degraded_epoch,
            "reconverged_epoch": self.reconverged_epoch,
            "metrics": self.metrics,
            "duration_seconds": self.duration_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            cell=SweepCell.from_dict(data["cell"]),
            derived_seed=data["derived_seed"],
            kind=data["kind"],
            ok=data["ok"],
            violations=tuple(data.get("violations", ())),
            epochs_run=data["epochs_run"],
            coverage_mean=data["coverage_mean"],
            coverage_min=data["coverage_min"],
            push_bytes=data["push_bytes"],
            full_equivalent_bytes=data["full_equivalent_bytes"],
            messages_sent=data["messages_sent"],
            bytes_sent=data["bytes_sent"],
            detection_epoch=dict(data.get("detection_epoch", {})),
            redistribution_epoch=dict(data.get("redistribution_epoch", {})),
            first_degraded_epoch=data.get("first_degraded_epoch"),
            reconverged_epoch=data.get("reconverged_epoch"),
            metrics=data.get("metrics", {}),
            duration_seconds=data.get("duration_seconds", 0.0),
        )


def scenario_schedule(cell: SweepCell, node_names: Tuple[str, ...]) -> dict:
    """The scripted schedule for a ``plan == "none"`` cell, as
    :func:`~repro.control.scenarios.standard_scenario` arguments.

    The canonical 16-epoch shift@5 / fail@8 / recover@12 schedule,
    scaled proportionally to the cell's epoch count; the failed node
    and the shift profile come deterministically from the derived
    seed, so different seeds genuinely exercise different failure
    positions.  Cells shorter than :data:`MIN_EVENT_EPOCHS` epochs run
    steady-state (no schedule) — there is no room to judge recovery.
    """
    if cell.epochs < MIN_EVENT_EPOCHS:
        return {}
    shift_epoch = max(2, round(cell.epochs * 5 / 16))
    fail_epoch = max(shift_epoch + 2, round(cell.epochs * 8 / 16))
    recover_epoch = max(fail_epoch + 3, round(cell.epochs * 12 / 16))
    if recover_epoch >= cell.epochs - 1:
        return {}
    ordered = tuple(sorted(node_names))
    fail_node = ordered[cell.derived_seed % len(ordered)]
    base_profile = DYNAMICS_PRESETS[cell.dynamics]["profile"]
    shift_profile = "web_heavy" if base_profile != "web_heavy" else "mixed"
    return dict(
        shift_epoch=shift_epoch,
        fail_epoch=fail_epoch,
        recover_epoch=recover_epoch,
        fail_node=fail_node,
        shift_profile=shift_profile,
    )


def build_cell_config(cell: SweepCell) -> ScenarioConfig:
    """The cell's run config: the scripted schedule on the scripted run
    shape for ``plan == "none"``, the named or random fault plan
    otherwise; the cell's topology, size, seed, redundancy and dynamics
    preset either way."""
    preset = DYNAMICS_PRESETS[cell.dynamics]
    derived = cell.derived_seed
    node_names = tuple(by_label(cell.topology).node_names)
    common = dict(
        topology=cell.topology,
        epochs=cell.epochs,
        base_sessions=cell.base_sessions,
        profile=str(preset["profile"]),
        seed=derived,
        diurnal_amplitude=float(preset["diurnal_amplitude"]),
        burst_probability=float(preset["burst_probability"]),
        coverage=cell.redundancy,
    )
    if cell.plan != "none":
        plan = build_plan(cell.plan, derived, cell.epochs, node_names)
        return ScenarioConfig(plan=plan, **common)
    schedule = scenario_schedule(cell, node_names)
    if not schedule:
        return ScenarioConfig(**{**SCRIPTED, **common})
    return standard_scenario(**schedule, **common)


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell in-process and grade it.

    Every cell gets a fresh :class:`~repro.obs.MetricsRegistry`; the
    snapshot ships in the result so the parent can merge telemetry
    across workers deterministically.
    """
    started = time.perf_counter()
    registry = MetricsRegistry()
    config = build_cell_config(cell)
    # Each scorer's own verdicts; the other kind's stay empty.
    verdicts = {
        "detection_epoch": {},
        "redistribution_epoch": {},
        "first_degraded_epoch": None,
        "reconverged_epoch": None,
    }
    if cell.plan == "none":
        kind = "scenario"
        result = run_scenario(config, registry=registry)
        records = result.records
        verdicts["detection_epoch"] = dict(result.detection_epoch)
        verdicts["redistribution_epoch"] = dict(result.redistribution_epoch)
    else:
        kind = "chaos"
        result = run_chaos(config, registry=registry)
        records = [chaos_record.record for chaos_record in result.records]
        verdicts["first_degraded_epoch"] = result.first_degraded_epoch
        verdicts["reconverged_epoch"] = result.reconverged_epoch
    violations = tuple(result.check_acceptance())
    coverages = [record.coverage for record in records]
    return CellResult(
        cell=cell,
        derived_seed=cell.derived_seed,
        kind=kind,
        ok=not violations,
        violations=violations,
        epochs_run=len(records),
        coverage_mean=left_sum(coverages) / len(coverages) if coverages else 1.0,
        coverage_min=min(coverages, default=1.0),
        push_bytes=result.controller_stats.push_bytes,
        full_equivalent_bytes=result.controller_stats.full_equivalent_bytes,
        messages_sent=result.bus_stats.sent,
        bytes_sent=result.bus_stats.bytes_sent,
        metrics=registry.snapshot(),
        duration_seconds=time.perf_counter() - started,
        **verdicts,
    )


def run_cell_payload(payload: dict) -> dict:
    """Process-pool entry point: dict in, dict out.

    Dict transport (rather than pickled result objects) keeps the
    worker boundary identical to the artifact-cache format, so a
    cached cell and a freshly executed one are indistinguishable to
    the merge layer.
    """
    return run_cell(SweepCell.from_dict(payload)).to_dict()
