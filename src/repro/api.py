"""Stable public API for the network-wide NIDS/NIPS reproduction.

``repro.api`` is the supported surface for programmatic users: one
flat namespace re-exporting the entry points that code outside
``src/`` — the README, ``docs/`` and the tests — reads through it.  A
name joins the facade when something reads it here and leaves when
nothing does; internal module paths may move without notice.

The facade groups into five areas:

* **planning** — :func:`plan_deployment` (the measure → LP → manifests
  pipeline) and :func:`quick_nids_deployment`;
* **emulation** — :func:`run_emulation` over a :class:`Traffic`
  (edge-only when handed module specs, coordinated when handed a
  deployment), configured by :class:`EmulationConfig` with an
  :class:`ExecutionPolicy` (inline | streamed);
* **coordination plane** — :func:`run_scenario` over a
  :class:`ScenarioConfig`;
* **telemetry** — :class:`MetricsRegistry` and :func:`use_registry`
  (see ``docs/observability.md``);
* **reporting** — :class:`Report` and :class:`MetricsSnapshotReport`,
  the interface shared by the figure artifacts and metrics snapshots.

Quickstart::

    from repro import api

    deployment = api.quick_nids_deployment()
    registry = api.MetricsRegistry()
    profile = api.run_emulation(
        api.Traffic.materialized(generator, sessions),
        deployment,
        registry=registry,
    )
    api.MetricsSnapshotReport(registry).write(sys.stdout, fmt="json")
"""

from __future__ import annotations

# -- planning --------------------------------------------------------------
from . import quick_nids_deployment
from .core import plan_deployment

# -- emulation -------------------------------------------------------------
from .nids import EmulationConfig, ExecutionPolicy, Traffic, run_emulation

# -- coordination plane ----------------------------------------------------
from .control import ScenarioConfig, run_scenario

# -- telemetry -------------------------------------------------------------
from .obs import MetricsRegistry, use_registry

# -- reporting -------------------------------------------------------------
from .reporting import MetricsSnapshotReport, Report

__all__ = [
    # planning
    "plan_deployment",
    "quick_nids_deployment",
    # emulation
    "EmulationConfig",
    "ExecutionPolicy",
    "Traffic",
    "run_emulation",
    # coordination plane
    "ScenarioConfig",
    "run_scenario",
    # telemetry
    "MetricsRegistry",
    "use_registry",
    # reporting
    "MetricsSnapshotReport",
    "Report",
]
