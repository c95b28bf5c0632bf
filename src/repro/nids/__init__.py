"""Bro-architecture NIDS simulator substrate.

Engine and emulation symbols are loaded lazily (PEP 562): they depend
on :mod:`repro.core`, which itself depends on the module specs defined
here, and the lazy indirection keeps the import graph acyclic.
"""

from .modules import (
    Alert,
    CheckLocation,
    Detector,
    ModuleSpec,
    STANDARD_MODULES,
    Scope,
    TrafficFilter,
    make_detector,
    module_by_name,
    module_set,
)
from .resources import CostModel, DEFAULT_COST_MODEL, ResourceUsage

_LAZY_EXPORTS = {
    "BroInstance": ("repro.nids.engine", "BroInstance"),
    "BroMode": ("repro.nids.engine", "BroMode"),
    "EmulationConfig": ("repro.nids.engine", "EmulationConfig"),
    "ExecutionMode": ("repro.nids.engine", "ExecutionMode"),
    "ExecutionPolicy": ("repro.nids.engine", "ExecutionPolicy"),
    "InstanceReport": ("repro.nids.engine", "InstanceReport"),
    "PartialInstanceReport": ("repro.nids.engine", "PartialInstanceReport"),
    "ComparisonRow": ("repro.nids.emulation", "ComparisonRow"),
    "DeploymentUsage": ("repro.nids.emulation", "DeploymentUsage"),
    "Traffic": ("repro.nids.emulation", "Traffic"),
    "run_emulation": ("repro.nids.emulation", "run_emulation"),
    "compare_deployments": ("repro.nids.emulation", "compare_deployments"),
    "run_microbenchmark": ("repro.nids.microbench", "run_microbenchmark"),
    "format_microbench_table": ("repro.nids.microbench", "format_microbench_table"),
    "MicrobenchRow": ("repro.nids.microbench", "MicrobenchRow"),
    "EventEngine": ("repro.nids.events", "EventEngine"),
    "Event": ("repro.nids.events", "Event"),
    "EventType": ("repro.nids.events", "EventType"),
    "ConnectionRecord": ("repro.nids.record", "ConnectionRecord"),
    "ConnState": ("repro.nids.record", "ConnState"),
    "TrackingLevel": ("repro.nids.engine", "TrackingLevel"),
    "ClusterReport": ("repro.nids.cluster", "ClusterReport"),
    "emulate_cluster": ("repro.nids.cluster", "emulate_cluster"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "Alert",
    "ClusterReport",
    "emulate_cluster",
    "ConnState",
    "ConnectionRecord",
    "Event",
    "EventEngine",
    "EventType",
    "TrackingLevel",
    "BroInstance",
    "BroMode",
    "CheckLocation",
    "ComparisonRow",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DeploymentUsage",
    "Detector",
    "EmulationConfig",
    "ExecutionMode",
    "ExecutionPolicy",
    "InstanceReport",
    "PartialInstanceReport",
    "Traffic",
    "MicrobenchRow",
    "ModuleSpec",
    "ResourceUsage",
    "STANDARD_MODULES",
    "Scope",
    "TrafficFilter",
    "compare_deployments",
    "format_microbench_table",
    "make_detector",
    "module_by_name",
    "module_set",
    "run_emulation",
    "run_microbenchmark",
]
