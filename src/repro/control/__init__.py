"""Coordination plane: controller–agent runtime (paper §2.2, §5).

The offline pipeline (measure → estimate → LP → manifests) answers
*what* each node should sample; this package makes that loop run
continuously: an operations-center :class:`Controller` on an epoch
clock, per-node :class:`Agent` endpoints, a lossy simulated
:class:`Bus` between them, epoch-versioned delta distribution,
heartbeat-driven failure detection with targeted redistribution,
controller HA (every :class:`Controller` is one term-fenced controller
process with deterministic election and split-brain-proof epoch-log
handoff; :class:`HACluster` is the set of them, a lone controller a
cluster of one), and one control run (:mod:`repro.control.plane`: a
:class:`ScenarioConfig` whose :class:`FaultPlan` says what happens to the
plane) scored two ways: scripted end-to-end scenarios, and a seeded
chaos harness (:mod:`repro.control.chaos`) that injects adversarial
fault plans and asserts the graceful-degradation invariants per epoch.
"""

from .agent import Agent, AgentConfig, AgentStats
from .bus import Bus, BusConfig, BusStats, Message
from .chaos import (
    ChaosEpochRecord,
    ChaosResult,
    InvariantMonitor,
    InvariantViolation,
    NAMED_PLANS,
    build_plan,
    random_fault_plan,
    run_chaos,
)
from .controller import (
    Controller,
    ControllerConfig,
    ControllerStats,
    HAConfig,
    PushState,
)
from .ha import HACluster
from .replication import ReplicatedLog, replica_name
from .protocol import MessageSpec, PROTOCOL, PROTOCOL_KINDS
from .epochs import (
    CoverageSummary,
    EpochLogEntry,
    EpochRecord,
    coverage_metrics,
    merge_reports,
    stabilize_manifests,
)
from .failure import (
    HeartbeatMonitor,
    RepairResult,
    repair_manifests,
)
from .plane import (
    PROFILES,
    ChaosBus,
    FaultEvent,
    FaultPlan,
    ScenarioConfig,
)
from .scenarios import (
    COVERAGE_FLOOR,
    REDISTRIBUTION_DEADLINE_EPOCHS,
    ScenarioResult,
    run_scenario,
    standard_scenario,
)

__all__ = [
    "Agent",
    "AgentConfig",
    "AgentStats",
    "Bus",
    "BusConfig",
    "BusStats",
    "COVERAGE_FLOOR",
    "ChaosBus",
    "ChaosEpochRecord",
    "ChaosResult",
    "Controller",
    "ControllerConfig",
    "ControllerStats",
    "CoverageSummary",
    "EpochLogEntry",
    "EpochRecord",
    "FaultEvent",
    "FaultPlan",
    "HACluster",
    "HAConfig",
    "HeartbeatMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "Message",
    "MessageSpec",
    "NAMED_PLANS",
    "PROFILES",
    "PROTOCOL",
    "PROTOCOL_KINDS",
    "PushState",
    "REDISTRIBUTION_DEADLINE_EPOCHS",
    "RepairResult",
    "ReplicatedLog",
    "ScenarioConfig",
    "ScenarioResult",
    "build_plan",
    "coverage_metrics",
    "merge_reports",
    "random_fault_plan",
    "repair_manifests",
    "replica_name",
    "run_chaos",
    "run_scenario",
    "stabilize_manifests",
    "standard_scenario",
]
