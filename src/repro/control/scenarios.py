"""Scripted end-to-end coordination-plane scenarios.

The canonical schedule — steady traffic, a traffic shift, a NIDS
process crash, its recovery — is a
:class:`~repro.control.plane.FaultPlan` (:func:`standard_scenario`): a
cold ``crash`` over ``[fail, recover)`` and a ``shift`` carrying the
new profile.  It runs on the same loop as every other plan
(:func:`~repro.control.plane.run_plan`); :func:`run_scenario` scores
it against the paper's operational requirements: the live network
stays covered, a failed node's responsibilities move to on-path
survivors within a bounded number of epochs, and steady-state
configuration pushes cost delta-sized, not full-manifest-sized, bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.manifest_table import left_sum
from ..hashing.ranges import HashRange
from ..obs import MetricsRegistry
from ..traffic.batch import SessionBatch
from .bus import BusStats
from .controller import ControllerStats
from .epochs import EpochRecord, Ident, ranges_reassigned
from .plane import (
    ControlPlane,
    EpochFacts,
    FaultEvent,
    FaultPlan,
    ScenarioConfig,
    profile_pools,
    run_plan,
)

#: Acceptance threshold: volume-weighted coverage required of every
#: epoch that is not part of a transition window.
COVERAGE_FLOOR = 0.99
#: Acceptance threshold: epochs allowed between failure detection and
#: full reassignment of the failed node's hash ranges.
REDISTRIBUTION_DEADLINE_EPOCHS = 2

#: The scripted schedule's run shape, where it differs from a
#: :class:`~repro.control.plane.ScenarioConfig`'s defaults: a long
#: steady run on a gentle diurnal swing without bursts, re-planned
#: every fourth epoch.
SCRIPTED = dict(
    epochs=16,
    base_sessions=900,
    resolve_every=4,
    diurnal_amplitude=0.08,
    burst_probability=0.0,
)


def standard_scenario(
    shift_epoch: int = 5,
    fail_epoch: int = 8,
    recover_epoch: int = 12,
    fail_node: str = "NYCM",
    shift_profile: str = "web_heavy",
    **overrides,
) -> ScenarioConfig:
    """The canonical steady → shift → failure → recovery schedule:
    traffic shifts to *shift_profile* for good at *shift_epoch*, and
    *fail_node*'s NIDS process is down (cold) over
    ``[fail_epoch, recover_epoch)``."""
    events = (
        FaultEvent("shift", float(shift_epoch), math.inf, profile=shift_profile),
        FaultEvent("crash", float(fail_epoch), float(recover_epoch), node=fail_node),
    )
    return ScenarioConfig(
        plan=FaultPlan(name="scripted", events=events), **{**SCRIPTED, **overrides}
    )


@dataclass
class ScenarioResult:
    """Everything observed across one scripted run."""

    config: ScenarioConfig
    records: List[EpochRecord]
    #: Epoch at which the controller first marked each node failed.
    detection_epoch: Dict[str, int] = field(default_factory=dict)
    #: Epoch at which the failed node's (repairable) hash ranges were
    #: all observed re-applied on live survivors.
    redistribution_epoch: Dict[str, int] = field(default_factory=dict)
    #: Epoch at which a recovered node was converged back in.
    reintegration_epoch: Dict[str, int] = field(default_factory=dict)
    bus_stats: Optional[BusStats] = None
    controller_stats: Optional[ControllerStats] = None
    #: Hash-space mass that could not be reassigned (no live eligible
    #: node), per failed node — the paper's singleton-unit caveat.
    orphaned_mass: Dict[str, float] = field(default_factory=dict)

    def check_acceptance(self) -> List[str]:
        """Violations of the scenario acceptance criteria (empty = pass)."""
        violations: List[str] = []
        for record in self.records:
            if record.in_transition:
                continue
            if record.coverage < COVERAGE_FLOOR:
                violations.append(
                    f"epoch {record.epoch}: coverage {record.coverage:.4f}"
                    f" < {COVERAGE_FLOOR} outside a transition window"
                )
        for node, detected in self.detection_epoch.items():
            redistributed = self.redistribution_epoch.get(node)
            if redistributed is None:
                violations.append(
                    f"{node}: ranges never fully redistributed after the"
                    f" failure was detected at epoch {detected}"
                )
            elif redistributed - detected > REDISTRIBUTION_DEADLINE_EPOCHS:
                violations.append(
                    f"{node}: redistribution took"
                    f" {redistributed - detected} epochs (detected"
                    f" {detected}, redistributed {redistributed};"
                    f" deadline {REDISTRIBUTION_DEADLINE_EPOCHS})"
                )
        if self.config.plan.crash_events() and not self.detection_epoch:
            violations.append("injected failure was never detected")
        # Delta efficiency: on reconfiguration epochs where the majority
        # of manifest entries carried over, the bytes actually pushed
        # must undercut full-manifest distribution.  Bootstrap and
        # recovery epochs are excluded: a cold agent requires a full
        # manifest by protocol, so there is nothing for a delta to win.
        qualifying = [
            r
            for r in self.records
            if r.resolved in ("drift", "periodic", "failure")
            and r.unchanged_entry_fraction >= 0.5
            and r.push_bytes > 0
        ]
        for record in qualifying:
            if record.push_bytes >= record.full_equivalent_bytes:
                violations.append(
                    f"epoch {record.epoch} ({record.resolved}): pushed"
                    f" {record.push_bytes} B >= full-manifest"
                    f" {record.full_equivalent_bytes} B despite"
                    f" {record.unchanged_entry_fraction:.0%} unchanged entries"
                )
        if not qualifying:
            violations.append(
                "no unchanged-majority reconfiguration epoch exercised"
                " delta distribution"
            )
        return violations

    @property
    def ok(self) -> bool:
        return not self.check_acceptance()


def session_pools(
    config: ScenarioConfig,
    topology,
    paths,
    pool_size: int,
) -> Dict[str, SessionBatch]:
    """One session pool per profile the scenario can be in (see
    :func:`~repro.control.plane.profile_pools`)."""
    return profile_pools(
        config.profiles, config.seed, topology, paths, pool_size
    )


def run_scenario(
    config: ScenarioConfig,
    registry: Optional[MetricsRegistry] = None,
) -> ScenarioResult:
    """Execute *config* and collect per-epoch records + verdicts
    (*registry*: see :func:`~repro.control.plane.run_plan`)."""
    result = ScenarioResult(config=config, records=[])
    #: Pre-crash manifest entries per failed node, awaiting reassignment.
    pending_redistribution: Dict[str, Dict[Ident, Tuple[HashRange, ...]]] = {}
    pending_recovery: Set[str] = set()

    def score(plane: ControlPlane, facts: EpochFacts) -> None:
        agents = plane.agents
        record, controller = facts.record, facts.authority
        epoch = record.epoch
        for node in facts.crashed:
            # A dead agent keeps the manifest it crashed with.
            pending_redistribution[node] = dict(agents[node].manifest.entries)
        pending_recovery.update(facts.restarted)

        # A transition window is any epoch where the configuration is
        # still propagating (push unacked) or a crashed node's ranges
        # have not yet been repaired away (including the detection gap
        # between the crash and the heartbeat timeout).
        record.in_transition = (
            not record.converged or facts.failure_unrepaired
        )

        for node in list(pending_redistribution):
            if node in record.failed_nodes:
                result.detection_epoch.setdefault(node, epoch)
            if node not in result.detection_epoch:
                continue  # controller has not noticed yet
            repair = controller.last_repair
            skip: Set[Ident] = set()
            if repair is not None:
                skip = {ident for ident, _mass in repair.orphaned}
                result.orphaned_mass[node] = left_sum(
                    [mass for _ident, mass in repair.orphaned]
                )
            survivors = {
                name: agent.manifest
                for name, agent in agents.items()
                if name != node and agent.alive
            }
            if ranges_reassigned(
                pending_redistribution[node], survivors, skip
            ):
                result.redistribution_epoch[node] = epoch
                del pending_redistribution[node]

        for node in sorted(pending_recovery):
            if (
                agents[node].alive
                and node not in controller.monitor.failed
                and node not in controller.unsynced_live_nodes()
            ):
                result.reintegration_epoch[node] = epoch
                pending_recovery.discard(node)

        result.records.append(record)

    plane = run_plan(config, registry, score)
    result.bus_stats = plane.bus.stats
    result.controller_stats = plane.cluster.authority.stats
    return result
