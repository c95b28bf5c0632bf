"""Per-session reference implementation of the engine's cost model.

This is the scalar loop that used to live in the product as
``BroInstance._process_scalar``, re-homed verbatim as the tests'
oracle: one Python iteration per session, one ``if`` per charge, no
NumPy in the accounting.  It is built only on public surfaces —
``CoordinatedDispatcher.should_analyze``, ``NodeManifest.responsible``,
``ModuleSpec.session_cpu`` / ``policy_events`` / ``item_key``,
``PartialInstanceReport`` and ``ExactSum`` — so it shares no code with
``BroInstance._process_batch`` beyond the report types and enums, and
parity tests compare the two with ``==`` (CPU as floats, not approx).

:class:`ScalarOracle` mirrors the ``BroInstance`` constructor and its
``process_sessions`` / ``process_sessions_partial`` /
``finalize_partial`` trio so a test can build both from the same
arguments.  :func:`assert_batch_decisions_match_reference` is the
dispatch half: ``batch_decisions`` masks against the per-session
Fig. 3 API, element by element.
"""

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.dispatch import CoordinatedDispatcher
from repro.core.units import unit_key_for_session
from repro.nids.engine import (
    BroMode,
    EmulationConfig,
    InstanceReport,
    PartialInstanceReport,
    TrackingLevel,
)
from repro.nids.modules import make_detector
from repro.nids.modules.base import CheckLocation, ModuleSpec, Subscription
from repro.traffic import SessionBatch
from repro.traffic.session import Session


def assert_batch_decisions_match_reference(
    dispatcher: CoordinatedDispatcher, trace: Sequence[Session]
) -> None:
    """The masks the engine consumes, element by element: match is the
    traffic filter, analyze is ``should_analyze``, responsible is
    ``NodeManifest.responsible`` on the session's unit."""
    decisions = dispatcher.batch_decisions(SessionBatch(trace))
    assert [decision.spec for decision in decisions] == dispatcher.modules
    for decision in decisions:
        spec = decision.spec
        for index, session in enumerate(trace):
            assert bool(decision.match[index]) == spec.traffic_filter.matches_session(
                session
            )
            assert bool(decision.analyze[index]) == dispatcher.should_analyze(
                spec, session
            )
            unit = unit_key_for_session(spec, session)
            assert bool(
                decision.responsible[index]
            ) == dispatcher.manifest.responsible(spec.name, unit)


class ScalarOracle:
    """One simulated Bro process, evaluated one session at a time."""

    def __init__(
        self,
        node: str,
        modules: Sequence[ModuleSpec],
        mode: BroMode,
        dispatcher: Optional[CoordinatedDispatcher] = None,
        *,
        config: Optional[EmulationConfig] = None,
    ):
        if mode is not BroMode.UNMODIFIED and dispatcher is None:
            raise ValueError("coordinated modes require a dispatcher")
        config = config if config is not None else EmulationConfig()
        self.node = node
        self.modules = list(modules)
        self.mode = mode
        self.dispatcher = dispatcher
        self.cost = config.cost_model
        self.fine_grained = config.fine_grained
        self.detectors = (
            {spec.name: make_detector(spec) for spec in self.modules}
            if config.run_detectors
            else {}
        )

    # -- per-session decisions ---------------------------------------------
    def _responsible(self, spec: ModuleSpec, session: Session) -> bool:
        """Whether this node holds any range for the session's unit."""
        assert self.dispatcher is not None
        unit = unit_key_for_session(spec, session)
        return self.dispatcher.manifest.responsible(spec.name, unit)

    def _required_level(self, spec: ModuleSpec) -> TrackingLevel:
        """Tracking level *spec* forces when it needs this session."""
        if self.fine_grained and spec.subscription is Subscription.FIRST_PACKET:
            return TrackingLevel.LIGHT
        return TrackingLevel.FULL

    def _tracking_level(
        self, session: Session, sampled_specs: List[ModuleSpec]
    ) -> TrackingLevel:
        """How much connection state *session* forces at this node.

        Unmodified Bro and approach 1 fully track every connection
        (the sampling decision comes too late to skip state).
        Approach 2 creates state only when (a) some module sampled the
        session, or (b) a policy-stage module on this node needs the
        session's connection events: raw-stream consumers (scan, TFTP)
        need events for *every* connection in their unit, other policy
        modules (Blaster, SYN-flood) only for matched sessions.  With
        the §2.5 fine-grained extension, first-packet subscribers force
        only a LIGHT record.
        """
        if self.mode is not BroMode.COORD_EVENT:
            return TrackingLevel.FULL
        assert self.dispatcher is not None
        if self.dispatcher.manifest.full:
            # Standalone configuration: the manifest assigns all
            # traffic to this node, so nothing falls outside it.
            return TrackingLevel.FULL
        level = TrackingLevel.NONE
        for spec in sampled_specs:
            required = self._required_level(spec)
            if required.value > level.value:
                level = required
            if level is TrackingLevel.FULL:
                return level
        for spec in self.modules:
            if spec.check_location is not CheckLocation.POLICY_ONLY:
                continue
            if not self._responsible(spec, session):
                continue
            if spec.raw_event_stream or spec.traffic_filter.matches_session(session):
                required = self._required_level(spec)
                if required.value > level.value:
                    level = required
                if level is TrackingLevel.FULL:
                    return level
        return level

    def _check_costs(self, session: Session, tracked: bool) -> float:
        """CPU cost of the coordination checks for one connection.

        Event-engine checks are charged per connection per configured
        module; policy-engine checks per event delivered to the policy
        script (raw-stream consumers receive one event per tracked
        connection; protocol modules one per derived protocol event).
        """
        cost = self.cost
        total = 0.0
        for spec in self.modules:
            if not self._responsible(spec, session):
                continue
            location = spec.check_location
            if location is CheckLocation.POLICY_ONLY:
                if not tracked:
                    continue
                if spec.raw_event_stream:
                    total += cost.policy_check_cost * spec.raw_events_per_conn
                elif spec.traffic_filter.matches_session(session):
                    total += cost.policy_check_cost * spec.policy_events(session)
            elif location is CheckLocation.EVENT_ONLY:
                if spec.traffic_filter.matches_session(session):
                    total += cost.event_check_cost
            else:  # EVENT_CAPABLE: placement depends on the approach
                if self.mode is BroMode.COORD_EVENT:
                    if spec.traffic_filter.matches_session(session):
                        total += cost.event_check_cost
                elif tracked and spec.traffic_filter.matches_session(session):
                    total += cost.policy_check_cost * spec.policy_events(session)
        return total

    # -- main loop -----------------------------------------------------------
    def process_sessions(self, sessions) -> InstanceReport:
        """Run the oracle over a node trace and account its resources."""
        return self.finalize_partial(self.process_sessions_partial(sessions))

    def finalize_partial(self, partial: PartialInstanceReport) -> InstanceReport:
        """Render a partial plus detector output."""
        report = partial.finalize(self.modules, self.cost)
        for detector in self.detectors.values():
            report.alerts.extend(detector.alerts)
        return report

    def process_sessions_partial(self, sessions) -> PartialInstanceReport:
        """Reference per-session loop producing an exact partial."""
        cost = self.cost
        coordinated = self.mode is not BroMode.UNMODIFIED
        partial = PartialInstanceReport.empty(
            self.node, self.mode, (spec.name for spec in self.modules)
        )
        item_sets: Dict[str, Set[int]] = {spec.name: set() for spec in self.modules}
        light_charge = cost.light_conn_cost + cost.hash_compute_cost

        tracked_connections = 0
        light_connections = 0
        for session in sessions:
            pkts = session.num_packets
            # Canonical per-session subtotal.  The engine reproduces
            # this exact operation order elementwise, so both fold
            # identical doubles into the exact accumulator.
            subtotal = cost.capture_cost * pkts

            if coordinated:
                assert self.dispatcher is not None
                sampled_specs = [
                    spec
                    for spec in self.modules
                    if self.dispatcher.should_analyze(spec, session)
                ]
            else:
                sampled_specs = [
                    spec
                    for spec in self.modules
                    if spec.traffic_filter.matches_session(session)
                ]

            level = self._tracking_level(session, sampled_specs)
            tracked = level is not TrackingLevel.NONE
            if level is TrackingLevel.FULL:
                tracked_connections += 1
                subtotal += cost.base_conn_packet_cost * pkts
                if coordinated:
                    subtotal += cost.hash_compute_cost
            elif level is TrackingLevel.LIGHT:
                light_connections += 1
                subtotal += light_charge

            if coordinated:
                subtotal += self._check_costs(session, tracked)

            for spec in sampled_specs:
                work = spec.session_cpu(session)
                subtotal += work
                partial.module_cpu[spec.name].add(work)
                item_sets[spec.name].add(spec.item_key(session))
                partial.module_sessions[spec.name] += 1
                detector = self.detectors.get(spec.name)
                if detector is not None:
                    detector.on_session(session)

            partial.cpu.add(subtotal)

        partial.num_sessions = len(sessions)
        partial.tracked_connections = tracked_connections
        partial.light_connections = light_connections
        for name, keys in item_sets.items():
            partial.module_item_keys[name] = np.array(sorted(keys), dtype=np.int64)
        return partial
