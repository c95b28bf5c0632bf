"""Coordination-plane tests: bus, agents, controller, scenarios.

The §5 dynamics discussion promises an operations center that
"periodically configures the NIDS responsibilities of the different
nodes" from NetFlow-style reports.  These tests exercise the runtime
that keeps that promise under realistic distribution conditions:
message latency/loss/reordering, epoch-versioned delta pushes,
heartbeat-driven failure detection, targeted redistribution, and
recovery/reintegration.
"""

import pathlib
import re

import pytest

import repro.control
from repro.control.agent import Agent, AgentConfig
from repro.control.bus import Bus, BusConfig
from repro.control.controller import Controller, ControllerConfig
from repro.control.epochs import (
    merge_reports,
    stabilize_manifests,
)
from repro.control.failure import HeartbeatMonitor
from repro.control.plane import FaultEvent, FaultPlan
from repro.control.scenarios import (
    SCRIPTED,
    ScenarioConfig,
    run_scenario,
    standard_scenario,
)
from repro.core.manifest import NodeManifest
from repro.core.manifest_io import manifest_diff, manifest_to_dict
from repro.hashing.ranges import HashRange, union_length
from repro.measurement.flows import TrafficReport
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, by_label


class TestBus:
    def test_delivers_after_latency(self):
        bus = Bus(BusConfig(latency=0.5))
        bus.send("a", "b", "k", {"x": 1}, 10, now=0.0)
        assert bus.deliver("b", 0.4) == []
        [message] = bus.deliver("b", 0.6)
        assert message.payload == {"x": 1}
        assert bus.deliver("b", 0.7) == []  # consumed

    def test_deliver_filters_by_destination(self):
        bus = Bus(BusConfig(latency=0.0))
        bus.send("a", "b", "k", 1, 1, now=0.0)
        bus.send("a", "c", "k", 2, 1, now=0.0)
        assert [m.payload for m in bus.deliver("b", 1.0)] == [1]
        assert bus.pending() == 1

    def test_loss_still_counts_sent_bytes(self):
        bus = Bus(BusConfig(latency=0.0, loss_rate=0.6, seed=5))
        for i in range(200):
            bus.send("a", "b", "k", i, 7, now=0.0)
        assert bus.stats.sent == 200
        assert bus.stats.bytes_sent == 1400
        assert 0 < bus.stats.dropped < 200
        delivered = bus.deliver("b", 1.0)
        assert len(delivered) == 200 - bus.stats.dropped

    def test_jitter_reorders(self):
        bus = Bus(BusConfig(latency=0.1, jitter=0.5, seed=2))
        for i in range(30):
            bus.send("a", "b", "k", i, 1, now=float(i) * 0.01)
        order = [m.payload for m in bus.deliver("b", 10.0)]
        assert sorted(order) == list(range(30))
        assert order != list(range(30))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BusConfig(latency=-1.0)
        with pytest.raises(ValueError):
            BusConfig(loss_rate=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_latency_must_be_finite(self, value):
        # A NaN latency makes every deliver_at NaN: nothing would arrive.
        with pytest.raises(ValueError, match="latency must be finite"):
            BusConfig(latency=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_jitter_must_be_finite(self, value):
        # ``nan > 0`` is false, so a NaN jitter would silently be 0.
        with pytest.raises(ValueError, match="jitter must be finite"):
            BusConfig(jitter=value)


class TestHeartbeatMonitor:
    def test_sweep_marks_silent_nodes(self):
        monitor = HeartbeatMonitor(["a", "b"], timeout=2.0, now=0.0)
        monitor.beat("a", 1.0)
        assert monitor.sweep(2.5) == ["b"]
        assert not monitor.alive("b")
        assert monitor.alive("a")

    def test_beat_recovers(self):
        monitor = HeartbeatMonitor(["a"], timeout=1.0, now=0.0)
        monitor.sweep(5.0)
        assert not monitor.alive("a")
        assert monitor.beat("a", 6.0) is True
        assert monitor.alive("a")
        assert monitor.beat("a", 7.0) is False  # already live

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(["a"], timeout=0.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), None])
    def test_rejects_a_timeout_that_is_not_finite(self, timeout):
        with pytest.raises(ValueError):
            HeartbeatMonitor(["a"], timeout=timeout)


def _manifest(node, lo, hi):
    return NodeManifest(
        node=node, entries={("c", ("k",)): (HashRange(lo, hi),)}
    )


def _full_push(version, manifest):
    return {
        "version": version,
        "mode": "full",
        "base": None,
        "data": manifest_to_dict(manifest),
    }


def _delta_push(version, base_version, old, new):
    return {
        "version": version,
        "mode": "delta",
        "base": base_version,
        "data": manifest_diff(old, new),
    }


class TestAgent:
    def _agent(self):
        bus = Bus(BusConfig(latency=0.0))
        return Agent("n1", bus, config=AgentConfig(transition_window=2.0)), bus

    def _acks(self, bus):
        return [m.payload for m in bus.deliver("controller", 100.0)
                if m.kind == "ack"]

    def test_applies_full_then_delta(self):
        agent, bus = self._agent()
        m0, m1 = _manifest("n1", 0.0, 0.5), _manifest("n1", 0.0, 0.7)
        bus.send("controller", "n1", "manifest-update", _full_push(0, m0), 1, 0.0)
        agent.step(0.1)
        assert agent.applied_version == 0
        bus.send(
            "controller", "n1", "manifest-update", _delta_push(1, 0, m0, m1), 1, 1.0
        )
        agent.step(1.1)
        assert agent.applied_version == 1
        assert agent.manifest.entries == m1.entries
        statuses = [a["status"] for a in self._acks(bus)]
        assert statuses == ["applied", "applied"]

    def test_duplicate_update_reacked_not_reapplied(self):
        agent, bus = self._agent()
        m0 = _manifest("n1", 0.0, 0.5)
        for t in (0.0, 1.0):
            bus.send(
                "controller", "n1", "manifest-update", _full_push(0, m0), 1, t
            )
            agent.step(t + 0.1)
        assert agent.stats.updates_applied == 1
        assert agent.stats.duplicates_ignored == 1
        assert [a["status"] for a in self._acks(bus)] == ["applied", "duplicate"]

    def test_delta_against_unknown_base_requests_resync(self):
        agent, bus = self._agent()
        m0, m1 = _manifest("n1", 0.0, 0.5), _manifest("n1", 0.0, 0.7)
        # Version-1 delta arrives but version 0 (its base) was lost.
        bus.send(
            "controller", "n1", "manifest-update", _delta_push(1, 0, m0, m1), 1, 0.0
        )
        agent.step(0.1)
        assert agent.applied_version == -1
        [ack] = self._acks(bus)
        assert ack["status"] == "resync"

    def test_dual_manifest_transition_window(self):
        agent, bus = self._agent()
        old, new = _manifest("n1", 0.0, 0.5), _manifest("n1", 0.5, 1.0)
        bus.send("controller", "n1", "manifest-update", _full_push(0, old), 1, 0.0)
        agent.step(0.1)
        assert not agent.in_transition  # first manifest: nothing to retire
        bus.send("controller", "n1", "manifest-update", _full_push(1, new), 1, 1.0)
        agent.step(1.1)
        assert agent.in_transition
        # New connections follow the new manifest only.
        assert agent.responsible_for_new("c", ("k",), 0.75)
        assert not agent.responsible_for_new("c", ("k",), 0.25)
        # Existing connections are answered by old OR new (§5).
        assert agent.responsible_for_existing("c", ("k",), 0.25)
        assert agent.responsible_for_existing("c", ("k",), 0.75)
        agent.step(3.2)  # window (2.0) expired
        assert not agent.in_transition
        assert not agent.responsible_for_existing("c", ("k",), 0.25)

    def test_crash_discards_inbox_and_recovery_is_cold(self):
        agent, bus = self._agent()
        m0 = _manifest("n1", 0.0, 0.5)
        bus.send("controller", "n1", "manifest-update", _full_push(0, m0), 1, 0.0)
        agent.step(0.1)
        assert [a["status"] for a in self._acks(bus)] == ["applied"]
        agent.crash()
        bus.send(
            "controller",
            "n1",
            "manifest-update",
            _full_push(1, _manifest("n1", 0.0, 1.0)),
            1,
            1.0,
        )
        agent.step(1.1)  # dead: drains and discards, acks nothing
        assert self._acks(bus) == []
        assert not agent.responsible_for_new("c", ("k",), 0.25)
        agent.recover()
        assert agent.applied_version == -1
        assert agent.manifest.entries == {}


class TestMalformedPush:
    """A ``manifest-update`` that does not decode is refused whole: its
    term, leader, lease expiry and version commit nothing.  Seeded
    mutation, run on a copy: checking the push after ``_accept_term`` and
    ``_renew_lease`` instead of before fails
    ``test_refused_push_leaves_the_agent_unchanged``."""

    @staticmethod
    def _state(agent):
        return (
            agent.current_term,
            agent.leader,
            agent.lease_expires_at,
            agent.known_term,
            agent.known_version,
            agent.applied_version,
            agent.manifest.entries,
        )

    @staticmethod
    def _push(**changes):
        payload = {
            "version": 3,
            "term": 4,
            "lease_expires_at": 9.0,
            "mode": "full",
            "base": None,
            "data": manifest_to_dict(_manifest("n1", 0.0, 1.0)),
        }
        payload.update(changes)
        return {key: value for key, value in payload.items() if value is not ...}

    def _agent(self):
        bus = Bus(BusConfig(latency=0.0))
        agent = Agent("n1", bus, config=AgentConfig(transition_window=2.0))
        first = _full_push(0, _manifest("n1", 0.0, 0.5))
        bus.send("controller", "n1", "manifest-update", first, 1, 0.0)
        agent.step(0.1)
        return agent, bus

    @pytest.mark.parametrize(
        "changes",
        [
            {"mode": ...},
            {"mode": "sideways"},
            {"version": ...},
            {"version": "3"},
            {"version": True},
            {"data": ...},
            {"data": [["c", ["k"]]]},
        ],
        ids=repr,
    )
    def test_refused_push_leaves_the_agent_unchanged(self, changes):
        agent, bus = self._agent()
        before = self._state(agent)
        bus.send("controller-1", "n1", "manifest-update", self._push(**changes), 1, 1.0)
        agent.step(1.1)
        assert self._state(agent) == before
        assert agent.stats.updates_applied == 1

    def test_the_same_push_well_formed_commits(self):
        agent, bus = self._agent()
        bus.send("controller-1", "n1", "manifest-update", self._push(), 1, 1.0)
        agent.step(1.1)
        assert (agent.current_term, agent.leader) == (4, "controller-1")
        assert agent.lease_expires_at == 9.0
        assert (agent.known_term, agent.known_version) == (4, 3)
        assert agent.applied_version == 3


class TestVersionOnlyReplan:
    """A re-plan that leaves a node's entries unchanged still advances
    the version the lease fence compares against; the node gets that
    version as an empty delta, not as its full manifest."""

    def test_unchanged_entries_ride_an_empty_delta(self, monkeypatch):
        topology = by_label("Internet2")
        bus = Bus(BusConfig(latency=0.0))
        controller = Controller(
            topology,
            PathSet(topology),
            list(STANDARD_MODULES),
            bus,
            ControllerConfig(lease_ttl=2.5),
        )
        agent = Agent("NYCM", bus, config=AgentConfig(lease_ttl=2.5))
        controller.version = 0
        controller.manifests = {
            node: _manifest(node, 0.0, 0.5) for node in topology.node_names
        }
        controller._sync_pushes(0.0)
        agent.step(0.1)
        controller._drain(0.2)
        assert controller.acked_version["NYCM"] == 0

        sent = []
        send = bus.send

        def recording_send(*args):
            sent.append(send(*args))
            return sent[-1]

        monkeypatch.setattr(bus, "send", recording_send)
        controller.version = 1  # same entries, new version
        controller._sync_pushes(1.0)
        [push] = [m for m in sent if m.dst == "NYCM"]
        assert push.payload["mode"] == "delta"
        assert push.payload["data"]["changed"] == []
        assert push.payload["data"]["removed"] == []
        assert push.size_bytes < controller.outstanding["NYCM"].full_bytes
        agent.step(1.1)
        assert agent.applied_version == 1
        assert not agent.degraded
        controller._drain(1.2)
        assert controller.acked_version["NYCM"] == 1
        assert controller.stats.pushes_delta == 1

    def test_steady_scripted_run_keeps_delta_efficiency(self):
        """The smoke grid's steady scripted cell re-plans at epochs 5
        and 10 without moving an entry; those epochs must still push
        less than full manifests."""
        from repro.sweep.spec import SweepCell
        from repro.sweep.worker import build_cell_config

        cell = SweepCell(dynamics="steady", epochs=18, base_sessions=120)
        result = run_scenario(build_cell_config(cell))
        assert result.check_acceptance() == []
        periodic = [r for r in result.records if r.resolved == "periodic"]
        assert [r.epoch for r in periodic] == [5, 10]
        for record in periodic:
            assert record.unchanged_entry_fraction == 1.0
            assert record.pushes_full == 0
            assert record.push_bytes < record.full_equivalent_bytes


class TestEpochHelpers:
    def test_union_length_merges_overlaps(self):
        ranges = [
            HashRange(0.0, 0.4),
            HashRange(0.3, 0.5),
            HashRange(0.7, 0.9),
        ]
        assert union_length(ranges) == pytest.approx(0.7)
        assert union_length(ranges, clip=HashRange(0.35, 0.8)) == pytest.approx(0.25)

    def test_merge_reports_sums_pairs(self):
        a = TrafficReport(interval_seconds=1.0, sampling_rate=1.0)
        a.pair_flows[("x", "y")] = 2.0
        a.pair_packets[("x", "y")] = 20.0
        b = TrafficReport(interval_seconds=1.0, sampling_rate=1.0)
        b.pair_flows[("x", "y")] = 3.0
        b.pair_flows[("y", "z")] = 1.0
        b.pair_packets[("x", "y")] = 30.0
        merged = merge_reports([a, b])
        assert merged.pair_flows == {("x", "y"): 5.0, ("y", "z"): 1.0}
        assert merged.pair_packets[("x", "y")] == 50.0
        with pytest.raises(ValueError):
            merge_reports([])

    def test_stabilize_keeps_sub_tolerance_moves(self):
        ident = ("c", ("k",))
        previous = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.5),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.5, 1.0),)}),
        }
        proposed = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.51),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.51, 1.0),)}),
        }
        stabilized, changed = stabilize_manifests(previous, proposed, 0.02)
        assert changed == set()
        assert stabilized["a"].entries[ident] == (HashRange(0.0, 0.5),)
        assert stabilized["b"].entries[ident] == (HashRange(0.5, 1.0),)

    def test_stabilize_adopts_material_moves(self):
        ident = ("c", ("k",))
        previous = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.5),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.5, 1.0),)}),
        }
        proposed = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.8),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.8, 1.0),)}),
        }
        stabilized, changed = stabilize_manifests(previous, proposed, 0.02)
        assert changed == {ident}
        assert stabilized["a"].entries[ident] == (HashRange(0.0, 0.8),)

    def test_stabilize_respects_allowed_holders(self):
        """Previous ranges must not resurrect a now-forbidden node."""
        ident = ("c", ("k",))
        previous = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 1.0),)}),
        }
        proposed = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.999),)}),
        }
        stabilized, changed = stabilize_manifests(
            previous, proposed, 0.02, allowed={ident: {"b"}}
        )
        assert changed == {ident}
        assert stabilized["a"].entries[ident] == (HashRange(0.0, 0.999),)


def _scripted(**overrides):
    """The scripted schedule's run shape with no events."""
    return ScenarioConfig(**{**SCRIPTED, **overrides})


@pytest.fixture(scope="module")
def steady_result():
    return run_scenario(_scripted(epochs=10, base_sessions=400, seed=11))


@pytest.fixture(scope="module")
def standard_result():
    return run_scenario(
        standard_scenario(
            shift_epoch=3,
            fail_epoch=5,
            recover_epoch=9,
            epochs=13,
            base_sessions=400,
            seed=11,
        )
    )


class TestSteadyScenario:
    def test_every_epoch_converges_with_full_coverage(self, steady_result):
        for record in steady_result.records:
            assert record.converged
            assert not record.in_transition
            assert record.coverage >= 0.99

    def test_bootstrap_then_delta_distribution(self, steady_result):
        records = steady_result.records
        assert records[0].resolved == "bootstrap"
        assert records[0].pushes_full > 0
        later = [r for r in records[1:] if r.push_bytes > 0]
        assert later
        # Whatever is re-pushed after bootstrap rides deltas and
        # undercuts full-manifest distribution.  A node whose entries a
        # re-plan mostly moved gets the full manifest instead, because
        # there its delta would be the larger payload (seed 11's epoch-8
        # re-plan does that to two of eleven nodes).
        for record in later:
            assert record.pushes_delta > record.pushes_full
            assert record.push_bytes < record.full_equivalent_bytes

    def test_periodic_resolves_happen(self, steady_result):
        reasons = [r.resolved for r in steady_result.records]
        assert "periodic" in reasons


class TestFailureScenario:
    def test_heartbeat_timeout_detects_crash(self, standard_result):
        # Crash at epoch 5: last heartbeat reached the controller at
        # t=4.25ish, so the 2.2-epoch timeout trips at the epoch-7 sweep.
        assert standard_result.detection_epoch == {"NYCM": 7}
        detected = {
            r.epoch for r in standard_result.records if r.failed_nodes
        }
        assert min(detected) == 7

    def test_ranges_redistributed_within_deadline(self, standard_result):
        detected = standard_result.detection_epoch["NYCM"]
        redistributed = standard_result.redistribution_epoch["NYCM"]
        assert redistributed - detected <= 2

    def test_detection_gap_counts_as_transition(self, standard_result):
        """Between the crash and the repair the dead node's ranges are
        uncovered — those epochs must be flagged as transition, not
        count against steady-state coverage."""
        by_epoch = {r.epoch: r for r in standard_result.records}
        assert by_epoch[5].in_transition
        assert by_epoch[6].in_transition

    def test_recovery_reintegrates(self, standard_result):
        assert standard_result.reintegration_epoch["NYCM"] >= 9
        final = standard_result.records[-1]
        assert final.failed_nodes == ()
        assert final.converged
        assert final.coverage >= 0.99

    def test_acceptance_criteria_hold(self, standard_result):
        assert standard_result.check_acceptance() == []

    def test_repair_is_delta_sized(self, standard_result):
        [failure] = [
            r for r in standard_result.records if r.resolved == "failure"
        ]
        assert failure.pushes_full == 0
        assert failure.pushes_delta > 0
        assert failure.push_bytes < failure.full_equivalent_bytes
        assert failure.unchanged_entry_fraction >= 0.5


class TestLossyBus:
    def test_retries_converge_under_loss(self):
        result = run_scenario(
            _scripted(
                epochs=10,
                base_sessions=300,
                seed=3,
                loss_rate=0.3,
                # Tolerate consecutive lost heartbeats without false
                # failure declarations, and disable periodic re-solves
                # so the run isolates retry-driven convergence of one
                # configuration (a resolve in the final epoch would
                # have no time left to retry a lost push).
                heartbeat_timeout=4.5,
                resolve_every=0,
            )
        )
        assert result.controller_stats.retries > 0
        assert result.bus_stats.dropped > 0
        final = result.records[-1]
        assert final.converged
        assert final.coverage >= 0.99

    def test_loss_free_run_never_retries(self, steady_result):
        assert steady_result.controller_stats.retries == 0


class TestScenarioEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="explode", start=1.0, end=2.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", start=1.0, end=2.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="shift", start=1.0, end=2.0, profile="nope")

    def test_scripted_schedule_is_a_fault_plan(self):
        plan = standard_scenario().plan
        assert [(e.kind, e.start, e.end) for e in plan.events] == [
            ("shift", 5.0, float("inf")),
            ("crash", 8.0, 12.0),
        ]
        # A shift is traffic, not a fault: the plan heals with the crash.
        assert plan.heal_time == 12.0
        assert plan.profile_at(4.0, "mixed") == "mixed"
        assert plan.profile_at(5.0, "mixed") == "web_heavy"

    def test_unknown_plan_node_is_rejected(self):
        plan = FaultPlan(
            name="p",
            events=(FaultEvent(kind="crash", start=1.0, end=2.0, node="NOWHERE"),),
        )
        with pytest.raises(ValueError, match="unknown node"):
            run_scenario(_scripted(epochs=3, plan=plan))

    def test_traffic_shift_triggers_resolve(self, standard_result):
        shifted = standard_result.records[3]
        assert shifted.resolved in ("drift", "periodic")
        assert shifted.config_version >= 1


class TestEpochScoring:
    def test_epoch_records_account_every_bus_message(self, steady_result):
        records = steady_result.records
        stats = steady_result.bus_stats
        assert sum(r.messages_sent for r in records) == stats.sent
        assert sum(r.bytes_sent for r in records) == stats.bytes_sent

    def test_degraded_agent_is_scored_by_its_edge_only_stance(
        self, monkeypatch
    ):
        """Coverage is over what agents *serve*: an agent that fell
        back to edge-only after its heartbeat left (so the controller
        cannot have repaired around it yet) leaves its transit ranges
        unanalyzed that epoch, whatever its distrusted manifest says."""
        config = _scripted(epochs=5, base_sessions=300, seed=5)
        # The twin: the same run without the injected degradation.
        healthy = [record.coverage for record in run_scenario(config).records]
        update_degraded = Agent._update_degraded

        def degrade_kscy_mid_epoch_3(agent, now):
            update_degraded(agent, now)
            if agent.node == "KSCY" and now == 3.5:
                agent.degraded = True

        monkeypatch.setattr(Agent, "_update_degraded", degrade_kscy_mid_epoch_3)
        result = run_scenario(config)
        coverage = [record.coverage for record in result.records]
        assert coverage[2] == healthy[2]
        assert coverage[3] < 0.99 and coverage[3] < healthy[3]
        assert coverage[4] == healthy[4]  # lease still valid: back to its manifest


class TestOneDriver:
    """The four beats live in ``plane.py`` alone, over one controller
    abstraction: neither caller builds a controller or asks how many
    there are."""

    @staticmethod
    def _source(module):
        return (
            pathlib.Path(repro.control.__file__).parent / f"{module}.py"
        ).read_text()

    def test_callers_construct_no_controller(self):
        for module in ("scenarios", "chaos"):
            assert "Controller(" not in self._source(module), module

    def test_chaos_has_no_single_versus_ha_branch(self):
        source = self._source("chaos")
        assert "cluster is not None" not in source
        assert "replica_count > 1" not in source

    def test_the_beats_appear_once(self):
        beats = sum(
            self._source(module).count("cluster.finish_epoch(")
            + self._source(module).count("controller.finish_epoch(")
            for module in ("plane", "scenarios", "chaos")
        )
        assert beats == 1

    @staticmethod
    def _package_source():
        package = pathlib.Path(repro.control.__file__).parent
        return {
            path.name: path.read_text() for path in sorted(package.glob("*.py"))
        }

    def test_one_class_per_controller_process(self):
        import repro.control.ha

        for name in ("ControllerReplica", "ReplicaStats"):
            assert not hasattr(repro.control, name)
            assert not hasattr(repro.control.ha, name)
        for module, source in self._package_source().items():
            # No wrapper reaching into a wrapped controller (module
            # paths such as ``repro.control.controller.X`` are not hops).
            assert not re.search(r"(?<!control)\.controller\.", source), module
            assert not re.search(r"\bctrl\.", source), module

    def test_one_inbox_per_controller_process(self):
        for module, source in self._package_source().items():
            for gone in ("#ha", "ha_address", "base_identity"):
                assert gone not in source, (module, gone)
        # A live controller drains its inbox at one call site; the
        # cluster's is the discard of a dead process's queue.
        assert self._source("controller").count("bus.deliver(") == 1
        assert self._source("ha").count("bus.deliver(") == 1

    def test_term_has_one_home(self):
        homes = {
            (module, match)
            for module, source in self._package_source().items()
            for match in re.findall(r"(\w+)\.term = ", source)
        }
        assert homes == {("replication.py", "self")}

    def test_replication_is_a_pure_state_machine(self):
        """Election and the epoch log live in ``replication.py``, which
        reaches no bus, registry, clock or RNG; the controller defines
        none of the protocol's steps."""
        source = self._source("replication")
        imported = re.findall(r"^(?:from (\S+) import|import (\S+))", source, re.M)
        modules = {name for pair in imported for name in pair if name}
        assert modules.isdisjoint({".bus", "..obs", "time", "random"}), modules
        controller = self._source("controller")
        for step in (
            "_next_term", "_witness", "_election_due", "_promote", "_depose",
            "_maybe_demote", "_merge_entries", "_log_epoch", "_send_handoff",
            "_announce", "_replicate", "_highest_observed", "_caught_up",
        ):
            assert f"def {step}(" not in controller, step
