"""Chaos-harness tests: fault plans, chaos bus, graceful degradation.

The robustness layer promises (``docs/fault_model.md``) that under
adversarial fault schedules — partitions, duplicated/reordered
delivery, warm restarts with stale state, controller outages — no
session ever loses coverage the edge-only baseline would have
provided, no stale-epoch manifest outlives its lease, and the plane
reconverges within a bounded number of epochs of the last fault
healing.  These tests pin the mechanisms (leases, the epoch fence,
capped backoff, fencing) at unit level and then assert the acceptance
invariants on a full controller-outage chaos run.
"""

import json

import pytest

from repro.control.agent import Agent, AgentConfig
from repro.control.bus import Bus, BusConfig
from repro.control.chaos import (
    ChaosBus,
    ChaosEpochRecord,
    FaultEvent,
    FaultPlan,
    InvariantMonitor,
    NAMED_PLANS,
    build_plan,
    random_fault_plan,
    run_chaos,
)
from repro.control.controller import Controller, ControllerConfig, PushState
from repro.control.epochs import EpochRecord
from repro.control.scenarios import COVERAGE_FLOOR, ScenarioConfig
from repro.core.manifest import NodeManifest
from repro.core.manifest_io import manifest_diff, manifest_to_dict
from repro.hashing.ranges import HashRange
from repro.nids.modules import STANDARD_MODULES
from repro.obs import MetricsRegistry
from repro.topology import PathSet, by_label


def _manifest(node, key, lo, hi):
    return NodeManifest(node=node, entries={("c", key): (HashRange(lo, hi),)})


def _full_push(version, manifest, lease=None):
    payload = {
        "version": version,
        "mode": "full",
        "base": None,
        "data": manifest_to_dict(manifest),
    }
    if lease is not None:
        payload["lease_expires_at"] = lease
    return payload


def _delta_push(version, base_version, old, new, lease=None):
    payload = {
        "version": version,
        "mode": "delta",
        "base": base_version,
        "data": manifest_diff(old, new),
    }
    if lease is not None:
        payload["lease_expires_at"] = lease
    return payload


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="gremlins", start=0.0, end=1.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="controller_down", start=2.0, end=2.0)

    def test_rejects_bad_rate_and_delay(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="loss_burst", start=0.0, end=1.0, rate=1.5)
        with pytest.raises(ValueError):
            FaultEvent(kind="loss_burst", start=0.0, end=1.0, rate=0.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="delay_burst", start=0.0, end=1.0, delay=0.0)

    def test_crash_needs_a_node(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", start=0.0, end=1.0)

    def test_active_is_half_open(self):
        event = FaultEvent(kind="controller_down", start=1.0, end=3.0)
        assert not event.active(0.99)
        assert event.active(1.0)
        assert event.active(2.99)
        assert not event.active(3.0)


class TestFaultPlan:
    def test_rejects_overlapping_crashes_per_node(self):
        with pytest.raises(ValueError):
            FaultPlan(
                name="bad",
                events=(
                    FaultEvent(kind="crash", start=0.0, end=2.0, node="a"),
                    FaultEvent(kind="crash", start=1.0, end=3.0, node="a"),
                ),
            )

    def test_heal_time_is_last_window_close(self):
        plan = FaultPlan(
            name="p",
            events=(
                FaultEvent(kind="controller_down", start=1.0, end=4.0),
                FaultEvent(kind="loss_burst", start=2.0, end=6.0, rate=0.5),
            ),
        )
        assert plan.heal_time == 6.0
        assert FaultPlan(name="empty", events=()).heal_time == 0.0

    def test_channel_and_process_selectors(self):
        plan = FaultPlan(
            name="p",
            events=(
                FaultEvent(kind="controller_down", start=1.0, end=4.0),
                FaultEvent(kind="crash", start=2.0, end=3.0, node="a"),
            ),
        )
        assert plan.controller_down(2.0, "controller")
        assert not plan.controller_down(5.0, "controller")
        # controller_down is also a channel fault (inbound drops); the
        # crash is purely the runner's business.
        assert [e.kind for e in plan.channel_events(2.0)] == ["controller_down"]
        assert [e.node for e in plan.crash_events()] == ["a"]


class TestPlanFactories:
    def test_random_plan_is_deterministic(self):
        nodes = ("a", "b", "c")
        first = random_fault_plan(17, 18, nodes)
        second = random_fault_plan(17, 18, nodes)
        assert first == second
        assert first != random_fault_plan(18, 18, nodes)

    def test_random_plan_leaves_reconvergence_room(self):
        for seed in (3, 17, 42):
            plan = random_fault_plan(seed, 18, ("a", "b"))
            assert 2 <= len(plan.events) <= 4
            assert plan.heal_time <= 13.0

    def test_random_plan_needs_enough_epochs(self):
        with pytest.raises(ValueError):
            random_fault_plan(1, 8, ("a",))

    def test_build_plan_dispatch(self):
        nodes = ("a", "b")
        assert build_plan("random", 17, 18, nodes) == random_fault_plan(
            17, 18, nodes
        )
        outage = build_plan("controller-outage", 7, 18, nodes)
        assert [e.kind for e in outage.events] == ["controller_down"]
        with pytest.raises(ValueError):
            build_plan("no-such-plan", 0, 18, nodes)
        with pytest.raises(ValueError):
            build_plan("controller-outage", 0, 10, nodes)

    def test_every_named_plan_fits_its_minimum_run(self):
        for name in NAMED_PLANS:
            plan = build_plan(name, 7, 14, ("a", "b"))
            assert plan.heal_time + 2 <= 14


class TestChaosBus:
    def _bus(self, events, registry=None):
        return ChaosBus(
            FaultPlan(name="t", events=tuple(events)),
            BusConfig(latency=0.0),
            registry=registry,
            chaos_seed=1,
        )

    def test_partition_is_asymmetric(self):
        registry = MetricsRegistry()
        bus = self._bus(
            [FaultEvent(kind="partition", start=0.0, end=10.0,
                        src="controller", dst="b")],
            registry=registry,
        )
        bus.send("controller", "b", "k", 1, 1, now=1.0)
        bus.send("b", "controller", "k", 2, 1, now=1.0)
        bus.send("controller", "c", "k", 3, 1, now=1.0)
        assert bus.deliver("b", 2.0) == []
        assert [m.payload for m in bus.deliver("controller", 2.0)] == [2]
        assert [m.payload for m in bus.deliver("c", 2.0)] == [3]
        counter = registry.get("chaos_injected_total")
        assert counter.value(fault="partition") == 1

    def test_partition_window_ends(self):
        bus = self._bus(
            [FaultEvent(kind="partition", start=0.0, end=2.0,
                        src="a", dst="b")]
        )
        bus.send("a", "b", "k", 1, 1, now=3.0)
        assert [m.payload for m in bus.deliver("b", 4.0)] == [1]

    def test_controller_down_drops_inbound_only(self):
        bus = self._bus(
            [FaultEvent(kind="controller_down", start=0.0, end=10.0)]
        )
        bus.send("a", "controller", "heartbeat", 1, 1, now=1.0)
        bus.send("controller", "a", "k", 2, 1, now=1.0)
        assert bus.deliver("controller", 2.0) == []
        assert [m.payload for m in bus.deliver("a", 2.0)] == [2]

    def test_loss_burst_drops_at_rate_one(self):
        bus = self._bus(
            [FaultEvent(kind="loss_burst", start=0.0, end=10.0, rate=1.0)]
        )
        bus.send("a", "b", "k", 1, 1, now=1.0)
        assert bus.deliver("b", 2.0) == []
        assert bus.stats.dropped == 1

    def test_delay_burst_postpones_delivery(self):
        bus = self._bus(
            [FaultEvent(kind="delay_burst", start=0.0, end=10.0, delay=0.5)]
        )
        bus.send("a", "b", "k", 1, 1, now=1.0)
        assert bus.deliver("b", 1.4) == []
        assert [m.payload for m in bus.deliver("b", 1.6)] == [1]

    def test_duplicate_delivers_two_copies(self):
        bus = self._bus(
            [FaultEvent(kind="duplicate", start=0.0, end=10.0,
                        rate=1.0, delay=0.5)]
        )
        bus.send("a", "b", "k", {"v": 1}, 1, now=1.0)
        first = bus.deliver("b", 1.1)
        assert [m.payload for m in first] == [{"v": 1}]
        second = bus.deliver("b", 2.0)
        assert [m.payload for m in second] == [{"v": 1}]

    def test_reorder_overtakes_later_sends(self):
        bus = self._bus(
            [FaultEvent(kind="reorder", start=0.0, end=0.5,
                        rate=1.0, delay=1.0)]
        )
        bus.send("a", "b", "k", "held", 1, now=0.1)
        bus.send("a", "b", "k", "later", 1, now=0.6)  # window closed
        assert [m.payload for m in bus.deliver("b", 5.0)] == ["later", "held"]

    def test_chaos_rng_is_seed_deterministic(self):
        events = [FaultEvent(kind="loss_burst", start=0.0, end=10.0, rate=0.5)]
        outcomes = []
        for _ in range(2):
            bus = self._bus(events)
            for i in range(50):
                bus.send("a", "b", "k", i, 1, now=1.0)
            outcomes.append([m.payload for m in bus.deliver("b", 2.0)])
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 50


class TestAgentLease:
    def _leased_agent(self, ttl=2.0):
        bus = Bus(BusConfig(latency=0.0))
        agent = Agent(
            "n1", bus,
            config=AgentConfig(transition_window=2.0, lease_ttl=ttl),
        )
        return agent, bus

    def test_expiry_forces_edge_only_fallback(self):
        agent, bus = self._leased_agent()
        manifest = _manifest("n1", ("a", "b"), 0.0, 1.0)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, manifest, lease=1.0), 1, 0.0)
        agent.step(0.1)
        assert not agent.degraded
        # Coordinated: answers from the manifest, including mid-path units.
        assert agent.responsible_for_new("c", ("a", "b"), 0.5)
        agent.step(1.5)  # lease (absolute expiry 1.0) has lapsed
        assert agent.degraded
        assert agent.stats.lease_expirations == 1
        # Edge-only stance: own-endpoint units yes, mid-path units no —
        # the stale manifest is not consulted at all.
        assert agent.responsible_for_new("c", ("n1", "x"), 0.99)
        assert not agent.responsible_for_new("c", ("a", "b"), 0.5)
        assert agent.responsible_for_existing("c", ("n1", "x"), 0.99)
        assert not agent.responsible_for_existing("c", ("a", "b"), 0.5)

    def test_renewed_lease_alone_cannot_exit_fallback(self):
        """Epoch fence: exit needs a lease AND a caught-up manifest."""
        agent, bus = self._leased_agent()
        manifest = _manifest("n1", ("a", "b"), 0.0, 1.0)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, manifest, lease=1.0), 1, 0.0)
        agent.step(0.1)
        agent.step(1.5)
        assert agent.degraded
        # A renewal announcing a newer epoch arrives: lease is valid
        # again but the applied manifest (v0) is fenced behind v2.
        bus.send("controller", "n1", "lease-renew",
                 {"version": 2, "lease_expires_at": 10.0}, 1, 2.0)
        agent.step(2.1)
        assert agent.degraded
        assert agent.known_version == 2
        # The v2 push is what re-coordinates the node.
        bus.send("controller", "n1", "manifest-update",
                 _full_push(2, manifest, lease=10.0), 1, 2.5)
        agent.step(2.6)
        assert not agent.degraded
        assert agent.applied_version == 2

    def test_degraded_flag_reported_in_heartbeats(self):
        agent, bus = self._leased_agent(ttl=0.5)
        manifest = _manifest("n1", ("n1", "x"), 0.0, 1.0)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, manifest, lease=0.5), 1, 0.0)
        agent.step(0.1)
        agent.step(1.2)
        beats = [m.payload for m in bus.deliver("controller", 99.0)
                 if m.kind == "heartbeat"]
        assert [b["degraded"] for b in beats] == [False, True]


class TestIdempotentDeltas:
    """Satellite: duplicated and reordered delivery must be a no-op —
    the applied manifest stays byte-identical (epoch fence)."""

    def _agent(self):
        bus = Bus(BusConfig(latency=0.0))
        return Agent("n1", bus, config=AgentConfig(transition_window=2.0)), bus

    def test_replayed_pushes_leave_manifest_byte_identical(self):
        agent, bus = self._agent()
        m0 = _manifest("n1", ("k",), 0.0, 0.5)
        m1 = _manifest("n1", ("k",), 0.0, 0.7)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, m0), 1, 0.0)
        agent.step(0.1)
        bus.send("controller", "n1", "manifest-update",
                 _delta_push(1, 0, m0, m1), 1, 1.0)
        agent.step(1.1)
        assert agent.applied_version == 1
        frozen = json.dumps(manifest_to_dict(agent.manifest), sort_keys=True)

        # Replay both pushes, out of order, with an extra duplicate.
        bus.send("controller", "n1", "manifest-update",
                 _delta_push(1, 0, m0, m1), 1, 2.0)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, m0), 1, 2.0)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, m0), 1, 2.0)
        agent.step(2.1)

        assert agent.applied_version == 1
        assert agent.stats.updates_applied == 2
        assert agent.stats.duplicates_ignored == 3
        replayed = json.dumps(manifest_to_dict(agent.manifest), sort_keys=True)
        assert replayed == frozen
        acks = [m.payload for m in bus.deliver("controller", 99.0)
                if m.kind == "ack"]
        # Every replay is re-acked so the controller stops retrying.
        assert [a["status"] for a in acks] == [
            "applied", "applied", "duplicate", "duplicate", "duplicate",
        ]


class TestWarmRestart:
    """Satellite: a warm-restarted agent must refuse its stale ranges
    and request a full (non-delta) resync."""

    def _leased_agent(self):
        bus = Bus(BusConfig(latency=0.0))
        agent = Agent(
            "n1", bus,
            config=AgentConfig(transition_window=2.0, lease_ttl=2.0),
        )
        return agent, bus

    def test_stale_manifest_never_served_after_warm_restart(self):
        agent, bus = self._leased_agent()
        stale = _manifest("n1", ("a", "b"), 0.0, 1.0)  # mid-path unit
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, stale, lease=10.0), 1, 0.0)
        agent.step(0.1)
        assert agent.responsible_for_new("c", ("a", "b"), 0.5)

        agent.crash()
        agent.recover(warm=True)
        # The pre-crash manifest survives on disk for inspection...
        assert agent.manifest.entries == stale.entries
        # ...but is never served: version reset, degraded, edge stance.
        assert agent.applied_version == -1
        assert agent.known_version == 0  # remembers the fence
        assert agent.degraded
        assert not agent.responsible_for_new("c", ("a", "b"), 0.5)
        assert not agent.responsible_for_existing("c", ("a", "b"), 0.5)
        assert agent.responsible_for_new("c", ("n1", "x"), 0.5)

    def test_requests_full_resync_and_refuses_deltas(self):
        agent, bus = self._leased_agent()
        m0 = _manifest("n1", ("a", "b"), 0.0, 1.0)
        m1 = _manifest("n1", ("a", "b"), 0.0, 0.5)
        bus.send("controller", "n1", "manifest-update",
                 _full_push(0, m0, lease=10.0), 1, 0.0)
        agent.step(0.1)
        agent.crash()
        agent.recover(warm=True)

        agent.step(1.0)
        requests = [m for m in bus.deliver("controller", 1.5)
                    if m.kind == "resync-request"]
        assert len(requests) == 1
        assert requests[0].payload == {"node": "n1", "applied": -1}

        # A delta against the on-disk state must be refused: the stale
        # snapshot is not a trustworthy base.
        bus.send("controller", "n1", "manifest-update",
                 _delta_push(1, 0, m0, m1, lease=10.0), 1, 2.0)
        agent.step(2.1)
        assert agent.applied_version == -1
        acks = [m.payload for m in bus.deliver("controller", 2.5)
                if m.kind == "ack"]
        assert [a["status"] for a in acks] == ["resync"]

        # The full push re-coordinates the node in one step.
        bus.send("controller", "n1", "manifest-update",
                 _full_push(1, m1, lease=10.0), 1, 3.0)
        agent.step(3.1)
        assert agent.applied_version == 1
        assert not agent.degraded
        assert agent.responsible_for_new("c", ("a", "b"), 0.25)
        assert not agent.responsible_for_new("c", ("a", "b"), 0.75)


@pytest.fixture(scope="module")
def controller_pair():
    topology = by_label("Internet2")
    paths = PathSet(topology)
    modules = list(STANDARD_MODULES)

    def make(config):
        return Controller(
            topology, paths, modules, Bus(BusConfig(latency=0.0)), config
        )

    return make


class TestRetryBackoff:
    """Satellite: fixed retransmission is replaced by capped
    exponential backoff with seeded jitter."""

    def test_first_retry_is_exactly_base_backoff(self, controller_pair):
        controller = controller_pair(ControllerConfig())
        assert controller.config.retry_backoff == 0.45
        assert controller._retry_delay(1) == 0.45

    def test_delays_double_with_downward_jitter_up_to_cap(self, controller_pair):
        controller = controller_pair(ControllerConfig(retry_seed=3))
        for attempt in range(2, 9):
            raw = min(3.6, 0.45 * 2.0 ** (attempt - 1))
            delay = controller._retry_delay(attempt)
            assert raw * 0.75 <= delay <= raw
        # Deep attempts are capped, never unbounded.
        assert controller._retry_delay(30) <= 3.6

    def test_jitter_is_seed_deterministic(self, controller_pair):
        first = controller_pair(ControllerConfig(retry_seed=9))
        second = controller_pair(ControllerConfig(retry_seed=9))
        other = controller_pair(ControllerConfig(retry_seed=10))
        sequence = [first._retry_delay(a) for a in range(2, 8)]
        assert sequence == [second._retry_delay(a) for a in range(2, 8)]
        assert sequence != [other._retry_delay(a) for a in range(2, 8)]


class TestSupersededAcks:
    def _push_state(self, version, manifest):
        return PushState(
            version=version, mode="full", payload={}, size_bytes=1,
            full_bytes=1, manifest=manifest, first_sent=0.0, last_sent=0.0,
        )

    def test_late_applied_ack_credits_a_delta_base(self, controller_pair):
        controller = controller_pair(ControllerConfig())
        old = _manifest("NYCM", ("k",), 0.0, 0.5)
        new = _manifest("NYCM", ("k",), 0.0, 0.7)
        controller._pushed_history["NYCM"] = [self._push_state(0, old)]
        controller.outstanding["NYCM"] = self._push_state(1, new)
        controller._handle_ack(
            {"node": "NYCM", "version": 0, "applied": 0, "status": "applied"},
            now=1.0,
        )
        assert controller.acked_version["NYCM"] == 0
        assert controller.acked_manifests["NYCM"] is old
        assert controller.stats.superseded_acks == 1
        # The current push is still outstanding — only the base moved.
        assert controller.outstanding["NYCM"].version == 1

    def test_superseded_duplicate_ack_is_not_credited(self, controller_pair):
        controller = controller_pair(ControllerConfig())
        old = _manifest("NYCM", ("k",), 0.0, 0.5)
        controller._pushed_history["NYCM"] = [self._push_state(0, old)]
        controller.outstanding["NYCM"] = self._push_state(1, old)
        controller._handle_ack(
            {"node": "NYCM", "version": 0, "applied": -1,
             "status": "duplicate"},
            now=1.0,
        )
        assert controller.acked_version["NYCM"] == -1
        assert controller.stats.superseded_acks == 0


class TestInvariantMonitor:
    def _chaos_record(self, epoch, settled):
        record = EpochRecord(epoch=epoch, time=float(epoch))
        record.converged = settled
        record.coverage = 1.0 if settled else 0.5
        return ChaosEpochRecord(record=record)

    def test_reconvergence_within_budget_passes(self):
        monitor = InvariantMonitor(STANDARD_MODULES)
        records = [self._chaos_record(e, settled=e >= 8) for e in range(12)]
        monitor.reconvergence(records, heal_epoch=6, budget=4)
        assert monitor.violations == []

    def test_reconvergence_past_deadline_violates(self):
        monitor = InvariantMonitor(STANDARD_MODULES)
        records = [self._chaos_record(e, settled=e >= 11) for e in range(12)]
        monitor.reconvergence(records, heal_epoch=6, budget=4)
        [violation] = monitor.violations
        assert violation.rule == "reconvergence"
        assert violation.epoch == 11

    def test_never_settling_violates(self):
        monitor = InvariantMonitor(STANDARD_MODULES)
        records = [self._chaos_record(e, settled=False) for e in range(12)]
        monitor.reconvergence(records, heal_epoch=6, budget=4)
        [violation] = monitor.violations
        assert "never settled" in violation.detail

    def test_stale_lease_detected(self):
        monitor = InvariantMonitor(STANDARD_MODULES)
        agent = Agent(
            "n1", Bus(BusConfig(latency=0.0)),
            config=AgentConfig(lease_ttl=1.0),
        )
        agent.applied_version = 0
        agent.lease_expires_at = 0.5
        agent.degraded = False
        monitor.stale_leases(3, 1.0, {"n1": agent})
        [violation] = monitor.violations
        assert violation.rule == "stale-lease"
        assert "n1" in str(violation)
        # Degraded is the *correct* reaction to an expired lease.
        agent.degraded = True
        monitor.violations.clear()
        monitor.stale_leases(4, 1.0, {"n1": agent})
        assert monitor.violations == []


class TestChaosConfig:
    def test_requires_positive_lease(self):
        plan = FaultPlan(name="p", events=())
        with pytest.raises(ValueError):
            ScenarioConfig(plan=plan, lease_ttl=0.0)

    def test_run_must_outlast_the_plan(self):
        plan = FaultPlan(
            name="p",
            events=(FaultEvent(kind="controller_down", start=1.0, end=9.0),),
        )
        with pytest.raises(ValueError, match="heals at"):
            run_chaos(ScenarioConfig(plan=plan, epochs=10))

    def test_unknown_plan_node_is_rejected(self):
        plan = FaultPlan(
            name="p",
            events=(FaultEvent(kind="crash", start=1.0, end=2.0,
                               node="NOWHERE"),),
        )
        with pytest.raises(ValueError):
            run_chaos(ScenarioConfig(plan=plan, epochs=18))


BAD_LEASE_TTLS = (0.0, -1.0, float("nan"), float("inf"), None)


class TestLeaseTTLValidation:
    """Every config that carries a lease TTL rejects one that is not a
    finite number > 0 (``nan`` passes a bare ``<= 0`` check)."""

    @pytest.mark.parametrize("ttl", BAD_LEASE_TTLS)
    def test_run_config_rejects(self, ttl):
        with pytest.raises(ValueError):
            ScenarioConfig(lease_ttl=ttl)

    @pytest.mark.parametrize("ttl", BAD_LEASE_TTLS)
    def test_agent_config_rejects(self, ttl):
        with pytest.raises(ValueError):
            AgentConfig(lease_ttl=ttl)

    @pytest.mark.parametrize("ttl", BAD_LEASE_TTLS)
    def test_controller_config_rejects(self, ttl):
        with pytest.raises(ValueError):
            ControllerConfig(lease_ttl=ttl)


@pytest.fixture(scope="module")
def outage():
    """The acceptance run: a total operations-center outage long
    enough that every agent's lease expires mid-window."""
    registry = MetricsRegistry()
    plan = build_plan("controller-outage", seed=7, epochs=18, nodes=())
    result = run_chaos(
        ScenarioConfig(plan=plan, epochs=18, base_sessions=400, seed=7),
        registry=registry,
    )
    return result, registry


class TestControllerOutageAcceptance:
    def test_no_invariant_violations(self, outage):
        result, _registry = outage
        assert result.check_acceptance() == []
        assert result.ok

    def test_whole_plane_degrades_before_serving_stale_config(self, outage):
        """Agents fall back to edge-only while the controller is still
        down — before lease expiry could leave stale ranges violating
        coverage — and the absolute lease expiry degrades every node in
        the same epoch."""
        result, _registry = outage
        nodes = tuple(sorted(by_label("Internet2").node_names))
        fd = result.first_degraded_epoch
        assert fd is not None
        outage_epochs = {
            r.record.epoch for r in result.records if r.controller_down
        }
        assert fd in outage_epochs  # degraded *during* the outage
        assert result.records[fd].degraded_nodes == nodes  # atomically

    def test_no_epoch_drops_below_edge_only_baseline(self, outage):
        result, _registry = outage
        for chaos_record in result.records:
            if chaos_record.excluded:
                continue
            assert chaos_record.uncovered_pairs <= (
                (1.0 - COVERAGE_FLOOR) * chaos_record.baseline_pairs
            )

    def test_all_degraded_outage_epochs_have_full_edge_coverage(self, outage):
        """The marquee guarantee: once the whole plane is edge-only,
        every baseline-coverable pair is actually analyzed."""
        result, _registry = outage
        nodes = tuple(sorted(by_label("Internet2").node_names))
        marquee = [
            r for r in result.records
            if r.controller_down and r.degraded_nodes == nodes
        ]
        assert marquee  # the outage outlives the lease TTL
        for chaos_record in marquee:
            assert chaos_record.uncovered_pairs == 0
            assert chaos_record.record.coverage >= COVERAGE_FLOOR

    def test_reconverges_within_budget(self, outage):
        result, _registry = outage
        heal = int(result.config.plan.heal_time + 0.999)
        assert result.reconverged_epoch is not None
        assert result.reconverged_epoch <= heal + result.config.reconverge_epochs
        final = result.records[-1]
        assert final.record.converged
        assert final.degraded_nodes == ()
        assert final.record.fenced_nodes == ()
        assert final.record.coverage >= COVERAGE_FLOOR

    def test_chaos_metric_families_recorded(self, outage):
        _result, registry = outage
        injected = registry.get("chaos_injected_total")
        assert injected.value(fault="controller_down") > 0
        # Pre-declared and exported at zero: a clean run still shows
        # the invariant family (value 0 != absent).
        assert registry.get("chaos_invariant_violations_total").total() == 0
        nodes = by_label("Internet2").node_names
        expirations = registry.get("agent_lease_expirations_total")
        assert expirations.total() >= len(nodes)
        assert registry.get("controller_lease_fences_total").total() >= len(nodes)

    def test_epoch_records_account_every_bus_message(self, outage):
        """Chaos epochs carry the same per-epoch bus columns scripted
        ones do (``reporting.ControlEpochsReport`` prints them)."""
        result, _registry = outage
        records = [chaos_record.record for chaos_record in result.records]
        assert sum(r.messages_sent for r in records) == result.bus_stats.sent
        assert sum(r.bytes_sent for r in records) == result.bus_stats.bytes_sent


class TestPerBeatProcessFaults:
    def test_lone_controller_dying_mid_epoch_keeps_its_step_beat(self):
        """``controller_down`` covers exactly the beats inside
        ``[start, end)`` for every replica count: a lone controller up
        at ``t+0.25`` and down at ``t+0.75`` pushes and renews leases
        on the first beat and loses only the second."""
        nodes = by_label("Internet2").node_names
        plan = FaultPlan(
            name="mid-epoch",
            events=(FaultEvent(kind="controller_down", start=4.5, end=6.0),),
        )
        epochs = 12
        result = run_chaos(
            ScenarioConfig(plan=plan, epochs=epochs, base_sessions=200, seed=5)
        )
        assert result.ok
        # Agents boot unleased, so renewals start with epoch 1.  The
        # window holds three beats — 4.75, 5.25, 5.75 — and the outage
        # is shorter than the lease, so nobody is ever fenced out of a
        # renewal: every other beat renews every node.
        assert result.bus_stats.sent_by_kind["lease-renew"] == (
            (2 * (epochs - 1) - 3) * len(nodes)
        )
        down = [r.record.epoch for r in result.records if r.controller_down]
        assert down == [4, 5]
        assert result.records[4].leader is None
        assert not result.records[4].ha_settled
        assert result.ha_summary["elections"] == 0


#: The chaos runs known to violate an invariant, and the one violation
#: each reports (ROADMAP items 3, 9 and 10).  A fix, or a different way
#: of failing, changes this table.
KNOWN_RED = [
    (
        "agent-restart-stale",
        3,
        "epoch 6 [coverage-floor]: 72/4078 baseline-covered (module, session)"
        " pairs unanalyzed outside a transition window",
    ),
    ("random", 18, "epoch 17 [reconvergence]: never settled after heal epoch 10 (deadline 14)"),
    (
        "random",
        47,
        "epoch 6 [coverage-floor]: 76/4276 baseline-covered (module, session)"
        " pairs unanalyzed outside a transition window",
    ),
]


@pytest.mark.parametrize("plan, seed, violation", KNOWN_RED)
def test_known_red_chaos_runs_fail_as_recorded(plan, seed, violation, capsys):
    from repro.cli import main

    assert main(["control", "chaos", "--plan", plan, "--seed", str(seed)]) == 1
    out = capsys.readouterr().out
    reported = out[out.index("INVARIANT VIOLATIONS:"):].splitlines()[1:]
    assert reported == [f"  - {violation}"]
