"""Controller-HA tests: term fencing, election, and epoch handoff.

The failover layer promises (``docs/fault_model.md``) that with N
controller replicas on the same bus, (1) every controller→agent
message carries a monotonic *term* and agents nack anything stale, so
a deposed leader can never push configuration, refresh a lease, or
split-brain the deployment; (2) leader election is deterministic and
replica-unique terms make concurrent candidacies safe; (3) a promoted
standby rebuilds manifest/epoch state from the replicated epoch log
and refuses to push until caught up; and (4) the chaos monitor's
failover invariants (leader-uniqueness, epoch-regression) catch any
implementation that violates the fencing — pinned here by seeded
mutation tests that disable the fences and assert the monitor trips.

Role, term, election and the epoch log are one state machine,
``Controller.replication`` (a ``ReplicatedLog``); these tests read it
there.  ``tests/test_replication.py`` enumerates it alone, without a
bus.
"""

import pickle

import pytest

from repro.control.agent import Agent, AgentConfig
from repro.control.bus import Bus, BusConfig
from repro.control.chaos import (
    HA_PLAN_REPLICAS,
    InvariantMonitor,
    build_plan,
    run_chaos,
)
from repro.control.controller import ControllerConfig, PushState
from repro.control.epochs import EpochLogEntry
from repro.control.plane import ScenarioConfig
from repro.control.ha import HACluster, HAConfig, replica_name
from repro.control.replication import Beat, ReplicatedLog
from repro.control.protocol import (
    KIND_ACK,
    KIND_MANIFEST_UPDATE,
    KIND_NACK,
    KIND_PROMOTE,
    KIND_STATE_HANDOFF,
    KIND_TERM_ANNOUNCE,
)
from repro.core.manifest import NodeManifest
from repro.core.manifest_io import manifest_to_dict
from repro.hashing.ranges import HashRange
from repro.nids.modules import STANDARD_MODULES
from repro.obs import MetricsRegistry
from repro.topology import PathSet, by_label


def _manifest(node, key, lo, hi):
    return NodeManifest(node=node, entries={("c", key): (HashRange(lo, hi),)})


def _full_push(version, manifest, term=None, lease=None):
    payload = {
        "version": version,
        "mode": "full",
        "base": None,
        "data": manifest_to_dict(manifest),
    }
    if term is not None:
        payload["term"] = term
    if lease is not None:
        payload["lease_expires_at"] = lease
    return payload


def _quiet_bus():
    return Bus(BusConfig(latency=0.0, jitter=0.0, loss_rate=0.0, seed=1))


def _promote(replica, now):
    """Make *replica* run for office at *now*, as its beat would once
    its election came due: mint the term, send the promotes."""
    replica._apply(
        Beat(sends=replica.replication._promote(now), elected=True), now
    )


def _never_settle(self, now):
    """The fencing mutation: a leader ignores higher-term evidence."""
    return Beat()


def _cluster(replicas=3, leader_lease=2.5, rank_stagger=1.0):
    topology = by_label("Internet2").set_uniform_capacities(cpu=1.0, mem=1.0)
    bus = Bus(BusConfig(latency=0.05, jitter=0.0, loss_rate=0.0, seed=1))
    cluster = HACluster(
        topology,
        PathSet(topology),
        list(STANDARD_MODULES),
        bus,
        ControllerConfig(lease_ttl=2.5),
        HAConfig(
            replicas=replicas,
            leader_lease=leader_lease,
            rank_stagger=rank_stagger,
        ),
    )
    return bus, cluster


class TestNaming:
    def test_replica_zero_keeps_the_base_name(self):
        assert replica_name(0) == "controller"
        assert replica_name(1) == "controller-1"
        assert replica_name(2, "ops") == "ops-2"


class TestHAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HAConfig(replicas=0)
        with pytest.raises(ValueError):
            HAConfig(leader_lease=0.0)
        with pytest.raises(ValueError):
            HAConfig(rank_stagger=-1.0)
        with pytest.raises(ValueError):
            HAConfig(handoff_window=0)

    def test_dict_and_pickle_round_trips(self):
        config = HAConfig(replicas=5, leader_lease=3.0, rank_stagger=0.5)
        assert pickle.loads(pickle.dumps(config)) == config


class TestEpochLogEntry:
    def _entry(self):
        return EpochLogEntry(
            term=3,
            version=7,
            reason="periodic",
            max_acked=5,
            manifests=(
                ("a", manifest_to_dict(_manifest("a", "k", 0.0, 0.5))),
                ("b", manifest_to_dict(_manifest("b", "k", 0.5, 1.0))),
            ),
        )

    def test_dict_round_trip_preserves_sorted_manifests(self):
        entry = self._entry()
        rebuilt = EpochLogEntry.from_dict(entry.to_dict())
        assert rebuilt == entry
        assert rebuilt.manifests == tuple(sorted(rebuilt.manifests))

    def test_pickle_round_trip(self):
        entry = self._entry()
        assert pickle.loads(pickle.dumps(entry)) == entry

    def test_manifest_objects_materialize(self):
        objects = self._entry().manifest_objects()
        assert set(objects) == {"a", "b"}
        assert objects["a"].entries[("c", ("k",))] == (HashRange(0.0, 0.5),)


class TestTermArithmetic:
    def test_minted_terms_are_replica_unique(self):
        _bus, cluster = _cluster()
        for replica in cluster.replicas:
            machine = replica.replication
            for floor in range(12):
                term = machine._next_term(floor)
                assert term > floor
                assert term % 3 == machine.index
                # Smallest such term: no replica skips a valid slot.
                assert term - floor <= 3

    def test_concurrent_candidates_mint_distinct_terms(self):
        _bus, cluster = _cluster()
        for floor in range(8):
            minted = {r.replication._next_term(floor) for r in cluster.replicas}
            assert len(minted) == 3


class TestElection:
    def _run_leaderless(self, cluster, epochs, down=("controller",)):
        down = frozenset(down)
        for epoch in range(epochs):
            cluster.step(epoch + 0.25, down)
            cluster.finish_epoch(epoch + 0.75, down)

    def test_first_standby_takes_over_and_stagger_suppresses_the_rest(self):
        _bus, cluster = _cluster()
        self._run_leaderless(cluster, 5)
        replica0, replica1, replica2 = cluster.replicas
        assert not replica0.alive
        assert replica1.replication.role == "leader"
        assert replica1.replication.term == 1
        assert replica1.replication.elections == 1
        # Replica 2 heard the new leader before its own (staggered)
        # timeout lapsed, so it never ran for election.
        assert replica2.replication.role == "standby"
        assert replica2.replication.term == 1
        assert replica2.replication.elections == 0
        assert cluster.acting_leader() is replica1

    def test_election_is_deterministic(self):
        histories = []
        for _ in range(2):
            _bus, cluster = _cluster()
            history = []
            down = frozenset({"controller"})
            for epoch in range(6):
                cluster.step(epoch + 0.25, down)
                cluster.finish_epoch(epoch + 0.75, down)
                history.append(
                    tuple(
                        (
                            r.name,
                            r.replication.role,
                            r.replication.term,
                            r.replication.rebuilding,
                        )
                        for r in cluster.replicas
                    )
                )
            histories.append(history)
        assert histories[0] == histories[1]

    def test_rebuilding_leader_installs_after_grace_and_settles(self):
        _bus, cluster = _cluster()
        self._run_leaderless(cluster, 6)
        replica1 = cluster.replicas[1].replication
        assert replica1.role == "leader"
        assert not replica1.rebuilding
        assert replica1.installed_at is not None
        assert cluster.settled()

    def test_restarted_old_leader_returns_as_standby(self):
        _bus, cluster = _cluster()
        self._run_leaderless(cluster, 6)
        cluster.step(6.25, frozenset())
        cluster.finish_epoch(6.75, frozenset())
        cluster.step(7.25, frozenset())
        replica0 = cluster.replicas[0]
        assert replica0.alive
        assert replica0.replication.role == "standby"
        assert replica0.replication.term == 1
        assert replica0.replication.leader_name == "controller-1"
        assert cluster.acting_leader() is cluster.replicas[1]

    def test_replayed_promote_is_idempotent(self):
        bus, cluster = _cluster()
        self._run_leaderless(cluster, 5)
        replica1, replica2 = cluster.replicas[1], cluster.replicas[2]
        machines = [r.replication for r in cluster.replicas]
        before = [(m.role, m.term, m.elections) for m in machines]
        # A duplicated / reordered promote re-delivers a known fact.
        payload = {"term": 1, "leader": "controller-1"}
        for target in ("controller-1", "controller-2"):
            bus.send(
                "controller-1", target, KIND_PROMOTE, payload, 64, 5.0
            )
        replica1._drain(5.1)
        replica2._drain(5.1)
        assert [(m.role, m.term, m.elections) for m in machines] == before
        leaders = [
            r for r in cluster.replicas
            if r.alive and r.replication.role == "leader"
        ]
        assert len(leaders) == 1

    def test_stale_promote_replay_is_ignored(self):
        bus, cluster = _cluster()
        self._run_leaderless(cluster, 5)
        replica2 = cluster.replicas[2]
        # A long-delayed promote from a lower term must not roll back.
        bus.send(
            "controller",
            "controller-2",
            KIND_PROMOTE,
            {"term": 0, "leader": "controller"},
            64,
            5.0,
        )
        replica2._drain(5.1)
        assert replica2.replication.term == 1
        assert replica2.replication.leader_name == "controller-1"


class TestHandoffMerge:
    def test_merge_is_idempotent_under_duplication(self):
        _bus, cluster = _cluster()
        replica = cluster.replicas[2].replication
        entry = EpochLogEntry(
            term=1, version=4, reason="periodic", max_acked=3,
            manifests=(("a", manifest_to_dict(_manifest("a", "k", 0.0, 1.0))),),
        )
        replica._merge_entries([entry.to_dict()])
        replica._merge_entries([entry.to_dict()])
        assert replica.log[4] == entry
        assert replica.handoff_entries == 1

    def test_reordered_stale_entry_cannot_overwrite_newer_term(self):
        _bus, cluster = _cluster()
        replica = cluster.replicas[2].replication
        newer = EpochLogEntry(
            term=4, version=4, reason="periodic", max_acked=3,
            manifests=(("a", manifest_to_dict(_manifest("a", "k", 0.0, 0.5))),),
        )
        stale = EpochLogEntry(
            term=1, version=4, reason="periodic", max_acked=3,
            manifests=(("a", manifest_to_dict(_manifest("a", "k", 0.5, 1.0))),),
        )
        replica._merge_entries([newer.to_dict()])
        replica._merge_entries([stale.to_dict()])  # arrives late
        assert replica.log[4] == newer

    def test_higher_term_content_wins_per_version(self):
        _bus, cluster = _cluster()
        replica = cluster.replicas[2].replication
        old = EpochLogEntry(
            term=1, version=4, reason="periodic", max_acked=3,
            manifests=(("a", manifest_to_dict(_manifest("a", "k", 0.5, 1.0))),),
        )
        new = EpochLogEntry(
            term=4, version=4, reason="failure", max_acked=3,
            manifests=(("a", manifest_to_dict(_manifest("a", "k", 0.0, 0.5))),),
        )
        replica._merge_entries([old.to_dict()])
        replica._merge_entries([new.to_dict()])
        assert replica.log[4] == new
        assert replica.handoff_entries == 2


class TestAgentTermFencing:
    def _agent(self):
        bus = _quiet_bus()
        agent = Agent("n1", bus, config=AgentConfig(lease_ttl=2.5))
        return bus, agent

    def test_stale_term_message_is_nacked_not_applied(self):
        bus, agent = self._agent()
        bus.send(
            "controller-1", "n1", KIND_MANIFEST_UPDATE,
            _full_push(0, _manifest("n1", "k", 0.0, 1.0), term=2, lease=3.0),
            100, 0.0,
        )
        agent.step(0.0)
        assert agent.applied_version == 0
        assert agent.current_term == 2
        bus.send(
            "controller", "n1", KIND_MANIFEST_UPDATE,
            _full_push(1, _manifest("n1", "k", 0.0, 0.5), term=1, lease=9.0),
            100, 1.0,
        )
        agent.step(1.0)
        assert agent.applied_version == 0  # the stale push never landed
        assert agent.stats.stale_terms_rejected == 1
        nacks = [
            m for m in bus.deliver("controller", 2.0) if m.kind == KIND_NACK
        ]
        assert len(nacks) == 1
        assert nacks[0].payload["term"] == 2
        assert nacks[0].payload["stale_term"] == 1

    def test_stale_term_message_cannot_refresh_the_lease(self):
        bus, agent = self._agent()
        bus.send(
            "controller-1", "n1", KIND_MANIFEST_UPDATE,
            _full_push(0, _manifest("n1", "k", 0.0, 1.0), term=2, lease=3.0),
            100, 0.0,
        )
        agent.step(0.0)
        assert agent.lease_expires_at == 3.0
        # The deposed leader tries to keep the node leased far into the
        # future; the blanket lease handler must never see the message.
        bus.send(
            "controller", "n1", KIND_MANIFEST_UPDATE,
            _full_push(5, _manifest("n1", "k", 0.0, 0.5), term=1, lease=99.0),
            100, 1.0,
        )
        agent.step(1.0)
        assert agent.lease_expires_at == 3.0

    def test_announce_adopts_term_but_never_extends_the_lease(self):
        bus, agent = self._agent()
        bus.send(
            "controller-1", "n1", KIND_MANIFEST_UPDATE,
            _full_push(0, _manifest("n1", "k", 0.0, 1.0), term=1, lease=3.0),
            100, 0.0,
        )
        agent.step(0.0)
        bus.send(
            "controller-2", "n1", KIND_TERM_ANNOUNCE,
            {"term": 4, "leader": "controller-2", "version": 0, "lease": False},
            56, 1.0,
        )
        agent.step(1.0)
        assert agent.current_term == 4
        assert agent.leader == "controller-2"
        assert agent.lease_expires_at == 3.0  # announce proves, not leases

    def test_mutation_stale_delta_trips_epoch_regression(self, monkeypatch):
        """The acceptance-mandated mutation: disable the term fence so
        a stale-term push lands, and the chaos monitor must catch the
        applied (term, version) pair regressing."""
        monkeypatch.setattr(Agent, "_term_fencing", False)
        bus, agent = self._agent()
        monitor = InvariantMonitor(STANDARD_MODULES)
        bus.send(
            "controller", "n1", KIND_MANIFEST_UPDATE,
            _full_push(1, _manifest("n1", "k", 0.0, 1.0), term=1, lease=9.0),
            100, 0.0,
        )
        agent.step(0.0)
        bus.send(
            "controller-1", "n1", KIND_MANIFEST_UPDATE,
            _full_push(2, _manifest("n1", "k", 0.0, 0.5), term=2, lease=9.0),
            100, 1.0,
        )
        agent.step(1.0)
        monitor.epoch_regression(1, {"n1": agent})
        assert monitor.violations == []
        assert (agent.applied_term, agent.applied_version) == (2, 2)
        # The deposed term-1 leader pushes a *newer version number*.
        bus.send(
            "controller", "n1", KIND_MANIFEST_UPDATE,
            _full_push(3, _manifest("n1", "k", 0.5, 1.0), term=1, lease=9.0),
            100, 2.0,
        )
        agent.step(2.0)
        assert (agent.applied_term, agent.applied_version) == (1, 3)
        monitor.epoch_regression(2, {"n1": agent})
        [violation] = monitor.violations
        assert violation.rule == "epoch-regression"

    def test_fence_on_same_sequence_is_clean(self):
        """Control arm of the mutation test: with the fence on, the
        stale push is nacked and the monitor stays quiet."""
        bus, agent = self._agent()
        monitor = InvariantMonitor(STANDARD_MODULES)
        for src, version, term in (
            ("controller", 1, 1),
            ("controller-1", 2, 2),
            ("controller", 3, 1),
        ):
            bus.send(
                src, "n1", KIND_MANIFEST_UPDATE,
                _full_push(
                    version, _manifest("n1", "k", 0.0, 1.0), term=term, lease=9.0
                ),
                100, float(version),
            )
            agent.step(float(version))
            monitor.epoch_regression(version, {"n1": agent})
        assert monitor.violations == []
        assert (agent.applied_term, agent.applied_version) == (2, 2)
        assert agent.stats.stale_terms_rejected == 1


class TestLeaderUniquenessMutation:
    def test_unfenced_leader_ignores_depose_and_trips_the_monitor(
        self, monkeypatch
    ):
        monkeypatch.setattr(ReplicatedLog, "settle", _never_settle)
        bus, cluster = _cluster()
        monitor = InvariantMonitor(STANDARD_MODULES)
        replica0, replica1 = cluster.replicas[0], cluster.replicas[1]
        _promote(replica1, 1.0)
        bus.send(
            "controller-1", "controller", KIND_TERM_ANNOUNCE,
            {"term": 1, "leader": "controller-1", "version": -1, "lease": False},
            56, 1.0,
        )
        replica0._drain(1.1)
        replica0._apply(replica0.replication.settle(1.1), 1.1)
        assert replica0.replication.role == "leader"  # mutation: refused to step down
        assert replica0.replication.observed_term > replica0.replication.term
        monitor.leader_uniqueness(1, cluster)
        assert any(
            v.rule == "leader-uniqueness" for v in monitor.violations
        )

    def test_fenced_leader_deposes_and_monitor_stays_quiet(self):
        bus, cluster = _cluster()
        monitor = InvariantMonitor(STANDARD_MODULES)
        replica0, replica1 = cluster.replicas[0], cluster.replicas[1]
        _promote(replica1, 1.0)
        bus.send(
            "controller-1", "controller", KIND_TERM_ANNOUNCE,
            {"term": 1, "leader": "controller-1", "version": -1, "lease": False},
            56, 1.0,
        )
        replica0._drain(1.1)
        replica0._apply(replica0.replication.settle(1.1), 1.1)
        assert replica0.replication.role == "standby"
        assert replica0.replication.depositions == 1
        assert replica0.replication.leader_name == "controller-1"
        monitor.leader_uniqueness(1, cluster)
        assert monitor.violations == []


class TestHandoffDispatch:
    def test_duplicated_handoff_messages_leave_log_identical(self):
        bus, cluster = _cluster()
        replica2 = cluster.replicas[2]
        entry = EpochLogEntry(
            term=1, version=2, reason="periodic", max_acked=1,
            manifests=(("a", manifest_to_dict(_manifest("a", "k", 0.0, 1.0))),),
        )
        payload = {
            "term": 1,
            "leader": "controller-1",
            "entries": [entry.to_dict()],
        }
        for send_at in (1.0, 1.0, 2.0):  # duplicated, then replayed
            bus.send(
                "controller-1", "controller-2",
                KIND_STATE_HANDOFF, payload, 256, send_at,
            )
        replica2._drain(3.0)
        assert replica2.replication.log == {2: entry}
        assert replica2.replication.handoff_entries == 1


class TestOneInbox:
    """Peers and agents write to one address; each beat folds the
    replica-plane kinds before the role decision and only then handles
    (leader) or drops (standby) the agent-plane kinds."""

    def _leader_awaiting_ack(self, announce):
        bus, cluster = _cluster()
        leader = cluster.replicas[0]
        manifest = _manifest("NYCM", "k", 0.0, 1.0)
        leader.version = 0
        leader.outstanding["NYCM"] = PushState(
            version=0, mode="full", payload={}, size_bytes=1, full_bytes=1,
            manifest=manifest, first_sent=0.0, last_sent=0.0,
        )
        # The ack is sent (and so delivered) *before* the announce:
        # plane priority, not delivery order, decides who is folded first.
        bus.send(
            "NYCM", "controller", KIND_ACK,
            {"node": "NYCM", "version": 0, "status": "applied"}, 32, 1.0,
        )
        if announce:
            bus.send(
                "controller-1", "controller", KIND_TERM_ANNOUNCE,
                {"term": 1, "leader": "controller-1", "version": -1,
                 "lease": False},
                56, 1.0,
            )
        leader._drain(1.1)
        assert bus.pending("controller") == 0
        return leader, manifest

    def test_same_beat_depose_credits_no_acks(self):
        leader, _manifest_sent = self._leader_awaiting_ack(announce=True)
        assert leader.replication.role == "standby"
        assert leader.replication.depositions == 1
        assert leader.acked_version["NYCM"] == -1
        assert "NYCM" not in leader.acked_manifests

    def test_without_the_announce_the_ack_is_credited(self):
        leader, manifest = self._leader_awaiting_ack(announce=False)
        assert leader.replication.role == "leader"
        assert leader.acked_version["NYCM"] == 0
        assert leader.acked_manifests["NYCM"] is manifest


class TestClusterOfOne:
    """A lone controller is an ``HACluster`` of one."""

    def test_lone_replica_resumes_as_leader(self):
        _bus, cluster = _cluster(replicas=1)
        down = frozenset({"controller"})
        cluster.step(0.25, down)
        assert cluster.acting_leader() is None
        assert not cluster.settled()
        cluster.finish_epoch(0.75)
        [replica] = cluster.replicas
        machine = replica.replication
        assert replica.alive and machine.role == "leader"
        assert machine.term == 0 and machine.elections == 0
        assert cluster.settled()


@pytest.fixture(scope="module")
def ha_acceptance():
    """The acceptance matrix: both HA plans at the CI seeds."""
    results = {}
    for plan_name in ("leader-crash-mid-push", "leader-partition"):
        for seed in (3, 17, 42):
            plan = build_plan(
                plan_name, seed, 18, by_label("Internet2").node_names
            )
            results[(plan_name, seed)] = run_chaos(
                ScenarioConfig(plan=plan, epochs=18, base_sessions=400, seed=seed)
            )
    return results


class TestHAPlanAcceptance:
    def test_no_invariant_violations_at_any_seed(self, ha_acceptance):
        for key, result in sorted(ha_acceptance.items()):
            assert result.check_acceptance() == [], key
            assert result.ok

    def test_exactly_one_failover_per_run(self, ha_acceptance):
        for key, result in sorted(ha_acceptance.items()):
            summary = result.ha_summary
            assert summary is not None, key
            assert summary["elections"] == 1, key
            assert summary["leader"] == "controller-1", key
            assert summary["settled"], key

    def test_partition_plan_deposes_the_old_leader(self, ha_acceptance):
        for seed in (3, 17, 42):
            summary = ha_acceptance[("leader-partition", seed)].ha_summary
            assert summary["depositions"] == 1

    def test_reconverges_within_budget(self, ha_acceptance):
        for key, result in sorted(ha_acceptance.items()):
            heal = int(result.config.plan.heal_time + 0.999)
            assert result.reconverged_epoch is not None, key
            assert (
                result.reconverged_epoch
                <= heal + result.config.reconverge_epochs
            ), key

    def test_epoch_records_carry_leadership(self, ha_acceptance):
        result = ha_acceptance[("leader-crash-mid-push", 3)]
        leaders = {r.leader for r in result.records}
        assert "controller-1" in leaders  # post-takeover
        assert max(r.term for r in result.records) == 1
        # Leaderless outage epochs report no leader.
        assert any(r.leader is None for r in result.records)

    def test_named_plans_force_their_replica_floor(self, ha_acceptance):
        assert HA_PLAN_REPLICAS["leader-crash-mid-push"] == 3
        result = ha_acceptance[("leader-crash-mid-push", 3)]
        assert result.config.replicas == 1  # config said 1...
        assert len(result.ha_summary["replicas"]) == 3  # ...the plan won

    def test_integration_mutation_trips_the_monitor(self, monkeypatch):
        """End-to-end mutation: both fences off, the partitioned
        ex-leader keeps serving and its stale-term deltas land — the
        monitor must convict on both failover invariants."""
        plan = build_plan(
            "leader-partition", 3, 18, by_label("Internet2").node_names
        )
        config = ScenarioConfig(plan=plan, epochs=18, base_sessions=400, seed=3)
        monkeypatch.setattr(Agent, "_term_fencing", False)
        monkeypatch.setattr(ReplicatedLog, "settle", _never_settle)
        result = run_chaos(config)
        rules = {violation.rule for violation in result.violations}
        assert "leader-uniqueness" in rules
        assert "epoch-regression" in rules


class TestHAMetrics:
    def test_failover_families_recorded(self):
        registry = MetricsRegistry()
        plan = build_plan(
            "leader-crash-mid-push", 3, 18, by_label("Internet2").node_names
        )
        result = run_chaos(
            ScenarioConfig(plan=plan, epochs=18, base_sessions=400, seed=3),
            registry=registry,
        )
        assert result.ok
        elections = registry.get("controller_ha_elections_total")
        assert elections.value(replica="controller-1") == 1
        handoffs = registry.get("controller_ha_handoffs_total")
        assert handoffs.value(outcome="caught-up") >= 1
        term = registry.get("controller_ha_term")
        assert term.value() == 1
        # Pre-declared at zero even though nothing was deposed.
        depositions = registry.get("controller_ha_depositions_total")
        assert depositions.value(replica="controller") == 0
