"""The control epoch's exact rewrites against what they replaced.

* Prim's spanning tree (``repro.topology.datasets._spanning_tree``)
  against the O(n³) loop in ``tests/topology_oracle.py``: the same
  edges, in the same order, for synthetic PoP maps and the Rocketfuel
  stand-ins, and on distance ties.
* The bus's per-receiver queues against the list scan in
  ``tests/bus_oracle.py``: the same messages delivered in the same
  order with the same counters, under random send/deliver schedules
  and the fault plan's duplicates, reorders and delay bursts.
* A ``state-handoff``'s size, summed from its entries' cached encodings,
  against encoding the whole payload.
* A re-plan beat that the drift check already estimated for estimates
  once.
* The epoch's ground truth (``repro.control.epochs.GroundTruth``, the
  ``coverage_metrics`` adapter and the monitor's pair probe) against the
  loops in ``tests/manifest_oracle.py`` — ``build_units`` per epoch, the
  served manifests, ``union_length`` per unit, every agent asked about
  every (module, session) — compared with ``==``: crafted piece sets,
  per-agent states drawn by Hypothesis, and whole chaos runs.

Seeded mutations each of which fails a test here: dropping the
``", "`` term from the handoff size
(``test_every_handoff_size_is_its_payloads_json_length``); breaking
distance ties by candidate before tree node in ``_spanning_tree``
(``test_ties_break_like_the_cubic_loop``); popping a receiver's queue
without the heap (``list.pop(0)``) in ``Bus.deliver``
(``test_deliveries_match_the_list_scan``); ignoring ``estimated`` in
``Controller._resolve`` (``test_a_drift_replan_estimates_once``);
breaking ``lo`` ties in ``held_measure`` by node name instead of path
position (``test_crafted_units_fold_as_the_loop[equal-lo-overlap]``);
folding each unit's gains with ``np.add.reduceat`` instead of the
left-to-right steps (``test_crafted_units_fold_as_the_loop[eight-pieces]``);
dropping the whole-space piece of a live degraded endpoint
(``test_crafted_units_fold_as_the_loop[degraded-endpoint-last]``);
counting a dead node's rows, in ``coverage_metrics`` or in the served
table (``test_crafted_units_fold_as_the_loop[dead-holder]``).
"""

import dataclasses
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control import controller as controller_module
from repro.control import plane as plane_module
from repro.control.agent import AgentConfig
from repro.control.bus import Bus, BusConfig
from repro.control.chaos import NAMED_PLANS, InvariantMonitor, build_plan, run_chaos
from repro.control.controller import Controller, ControllerConfig
from repro.control.epochs import GroundTruth, coverage_metrics
from repro.control.ha import HAConfig
from repro.control.plane import (
    ChaosBus,
    ControlPlane,
    FaultEvent,
    FaultPlan,
    ScenarioConfig,
    profile_pools,
    unit_capacity_topology,
)
from repro.control.protocol import KIND_STATE_HANDOFF
from repro.control.scenarios import run_scenario, standard_scenario
from repro.core.manifest import NodeManifest
from repro.core.units import build_units, eligible_nodes, session_unit_keys
from repro.hashing.ranges import HashRange, union_length
from repro.nids.modules import STANDARD_MODULES, Scope, module_by_name
from repro.topology import PathSet, datasets
from repro.topology.datasets import by_label
from repro.traffic.dynamics import DiurnalBurstModel
from tests import manifest_oracle as oracle
from tests.bus_oracle import ListScanBus, ListScanChaosBus
from tests.topology_oracle import prim_cubic


# -- Prim ----------------------------------------------------------------------
def _links(topology):
    return list(topology.links)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_pop_maps_link_the_same_as_the_cubic_loop(monkeypatch, seed):
    sizes = list(range(2, 24)) + list(range(30, 151, 15))
    built = [_links(datasets.random_pop_topology(n, seed=seed)) for n in sizes]
    monkeypatch.setattr(datasets, "_spanning_tree", prim_cubic)
    assert built == [_links(datasets.random_pop_topology(n, seed=seed)) for n in sizes]


def test_rocketfuel_stand_ins_link_the_same_as_the_cubic_loop(monkeypatch):
    labels = ("AS1221", "AS1239", "AS3257")
    built = [_links(by_label(label)) for label in labels]
    monkeypatch.setattr(datasets, "_spanning_tree", prim_cubic)
    assert built == [_links(by_label(label)) for label in labels]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 7])
def test_ties_break_like_the_cubic_loop(width):
    # Grid points under the Manhattan metric tie everywhere.
    for num_nodes in range(2, 40):
        points = [(i % width, i // width) for i in range(num_nodes)]

        def distance(i, j):
            (x1, y1), (x2, y2) = points[i], points[j]
            return float(abs(x1 - x2) + abs(y1 - y2))

        expected = prim_cubic(num_nodes, distance)
        assert datasets._spanning_tree(num_nodes, distance) == expected


# -- Bus -----------------------------------------------------------------------
NODES = ("controller", "controller#ha1", "a", "b", "c")


def _plan():
    return FaultPlan(
        name="channel",
        events=(
            FaultEvent("duplicate", 0.0, 6.0, rate=0.3, delay=0.2),
            FaultEvent("reorder", 1.0, 8.0, rate=0.4, delay=0.35),
            FaultEvent("delay_burst", 3.0, 4.5, delay=0.25),
            FaultEvent("loss_burst", 5.0, 6.0, rate=0.2),
            FaultEvent("partition", 7.0, 7.5, src="a", dst="b"),
        ),
    )


def _buses(kind, config):
    if kind == "plain":
        return Bus(config), ListScanBus(config)
    return (
        ChaosBus(_plan(), config, chaos_seed=config.seed, controller_names=NODES[:2]),
        ListScanChaosBus(
            _plan(), config, chaos_seed=config.seed, controller_names=NODES[:2]
        ),
    )


def _drive(bus, seed, grid):
    """A seeded schedule of sends and deliveries; on a coarse time
    *grid* deliveries tie and only ``seq`` orders them."""
    rng = random.Random(seed)
    log = []
    now = 0.0
    for step in range(600):
        now += rng.random() * 0.04
        at = round(now / grid) * grid if grid else now
        if rng.random() < 0.65:
            src, dst = rng.sample(NODES, 2)
            bus.send(src, dst, "k", step, rng.randrange(1, 400), at)
        else:
            dst = rng.choice(NODES)
            log.append((dst, bus.deliver(dst, at)))
        log.append((bus.pending(), [bus.pending(node) for node in NODES]))
    for node in NODES:
        log.append((node, bus.deliver(node, now + 100.0)))
    log.append(bus.stats.to_dict())
    return log


@pytest.mark.parametrize("kind", ["plain", "chaos"])
@pytest.mark.parametrize(
    "config",
    [
        BusConfig(latency=0.05, jitter=0.3, seed=3),
        BusConfig(latency=0.05, jitter=0.0, loss_rate=0.1, seed=4),
        BusConfig(latency=0.0, jitter=0.5, loss_rate=0.05, seed=5),
    ],
)
@pytest.mark.parametrize("grid", [0.0, 0.1])
def test_deliveries_match_the_list_scan(kind, config, grid):
    queued, scanned = _buses(kind, config)
    assert _drive(queued, config.seed, grid) == _drive(scanned, config.seed, grid)


# -- Handoff -------------------------------------------------------------------
def test_every_handoff_size_is_its_payloads_json_length(monkeypatch):
    sent = []
    send = Bus.send

    def spy(self, src, dst, kind, payload, size_bytes, now):
        if kind == KIND_STATE_HANDOFF:
            sent.append((size_bytes, len(json.dumps(payload, sort_keys=True)),
                         len(payload["entries"])))
        return send(self, src, dst, kind, payload, size_bytes, now)

    monkeypatch.setattr(Bus, "send", spy)
    topology = by_label("pop12")
    config = ScenarioConfig(
        plan=build_plan("leader-crash-mid-push", 7, 14, topology.node_names),
        topology="pop12",
        epochs=14,
        base_sessions=120,
        resolve_every=1,
        replicas=3,
    )
    run_chaos(config)
    assert sent
    assert max(entries for _size, _length, entries in sent) > 1
    assert [size for size, _, _ in sent] == [length for _, length, _ in sent]


# -- Estimate ------------------------------------------------------------------
def test_a_drift_replan_estimates_once(monkeypatch):
    events = []
    estimate = controller_module.estimate_units
    step = Controller.step
    resolve = Controller._resolve

    def counting_estimate(*args, **kwargs):
        events.append("estimate")
        return estimate(*args, **kwargs)

    def marking_step(self, now):
        events.append("step")
        return step(self, now)

    def marking_resolve(self, now, reason, *args):
        events.append(reason)
        return resolve(self, now, reason, *args)

    monkeypatch.setattr(controller_module, "estimate_units", counting_estimate)
    monkeypatch.setattr(Controller, "step", marking_step)
    monkeypatch.setattr(Controller, "_resolve", marking_resolve)
    run_scenario(
        standard_scenario(
            shift_epoch=3, fail_epoch=5, recover_epoch=9, epochs=8,
            base_sessions=400, seed=11,
        )
    )
    beats = " ".join(events).split("step")
    replans = [beat.split() for beat in beats if "drift" in beat.split()]
    assert replans
    for beat in replans:
        assert beat.count("estimate") == 1, beat


# -- Ground truth --------------------------------------------------------------
SIGNATURE = module_by_name("signature")  # every session matches


@pytest.fixture(scope="module")
def crafted():
    """One Internet2 path unit whose path order is not its name order,
    and the pool rows of its pair (so the epoch has that unit alone)."""
    topology = unit_capacity_topology("internet2")
    paths = PathSet(topology)
    pool = profile_pools(("mixed",), 7, topology, paths, 600)["mixed"]
    keys, key_of_row = session_unit_keys(pool, Scope.PATH)
    for k in np.unique(key_of_row).tolist():
        eligible = eligible_nodes(keys[k], paths)
        if len(eligible) >= 4 and list(eligible) != sorted(eligible):
            sessions = pool.take(np.flatnonzero(key_of_row == k))
            return SimpleNamespace(
                topology=topology,
                paths=paths,
                sessions=sessions,
                ident=(SIGNATURE.name, keys[k]),
                eligible=eligible,
            )
    raise AssertionError("no long unsorted path in the pool")


#: Ten disjoint pieces whose lengths ``np.add.reduceat`` sums to another
#: float than a left fold does.
SPREAD = tuple((i / 10, i / 10 + (i % 7 + 1) / 130) for i in range(10))


def _pieces(*bounds):
    return tuple(HashRange(lo, hi) for lo, hi in bounds)


def _agents(world, held=(), dead=(), degraded=(), full=()):
    """Stand-in agents: *held* maps node -> pieces of the crafted unit."""
    ident = world.ident
    agents = {}
    for node in world.topology.node_names:
        manifest = NodeManifest(node=node, full=node in full)
        if node in dict(held):
            manifest.entries[ident] = dict(held)[node]
        agents[node] = SimpleNamespace(
            node=node,
            alive=node not in dead,
            degraded=node in degraded,
            manifest=manifest,
        )
    return agents


def _crafted_cases(world):
    e = world.eligible
    # The first path node that is later by name than a node after it.
    x, y = next(
        (a, b) for i, a in enumerate(e) for b in e[i + 1:] if b < a
    )
    z = next(node for node in e if node not in (x, y))
    off = next(n for n in sorted(world.topology.node_names) if n not in e)
    spread = _pieces(*SPREAD)
    return {
        "equal-lo-overlap": dict(held=[
            (z, _pieces((0.0, 0.2), (0.43884583691157797, 0.788845836911578))),
            (x, _pieces((0.3, 0.8408932491145007))),
            (y, _pieces((0.3, 0.5))),
        ]),
        "degraded-endpoint-last": dict(
            held=[
                (e[0], _pieces((0.0, 0.063))),
                (e[1], _pieces((0.0, 0.5670000000000001))),
            ],
            degraded=[e[-1]],
        ),
        "degraded-endpoint-alone": dict(degraded=[e[0]]),
        "degraded-transit": dict(
            held=[(e[1], _pieces((0.0, 0.5))), (e[2], _pieces((0.5, 1.0)))],
            degraded=[e[1]],
        ),
        "dead-holder": dict(
            held=[(e[1], _pieces((0.0, 0.5))), (e[2], _pieces((0.5, 1.0)))],
            dead=[e[1]],
        ),
        "orphaned": dict(held=[(n, _pieces((0.0, 1.0))) for n in e], dead=e),
        "full-on-path": dict(held=[(e[0], _pieces((0.2, 0.4)))], full=[e[2]]),
        "full-off-path": dict(held=[(e[0], _pieces((0.2, 0.4)))], full=[off]),
        "rows-off-path": dict(
            held=[(off, _pieces((0.0, 1.0))), (e[1], _pieces((0.1, 0.35)))]
        ),
        "empty-pieces": dict(held=[
            (e[0], ()),
            (e[1], _pieces((0.4, 0.4 + 1e-10), (0.5, 0.5), (0.0, 0.25))),
            (e[2], _pieces((0.2, 0.7))),
        ]),
        "eight-pieces": dict(held=[
            (e[2], spread[-2::-2]),
            (e[0], spread[1::2]),
        ]),
    }


def _oracle_scored(world, agents):
    """The parent's epoch coverage, and the loop's adapter pair."""
    units = build_units([SIGNATURE], world.sessions, world.paths)
    served = oracle.served_manifests(agents, units)
    live = {node for node, agent in agents.items() if agent.alive}
    return units, served, live


@pytest.mark.parametrize(
    "case",
    [
        "equal-lo-overlap", "degraded-endpoint-last", "degraded-endpoint-alone",
        "degraded-transit", "dead-holder", "orphaned", "full-on-path",
        "full-off-path", "rows-off-path", "empty-pieces", "eight-pieces",
    ],
)
def test_crafted_units_fold_as_the_loop(crafted, case):
    agents = _agents(crafted, **_crafted_cases(crafted)[case])
    got = GroundTruth([SIGNATURE], crafted.sessions, crafted.paths, agents).coverage()
    want = oracle.epoch_coverage(
        [SIGNATURE], list(crafted.sessions), crafted.paths, agents
    )
    assert got == want
    units, served, live = _oracle_scored(crafted, agents)
    # The adapter is handed the dead agents' manifests too.
    manifests = {
        **{node: agent.manifest for node, agent in agents.items()},
        **served,
    }
    assert coverage_metrics(units, manifests, live) == oracle.coverage_metrics(
        units, manifests, live
    )
    # One unit: its covered measure is the summary's minimum, exactly.
    [unit] = units
    if case == "orphaned":
        assert got.orphaned_fraction == 1.0 and got.coverage == 1.0
        return
    held = [
        piece
        for node in unit.eligible
        if node in live
        for piece in served[node].ranges(*unit.ident)
    ]
    assert got.min_unit_coverage == min(1.0, union_length(held))


def test_the_crafted_ties_are_sharp(crafted):
    """The two tie orders the cases pin give different floats."""
    ordered = _pieces(
        (0.0, 0.2), (0.3, 0.8408932491145007), (0.3, 0.5),
        (0.43884583691157797, 0.788845836911578),
    )
    swapped = ordered[:1] + ordered[2:0:-1] + ordered[3:]
    assert union_length(ordered) != union_length(swapped)
    degraded_last = _pieces((0.0, 0.063), (0.0, 0.5670000000000001), (0.0, 1.0))
    assert union_length(degraded_last) != union_length(degraded_last[::-1])
    gains = np.array([hi - lo for lo, hi in SPREAD])
    assert np.add.reduceat(gains, [0])[0] != union_length(_pieces(*SPREAD))


@pytest.fixture(scope="module")
def settled():
    """An Internet2 plane four epochs in, and the manifests it served at
    epoch 1 (what a warm restart or a stale lease holds)."""
    topology = unit_capacity_topology("internet2")
    plane = ControlPlane(
        topology,
        Bus(BusConfig(latency=0.05, jitter=0.02, seed=3)),
        ControllerConfig(resolve_every=1, lease_ttl=2.5, retry_seed=3),
        HAConfig(replicas=1),
        AgentConfig(transition_window=2.0, lease_ttl=2.5),
        DiurnalBurstModel(base_sessions=300, seed=3),
        epochs=6,
        profiles=("mixed",),
        seed=3,
    )
    stale = {}
    for epoch in range(4):
        plane.run_epoch(epoch, "mixed")
        if epoch == 1:
            stale = {node: agent.manifest for node, agent in plane.agents.items()}
    return plane, stale


def _score_both(plane, sessions):
    truth = GroundTruth(plane.modules, sessions, plane.paths, plane.agents)
    got = (truth.coverage(), InvariantMonitor(plane.modules).pair_counts(truth))
    want = (
        oracle.epoch_coverage(plane.modules, list(sessions), plane.paths, plane.agents),
        oracle.coverage_floor(plane.modules, list(sessions), plane.agents),
    )
    assert got == want
    return got


@pytest.mark.parametrize("length", [0, 1, None])
def test_prefixes_score_as_the_loop(settled, length):
    plane, _stale = settled
    pool = plane.pools["mixed"]
    coverage, (baseline, _uncovered) = _score_both(
        plane, pool[: len(pool) if length is None else length]
    )
    assert (baseline > 0) == (length != 0)


STATES = ("alive", "dead", "degraded", "stale", "warm")


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_agent_states_score_as_the_loop(settled, data):
    """Any mix of live, crashed, degraded and stale agents: a ``stale``
    agent serves its epoch-1 manifest under a valid lease, a ``warm`` one
    came back holding it and is in edge-only fallback."""
    plane, stale = settled
    nodes = sorted(plane.agents)
    states = data.draw(st.lists(st.sampled_from(STATES), min_size=len(nodes),
                                max_size=len(nodes)))
    length = data.draw(st.integers(1, len(plane.pools["mixed"])))
    saved = {
        node: (agent.alive, agent.degraded, agent.manifest)
        for node, agent in plane.agents.items()
    }
    try:
        for node, state in zip(nodes, states):
            agent = plane.agents[node]
            agent.alive = state != "dead"
            agent.degraded = state in ("degraded", "warm")
            if state in ("stale", "warm"):
                agent.manifest = stale[node]
        _score_both(plane, plane.pools["mixed"][:length])
    finally:
        for node, (alive, degraded, manifest) in saved.items():
            agent = plane.agents[node]
            agent.alive, agent.degraded, agent.manifest = alive, degraded, manifest


class _OracleTruth(GroundTruth):
    """A ``GroundTruth`` that scores by the parent's loops."""

    def __init__(self, modules, sessions, paths, agents):
        super().__init__(modules, sessions, paths, agents)
        self.agents = agents

    def coverage(self):
        return oracle.epoch_coverage(
            self.modules, list(self.sessions), self.paths, self.agents
        )


def _oracle_pairs(monitor, truth):
    return oracle.coverage_floor(monitor.modules, list(truth.sessions), truth.agents)


@pytest.mark.parametrize(
    "plan, seed",
    [(plan, 7) for plan in sorted(NAMED_PLANS)] + [("random", s) for s in range(10)],
)
def test_whole_runs_score_as_the_loop(monkeypatch, plan, seed):
    topology = by_label("internet2")
    config = ScenarioConfig(
        plan=build_plan(plan, seed, 18, topology.node_names), seed=seed
    )
    result = run_chaos(config)
    monkeypatch.setattr(plane_module, "GroundTruth", _OracleTruth)
    monkeypatch.setattr(InvariantMonitor, "pair_counts", _oracle_pairs)
    expected = run_chaos(config)
    assert [dataclasses.asdict(r) for r in result.records] == [
        dataclasses.asdict(r) for r in expected.records
    ]
    assert result.violations == expected.violations
    assert result.reconverged_epoch == expected.reconverged_epoch
