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

Seeded mutations each of which fails a test here: dropping the
``", "`` term from the handoff size
(``test_every_handoff_size_is_its_payloads_json_length``); breaking
distance ties by candidate before tree node in ``_spanning_tree``
(``test_ties_break_like_the_cubic_loop``); popping a receiver's queue
without the heap (``list.pop(0)``) in ``Bus.deliver``
(``test_deliveries_match_the_list_scan``); ignoring ``estimated`` in
``Controller._resolve`` (``test_a_drift_replan_estimates_once``).
"""

import json
import random

import pytest

from repro.control import controller as controller_module
from repro.control.bus import Bus, BusConfig
from repro.control.chaos import build_plan, run_chaos
from repro.control.controller import Controller
from repro.control.plane import ChaosBus, FaultEvent, FaultPlan, ScenarioConfig
from repro.control.protocol import KIND_STATE_HANDOFF
from repro.control.scenarios import run_scenario, standard_scenario
from repro.topology import datasets
from repro.topology.datasets import by_label
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
