"""Controller pre-distribution gate: corrupted configurations are
refused fail-closed, counted per violated invariant, and never pushed.

The acceptance scenario for the static-analysis subsystem: hand the
controller a manifest set with overlapping ranges (REP102) or off-path
mass (REP104) and prove (a) the previous configuration stays active,
(b) nothing reaches the wire, and (c) the
``controller_manifest_rejections_total{rule}`` counter attributes the
refusal to the right invariant.
"""

import pytest

from repro.control.bus import Bus, BusConfig
from repro.control.controller import Controller, ControllerConfig
from repro.core.manifest import generate_manifests
from repro.hashing.ranges import HashRange
from repro.measurement import FlowExporter
from repro.nids.modules import module_set
from repro.obs import MetricsRegistry
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator

REJECTIONS = "controller_manifest_rejections_total"


@pytest.fixture()
def world():
    topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(
        topology, paths, config=GeneratorConfig(seed=9)
    )
    sessions = generator.generate(400)
    registry = MetricsRegistry()
    controller = Controller(
        topology,
        paths,
        module_set(8),
        Bus(BusConfig(latency=0.0)),
        # No agents answer in these tests; keep silent nodes alive
        # across the multi-epoch retry sequence.
        config=ControllerConfig(heartbeat_timeout=100.0),
        registry=registry,
    )
    controller.reports["netflow"] = FlowExporter(
        sampling_rate=1.0, seed=9
    ).measure(sessions)
    return controller, registry


def overlapping_generate(units, assignment, node_names):
    """Real generation, then duplicate one node's range (REP102)."""
    manifests = generate_manifests(units, assignment, node_names)
    for node in node_names:
        for ident, pieces in manifests[node].entries.items():
            if pieces and pieces[0].length > 0.05:
                manifests[node].entries[ident] = pieces + (
                    HashRange(pieces[0].lo, pieces[0].hi),
                )
                return manifests
    raise AssertionError("no entry large enough to corrupt")


def off_path_generate(units, assignment, node_names):
    """Real generation, then park mass on a node off the unit's path
    (REP104)."""
    manifests = generate_manifests(units, assignment, node_names)
    for unit in units:
        strangers = [n for n in node_names if n not in unit.eligible]
        if strangers:
            manifests[strangers[0]].entries[unit.ident] = (
                HashRange(0.0, 0.25),
            )
            return manifests
    raise AssertionError("every unit is eligible everywhere")


class TestGateRejects:
    def test_overlapping_ranges_rejected_and_counted(self, world, monkeypatch):
        controller, registry = world
        monkeypatch.setattr(
            "repro.control.controller.generate_manifests",
            overlapping_generate,
        )
        controller.step(0.25)
        assert controller.version == -1  # nothing adopted
        assert controller.assignment is None
        assert controller.manifests == {}
        assert controller.stats.rejections == 1
        assert controller.stats.resolves == 0
        assert controller.bus.stats.sent == 0  # fail-closed: no pushes
        assert registry.get(REJECTIONS).value(rule="REP102") >= 1

    def test_off_path_mass_rejected_and_counted(self, world, monkeypatch):
        controller, registry = world
        monkeypatch.setattr(
            "repro.control.controller.generate_manifests", off_path_generate
        )
        controller.step(0.25)
        assert controller.version == -1
        assert controller.stats.rejections == 1
        assert controller.bus.stats.sent == 0
        assert registry.get(REJECTIONS).value(rule="REP104") >= 1

    def test_recovers_once_generation_is_healthy_again(
        self, world, monkeypatch
    ):
        controller, registry = world
        monkeypatch.setattr(
            "repro.control.controller.generate_manifests",
            overlapping_generate,
        )
        controller.step(0.25)
        controller.step(1.25)  # still corrupted: rejected again
        assert controller.version == -1
        assert controller.stats.rejections == 2
        monkeypatch.undo()
        controller.step(2.25)
        assert controller.version == 0  # healthy plan adopted
        assert controller.stats.resolves == 1
        assert controller.assignment is not None
        assert controller.bus.stats.sent > 0  # pushes flow again
        assert controller.stats.rejections == 2  # no new rejections


class TestGatePasses:
    def test_valid_bootstrap_unaffected(self, world):
        controller, registry = world
        controller.step(0.25)
        assert controller.version == 0
        assert controller.stats.rejections == 0
        assert controller.stats.resolves == 1
        metric = registry.get(REJECTIONS)
        assert metric is not None  # pre-declared so 0 != absent
        assert metric.value(rule="REP102") == 0
