"""Tests for the manifest/assignment JSON wire format."""

import json
import re

import pytest

from repro.core.manifest import full_manifest, verify_manifests
from repro.core.manifest_io import (
    SCHEMA_VERSION,
    assignment_from_dict,
    dump_assignment,
    dump_manifests,
    load_assignment,
    load_manifests,
    manifest_from_dict,
    manifest_to_dict,
)
from repro.core.nids_deployment import plan_deployment
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from tests.planning_oracle import fractions_of


@pytest.fixture(scope="module")
def deployment():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=121))
    sessions = generator.generate(1500)
    return plan_deployment(topo, paths, STANDARD_MODULES, sessions)


class TestManifestRoundTrip:
    def test_roundtrip_preserves_entries(self, deployment):
        text = dump_manifests(deployment.manifests)
        restored = load_manifests(text)
        assert set(restored) == set(deployment.manifests)
        for node, manifest in deployment.manifests.items():
            loaded = restored[node]
            assert set(loaded.entries) == set(manifest.entries)
            for key, ranges in manifest.entries.items():
                assert [
                    (r.lo, r.hi) for r in loaded.entries[key]
                ] == pytest.approx([(r.lo, r.hi) for r in ranges])

    def test_roundtrip_preserves_invariants(self, deployment):
        restored = load_manifests(dump_manifests(deployment.manifests))
        verify_manifests(deployment.units, restored)

    def test_roundtrip_preserves_decisions(self, deployment):
        restored = load_manifests(dump_manifests(deployment.manifests))
        for node, manifest in list(deployment.manifests.items())[:4]:
            for (class_name, key) in list(manifest.entries)[:10]:
                for probe in (0.1, 0.5, 0.9):
                    assert restored[node].contains(
                        class_name, key, probe
                    ) == manifest.contains(class_name, key, probe)

    def test_full_manifest_roundtrip(self):
        manifest = full_manifest("standalone")
        restored = manifest_from_dict(manifest_to_dict(manifest))
        assert restored.full
        assert restored.contains("anything", ("x",), 0.5)

    def test_output_is_valid_json(self, deployment):
        data = json.loads(dump_manifests(deployment.manifests))
        assert data["version"] == SCHEMA_VERSION
        assert len(data["manifests"]) == 11

    def test_version_check(self):
        with pytest.raises(ValueError):
            manifest_from_dict({"version": 99, "node": "x"})
        with pytest.raises(ValueError):
            load_manifests(json.dumps({"version": 0, "manifests": []}))

    def test_deterministic_output(self, deployment):
        assert dump_manifests(deployment.manifests) == dump_manifests(
            deployment.manifests
        )

    def test_a_unit_listed_twice_is_rejected(self, deployment):
        """Last-wins would drop the first listing unchecked: here an
        overlapping whole range in front of the real one."""
        data = json.loads(dump_manifests(deployment.manifests))
        block = next(m for m in data["manifests"] if m["entries"])
        entry = block["entries"][0]
        block["entries"].insert(0, dict(entry, ranges=[[0.0, 1.0]]))
        label = f"{entry['class']}/{','.join(entry['unit'])}"
        with pytest.raises(ValueError, match=f"{block['node']}.*{label} twice"):
            load_manifests(json.dumps(data))
        with pytest.raises(ValueError, match="twice"):
            manifest_from_dict(block)

    def test_a_node_listed_twice_is_rejected(self, deployment):
        data = json.loads(dump_manifests(deployment.manifests))
        first = data["manifests"][0]
        data["manifests"].insert(0, dict(first, entries=[]))
        with pytest.raises(ValueError, match=f"node {first['node']!r} twice"):
            load_manifests(json.dumps(data))

    def test_analysis_verify_exits_2_on_a_duplicate(self, deployment, tmp_path, capsys):
        from repro.analysis.cli import main as analysis_main

        data = json.loads(dump_manifests(deployment.manifests))
        block = next(m for m in data["manifests"] if m["entries"])
        block["entries"].append(block["entries"][0])
        path = tmp_path / "manifests.json"
        path.write_text(json.dumps(data))
        assert analysis_main(["verify", "--manifests", str(path)]) == 2
        assert "error: " in capsys.readouterr().err


class TestAssignmentRoundTrip:
    def test_roundtrip(self, deployment):
        assignment = deployment.assignment
        restored = load_assignment(dump_assignment(assignment))
        assert restored.objective == pytest.approx(assignment.objective)
        assert restored.cpu_load == pytest.approx(assignment.cpu_load)
        assert restored.mem_load == pytest.approx(assignment.mem_load)
        kept = fractions_of(restored)
        for key, value in fractions_of(assignment).items():
            if value > 1e-12:
                assert kept[key] == value

    def test_dump_is_a_fixed_point(self, deployment):
        """Loading a dumped assignment and dumping it again gives the
        same text: the wire format does not depend on how d* is held."""
        text = dump_assignment(deployment.assignment)
        assert dump_assignment(load_assignment(text)) == text

    def test_entry_listed_twice_is_rejected(self, deployment):
        """A (class, unit, node) listed twice used to keep its last
        fraction silently; the loader names it instead."""
        data = json.loads(dump_assignment(deployment.assignment))
        first = dict(data["fractions"][0], fraction=0.4)
        data["fractions"][1:1] = [dict(first, fraction=0.9)]
        data["fractions"][0] = first
        label = f"{first['class']}/{','.join(first['unit'])}@{first['node']}"
        message = re.escape(f"lists d* of {label} twice")
        with pytest.raises(ValueError, match=message):
            assignment_from_dict(data)

    @pytest.mark.parametrize("fraction", ["0.5", None, True])
    def test_a_fraction_that_is_not_a_number_is_rejected(self, deployment, fraction):
        data = json.loads(dump_assignment(deployment.assignment))
        data["fractions"][0]["fraction"] = fraction
        with pytest.raises(ValueError, match=f"is {fraction!r}, not a number"):
            assignment_from_dict(data)

    def test_coverage_preserved(self, deployment):
        restored = load_assignment(dump_assignment(deployment.assignment))
        assert restored.coverage == deployment.assignment.coverage

    def test_version_check(self):
        with pytest.raises(ValueError):
            assignment_from_dict({"version": 2})

    def test_manifests_rebuildable_from_loaded_assignment(self, deployment):
        """A reloaded assignment regenerates byte-identical manifests —
        the operations center can rebuild from its stored solution."""
        from repro.core.manifest import generate_manifests

        restored = load_assignment(dump_assignment(deployment.assignment))
        rebuilt = generate_manifests(
            deployment.units, restored, deployment.topology.node_names
        )
        assert dump_manifests(rebuilt) == dump_manifests(deployment.manifests)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    fractions=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6
    ),
    node_count=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_property_manifest_roundtrip(fractions, node_count):
    """Arbitrary generated manifests survive the wire format exactly."""
    from repro.core.manifest import NodeManifest, generate_manifests
    from repro.core.nids_lp import NIDSAssignment
    from repro.core.units import CoordinationUnit

    nodes = [f"n{i}" for i in range(max(node_count, len(fractions)))]
    eligible = tuple(nodes[: len(fractions)])
    total = sum(fractions)
    normalized = [f / total for f in fractions]
    unit = CoordinationUnit(
        class_name="c",
        key=("k",),
        eligible=eligible,
        pkts=1.0,
        items=1.0,
        cpu_work=1.0,
        mem_bytes=1.0,
    )
    assignment = NIDSAssignment.from_triples(
        (("c", ("k",), n, f) for n, f in zip(eligible, normalized)),
        {("c", ("k",)): 1.0},
    )
    manifests = generate_manifests([unit], assignment, nodes)
    restored = load_manifests(dump_manifests(manifests))
    for node in nodes:
        assert restored[node].entries.keys() == manifests[node].entries.keys()
        for key, ranges in manifests[node].entries.items():
            restored_ranges = restored[node].entries[key]
            assert [(r.lo, r.hi) for r in restored_ranges] == [
                (r.lo, r.hi) for r in ranges
            ]


class TestManifestDelta:
    """Delta encoding used by the coordination plane's config pushes."""

    def _manifests(self):
        from repro.core.manifest import NodeManifest
        from repro.hashing.ranges import HashRange

        old = NodeManifest(
            node="n1",
            entries={
                ("http", ("a", "b")): (HashRange(0.0, 0.5),),
                ("scan", ("a",)): (HashRange(0.2, 0.4), HashRange(0.6, 0.7)),
                ("irc", ("b",)): (HashRange(0.0, 1.0),),
            },
        )
        new = NodeManifest(
            node="n1",
            entries={
                ("http", ("a", "b")): (HashRange(0.0, 0.5),),  # unchanged
                ("scan", ("a",)): (HashRange(0.1, 0.4),),  # changed
                ("sig", ("c", "d")): (HashRange(0.9, 1.0),),  # added
                # irc removed
            },
        )
        return old, new

    def test_roundtrip_reproduces_new_exactly(self):
        from repro.core.manifest_io import apply_manifest_delta, manifest_diff

        old, new = self._manifests()
        delta = manifest_diff(old, new)
        restored = apply_manifest_delta(old, delta)
        assert restored.node == new.node
        assert restored.entries == new.entries
        assert restored.full == new.full

    def test_delta_carries_only_differences(self):
        from repro.core.manifest_io import manifest_diff

        old, new = self._manifests()
        delta = manifest_diff(old, new)
        changed = {(e["class"], tuple(e["unit"])) for e in delta["changed"]}
        removed = {(e["class"], tuple(e["unit"])) for e in delta["removed"]}
        assert changed == {("scan", ("a",)), ("sig", ("c", "d"))}
        assert removed == {("irc", ("b",))}

    def test_delta_is_json_schema_v1(self):
        from repro.core.manifest_io import manifest_diff

        old, new = self._manifests()
        delta = manifest_diff(old, new)
        assert delta["version"] == SCHEMA_VERSION
        assert delta["kind"] == "delta"
        # Must survive the JSON wire (floats round-trip exactly).
        assert json.loads(json.dumps(delta)) == delta

    def test_node_mismatch_rejected(self):
        from repro.core.manifest import NodeManifest
        from repro.core.manifest_io import apply_manifest_delta, manifest_diff

        old, new = self._manifests()
        with pytest.raises(ValueError):
            manifest_diff(old, NodeManifest(node="n2"))
        delta = manifest_diff(old, new)
        with pytest.raises(ValueError):
            apply_manifest_delta(NodeManifest(node="n2"), delta)

    def test_bad_version_and_kind_rejected(self):
        from repro.core.manifest_io import apply_manifest_delta, manifest_diff

        old, new = self._manifests()
        delta = manifest_diff(old, new)
        with pytest.raises(ValueError):
            apply_manifest_delta(old, {**delta, "version": 99})
        with pytest.raises(ValueError):
            apply_manifest_delta(old, {**delta, "kind": "manifest"})

    def test_deployment_manifest_roundtrip(self, deployment):
        """Real LP-produced manifests delta-roundtrip node by node."""
        from repro.core.manifest import NodeManifest
        from repro.core.manifest_io import apply_manifest_delta, manifest_diff

        for node, manifest in deployment.manifests.items():
            empty = NodeManifest(node=node)
            delta = manifest_diff(empty, manifest)
            assert apply_manifest_delta(empty, delta).entries == manifest.entries
