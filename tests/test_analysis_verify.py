"""Tests for the static deployment-artifact verifier (REP101-REP108).

Strategy: build a known-good artifact, corrupt exactly one invariant,
and assert the verifier reports exactly the corresponding rule ID —
the property CI and the controller gate rely on to attribute failures.
"""

import ast
import dataclasses
import inspect
import json
import pathlib
import random

import pytest

import repro
import repro.hashing.ranges

from repro.analysis.cli import main as analysis_main
from repro.analysis.verify import (
    VERIFIER_RULES,
    check_delta,
    check_nips,
    verify_artifact_files,
    verify_delta,
    verify_deployment,
    verify_nips,
)
from repro.core.manifest import (
    NodeManifest,
    generate_manifests,
    raise_first,
    verify_manifests,
)
from repro.core.manifest_io import (
    dump_assignment,
    dump_manifests,
    manifest_diff,
)
from repro.core.nids_lp import NIDSAssignment
from repro.core.nips_manifest import (
    generate_nips_manifests,
    verify_nips_manifests,
)
from repro.core.nips_milp import NIPSSolution, build_nips_problem
from repro.core.units import CoordinationUnit
from repro.hashing.ranges import HashRange
from repro.nips.rules import MatchRateMatrix, unit_rules
from repro.topology import internet2


def make_unit(nodes=("A", "B"), class_name="c", key=("k",)):
    return CoordinationUnit(
        class_name=class_name,
        key=key,
        eligible=tuple(nodes),
        pkts=1.0,
        items=1.0,
        cpu_work=1.0,
        mem_bytes=1.0,
    )


def make_assignment(unit, weights):
    return NIDSAssignment(
        fractions={
            (unit.class_name, unit.key, node): w for node, w in weights.items()
        },
        cpu_load={},
        mem_load={},
        objective=0.0,
        coverage={unit.ident: 1.0},
        solve_seconds=0.0,
    )


def good_world(split=0.6):
    """One unit split across two nodes: the minimal valid deployment."""
    unit = make_unit()
    ident = unit.ident
    manifests = {
        "A": NodeManifest("A", {ident: (HashRange(0.0, split),)}),
        "B": NodeManifest("B", {ident: (HashRange(split, 1.0),)}),
    }
    assignment = make_assignment(unit, {"A": split, "B": 1.0 - split})
    return unit, manifests, assignment


class TestDeploymentChecks:
    def test_valid_deployment_is_clean(self):
        unit, manifests, assignment = good_world()
        report = verify_deployment([unit], manifests, assignment)
        assert report.ok
        assert report.checks == (
            "partition", "on-path", "assignment", "assignment-match"
        )

    def test_coverage_gap_is_rep101(self):
        unit, manifests, _ = good_world()
        manifests["B"].entries[unit.ident] = (HashRange(0.7, 1.0),)
        report = verify_deployment([unit], manifests)
        assert report.rule_ids() == ["REP101"]

    def test_overlapping_ranges_on_one_node_is_rep102(self):
        unit, manifests, _ = good_world()
        manifests["A"].entries[unit.ident] = (
            HashRange(0.0, 0.6),
            HashRange(0.4, 0.6),
        )
        report = verify_deployment([unit], manifests)
        assert "REP102" in report.rule_ids()

    def test_top_sliver_below_one_is_rep103(self):
        # Coverage tolerates an EPSILON shortfall at the top, so a
        # 5e-10 sliver passes REP101 — but the top-snap invariant
        # (exactly 1.0) is its own rule.
        unit, manifests, _ = good_world()
        manifests["B"].entries[unit.ident] = (HashRange(0.6, 1.0 - 5e-10),)
        report = verify_deployment([unit], manifests)
        assert report.rule_ids() == ["REP103"]

    def test_off_path_mass_is_rep104(self):
        unit, manifests, _ = good_world()
        # A third node, never on the unit's forwarding path, holds mass
        # — and the partition stays exact, so REP104 fires alone.
        manifests["A"].entries[unit.ident] = (HashRange(0.0, 0.3),)
        manifests["C"] = NodeManifest("C", {unit.ident: (HashRange(0.3, 0.6),)})
        report = verify_deployment([unit], manifests)
        assert report.rule_ids() == ["REP104"]

    def test_unplanned_unit_entry_is_rep104(self):
        unit, manifests, _ = good_world()
        manifests["A"].entries[("ghost", ("g",))] = (HashRange(0.0, 0.2),)
        report = verify_deployment([unit], manifests)
        assert report.rule_ids() == ["REP104"]

    def test_eligible_node_without_manifest_is_rep101(self):
        # The raising view used to walk ``manifests[node]`` and die
        # with a KeyError; the finding view silently skipped the node.
        unit = make_unit(nodes=("A", "B", "C"))
        _, manifests, _ = good_world()
        report = verify_deployment([unit], manifests)
        assert report.rule_ids() == ["REP101"]
        assert [f.subject for f in report.findings] == ["c/k@C"]
        with pytest.raises(ValueError, match="REP101"):
            verify_manifests([unit], manifests)

    def test_raising_view_rejects_what_the_report_rejects(self):
        # Off-path mass with an exact partition: the old raising
        # validator never looked at non-eligible nodes.
        unit, manifests, _ = good_world()
        manifests["A"].entries[unit.ident] = (HashRange(0.0, 0.3),)
        manifests["C"] = NodeManifest("C", {unit.ident: (HashRange(0.3, 0.6),)})
        with pytest.raises(ValueError, match="REP104"):
            verify_manifests([unit], manifests)

    def test_assignment_sum_short_is_rep101(self):
        unit, manifests, _ = good_world()
        bad = make_assignment(unit, {"A": 0.6, "B": 0.1})
        report = verify_deployment([unit], manifests, bad)
        assert "REP101" in report.rule_ids()

    def test_assignment_off_path_is_rep104(self):
        unit, manifests, _ = good_world()
        bad = make_assignment(unit, {"A": 0.6, "B": 0.3, "Z": 0.1})
        report = verify_deployment([unit], manifests, bad)
        assert "REP104" in report.rule_ids()

    def test_nan_fraction_is_rep101(self):
        """NaN fails every comparison: it used to skip Eq. 6, the Eq. 1
        sum and REP107 alike and verify OK."""
        unit, manifests, assignment = good_world()
        assignment.fractions[(unit.class_name, unit.key, "B")] = float("nan")
        report = verify_deployment([unit], manifests, assignment)
        assert [(f.rule_id, f.subject) for f in report.findings] == [
            ("REP101", "c/k@B"),
            ("REP101", "c/k"),
            ("REP107", "c/k@B"),
        ]
        assert "fraction nan outside [0, 1] (Eq. 6)" in report.findings[0].message

    def test_negative_fraction_is_rep101(self):
        """A negative fraction used to be skipped as massless before the
        Eq. 6 test could see it."""
        unit, manifests, assignment = good_world()
        assignment.fractions[(unit.class_name, unit.key, "C")] = -0.4
        report = verify_deployment([unit], manifests, assignment)
        assert [(f.rule_id, f.subject) for f in report.findings] == [
            ("REP101", "c/k@C")
        ]
        assert "fraction -0.4 outside [0, 1] (Eq. 6)" in report.findings[0].message

    def test_manifest_vs_dstar_drift_is_rep107(self):
        unit, manifests, _ = good_world(split=0.6)
        drifted = make_assignment(unit, {"A": 0.5, "B": 0.5})
        report = verify_deployment([unit], manifests, drifted)
        assert report.rule_ids() == ["REP107"]

    def test_generated_manifests_verify_clean(self):
        # The real generation pipeline must satisfy its own verifier.
        rng = random.Random(3)
        nodes = ["n0", "n1", "n2"]
        units = [
            make_unit(nodes=tuple(nodes), key=(f"k{i}",)) for i in range(6)
        ]
        fractions = {}
        for unit in units:
            weights = [rng.random() for _ in nodes]
            total = sum(weights)
            for node, w in zip(nodes, weights):
                fractions[(unit.class_name, unit.key, node)] = w / total
        assignment = NIDSAssignment(
            fractions=fractions,
            cpu_load={},
            mem_load={},
            objective=0.0,
            coverage={unit.ident: 1.0 for unit in units},
            solve_seconds=0.0,
        )
        manifests = generate_manifests(units, assignment, nodes)
        report = verify_deployment(units, manifests, assignment)
        assert report.ok, report.render_text()

    def test_raise_for_findings(self):
        unit, manifests, _ = good_world()
        manifests["B"].entries[unit.ident] = (HashRange(0.7, 1.0),)
        report = verify_deployment([unit], manifests)
        with pytest.raises(ValueError, match="REP101"):
            raise_first(report.findings)
        raise_first([])

    def test_report_json_schema(self):
        unit, manifests, _ = good_world()
        manifests["B"].entries[unit.ident] = (HashRange(0.7, 1.0),)
        payload = json.loads(verify_deployment([unit], manifests).render_json())
        assert payload["version"] == 1 and payload["ok"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "subject", "message"}
        assert finding["rule"] in VERIFIER_RULES


class TestDeltaChecks:
    @staticmethod
    def base_and_new():
        ident = ("c", ("k",))
        base = NodeManifest("A", {ident: (HashRange(0.0, 0.5),)})
        new = NodeManifest("A", {ident: (HashRange(0.0, 0.7),)})
        return base, new

    def test_clean_delta_verifies(self):
        base, new = self.base_and_new()
        assert verify_delta(base, manifest_diff(base, new)).ok

    def test_wrong_node_is_rep106(self):
        base, new = self.base_and_new()
        delta = dict(manifest_diff(base, new), node="B")
        report = verify_delta(base, delta)
        assert report.rule_ids() == ["REP106"]

    def test_wrong_schema_version_is_rep106(self):
        base, new = self.base_and_new()
        delta = dict(manifest_diff(base, new), version=99)
        assert verify_delta(base, delta).rule_ids() == ["REP106"]

    def test_removal_absent_from_base_is_rep106(self):
        base, new = self.base_and_new()
        delta = manifest_diff(base, new)
        delta["removed"] = [{"class": "c", "unit": ["other"]}]
        report = verify_delta(base, delta)
        assert "REP106" in report.rule_ids()

    def test_delta_leaving_overlap_is_rep102(self):
        base, new = self.base_and_new()
        delta = manifest_diff(base, new)
        delta["changed"][0]["ranges"] = [[0.0, 0.5], [0.4, 0.9]]
        report = verify_delta(base, delta)
        assert report.rule_ids() == ["REP102"]

    def test_check_delta_malformed_ranges_is_rep106(self):
        base, new = self.base_and_new()
        delta = manifest_diff(base, new)
        delta["changed"][0]["ranges"] = [[0.9, 0.1]]  # lo > hi
        findings = check_delta(base, delta)
        assert [f.rule_id for f in findings] == ["REP106"]


@pytest.fixture(scope="module")
def nips_world():
    topology = internet2().set_uniform_capacities(cpu=1e9, mem=1e9, cam=2.0)
    rules = unit_rules(3)
    pairs = [
        (a, b)
        for a in topology.node_names
        for b in topology.node_names
        if a != b
    ]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(5))
    problem = build_nips_problem(topology, rules, match)
    return problem


class TestNIPSChecks:
    @staticmethod
    def solution_for(problem, pair, rule_index=0):
        """Enable one rule at the pair's first on-path node, full mass."""
        node = problem.paths[pair].nodes[0]
        solution = NIPSSolution(
            e={(rule_index, node): 1.0},
            d={(rule_index, pair, node): 1.0},
            objective=0.0,
            solve_seconds=0.0,
        )
        return solution, node

    def test_valid_solution_is_clean(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, _ = self.solution_for(problem, pair)
        assert verify_nips(problem, solution).ok

    def test_tcam_overflow_is_rep105(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, node = self.solution_for(problem, pair)
        # cam capacity is 2.0 slots; enabling all three unit rules
        # (cam_req=1.0 each) overflows it.
        solution.e = {(i, node): 1.0 for i in range(3)}
        solution.d = {}
        report = verify_nips(problem, solution)
        assert report.rule_ids() == ["REP105"]

    def test_sampling_without_enablement_is_rep108(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, node = self.solution_for(problem, pair)
        solution.e = {}
        report = verify_nips(problem, solution)
        assert report.rule_ids() == ["REP108"]

    def test_off_path_filtering_is_rep104(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, _ = self.solution_for(problem, pair)
        off_path = next(
            n
            for n in problem.topology.node_names
            if n not in problem.paths[pair].nodes
        )
        solution.e[(0, off_path)] = 1.0
        solution.d = {(0, pair, off_path): 1.0}
        report = verify_nips(problem, solution)
        assert report.rule_ids() == ["REP104"]

    def test_path_mass_above_one_is_rep101(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, node = self.solution_for(problem, pair)
        second = problem.paths[pair].nodes[-1]
        solution.e[(0, second)] = 1.0
        solution.d[(0, pair, second)] = 0.4  # 1.0 + 0.4 > 1
        report = verify_nips(problem, solution)
        assert report.rule_ids() == ["REP101"]

    def test_negative_fraction_is_rep101(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, node = self.solution_for(problem, pair)
        solution.d[(0, pair, node)] = -0.25
        assert verify_nips(problem, solution).rule_ids() == ["REP101"]

    @pytest.mark.parametrize("resource", ["cpu", "mem"])
    def test_node_capacity_overload_is_rep105(self, nips_world, resource):
        # Eqs. 9-10: only ``check_feasible`` used to look at CPU and
        # memory, so an overloaded node verified clean.
        pair = next(iter(nips_world.paths))
        solution, node = self.solution_for(nips_world, pair)
        volume = {"cpu": nips_world.pkts, "mem": nips_world.items}[resource][pair]
        tight = internet2().set_uniform_capacities(
            **{"cpu": 1e9, "mem": 1e9, "cam": 2.0, resource: volume / 2}
        )
        problem = dataclasses.replace(nips_world, topology=tight)
        report = verify_nips(problem, solution)
        assert report.rule_ids() == ["REP105"]
        assert [f.subject for f in report.findings] == [
            f"{'cpu' if resource == 'cpu' else 'memory'}@{node}"
        ]
        assert len(problem.check_feasible(solution.e, solution.d)) == 1

    def test_two_nodes_overlapping_on_one_path_is_rep102(self, nips_world):
        # Each node's own ranges are disjoint and hold exactly the
        # solved mass, so only the cross-node sweep can see it.
        problem = nips_world
        pair = next(p for p in problem.paths if len(problem.paths[p].nodes) >= 2)
        first, last = problem.paths[pair].nodes[0], problem.paths[pair].nodes[-1]
        solution, _ = self.solution_for(problem, pair)
        solution.e = {(0, first): 1.0, (0, last): 1.0}
        solution.d = {(0, pair, first): 0.3, (0, pair, last): 0.3}
        manifests = generate_nips_manifests(problem, solution)
        assert verify_nips(problem, solution, manifests).ok
        manifests[last].ranges[(0, pair)] = (HashRange(0.1, 0.4),)
        report = verify_nips(problem, solution, manifests)
        assert report.rule_ids() == ["REP102"]
        with pytest.raises(ValueError, match="REP102"):
            verify_nips_manifests(solution, manifests)

    def test_generated_nips_manifests_verify_clean(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, _ = self.solution_for(problem, pair)
        manifests = generate_nips_manifests(problem, solution)
        assert verify_nips(problem, solution, manifests).ok

    def test_manifest_sampling_outside_tcam_is_rep108(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, node = self.solution_for(problem, pair)
        manifests = generate_nips_manifests(problem, solution)
        manifests[node].ranges[(1, pair)] = (HashRange(0.0, 0.0),)
        report = verify_nips(problem, solution, manifests)
        assert "REP108" in report.rule_ids()

    def test_manifest_mass_drift_is_rep107(self, nips_world):
        problem = nips_world
        pair = next(iter(problem.paths))
        solution, node = self.solution_for(problem, pair)
        manifests = generate_nips_manifests(problem, solution)
        manifests[node].ranges[(0, pair)] = (HashRange(0.0, 0.5),)
        report = verify_nips(problem, solution, manifests)
        assert report.rule_ids() == ["REP107"]


class TestArtifactFiles:
    @staticmethod
    def write_artifacts(tmp_path, manifests, assignment=None):
        manifests_path = tmp_path / "manifests.json"
        manifests_path.write_text(dump_manifests(manifests))
        assignment_path = None
        if assignment is not None:
            assignment_path = tmp_path / "assignment.json"
            assignment_path.write_text(dump_assignment(assignment))
        return manifests_path, assignment_path

    def test_round_trip_clean(self, tmp_path):
        unit, manifests, assignment = good_world()
        m_path, a_path = self.write_artifacts(tmp_path, manifests, assignment)
        report = verify_artifact_files(str(m_path), str(a_path))
        assert report.ok

    def test_fold_inferred_noted_without_assignment(self, tmp_path):
        unit, manifests, _ = good_world()
        m_path, _ = self.write_artifacts(tmp_path, manifests)
        report = verify_artifact_files(str(m_path))
        assert report.ok and "fold-inferred" in report.checks

    def test_corrupted_file_fails_with_rule_id(self, tmp_path):
        unit, manifests, assignment = good_world()
        manifests["B"].entries[unit.ident] = (HashRange(0.7, 1.0),)
        m_path, a_path = self.write_artifacts(tmp_path, manifests, assignment)
        report = verify_artifact_files(str(m_path), str(a_path))
        assert "REP101" in report.rule_ids()

    def test_cli_verify_exit_codes(self, tmp_path, capsys):
        unit, manifests, assignment = good_world()
        m_path, a_path = self.write_artifacts(tmp_path, manifests, assignment)
        assert analysis_main(
            ["verify", "--manifests", str(m_path), "--assignment", str(a_path)]
        ) == 0
        manifests["B"].entries[unit.ident] = (HashRange(0.7, 1.0),)
        m_bad, _ = self.write_artifacts(tmp_path, manifests)
        assert analysis_main(["verify", "--manifests", str(m_bad)]) == 1
        assert "REP101" in capsys.readouterr().out
        assert analysis_main(["verify", "--manifests", str(tmp_path / "no.json")]) == 2

    def test_cli_list_rules(self, capsys):
        assert analysis_main(["verify", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in VERIFIER_RULES:
            assert rule_id in out


SRC = pathlib.Path(repro.__file__).parent


def _calls(path):
    """Names called as plain functions anywhere in *path*."""
    tree = ast.parse(path.read_text())
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def _defined(path):
    tree = ast.parse(path.read_text())
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _product_callers(primitive):
    """Modules of ``src/repro`` outside ``hashing`` that call *primitive*."""
    return {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "hashing" not in path.parts and primitive in _calls(path)
    }


class TestOneCheck:
    """Each deployment invariant has one implementation, beside the
    artifact it constrains; everything else is a view of it."""

    @pytest.mark.parametrize(
        "primitive, owner",
        [
            ("are_disjoint", "core/manifest.py"),
            ("union_length", "control/epochs.py"),
        ],
    )
    def test_range_primitives_have_one_product_caller(self, primitive, owner):
        assert _product_callers(primitive) == {owner}

    def test_cover_sweep_has_no_product_caller(self):
        """The Fig. 2 cover sweep and wraparound are stated once, as
        ``check_partition``'s sorted-endpoint pass and
        ``generate_manifests``' lap steps over every unit at once; the
        scalar ``covers_unit_interval`` and ``WrappedRange`` are the
        oracle's (``tests/manifest_oracle.py``), not the product's."""
        for name in ("covers_unit_interval", "WrappedRange"):
            assert _product_callers(name) == set()
            assert not hasattr(repro.hashing.ranges, name)
        oracle = pathlib.Path(__file__).parent / "manifest_oracle.py"
        assert {"covers_unit_interval", "WrappedRange"} <= _calls(oracle)

    def test_views_hold_no_range_or_capacity_arithmetic(self):
        for view in (verify_manifests, verify_nips_manifests, check_nips):
            source = inspect.getsource(view)
            for token in (
                "HashRange", ".lo", ".hi", ".length", "sum(", "capacity",
                "are_disjoint", "covers_unit_interval", " > ", " < ",
            ):
                assert token not in source, (view.__name__, token)

    def test_analysis_verify_defines_no_check_core_defines(self):
        core = set().union(*(_defined(p) for p in (SRC / "core").glob("*.py")))
        mine = _defined(SRC / "analysis" / "verify.py")
        assert not {name for name in mine & core if not name.startswith("_")}
        assert "Finding(" not in (SRC / "analysis" / "verify.py").read_text()
