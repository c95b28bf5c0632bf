"""Tests for NIPS rule placements and sampling manifests.

A NIPS manifest is a plain ``NodeManifest`` with one entry per (rule,
path), keyed ``rule_unit(i, pair)``; the TCAM placement is the
solution's ``e``.  ``TestAgainstOracle`` compares the layout, the check,
the flow lookup and ``enforce`` with the loops they replaced
(``tests/manifest_oracle.py``) on Hypothesis-perturbed ``d``.

Seeded mutations, each on a copy of ``src/repro`` and each failing the
named tests (``ORACLE`` is
``TestAgainstOracle::test_layout_check_lookup_and_enforce_against_the_old_loops``):

* ``lay_paths`` starting a piece at ``position`` instead of
  ``min(1.0, position)``: ``test_mass_past_the_top_lays_nothing``,
  ORACLE and ``tests/test_enforcement.py``'s
  ``test_mass_past_the_top_books_no_negative_share``;
* ``check_nips_manifests`` without its REP108 term (every row
  enabled): ``test_entry_outside_the_tcam_is_rep108``,
  ``test_verifier_catches_unenabled_sampling``, ORACLE and
  ``tests/test_analysis_verify.py``'s
  ``test_manifest_sampling_outside_tcam_is_rep108``;
* without the per-row overlap pass:
  ``test_own_overlap_is_rep102_at_the_node`` and ORACLE;
* without the per-path overlap pass:
  ``test_overlap_across_nodes_is_rep102_on_the_path``,
  ``test_own_overlap_is_rep102_at_the_node``, ORACLE and
  ``test_two_nodes_overlapping_on_one_path_is_rep102``;
* without the per-row mass term: ``test_mass_drift_is_rep107`` and
  ORACLE;
* without the per-path mass term: ``test_mass_drift_is_rep107``,
  ``test_a_path_without_rows_is_rep107`` and ORACLE;
* ``enforce`` taking its shares from every ``d > 0`` instead of the
  laid rows: ORACLE and ``tests/test_enforcement.py``'s
  ``test_entries_at_or_under_epsilon_are_not_booked`` and
  ``test_mass_past_the_top_books_no_negative_share``.
"""

import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.manifest import NodeManifest
from repro.core.manifest_table import ManifestTable
from repro.core.nips_manifest import (
    check_nips_manifests,
    generate_nips_manifests,
    rule_unit,
    verify_nips_manifests,
)
from repro.core.nips_milp import NIPSSolution, compile_nips_polytope
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.hashing.bobhash import hash_unit
from repro.hashing.keys import Aggregation, key_for
from repro.hashing.ranges import EPSILON, HashRange
from repro.nips.enforcement import enforce
from repro.traffic.generator import home_node_index, host_id
from repro.traffic.packet import TCP, FiveTuple, Packet
from tests import manifest_oracle as old
from tests import planning_oracle as oracle
from tests.test_nips_milp import small_problem


@pytest.fixture(scope="module")
def solved():
    problem = small_problem(num_rules=6, cam=3.0, seed=31, num_nodes=6)
    best = best_of_roundings(problem, RoundingVariant.GREEDY_LP, iterations=4, seed=2)
    return problem, best.solution


@pytest.fixture(scope="module")
def manifests(solved):
    problem, solution = solved
    return generate_nips_manifests(problem, solution)


def rules_applied(problem, manifests, node, flows, hash_seed=0):
    """Per flow, the rules *node* applies to it: one
    ``ManifestTable.contains_batch`` probe per rule over every flow."""
    names = problem.topology.node_names
    table = ManifestTable.from_manifests({node: manifests[node]})
    pairs = [(names[home_node_index(f.src)], names[home_node_index(f.dst)]) for f in flows]
    hashes = np.array(
        [
            hash_unit(key_for(Aggregation.FLOW, f.src, f.dst, f.sport, f.dport, f.proto), hash_seed)
            for f in flows
        ]
    )
    applied = [[] for _ in flows]
    for rule in sorted(r.index for r in problem.rules):
        inside = table.contains_batch(
            table.unit_ids(rule_unit(rule, pair) for pair in pairs), hashes
        )
        for k in np.flatnonzero(inside).tolist():
            applied[k].append(rule)
    return applied


def random_flows(problem, rng, count):
    n = len(problem.topology.node_names)
    return [
        FiveTuple(
            host_id(rng.randrange(n), rng.randrange(5000)),
            host_id(rng.randrange(n), rng.randrange(5000)),
            rng.randrange(1024, 65535),
            80,
            TCP,
        )
        for _ in range(count)
    ]


class TestGeneration:
    def test_invariants_hold(self, solved, manifests):
        problem, solution = solved
        verify_nips_manifests(solution, manifests)
        assert check_nips_manifests(solution, ManifestTable.of(manifests)) == []

    def test_manifests_are_node_manifests_keyed_by_rule_and_path(self, solved, manifests):
        problem, _ = solved
        assert set(manifests) == set(problem.topology.node_names)
        keys = {rule_unit(r.index, pair) for r in problem.rules for pair in problem.pairs}
        for node, manifest in manifests.items():
            assert isinstance(manifest, NodeManifest) and manifest.node == node
            assert not manifest.full
            assert set(manifest.entries) <= keys
            assert all(len(pieces) == 1 for pieces in manifest.entries.values())

    def test_tcam_capacity_respected(self, solved, manifests):
        problem, solution = solved
        for node, manifest in manifests.items():
            enabled = solution.enabled_rules(node)
            used = sum(problem.rules[i].cam_req for i in enabled)
            assert used <= problem.topology.node(node).cam_capacity + 1e-9
            for name, _pair in manifest.entries:
                assert int(name.removeprefix("rule")) in enabled

    def test_sampled_fractions_match_solution(self, solved, manifests):
        problem, solution = solved
        for (i, pair, node), fraction in oracle.d_dict(problem, solution.d).items():
            held = manifests[node].assigned_fraction(*rule_unit(i, pair))
            if fraction > EPSILON:
                assert held == pytest.approx(fraction, abs=1e-6)
            else:
                assert rule_unit(i, pair) not in manifests[node].entries

    def test_at_most_one_node_per_hash_point(self, solved, manifests):
        problem, _ = solved
        probes = (0.1, 0.4, 0.7, 0.95)
        for pair in problem.pairs:
            for rule in problem.rules:
                for probe in probes:
                    holders = [
                        node
                        for node, manifest in manifests.items()
                        if manifest.contains(*rule_unit(rule.index, pair), probe)
                    ]
                    assert len(holders) <= 1

    def test_oversampled_solution_rejected(self, solved):
        problem, solution = solved
        pair = problem.pairs[0]
        nodes = problem.paths[pair].nodes
        broken = dataclasses.replace(
            solution,
            d=oracle.d_vector(
                problem,
                {
                    **oracle.d_dict(problem, solution.d),
                    (0, pair, nodes[0]): 0.8,
                    (0, pair, nodes[-1]): 0.8,
                },
            ),
        )
        with pytest.raises(ValueError):
            generate_nips_manifests(problem, broken)

    def test_mass_past_the_top_lays_nothing(self):
        """A path whose mass passes 1 within MASS_TOL passes the
        feasibility check, so it must lay: the piece that starts past
        the top is empty, and the check stays quiet."""
        problem = small_problem(num_rules=3, cam=3.0, seed=5, num_nodes=6)
        pair = ("n000", "n001")
        first, second = problem.paths[pair].nodes[:2]
        solution = oracle.solution_of(
            problem,
            {(r.index, n): 1.0 for r in problem.rules for n in problem.topology.node_names},
            {(0, pair, first): 1 + 5e-7, (0, pair, second): 5e-8},
        )
        assert problem.check(solution.e, solution.d) == []
        with pytest.raises(ValueError, match="invalid hash range"):
            old.generate_nips_manifests(problem, solution)
        manifests = generate_nips_manifests(problem, solution)
        assert manifests[first].entries[rule_unit(0, pair)] == (HashRange(0.0, 1.0),)
        assert manifests[second].entries[rule_unit(0, pair)] == (HashRange(1.0, 1.0),)
        assert check_nips_manifests(solution, manifests) == []


    def test_verifier_catches_unenabled_sampling(self, solved, manifests):
        # The placement is the solution's e: dropping a sampled rule
        # from a node's TCAM leaves its entries outside it.
        problem, solution = solved
        node, (name, _pair) = next(
            (n, key) for n, m in sorted(manifests.items()) for key in sorted(m.entries)
        )
        e = oracle.e_dict(problem, solution.e)
        e[(int(name.removeprefix("rule")), node)] = 0.0
        unplaced = dataclasses.replace(solution, e=oracle.e_vector(problem, e))
        findings = check_nips_manifests(unplaced, manifests)
        assert {f.rule_id for f in findings} == {"REP108"}
        assert len(findings) == sum(key[0] == name for key in manifests[node].entries)
        with pytest.raises(ValueError, match="REP108"):
            verify_nips_manifests(unplaced, manifests)


class TestCheck:
    """Each finding of the check, on one seeded corruption."""

    @pytest.fixture
    def laid(self, solved):
        """Rule 0 split over two nodes of one path, rule 1 on one."""
        problem, _ = solved
        pair = next(p for p in problem.pairs if len(problem.paths[p].nodes) >= 2)
        holders = [problem.paths[pair].nodes[0], problem.paths[pair].nodes[-1]]
        solution = oracle.solution_of(
            problem,
            {(0, holders[0]): 1.0, (0, holders[1]): 1.0, (1, holders[0]): 1.0},
            {(0, pair, holders[0]): 0.3, (0, pair, holders[1]): 0.4, (1, pair, holders[0]): 0.5},
        )
        return problem, solution, generate_nips_manifests(problem, solution), pair, holders

    def test_entry_outside_the_tcam_is_rep108(self, solved, manifests):
        problem, solution = solved
        node = problem.topology.node_names[0]
        outside = next(r.index for r in problem.rules if r.index not in solution.enabled_rules(node))
        for pieces in ((), (HashRange(0.0, 0.0),), (HashRange(0.2, 0.3),)):
            broken = {n: NodeManifest(n, dict(m.entries)) for n, m in manifests.items()}
            broken[node].entries[rule_unit(outside, problem.pairs[0])] = pieces
            assert "REP108" in {f.rule_id for f in check_nips_manifests(solution, broken)}
            with pytest.raises(ValueError, match="REP108"):
                verify_nips_manifests(solution, broken)

    def test_own_overlap_is_rep102_at_the_node(self, laid):
        problem, solution, fresh, pair, holders = laid
        (piece,) = fresh[holders[0]].entries[rule_unit(0, pair)]
        half = piece.lo + (piece.hi - piece.lo) / 2
        fresh[holders[0]].entries[rule_unit(0, pair)] = (
            HashRange(piece.lo, half),
            HashRange(piece.lo, half),
        )
        findings = check_nips_manifests(solution, fresh)
        assert [(f.rule_id, f.subject) for f in findings if f.rule_id == "REP102"] == [
            ("REP102", f"rule0/{pair[0]}->{pair[1]}@{holders[0]}"),
            ("REP102", f"rule0/{pair[0]}->{pair[1]}"),
        ]

    def test_overlap_across_nodes_is_rep102_on_the_path(self, laid):
        problem, solution, fresh, pair, holders = laid
        # Same mass, shifted onto its neighbour: only the path pass sees it.
        (a,) = fresh[holders[0]].entries[rule_unit(0, pair)]
        (b,) = fresh[holders[1]].entries[rule_unit(0, pair)]
        fresh[holders[1]].entries[rule_unit(0, pair)] = (HashRange(b.lo - 1e-3, b.hi - 1e-3),)
        findings = check_nips_manifests(solution, fresh)
        assert [(f.rule_id, f.subject) for f in findings] == [
            ("REP102", f"rule0/{pair[0]}->{pair[1]}")
        ]

    def test_mass_drift_is_rep107(self, laid):
        problem, solution, fresh, pair, holders = laid
        (piece,) = fresh[holders[0]].entries[rule_unit(0, pair)]
        fresh[holders[0]].entries[rule_unit(0, pair)] = (HashRange(piece.lo, piece.hi - 1e-3),)
        findings = check_nips_manifests(solution, fresh)
        assert [(f.rule_id, f.subject) for f in findings] == [
            ("REP107", f"rule0/{pair[0]}->{pair[1]}@{holders[0]}"),
            ("REP107", f"rule0/{pair[0]}->{pair[1]}"),
        ]

    def test_a_path_without_rows_is_rep107(self, laid):
        problem, solution, fresh, pair, holders = laid
        for node in holders:
            del fresh[node].entries[rule_unit(0, pair)]
        findings = check_nips_manifests(solution, fresh)
        assert [(f.rule_id, f.subject) for f in findings] == [
            ("REP107", f"rule0/{pair[0]}->{pair[1]}")
        ]


class TestDispatcher:
    """"Which rules does node j apply to these flows" is
    ``ManifestTable.contains_batch`` on the node's manifest."""

    def test_rules_applied_are_enabled(self, solved, manifests):
        problem, solution = solved
        flows = random_flows(problem, random.Random(3), 50)
        for node in problem.topology.node_names[:3]:
            for rules in rules_applied(problem, manifests, node, flows):
                assert set(rules) <= set(solution.enabled_rules(node))

    def test_flow_consistency(self, solved, manifests):
        """All packets of one flow reach the same decision, and the one
        flow's lookup agrees with ``NodeManifest.contains``."""
        problem, _ = solved
        names = problem.topology.node_names
        flow = FiveTuple(host_id(0, 5), host_id(2, 9), 5555, 80, TCP)
        h = hash_unit(key_for(Aggregation.FLOW, flow.src, flow.dst, 5555, 80, TCP))
        for node in names:
            decisions = rules_applied(problem, manifests, node, [flow] * 5)
            assert decisions == [decisions[0]] * 5
            assert decisions[0] == [
                r.index
                for r in problem.rules
                if manifests[node].contains(*rule_unit(r.index, (names[0], names[2])), h)
            ]

    def test_empirical_fraction_tracks_d(self, solved, manifests):
        """Across many flows on one pair, the share a node filters
        approximates its assigned d (hash uniformity)."""
        problem, solution = solved
        names = problem.topology.node_names
        d = oracle.d_dict(problem, solution.d)
        i, pair, node = key = max(d, key=d.get)
        assert d[key] >= 0.2
        rng = random.Random(7)
        src, dst = names.index(pair[0]), names.index(pair[1])
        flows = [
            FiveTuple(
                host_id(src, rng.randrange(5000)),
                host_id(dst, rng.randrange(5000)),
                rng.randrange(1024, 65535),
                80,
                TCP,
            )
            for _ in range(600)
        ]
        hits = sum(i in rules for rules in rules_applied(problem, manifests, node, flows))
        assert hits / len(flows) == pytest.approx(d[key], abs=0.08)


# -- against the replaced loops ---------------------------------------------
@functools.lru_cache(maxsize=None)
def roomy_problem(seed, num_nodes):
    """A small problem whose CPU, memory and TCAM never bind, so every
    drawn ``d`` that keeps Eq. 11 is feasible."""
    problem = small_problem(num_rules=3, cam=3.0, seed=seed, num_nodes=num_nodes)
    problem.topology.set_uniform_capacities(cpu=1e15, mem=1e15)
    return problem


TINY = (1e-16, 5e-10, EPSILON)


@st.composite
def perturbed(draw):
    """A roomy problem and a feasible ``d``: per (rule, path), mass 0,
    0.4 or 1 ± 1e-7, entries in (0, EPSILON] sprinkled in, and some
    paths ending in a piece laid past the top."""
    problem = roomy_problem(draw(st.integers(0, 40)), draw(st.sampled_from([4, 5])))
    layout = problem.layout
    kinds = ["none", "part", "low", "one", "high"] + ["past"] * draw(st.booleans())
    weights = [0.0, 0.3, 1.0, 2.0] + ["tiny"] * draw(st.booleans())
    d = np.zeros(len(layout.rule_of))
    for c in range(len(layout.rule_ids) * len(layout.pairs)):
        at = np.flatnonzero(layout.rule_pair_of == c)
        kind = draw(st.sampled_from(kinds))
        if kind == "none":
            continue
        weight = np.array(
            draw(st.lists(st.sampled_from(weights), min_size=len(at), max_size=len(at))),
            dtype=object,
        )
        tiny = weight == "tiny"
        big = np.where(tiny, 0.0, weight).astype(float)
        if kind == "past" and len(at) > 1:
            big[-1] = 0.0
        if big.sum() == 0.0:
            big[0] = 1.0
        target = {"part": 0.4, "low": 1 - 1e-7, "one": 1.0, "high": 1 + 1e-7, "past": 1 + 1e-7}[kind]
        d[at] = big * (target / big.sum())
        d[at[tiny]] = [draw(st.sampled_from(TINY)) for _ in range(int(tiny.sum()))]
        if kind == "past" and len(at) > 1:
            d[at[-1]] = 5e-8
    e = np.zeros(layout.num_e)
    e[layout.enabler[d > 0.0]] = 1.0
    solution = NIPSSolution(
        e=e, d=d, objective=0.0, solve_seconds=0.0, polytope=compile_nips_polytope(problem)
    )
    return problem, solution


def as_old(problem, manifests, solution):
    """The new set in the old type (ranges keyed by rule index)."""
    return {
        node: old.NIPSNodeManifest(
            node,
            tuple(solution.enabled_rules(node)),
            {(int(name[4:]), pair): pieces for (name, pair), pieces in m.entries.items()},
        )
        for node, m in manifests.items()
    }


def corruptions(problem, solution, manifests, rng):
    """Seeded corruptions of a manifest set: an overlap within a node,
    an overlap across nodes, mass drift, an entry (empty or not) for a
    rule outside the node's TCAM."""
    rows = [(n, k) for n in sorted(manifests) for k in sorted(manifests[n].entries)]
    if rows:
        node, key = rng.choice(rows)
        (piece,) = manifests[node].entries[key]
        yield {node: {key: (piece, HashRange(piece.lo, piece.lo + (piece.hi - piece.lo) / 2))}}
        yield {node: {key: (HashRange(piece.lo, max(piece.lo, piece.hi - 1e-3)),)}}
        others = [n for n, k in rows if k == key and n != node]
        if others:
            (theirs,) = manifests[others[0]].entries[key]
            top = min(1.0, piece.lo + theirs.hi - theirs.lo)
            yield {others[0]: {key: (HashRange(piece.lo, top),)}}
    node = rng.choice(problem.topology.node_names)
    enabled = solution.enabled_rules(node)
    outside = [r.index for r in problem.rules if r.index not in enabled]
    if outside:
        key = rule_unit(rng.choice(outside), rng.choice(problem.pairs))
        yield {node: {key: rng.choice([(), (HashRange(0.0, 0.0),), (HashRange(0.25, 0.5),)])}}


class TestAgainstOracle:
    @given(case=perturbed(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_layout_check_lookup_and_enforce_against_the_old_loops(self, case, seed):
        problem, solution = case
        assert problem.check(solution.e, solution.d) == []
        manifests = generate_nips_manifests(problem, solution)
        assert check_nips_manifests(solution, manifests) == []
        try:
            before = old.generate_nips_manifests(problem, solution)
        except ValueError:
            before = None  # a piece laid past the top
        self.layout_is_the_old_loops_where_it_did_not_raise(problem, solution, manifests, before)
        if before is not None:
            self.check_is_the_old_walk_on_corruptions(problem, solution, manifests, random.Random(seed))
            self.lookup_is_the_old_dispatcher(problem, before, manifests, random.Random(seed))
        self.enforce_is_the_old_arithmetic_but_for_the_fixes(problem, solution, before)

    @staticmethod
    def layout_is_the_old_loops_where_it_did_not_raise(problem, solution, manifests, before):
        if before is None:
            # Every piece still lies in [0, 1] and the paths stay disjoint.
            for m in manifests.values():
                for (piece,) in m.entries.values():
                    assert 0.0 <= piece.lo <= piece.hi <= 1.0
            return
        for node, manifest in manifests.items():
            assert {(int(n[4:]), p) for n, p in manifest.entries} == set(before[node].ranges)
            for (i, pair), pieces in before[node].ranges.items():
                laid = manifest.entries[rule_unit(i, pair)]
                assert [(p.lo.hex(), p.hi.hex()) for p in laid] == [
                    (p.lo.hex(), p.hi.hex()) for p in pieces
                ]

    @staticmethod
    def check_is_the_old_walk_on_corruptions(problem, solution, manifests, rng):
        for corruption in corruptions(problem, solution, manifests, rng):
            broken = {n: NodeManifest(n, dict(m.entries)) for n, m in manifests.items()}
            for node, entries in corruption.items():
                broken[node].entries.update(entries)
            findings = check_nips_manifests(solution, broken)
            assert findings
            assert findings == old.check_nips_manifests(
                solution, as_old(problem, broken, solution)
            )

    @staticmethod
    def lookup_is_the_old_dispatcher(problem, before, manifests, rng):
        flows = random_flows(problem, rng, 40)
        names = problem.topology.node_names
        for node in names:
            dispatcher = old.NIPSDispatcher(before[node], names)
            assert rules_applied(problem, manifests, node, flows) == [
                dispatcher.rules_to_apply(Packet(flow, 0.0)) for flow in flows
            ]

    @staticmethod
    def enforce_is_the_old_arithmetic_but_for_the_fixes(problem, solution, before):
        d = solution.d
        tiny = (d > 0.0) & (d <= EPSILON)
        for disjoint in (True, False):
            new = enforce(problem, solution, disjoint=disjoint)
            if not disjoint or (before is not None and not tiny.any()):
                assert new == old.enforce(problem, solution, disjoint=disjoint)
                continue
            # What the manifests install: no (0, EPSILON] entry, nothing
            # past the top.  The model still reads the solved d.
            reference = old.enforce(problem, solution, disjoint=True)
            for name in ("modeled_objective", "total_unwanted_flows", "modeled_cpu_load", "modeled_mem_load"):
                assert getattr(new, name) == getattr(reference, name)
            if before is not None:
                untiny = dataclasses.replace(solution, d=np.where(tiny, 0.0, d))
                reference = old.enforce(problem, untiny, disjoint=True)
                for name in ("footprint_removed", "flows_dropped", "node_cpu_load", "node_mem_load"):
                    assert getattr(new, name) == getattr(reference, name)
            assert min(new.node_cpu_load.values(), default=0.0) >= 0.0
            assert new.load_within_model()
            assert new.footprint_removed <= new.modeled_objective * (1 + 1e-6) + 1e-9
            assert new.footprint_removed >= new.modeled_objective * (1 - 1e-6) - 1e-9
