"""Tests for NIPS rule placements and sampling manifests."""

import random

import pytest

from repro.core.nips_manifest import (
    NIPSDispatcher,
    generate_nips_manifests,
    verify_nips_manifests,
)
from repro.core.nips_milp import solve_relaxation
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.topology import random_pop_topology
from repro.traffic.generator import host_id
from repro.traffic.packet import FiveTuple, Packet, TCP
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


class TestGeneration:
    def test_invariants_hold(self, solved, manifests):
        problem, solution = solved
        verify_nips_manifests(solution, manifests)

    def test_tcam_capacity_respected(self, solved, manifests):
        problem, _ = solved
        for node, manifest in manifests.items():
            used = sum(
                problem.rules[i].cam_req for i in manifest.enabled_rules
            )
            assert used <= problem.topology.node(node).cam_capacity + 1e-9

    def test_sampled_fractions_match_solution(self, solved, manifests):
        problem, solution = solved
        for (i, pair, node), fraction in oracle.d_dict(problem, solution.d).items():
            if fraction > 1e-9:
                held = manifests[node].sampled_fraction(i, pair)
                assert held == pytest.approx(fraction, abs=1e-6)

    def test_at_most_one_node_per_hash_point(self, solved, manifests):
        problem, _ = solved
        probes = (0.1, 0.4, 0.7, 0.95)
        for pair in problem.pairs:
            for rule in problem.rules:
                for probe in probes:
                    holders = [
                        node
                        for node, manifest in manifests.items()
                        if manifest.contains(rule.index, pair, probe)
                    ]
                    assert len(holders) <= 1

    def test_oversampled_solution_rejected(self, solved):
        problem, solution = solved
        import dataclasses

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

    def test_verifier_catches_unenabled_sampling(self, solved, manifests):
        problem, solution = solved
        import copy

        broken = copy.deepcopy(dict(manifests))
        node, manifest = next(
            (n, m) for n, m in broken.items() if m.ranges
        )
        (i, pair), pieces = next(iter(manifest.ranges.items()))
        manifest.enabled_rules = tuple(
            r for r in manifest.enabled_rules if r != i
        )
        with pytest.raises(ValueError):
            verify_nips_manifests(solution, broken)


class TestDispatcher:
    def test_rules_applied_are_enabled(self, solved, manifests):
        problem, _ = solved
        names = problem.topology.node_names
        rng = random.Random(3)
        for node in names[:3]:
            dispatcher = NIPSDispatcher(manifests[node], names)
            for _ in range(50):
                src = host_id(rng.randrange(len(names)), rng.randrange(100))
                dst = host_id(rng.randrange(len(names)), rng.randrange(100))
                packet = Packet(
                    FiveTuple(src, dst, rng.randrange(1024, 65535), 80, TCP), 0.0
                )
                for rule_index in dispatcher.rules_to_apply(packet):
                    assert rule_index in manifests[node].enabled_rules

    def test_flow_consistency(self, solved, manifests):
        """All packets of one flow reach the same decision."""
        problem, _ = solved
        names = problem.topology.node_names
        node = names[0]
        dispatcher = NIPSDispatcher(manifests[node], names)
        flow = FiveTuple(host_id(0, 5), host_id(2, 9), 5555, 80, TCP)
        decisions = {
            tuple(dispatcher.rules_to_apply(Packet(flow, float(ts))))
            for ts in range(5)
        }
        assert len(decisions) == 1

    def test_empirical_fraction_tracks_d(self, solved, manifests):
        """Across many flows on one pair, the share a node filters
        approximates its assigned d (hash uniformity)."""
        problem, solution = solved
        names = problem.topology.node_names
        # Find the largest assigned (rule, pair, node).
        d = oracle.d_dict(problem, solution.d)
        key = max(d, key=d.get)
        i, pair, node = key
        fraction = d[key]
        if fraction < 0.2:
            pytest.skip("no substantial assignment to test against")
        dispatcher = NIPSDispatcher(manifests[node], names)
        src_index = names.index(pair[0])
        dst_index = names.index(pair[1])
        rng = random.Random(7)
        hits = 0
        trials = 600
        for _ in range(trials):
            packet = Packet(
                FiveTuple(
                    host_id(src_index, rng.randrange(5000)),
                    host_id(dst_index, rng.randrange(5000)),
                    rng.randrange(1024, 65535),
                    80,
                    TCP,
                ),
                0.0,
            )
            if i in dispatcher.rules_to_apply(packet):
                hits += 1
        assert hits / trials == pytest.approx(fraction, abs=0.08)
