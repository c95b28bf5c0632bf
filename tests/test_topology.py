"""Tests for topology datasets, the graph model, and the gravity TM."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    LinkSpec,
    NodeSpec,
    ROCKETFUEL_SIZES,
    Topology,
    by_label,
    geant,
    gravity_fractions,
    gravity_matrix,
    heaviest_pair,
    ingress_fractions,
    internet2,
    random_pop_topology,
    rocketfuel,
)


class TestTopologyModel:
    def _tiny(self):
        nodes = [NodeSpec("a"), NodeSpec("b"), NodeSpec("c")]
        links = [LinkSpec("a", "b", 2.0), LinkSpec("b", "c", 3.0)]
        return Topology("tiny", nodes, links)

    def test_basic_accessors(self):
        topo = self._tiny()
        assert len(topo) == 3
        assert topo.node_names == ["a", "b", "c"]
        assert "b" in topo
        assert topo.degree("b") == 2
        assert topo.neighbors("b") == ["a", "c"]
        assert topo.link_distance("a", "b") == pytest.approx(2.0)

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", [NodeSpec("a"), NodeSpec("a")], [])

    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", [NodeSpec("a")], [LinkSpec("a", "zz")])

    def test_disconnected_rejected(self):
        nodes = [NodeSpec("a"), NodeSpec("b"), NodeSpec("c")]
        with pytest.raises(ValueError):
            Topology("bad", nodes, [LinkSpec("a", "b")])

    def test_nonpositive_distance_rejected(self):
        nodes = [NodeSpec("a"), NodeSpec("b")]
        with pytest.raises(ValueError):
            Topology("bad", nodes, [LinkSpec("a", "b", 0.0)])

    def test_uniform_capacities(self):
        topo = self._tiny().set_uniform_capacities(cpu=5.0, mem=6.0, cam=7.0)
        for node in topo.nodes():
            assert node.cpu_capacity == 5.0
            assert node.mem_capacity == 6.0
            assert node.cam_capacity == 7.0

    def test_partial_capacity_update(self):
        topo = self._tiny().set_uniform_capacities(cpu=5.0)
        topo.set_uniform_capacities(cam=3.0)
        assert topo.node("a").cpu_capacity == 5.0
        assert topo.node("a").cam_capacity == 3.0

    def test_copy_is_independent(self):
        topo = self._tiny().set_uniform_capacities(cpu=1.0)
        clone = topo.copy()
        clone.scale_capacity("a", cpu_factor=10.0)
        assert topo.node("a").cpu_capacity == 1.0
        assert clone.node("a").cpu_capacity == 10.0


@st.composite
def _link_lists(draw):
    """Nodes in a drawn order and links among them: repeats in either
    orientation, self-loops, and often a node left unlinked."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations([f"r{k}" for k in range(n)]))
    end = st.sampled_from(names)
    links = draw(st.lists(st.builds(LinkSpec, end, end, st.integers(1, 3)), max_size=12))
    return names, links


@settings(max_examples=300, deadline=None)
@given(_link_lists())
def test_topology_agrees_with_networkx(drawn):
    """Adjacency (order and distances), connectivity and degree equal an
    ``nx.Graph`` fed the same links; a copy rebuilds the same adjacency."""
    names, links = drawn
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for link in links:
        graph.add_edge(link.a, link.b, distance=float(link.distance))
    nodes = [NodeSpec(name) for name in names]
    if not nx.is_connected(graph):
        with pytest.raises(ValueError, match="not connected"):
            Topology("drawn", nodes, links)
        return
    topology = Topology("drawn", nodes, links)
    expected = [
        (a, [(b, data["distance"]) for b, data in graph.adj[a].items()]) for a in names
    ]
    for built in (topology, topology.copy()):
        assert [(a, list(adj.items())) for a, adj in built.adjacency.items()] == expected
    assert [topology.degree(a) for a in names] == [graph.degree[a] for a in names]


class TestInternet2:
    def test_paper_dimensions(self):
        topo = internet2()
        assert len(topo) == 11
        assert len(topo.links) == 14

    def test_new_york_is_node_11(self):
        """The paper's Fig. 8 node 11 — New York — is the last node."""
        topo = internet2()
        assert topo.node_names[-1] == "NYCM"
        assert topo.node("NYCM").city == "New York"

    def test_new_york_has_largest_population(self):
        topo = internet2()
        populations = topo.populations
        assert max(populations, key=populations.get) == "NYCM"

    def test_connected_and_degree_bounds(self):
        topo = internet2()
        for name in topo.node_names:
            assert 2 <= topo.degree(name) <= 4  # Abilene's actual degrees


class TestGeant:
    def test_dimensions(self):
        topo = geant()
        assert len(topo) == 22
        assert len(topo.links) >= 30

    def test_link_distances_are_geographic(self):
        topo = geant()
        # London–Dublin is ~460 km; sanity check the haversine wiring.
        assert 300 < topo.link_distance("UK", "IE") < 700


class TestRocketfuel:
    @pytest.mark.parametrize("asn", sorted(ROCKETFUEL_SIZES))
    def test_sizes_match_published_pop_counts(self, asn):
        topo = rocketfuel(asn)
        assert len(topo) == ROCKETFUEL_SIZES[asn]

    def test_deterministic(self):
        a, b = rocketfuel(1221), rocketfuel(1221)
        assert a.node_names == b.node_names
        assert [(l.a, l.b) for l in a.links] == [(l.a, l.b) for l in b.links]

    def test_unknown_asn(self):
        with pytest.raises(ValueError):
            rocketfuel(7018)


class TestRandomTopology:
    def test_connected_any_size(self):
        for size in (2, 5, 17, 50):
            topo = random_pop_topology(size, seed=size)
            assert len(topo) == size  # construction validates connectivity

    def test_seed_determinism(self):
        a = random_pop_topology(20, seed=9)
        b = random_pop_topology(20, seed=9)
        assert a.populations == b.populations

    def test_different_seeds_differ(self):
        a = random_pop_topology(20, seed=1)
        b = random_pop_topology(20, seed=2)
        assert a.populations != b.populations

    def test_size_validation(self):
        with pytest.raises(ValueError):
            random_pop_topology(1)


class TestByLabel:
    @pytest.mark.parametrize(
        "label,size",
        [("Abilene", 11), ("Geant", 22), ("AS1221", 44), ("AS1239", 52), ("AS3257", 41)],
    )
    def test_evaluation_topologies(self, label, size):
        assert len(by_label(label)) == size

    def test_internet2_alias(self):
        assert len(by_label("internet2")) == 11

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            by_label("sprintlink")


class TestGravity:
    def test_fractions_sum_to_one(self):
        fractions = gravity_fractions(internet2().populations)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_excludes_self_pairs_by_default(self):
        fractions = gravity_fractions({"a": 1.0, "b": 2.0})
        assert ("a", "a") not in fractions
        assert len(fractions) == 2

    def test_include_self_pairs(self):
        fractions = gravity_fractions({"a": 1.0, "b": 2.0}, include_self_pairs=True)
        assert len(fractions) == 4

    def test_proportional_to_population_product(self):
        fractions = gravity_fractions({"a": 1.0, "b": 2.0, "c": 3.0})
        assert fractions[("b", "c")] / fractions[("a", "b")] == pytest.approx(3.0)

    def test_heaviest_pair_on_internet2(self):
        """NY (18.9M) and LA (12.8M) have the largest product."""
        fractions = gravity_fractions(internet2().populations)
        assert set(heaviest_pair(fractions)) == {"NYCM", "LOSA"}

    def test_gravity_matrix_volume(self):
        volumes = gravity_matrix(internet2(), total_volume=1000.0)
        assert sum(volumes.values()) == pytest.approx(1000.0)

    def test_ingress_fractions(self):
        fractions = gravity_fractions(internet2().populations)
        per_ingress = ingress_fractions(fractions)
        assert sum(per_ingress.values()) == pytest.approx(1.0)
        assert max(per_ingress, key=per_ingress.get) == "NYCM"

    def test_rejects_bad_populations(self):
        with pytest.raises(ValueError):
            gravity_fractions({"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError):
            gravity_fractions({})
