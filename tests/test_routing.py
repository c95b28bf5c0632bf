"""Tests for shortest-path routing and downstream distances."""

import os
import subprocess
import sys

import pytest

import repro
from repro.topology import DistanceMetric, Path, PathSet, internet2, random_pop_topology


@pytest.fixture(scope="module")
def i2_paths():
    return PathSet(internet2())


class TestPath:
    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            Path("a", "b", ("a", "c"))
        with pytest.raises(ValueError):
            Path("a", "b", ())

    def test_membership_and_position(self):
        path = Path("a", "c", ("a", "b", "c"))
        assert "b" in path
        assert path.position("b") == 1
        assert len(path) == 3
        assert list(path) == ["a", "b", "c"]


class TestPathSet:
    def test_all_ordered_pairs_present(self, i2_paths):
        assert len(i2_paths) == 11 * 11  # self pairs included by default

    def test_self_path_single_node(self, i2_paths):
        path = i2_paths.path("CHIN", "CHIN")
        assert path.nodes == ("CHIN",)

    def test_exclude_self_pairs(self):
        paths = PathSet(internet2(), include_self_pairs=False)
        assert len(paths) == 11 * 10

    def test_known_abilene_route(self, i2_paths):
        """Washington–New York are directly linked."""
        assert i2_paths.path("WASH", "NYCM").nodes == ("WASH", "NYCM")

    def test_paths_follow_links(self, i2_paths):
        topo = internet2()
        for path in i2_paths:
            for a, b in zip(path.nodes, path.nodes[1:]):
                assert b in topo.neighbors(a)

    def test_paths_are_simple(self, i2_paths):
        for path in i2_paths:
            assert len(set(path.nodes)) == len(path.nodes)

    def test_symmetric_node_sets(self, i2_paths):
        """Dijkstra on the undirected Abilene graph yields direction-
        symmetric routes (unique shortest paths)."""
        for a in internet2().node_names:
            for b in internet2().node_names:
                forward = set(i2_paths.path(a, b).nodes)
                backward = set(i2_paths.path(b, a).nodes)
                assert forward == backward


class TestDownstreamDistance:
    def test_paper_example_hops(self, i2_paths):
        """Paper §3.2: for path R1,R2,R3, Dist = 3, 2, 1 in hops."""
        path = next(p for p in i2_paths if len(p) == 3)
        nodes = path.nodes
        assert i2_paths.downstream_distance(path, nodes[0]) == 3.0
        assert i2_paths.downstream_distance(path, nodes[1]) == 2.0
        assert i2_paths.downstream_distance(path, nodes[2]) == 1.0

    def test_unit_metric(self, i2_paths):
        path = i2_paths.path("STTL", "NYCM")
        for node in path.nodes:
            assert (
                i2_paths.downstream_distance(path, node, DistanceMetric.UNIT) == 1.0
            )

    def test_fiber_metric_decreases_downstream(self, i2_paths):
        path = i2_paths.path("STTL", "NYCM")
        distances = [
            i2_paths.downstream_distance(path, node, DistanceMetric.FIBER)
            for node in path.nodes
        ]
        assert distances == sorted(distances, reverse=True)
        assert distances[-1] == pytest.approx(1.0)  # only the local hop left

    def test_hops_upper_bounded_by_path_length(self, i2_paths):
        for path in i2_paths:
            for node in path.nodes:
                dist = i2_paths.downstream_distance(path, node)
                assert 1.0 <= dist <= len(path)


class TestLargerTopology:
    def test_random_topology_paths(self):
        topo = random_pop_topology(30, seed=4)
        paths = PathSet(topo)
        assert len(paths) == 30 * 30
        for path in paths:
            assert path.nodes[0] == path.ingress
            assert path.nodes[-1] == path.egress


def test_routing_imports_no_networkx():
    """The product routes with its own code: networkx is the tests'
    oracle, never loaded by the CLI, the control plane or emulation —
    not even for a tied source."""
    code = """
import sys
import repro.cli, repro.control.chaos, repro.nids.emulation
from repro.topology import LinkSpec, NodeSpec, PathSet, Topology, by_label
PathSet(by_label("pop100"))
square = Topology("square", [NodeSpec(name=name) for name in "zyxb"],
                  [LinkSpec("z", "y"), LinkSpec("z", "x"),
                   LinkSpec("y", "b"), LinkSpec("x", "b")])
assert PathSet(square).path("z", "b").nodes == ("z", "y", "b")
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
