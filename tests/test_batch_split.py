"""Per-node traces as index views of one ``SessionBatch``.

``run_emulation`` builds the columns once per trace and hands every
node a ``take`` of them.  These properties pin that view to the list
form it replaced: the same sessions in the same order per node, the
same columns, pair resolution and hash values as a batch rebuilt from
the node's ``Session`` list, and — detectors being stateful — the same
alerts in the same order from every execution shape and from the
per-session oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nids_deployment import plan_deployment
from repro.hashing.keys import Aggregation
from repro.hashing.vectorized import key_hash_unit_batch
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import BroMode, EmulationConfig, ExecutionPolicy
from repro.nids.modules import STANDARD_MODULES
from repro.obs import MetricsRegistry
from repro.topology import PathSet, internet2, random_pop_topology
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator, TrafficMatrix
from tests.scalar_oracle import ScalarOracle

_SETTINGS = dict(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_COLUMNS = (
    "src", "dst", "sport", "dport", "proto", "pkts", "pkts_f", "half_open",
    "session_ids",
)


def assert_same_batch(view: SessionBatch, rebuilt: SessionBatch, seed: int) -> None:
    """*view* (a take) against the batch rebuilt from its sessions."""
    assert len(view) == len(rebuilt)
    assert all(a is b for a, b in zip(view, rebuilt))
    for name in _COLUMNS:
        got, want = getattr(view, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert [view.pairs[g] for g in view.group_ids] == [
        rebuilt.pairs[g] for g in rebuilt.group_ids
    ]
    assert sorted(view.pairs) == sorted(rebuilt.pairs)
    for aggregation in Aggregation:
        want = key_hash_unit_batch(
            aggregation, rebuilt.src, rebuilt.dst, rebuilt.sport, rebuilt.dport,
            rebuilt.proto, seed,
        )
        assert np.array_equal(view.hash_column(aggregation, seed), want)
        assert np.array_equal(rebuilt.hash_column(aggregation, seed), want)


@st.composite
def traces(draw):
    """A small topology and a trace over a drawn subset of its routing
    pairs, in a drawn order — sparse enough that some nodes see nothing,
    with intra-node sessions (ingress == egress) in the mix."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    topology = random_pop_topology(
        draw(st.integers(min_value=2, max_value=8)), seed=seed
    )
    generator = TrafficGenerator(
        topology,
        PathSet(topology),
        matrix=TrafficMatrix.gravity(topology, include_self_pairs=draw(st.booleans())),
        config=GeneratorConfig(seed=seed),
    )
    sessions = generator.generate(draw(st.integers(min_value=0, max_value=120)))
    pairs = sorted({session.pair for session in sessions})
    kept = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    trace = [session for session in sessions if session.pair in kept]
    return generator, list(draw(st.permutations(trace)))


@given(world=traces(), transit=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(**_SETTINGS)
def test_split_batch_is_split_by_node(world, transit, seed):
    """Every node of the topology, in topology order, gets exactly the
    sessions ``split_by_node`` gives it, in the same order."""
    generator, trace = world
    expected = generator.split_by_node(trace, transit=transit)
    got = list(generator.split_batch(SessionBatch(trace), transit=transit))
    assert [node for node, _ in got] == generator.topology.node_names
    for node, view in got:
        assert_same_batch(view, SessionBatch(expected[node]), seed)


@given(world=traces(), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(**_SETTINGS)
def test_take_equals_rebuild(world, data, seed):
    """``take`` at arbitrary positions (repeats, any order, nested)
    equals a batch rebuilt from the ``Session`` objects at them, and the
    whole family hashes each root session once per aggregation."""
    _, trace = world
    root = SessionBatch(trace)
    positions = st.integers(min_value=0, max_value=max(0, len(trace) - 1))
    outer = data.draw(st.lists(positions, max_size=60)) if trace else []
    child = root.take(outer)
    assert_same_batch(child, SessionBatch([trace[i] for i in outer]), seed)
    inner = (
        data.draw(st.lists(st.integers(0, len(outer) - 1), max_size=30)) if outer else []
    )
    assert_same_batch(
        child.take(inner), SessionBatch([trace[outer[i]] for i in inner]), seed
    )
    assert child.root is root and child.take(inner).root is root
    assert root.hashes_computed == len(Aggregation) * len(trace)
    assert child.hashes_computed == 0


@pytest.fixture(scope="module")
def planned():
    topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=37))
    sessions = generator.generate(2_500)
    deployment = plan_deployment(topology, paths, STANDARD_MODULES, sessions)
    return generator, sessions, deployment


@pytest.mark.parametrize("coordinated", [True, False])
def test_detector_alerts_identical_across_shapes_and_oracle(planned, coordinated):
    """Detectors are stateful, so the order sessions reach them is part
    of the result: inline, streamed and the per-session oracle over the
    list-form traces must raise the same alerts in the same order."""
    generator, sessions, deployment = planned
    target = deployment if coordinated else STANDARD_MODULES
    mode = BroMode.COORD_EVENT if coordinated else BroMode.UNMODIFIED
    detect = EmulationConfig(run_detectors=True)
    streamed = EmulationConfig(
        run_detectors=True, policy=ExecutionPolicy.streamed(chunk_size=611)
    )
    inline = run_emulation(Traffic.materialized(generator, sessions), target, config=detect)
    assert any(report.alerts for report in inline.reports.values())
    for traffic in (
        Traffic.materialized(generator, sessions),
        Traffic.materialized(generator, SessionBatch(sessions)),
    ):
        assert run_emulation(traffic, target, config=streamed).to_dict() == inline.to_dict()
    traces = generator.split_by_node(sessions, transit=coordinated)
    for node, trace in traces.items():
        oracle = ScalarOracle(
            node,
            STANDARD_MODULES,
            mode,
            deployment.dispatcher(node) if coordinated else None,
            config=detect,
        )
        assert oracle.process_sessions(trace) == inline.reports[node], node


def test_shared_batch_is_hashed_once_across_runs(planned):
    """A caller-built batch passed to several runs is the explicit way
    to share the column build; its hash columns are shared with it."""
    generator, sessions, deployment = planned
    listed = run_emulation(Traffic.materialized(generator, sessions), deployment)
    # A batch rebuilt from the objects is a new root, hashed by no run yet.
    batch = SessionBatch(list(sessions))
    traffic = Traffic.materialized(generator, batch)
    assert traffic.batch() is batch
    aggregations = len({spec.aggregation for spec in STANDARD_MODULES})
    for expected in (aggregations * len(sessions), 0):
        registry = MetricsRegistry()
        usage = run_emulation(traffic, deployment, registry=registry)
        assert usage.to_dict() == listed.to_dict()
        assert registry.get("hash_batch_computed_total").total() == expected


def test_empty_trace_reports_every_node(planned):
    generator, _, deployment = planned
    for policy in (ExecutionPolicy.inline(), ExecutionPolicy.streamed(chunk_size=10)):
        usage = run_emulation(
            Traffic.materialized(generator, []),
            deployment,
            config=EmulationConfig(policy=policy),
        )
        assert usage.nodes == generator.topology.node_names
        assert all(r.tracked_connections == 0 for r in usage.reports.values())
