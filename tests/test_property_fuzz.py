"""Property-based fuzzing of the optimization pipelines.

Hypothesis drives randomized instances through the full NIDS and NIPS
pipelines, asserting the invariants DESIGN.md §6 lists.  Example counts
are modest because each example is an LP solve.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.manifest import generate_manifests, verify_manifests
from repro.core.nids_lp import solve_nids_lp
from repro.core.nips_milp import (
    build_nips_problem,
    compile_nips_polytope,
    solve_relaxation,
)
from repro.core.rounding import RoundingVariant, rounded_deployment
from repro.core.units import CoordinationUnit, build_units
from repro.nids.engine import (
    BroInstance,
    BroMode,
    EmulationConfig,
    PartialInstanceReport,
)
from repro.nids.modules import STANDARD_MODULES
from repro.nips.rules import MatchRateMatrix, unit_rules
from repro.topology import PathSet, internet2, random_pop_topology
from repro.traffic import GeneratorConfig, TrafficGenerator
from tests.scalar_oracle import ScalarOracle, assert_batch_decisions_match_reference

_FUZZ_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=3, max_value=9),
    num_units=st.integers(min_value=1, max_value=25),
)
@settings(**_FUZZ_SETTINGS)
def test_fuzz_nids_lp_and_manifests(seed, num_nodes, num_units):
    """Random unit collections: the LP always covers, loads match the
    objective, and manifests verify."""
    rng = random.Random(seed)
    topology = random_pop_topology(num_nodes, seed=seed).set_uniform_capacities(
        cpu=rng.uniform(0.5, 2.0), mem=rng.uniform(0.5, 2.0)
    )
    names = topology.node_names
    units = []
    for index in range(num_units):
        eligible = tuple(
            rng.sample(names, rng.randint(1, min(4, len(names))))
        )
        items = rng.uniform(1, 500)
        units.append(
            CoordinationUnit(
                class_name=f"c{index % 3}",
                key=(f"u{index}",),
                eligible=eligible,
                pkts=rng.uniform(1, 5_000),
                items=items,
                cpu_work=rng.uniform(0, 2_000),
                mem_bytes=items * rng.uniform(10, 500),
            )
        )
    assignment = solve_nids_lp(units, topology)
    # Coverage invariant.
    for unit in units:
        total = sum(
            assignment.fraction(unit.class_name, unit.key, node)
            for node in unit.eligible
        )
        assert total == pytest.approx(1.0, abs=1e-6)
    # Objective is the max load.
    assert assignment.objective == pytest.approx(
        max(assignment.max_cpu_load, assignment.max_mem_load), rel=1e-5, abs=1e-8
    )
    # Manifests verify.
    manifests = generate_manifests(units, assignment, names)
    verify_manifests(units, manifests)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_rules=st.integers(min_value=2, max_value=8),
    cam=st.floats(min_value=1.0, max_value=4.0),
    variant=st.sampled_from(list(RoundingVariant)),
)
@settings(**_FUZZ_SETTINGS)
def test_fuzz_nips_rounding_always_feasible(seed, num_rules, cam, variant):
    """Random NIPS instances: every rounding variant yields a feasible
    deployment bounded by OptLP."""
    rng = random.Random(seed)
    topology = random_pop_topology(
        rng.randint(4, 7), seed=seed
    ).set_uniform_capacities(
        cpu=rng.uniform(1e5, 1e6), mem=rng.uniform(2e4, 2e5), cam=cam
    )
    rules = unit_rules(num_rules)
    pairs = [
        (a, b) for a in topology.node_names for b in topology.node_names if a != b
    ]
    match = MatchRateMatrix.uniform(rules, pairs, rng)
    problem = build_nips_problem(
        topology, rules, match, total_flows=3e5, total_packets=1.5e6
    )
    relaxed = solve_relaxation(problem)
    result = rounded_deployment(
        compile_nips_polytope(problem), variant, random.Random(seed + 1), relaxed=relaxed
    )
    # rounded_deployment raises on infeasibility internally; re-check.
    assert problem.check_feasible(result.solution.e, result.solution.d) == []
    assert result.solution.objective <= relaxed.objective + 1e-6


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=3, max_value=7),
    fine_grained=st.booleans(),
    mode_name=st.sampled_from(["coord-event", "coord-policy", "unmodified"]),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_scalar_vs_batch_engine_decisions(seed, num_nodes, fine_grained, mode_name):
    """Random deployments: the engine's batch decisions agree with the
    per-session reference API per (module, session) — match, Fig. 3
    sampling, responsibility — and the full report is bit-identical to
    the scalar oracle's across tracking levels."""
    from repro.core.nids_deployment import plan_deployment

    mode = BroMode(mode_name)
    topology = random_pop_topology(num_nodes, seed=seed).set_uniform_capacities(
        cpu=1.0, mem=1.0
    )
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=seed))
    sessions = generator.generate(300)
    deployment = plan_deployment(topology, paths, STANDARD_MODULES, sessions)
    node = topology.node_names[seed % num_nodes]
    trace = generator.split_by_node(sessions, transit=True)[node]
    dispatcher = None if mode is BroMode.UNMODIFIED else deployment.dispatcher(node)
    config = EmulationConfig(fine_grained=fine_grained)
    args = (node, STANDARD_MODULES, mode, dispatcher)
    if dispatcher is not None:
        assert_batch_decisions_match_reference(dispatcher, trace)
    assert ScalarOracle(*args, config=config).process_sessions(
        trace
    ) == BroInstance(*args, config=config).process_sessions(trace)


@pytest.fixture(scope="module")
def planned_internet2():
    from repro.core.nids_deployment import plan_deployment

    topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=29))
    sessions = generator.generate(1200)
    deployment = plan_deployment(topology, paths, STANDARD_MODULES, sessions)
    return deployment, generator.split_by_node(sessions, transit=True)


@given(
    data=st.data(),
    node_index=st.integers(min_value=0, max_value=10),
    mode_name=st.sampled_from(["coord-event", "coord-policy", "unmodified"]),
    fine_grained=st.booleans(),
    run_detectors=st.booleans(),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_chunk_partition_merge_equals_one_shot_and_oracle(
    planned_internet2, data, node_index, mode_name, fine_grained, run_detectors
):
    """Cut a node trace into arbitrary contiguous chunks (empty and
    single-session ones included), merge the per-chunk partials in an
    arbitrary order, finalise: the result equals the one-shot report
    and the per-session oracle's, bit for bit."""
    deployment, traces = planned_internet2
    mode = BroMode(mode_name)
    node = deployment.topology.node_names[node_index]
    trace = traces[node]
    dispatcher = None if mode is BroMode.UNMODIFIED else deployment.dispatcher(node)
    args = (node, STANDARD_MODULES, mode, dispatcher)
    config = EmulationConfig(fine_grained=fine_grained, run_detectors=run_detectors)

    cuts = sorted(
        data.draw(st.lists(st.integers(min_value=0, max_value=len(trace)), max_size=8))
    )
    bounds = [0, *cuts, len(trace)]
    chunked = BroInstance(*args, config=config)
    partials = [
        chunked.process_sessions_partial(trace[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    merged = PartialInstanceReport.empty(node, mode, (s.name for s in STANDARD_MODULES))
    for index in data.draw(st.permutations(range(len(partials)))):
        merged.merge(partials[index])

    one_shot = BroInstance(*args, config=config)
    whole = one_shot.process_sessions_partial(trace)
    oracle = ScalarOracle(*args, config=config)
    assert merged == whole == oracle.process_sessions_partial(trace)
    report = chunked.finalize_partial(merged)
    assert report == one_shot.finalize_partial(whole)
    assert report == oracle.finalize_partial(merged)


@given(
    lo=st.floats(min_value=0.0, max_value=0.999999),
    offset=st.floats(min_value=0.0, max_value=5e-9),
    probe=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_epsilon_boundary_containment(lo, offset, probe):
    """Scalar and vectorized manifest membership agree everywhere —
    including ranges whose top lands within EPSILON of 1.0 (snapped
    closed) and probe values at the very top of the hash space."""
    import numpy as np

    from repro.core.manifest import NodeManifest
    from repro.core.manifest_table import ManifestTable
    from repro.hashing.ranges import EPSILON, HashRange

    hi = min(1.0, max(lo, 1.0 - offset))
    manifest = NodeManifest(
        node="n", entries={("c", ("u",)): (HashRange(lo, hi),)}
    )
    table = ManifestTable.from_manifests({"n": manifest})
    probes = [
        probe,
        lo,
        hi,
        1.0,
        1.0 - EPSILON / 2,
        1.0 - 2 * EPSILON,
        max(0.0, lo - EPSILON / 2),
        min(1.0, hi + EPSILON / 2),
    ]
    scalar = [manifest.contains("c", ("u",), value) for value in probes]
    ids = table.unit_ids([("c", ("u",))] * len(probes))
    batched = table.contains_batch(ids, np.array(probes))
    assert list(batched) == scalar


@given(seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=8, deadline=None)
def test_fuzz_unit_building_order_invariant(seed):
    """Units derived from a shuffled trace equal the originals."""
    topology = internet2()
    paths = PathSet(topology)
    generator = TrafficGenerator(
        topology, paths, config=GeneratorConfig(seed=seed)
    )
    sessions = generator.generate(300)
    shuffled = list(sessions)
    random.Random(seed).shuffle(shuffled)
    original = build_units(STANDARD_MODULES, sessions, paths)
    reordered = build_units(STANDARD_MODULES, shuffled, paths)
    assert [(u.ident, u.pkts, u.items) for u in original] == [
        (u.ident, u.pkts, u.items) for u in reordered
    ]
