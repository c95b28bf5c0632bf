"""The columnar planning path against its per-session, per-term oracle.

``build_units`` is a group-by over one ``SessionBatch`` and
``build_nids_lp`` lays the LP out as index blocks;
``tests/planning_oracle.py`` holds the loops they replaced.  Every
comparison here is ``==`` — dataclass equality on units (floats bit for
bit), array equality on the compiled matrices, dict equality on the
solved fractions — because the two sides perform the same floating-point
operations in the same order and hand HiGHS the same matrices.  The
``UnitTable`` the product emits is also read column by column against
the oracle's rows (``planning_oracle.assert_same_units``: idents in
order, eligible sets as CSR, volumes bit for bit), and the loops it
replaced — ``conservative_units``, the controller's ``_exclude_failed``,
``uniform_assignment`` — are compared with their oracles.

Seeded mutations, each run on a copy and each failing a test here:
ordering units by key before class
(``TestBuildUnits::test_every_module_set_on_every_topology``); dropping
the fenced-singleton fallback from ``_exclude_failed``'s mask
(``TestUnitTable::test_exclude_failed_keeps_a_fenced_singleton`` and
``test_exclude_failed_is_the_loop``).
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.bus import Bus, BusConfig
from repro.control.controller import Controller
from repro.core.manifest import NodeManifest, check_assignment, check_on_path
from repro.core.nids_deployment import plan_deployment
from repro.core.nids_lp import (
    NIDSAssignment,
    build_nids_lp,
    solve_nids_lp,
    uniform_assignment,
)
from repro.core.provisioning import bottleneck_analysis
from repro.core.reconfigure import conservative_units
from repro.core.units import CoordinationUnit, UnitTable, build_units
from repro.hashing.keys import Aggregation
from repro.hashing.ranges import HashRange
from repro.lp.model import LinearProgram, Relation, Sense
from repro.lp.solver import solve_or_raise
from repro.nids.modules import STANDARD_MODULES
from repro.nids.modules.base import CheckLocation, ModuleSpec, Scope, TrafficFilter
from repro.nids.modules.catalog import module_set
from repro.topology import PathSet, by_label
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator
from repro.traffic.packet import TCP, UDP, FiveTuple
from repro.traffic.session import Session
from tests import planning_oracle as oracle
from tests.planning_oracle import fractions_of
from tests.lp_expressions import ExpressionProgram

LABELS = ("internet2", "Geant", "AS1239", "pop100")


def _world(label, sessions, seed=29):
    topology = by_label(label).set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=seed))
    return topology, paths, generator.generate(sessions)


@pytest.fixture(scope="module", params=LABELS)
def world(request):
    return _world(request.param, 2500)


@pytest.fixture(scope="module")
def as1239_units():
    topology, paths, sessions = _world("AS1239", 4000, seed=31)
    return topology, oracle.build_units(module_set(21), sessions, paths)


def _spec(scope, aggregation, name="probe", **overrides):
    return ModuleSpec(
        name=name,
        aggregation=aggregation,
        scope=scope,
        check_location=CheckLocation.POLICY_ONLY,
        **overrides,
    )


def _session(index, ingress, egress, src, dst, *, proto=TCP, dport=80, pkts=3,
             half_open=False):
    return Session(
        session_id=index,
        tuple=FiveTuple(src, dst, 1024 + index, dport, proto),
        app="test",
        ingress=ingress,
        egress=egress,
        start_time=float(index),
        num_packets=pkts,
        num_bytes=60 * pkts,
        half_open=half_open,
    )


#: Host ids at the edges of ``uint64`` and of its int64 reading.
HOST_EDGES = (0, 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
HOSTS = st.integers(min_value=0, max_value=2**64 - 1)
PROTOS = (TCP, UDP, 1)
#: A protocol no drawn session carries: its class matches nothing.
UNSEEN_PROTO = 250
#: Destination ports in and far outside the 16-bit range.
PORTS = st.one_of(
    st.sampled_from((-1, 0, 23, 69, 80, 135, 513, 6667, 8080, 65535, 65536, 2**40)),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
#: Server-port sets, some holding integers no int64 column can equal.
SERVER_PORTS = st.frozensets(
    st.one_of(PORTS, st.sampled_from((2**63, 2**64, -(2**63) - 1))),
    min_size=1,
    max_size=4,
)


# -- build_units --------------------------------------------------------------
class TestBuildUnits:
    @pytest.mark.parametrize("count", range(8, 22))
    def test_every_module_set_on_every_topology(self, world, count):
        topology, paths, sessions = world
        modules = module_set(count)
        units = build_units(modules, sessions, paths)
        expected = oracle.build_units(modules, sessions, paths)
        assert units == expected
        oracle.assert_same_units(units, expected, topology.node_names)

    def test_list_batch_and_taken_child_agree(self, world):
        _topology, paths, sessions = world
        modules = module_set(21)
        batch = SessionBatch(sessions)
        expected = oracle.build_units(modules, sessions, paths)
        assert build_units(modules, batch, paths) == expected
        # A child keeps only the pairs present and resolves its rows
        # through the root: every third session, and a reversed window.
        rows = np.arange(0, len(sessions), 3)
        assert build_units(modules, batch.take(rows), paths) == oracle.build_units(
            modules, [sessions[i] for i in rows.tolist()], paths
        )
        window = np.arange(len(sessions) // 2, len(sessions) // 4, -1)
        assert build_units(
            modules, batch.take(rows).take(window % len(rows)), paths
        ) == oracle.build_units(
            modules, [sessions[rows[i % len(rows)]] for i in window.tolist()], paths
        )

    def test_accumulation_order_at_depth(self):
        """Hundreds of sessions per unit: a pairwise per-unit sum would
        differ from the in-order ``+=`` in the last bit here."""
        _topology, paths, sessions = _world("internet2", 20_000, seed=97)
        assert build_units(STANDARD_MODULES, sessions, paths) == oracle.build_units(
            STANDARD_MODULES, sessions, paths
        )

    def test_empty_trace_and_single_session(self, world):
        topology, paths, sessions = world
        assert build_units(STANDARD_MODULES, [], paths) == []
        assert build_units(STANDARD_MODULES, SessionBatch([]), paths) == []
        oracle.assert_same_units(
            build_units(STANDARD_MODULES, [], paths), [], topology.node_names
        )
        assert build_units([], sessions, paths) == []
        assert build_units(STANDARD_MODULES, sessions[:1], paths) == oracle.build_units(
            STANDARD_MODULES, sessions[:1], paths
        )

    def test_module_matching_nothing_emits_no_units(self, world):
        _topology, paths, sessions = world
        silent = _spec(
            Scope.PATH,
            Aggregation.SESSION,
            name="silent",
            traffic_filter=TrafficFilter(server_ports=frozenset({9}), proto=UDP),
        )
        modules = [silent] + list(STANDARD_MODULES)
        units = build_units(modules, sessions, paths)
        assert units == oracle.build_units(modules, sessions, paths)
        assert all(unit.class_name != "silent" for unit in units)
        assert build_units([silent], sessions, paths) == []

    def test_singleton_units_are_their_own_observers(self, world):
        """Ingress- and egress-scoped classes: one CSR entry per unit,
        the unit's only location."""
        topology, paths, sessions = world
        edge = [m for m in STANDARD_MODULES if m.scope is not Scope.PATH]
        assert {m.scope for m in edge} == {Scope.INGRESS, Scope.EGRESS}
        units = build_units(edge, sessions, paths)
        oracle.assert_same_units(
            units, oracle.build_units(edge, sessions, paths), topology.node_names
        )
        assert units.sizes.tolist() == [1] * len(units)
        assert [units.nodes[c] for c in units.codes.tolist()] == [
            key[0] for _name, key in units.idents
        ]

    def test_all_half_open_tcp(self, world):
        """The SYN-flood rule (policy events for half-open connections
        only) with every TCP session half-open and with none."""
        _topology, paths, sessions = world
        tcp = [s for s in sessions if s.tuple.proto == TCP]
        for flag in (True, False):
            trace = [dataclasses.replace(s, half_open=flag) for s in tcp]
            units = build_units(STANDARD_MODULES, trace, paths)
            assert units == oracle.build_units(STANDARD_MODULES, trace, paths)
        flood = next(m for m in STANDARD_MODULES if m.half_open_events_only)
        open_work = sum(
            u.cpu_work
            for u in build_units(
                [flood], [dataclasses.replace(s, half_open=True) for s in tcp], paths
            )
        )
        closed_work = sum(
            u.cpu_work
            for u in build_units(
                [flood], [dataclasses.replace(s, half_open=False) for s in tcp], paths
            )
        )
        assert open_work > closed_work

    def test_repeated_hosts_across_and_within_units(self, world):
        """Per-source / per-destination items count distinct hosts per
        unit: a host seen in two units counts in both, twice in one
        unit once, and source and destination columns are not mixed."""
        topology, paths, _sessions = world
        a, b, c = topology.node_names[:3]
        trace = [
            _session(0, a, b, src=10, dst=70),
            _session(1, a, b, src=10, dst=71),
            _session(2, a, c, src=10, dst=72),
            _session(3, a, c, src=11, dst=72),
            _session(4, b, c, src=10, dst=72),
            _session(5, b, a, src=12, dst=72),
            _session(6, c, a, src=12, dst=73),
        ]
        modules = [
            _spec(scope, aggregation, name=f"{scope.value}-{aggregation.name}")
            for scope in Scope
            for aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION)
        ]
        units = build_units(modules, trace, paths)
        assert units == oracle.build_units(modules, trace, paths)
        items = {(u.class_name, u.key): u.items for u in units}
        assert items[("ingress-SOURCE", (a,))] == 2.0  # hosts 10, 11
        assert items[("ingress-DESTINATION", (a,))] == 3.0  # 70, 71, 72
        assert items[("egress-SOURCE", (c,))] == 2.0  # 10, 11
        assert items[("egress-DESTINATION", (c,))] == 1.0  # 72
        assert items[("egress-DESTINATION", (a,))] == 2.0  # 72, 73

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hand_built_traces_every_scope(self, data):
        """Hosts over the whole ``uint64`` range (so the distinct-item key
        overflows int64 and items are re-coded), arbitrary ports and
        every filter shape, against the per-session oracle."""
        topology = by_label("internet2")
        paths = PathSet(topology)
        nodes = topology.node_names[:4]
        node = st.sampled_from(nodes)
        # A band of host ids: narrow bands repeat hosts within a unit,
        # wide ones make ``units * span`` leave int64.
        low = data.draw(st.one_of(st.sampled_from(HOST_EDGES), HOSTS), label="low")
        width = data.draw(st.sampled_from((5, 2**32, 2**61, 2**62, 2**63, 2**64)), label="width")
        high = min(low + width, 2**64 - 1)
        host = st.one_of(
            st.integers(low, min(low + 5, high)),
            st.integers(low, high),
            st.sampled_from(HOST_EDGES),
        )
        rows = data.draw(
            st.lists(
                st.tuples(
                    node, node, host, host,
                    st.sampled_from(PROTOS), PORTS,
                    st.integers(min_value=1, max_value=2000),
                    st.booleans(),
                ),
                max_size=40,
            )
        )
        trace = [
            _session(i, ingress, egress, src, dst, proto=proto, dport=dport,
                     pkts=pkts, half_open=half_open)
            for i, (ingress, egress, src, dst, proto, dport, pkts, half_open)
            in enumerate(rows)
        ]
        filters = {
            "all": TrafficFilter(),
            "proto": TrafficFilter(proto=data.draw(st.sampled_from(PROTOS))),
            "ports": TrafficFilter(server_ports=data.draw(SERVER_PORTS)),
            "both": TrafficFilter(
                proto=data.draw(st.sampled_from(PROTOS)),
                server_ports=data.draw(SERVER_PORTS),
            ),
            "none": TrafficFilter(server_ports=frozenset({80}), proto=UNSEEN_PROTO),
        }
        modules = [
            _spec(
                scope,
                aggregation,
                name=f"{scope.value}-{aggregation.name}-{shape}",
                events_per_packet=0.3,
                events_per_session=1.7,
                half_open_events_only=aggregation is Aggregation.DESTINATION,
                traffic_filter=traffic_filter,
            )
            for scope in Scope
            for aggregation in Aggregation
            for shape, traffic_filter in filters.items()
        ]
        assert build_units(modules, trace, paths) == oracle.build_units(
            modules, trace, paths
        )


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_batch_filter_is_the_scalar_filter(data):
    """``matches_sessions_batch`` (and the batch's memoised
    ``match_mask``) equals ``matches_session`` session by session."""
    traffic_filter = TrafficFilter(
        proto=data.draw(st.none() | st.sampled_from(PROTOS)),
        server_ports=data.draw(st.just(frozenset()) | SERVER_PORTS),
    )
    rows = data.draw(st.lists(st.tuples(st.sampled_from(PROTOS), PORTS), max_size=30))
    trace = [
        _session(i, "a", "b", src=1, dst=2, proto=proto, dport=dport)
        for i, (proto, dport) in enumerate(rows)
    ]
    expected = [traffic_filter.matches_session(session) for session in trace]
    batch = SessionBatch(trace)
    mask = traffic_filter.matches_sessions_batch(batch.proto, batch.dport)
    assert mask.dtype == bool
    assert mask.tolist() == expected
    assert batch.match_mask(traffic_filter).tolist() == expected
    assert traffic_filter.matches_all == (traffic_filter == TrafficFilter())


def test_plan_deployment_takes_a_batch(world):
    topology, paths, sessions = world
    from_list = plan_deployment(topology, paths, STANDARD_MODULES, sessions)
    from_batch = plan_deployment(topology, paths, STANDARD_MODULES, SessionBatch(sessions))
    assert from_batch.units == from_list.units
    assert fractions_of(from_batch.assignment) == fractions_of(from_list.assignment)
    assert from_batch.manifests == from_list.manifests


# -- the LP -------------------------------------------------------------------
def _assert_same_matrix(ours, theirs):
    if theirs is None:
        assert ours is None
        return
    ours, theirs = ours.copy(), theirs.copy()
    ours.sort_indices()
    theirs.sort_indices()
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(ours.data, theirs.data)


def _assert_same_compile(ours, theirs):
    assert list(ours.cost) == list(theirs.cost)
    # The oracle keeps ``(lb, ub)`` pairs with ``None`` for no bound;
    # compile emits them as one ``(n, 2)`` array with ``+inf``.
    assert ours.bounds.shape == (len(theirs.bounds), 2)
    assert ours.bounds.tolist() == [
        [lb, np.inf if ub is None else ub] for lb, ub in theirs.bounds
    ]
    assert ours.maximize == theirs.maximize
    assert ours.binary_indices == theirs.binary_indices
    assert ours.presolve == theirs.presolve
    assert np.array_equal(ours.b_ub, theirs.b_ub)
    assert np.array_equal(ours.b_eq, theirs.b_eq)
    assert list(ours.variable_names) == list(theirs.variable_names)
    assert list(ours.ineq_names) == list(theirs.ineq_names)
    assert list(ours.eq_names) == list(theirs.eq_names)
    _assert_same_matrix(ours.a_ub, theirs.a_ub)
    _assert_same_matrix(ours.a_eq, theirs.a_eq)


def _assert_same_program(built, reference):
    assert built.program.num_variables == reference.program.num_variables
    assert built.program.num_constraints == reference.program.num_constraints
    assert built.coverage == reference.coverage
    assert built.d == range(len(reference.d_vars))
    for ours, theirs in (
        (built.cpu_load_cols, reference.cpu_load_vars),
        (built.mem_load_cols, reference.mem_load_vars),
    ):
        assert ours.tolist() == [var.index for var in theirs.values()]
        assert [built.program.variable_names[col] for col in ours] == [
            var.name for var in theirs.values()
        ]
    _assert_same_compile(built.program.compile(), reference.program.compile())


def _heterogeneous(topology):
    for index, name in enumerate(topology.node_names):
        topology.scale_capacity(
            name, cpu_factor=1.0 + 0.37 * (index % 5), mem_factor=3.0 / (1 + index % 3)
        )
    return topology


LP_CASES = [
    dict(coverage=1.0),
    dict(coverage=2.0),
    dict(coverage=2),
]


class TestNidsLP:
    @pytest.mark.parametrize("options", LP_CASES)
    def test_compiled_program_equals_oracle(self, as1239_units, options):
        topology, units = as1239_units
        _assert_same_program(
            build_nids_lp(units, topology, **options),
            oracle.build_nids_lp(units, topology, **options),
        )

    @pytest.mark.parametrize("coverage", [1.0, 2.0])
    def test_every_topology_compiles_to_the_oracles_arrays(self, world, coverage):
        topology, paths, sessions = world
        units = build_units(module_set(21), sessions, paths)
        _assert_same_program(
            build_nids_lp(units, topology, coverage),
            oracle.build_nids_lp(units, topology, coverage),
        )

    def test_heterogeneous_capacities(self, as1239_units):
        _topology, units = as1239_units
        topology = _heterogeneous(by_label("AS1239"))
        _assert_same_program(
            build_nids_lp(units, topology, 2.0), oracle.build_nids_lp(units, topology, 2.0)
        )
        assignment = solve_nids_lp(units, topology, 2.0)
        expected, _solution = oracle.solve_nids_lp(units, topology, 2.0)
        assert fractions_of(assignment) == fractions_of(expected)
        assert assignment.objective == expected.objective

    def test_singletons_only_and_no_units(self, as1239_units):
        topology, units = as1239_units
        singletons = [unit for unit in units if unit.singleton]
        assert singletons
        for subset in (singletons, []):
            _assert_same_program(
                build_nids_lp(subset, topology, 2.0),
                oracle.build_nids_lp(subset, topology, 2.0),
            )
            assignment = solve_nids_lp(subset, topology, 2.0)
            expected, _solution = oracle.solve_nids_lp(subset, topology, 2.0)
            assert fractions_of(assignment) == fractions_of(expected)
            assert assignment.cpu_load == expected.cpu_load

    @pytest.mark.parametrize("options", LP_CASES)
    def test_solution_equals_oracle(self, as1239_units, options):
        topology, units = as1239_units
        assignment = solve_nids_lp(units, topology, **options)
        expected, _solution = oracle.solve_nids_lp(units, topology, **options)
        built = build_nids_lp(units, topology, **options)
        # The columns are the program's d slice as laid out, no re-keying.
        assert assignment.units == tuple(unit.ident for unit in units)
        assert assignment.nodes == tuple(topology.node_names)
        assert np.array_equal(assignment.unit_of, built.unit_of)
        assert np.array_equal(assignment.node_of, built.node_of)
        ours, theirs = fractions_of(assignment), fractions_of(expected)
        assert list(ours) == list(theirs)
        assert ours == theirs
        assert assignment.cpu_load == expected.cpu_load
        assert assignment.mem_load == expected.mem_load
        assert assignment.objective == expected.objective
        assert assignment.coverage == expected.coverage
        # ``==`` cannot tell -0.0 from 0.0 or 2 from 2.0; the serialised
        # form (what ``--assignment-output`` writes) can.
        assert json.dumps(list(ours.values())) == json.dumps(list(theirs.values()))
        assert json.dumps(list(assignment.coverage.values())) == json.dumps(
            list(expected.coverage.values())
        )

    def test_unknown_eligible_node_is_rejected(self, as1239_units):
        topology, _units = as1239_units
        stray = CoordinationUnit("c", ("x",), ("not-a-node",), 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(KeyError):
            build_nids_lp([stray], topology)

    def test_bottleneck_duals_unchanged(self, as1239_units):
        topology, units = as1239_units
        report = bottleneck_analysis(units, topology)
        _assignment, solution = oracle.solve_nids_lp(units, topology)
        assert report.objective == solution.objective
        for name in topology.node_names:
            assert report.cpu_pressure[name] == abs(solution.dual_by_name(f"cpu-max[{name}]"))
            assert report.mem_pressure[name] == abs(solution.dual_by_name(f"mem-max[{name}]"))
        assert any(report.cpu_pressure.values()) or any(report.mem_pressure.values())


# -- the model layer's blocks -------------------------------------------------
class _Counted:
    """A block-name renderer that records how often it ran."""

    def __init__(self, names):
        self.names = names
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.names


def _block_program():
    """min t  s.t.  x0 + x1 == 1, x1 + x2 == 1, t >= x_i."""
    lp = LinearProgram("blocks")
    x_names = _Counted(["x[0]", "x[1]", "x[2]"])
    row_names = _Counted(["pair[0]", "pair[1]"])
    x = lp.add_variables(3, x_names, lb=0.0, ub=[1.0, 0.25, 1.0])
    (t,) = lp.add_variables(1, ["t"])
    lp.add_constraints(
        Relation.EQ,
        rows=[0, 0, 1, 1],
        cols=[x[0], x[1], x[1], x[2]],
        data=[1.0, 1.0, 1.0, 1.0],
        rhs=[1.0, 1.0],
        names=row_names,
    )
    lp.add_constraints(
        Relation.GE,
        rows=[0, 1, 2, 0, 1, 2],
        cols=[t, t, t, *x],
        data=[1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
        rhs=[0.0, 0.0, 0.0],
        names=[f"top[{i}]" for i in x],
    )
    lp.set_objective([t], [1.0], Sense.MINIMIZE)
    return lp, x, x_names, row_names


def _reference_program():
    """The same program, one term at a time."""
    lp = ExpressionProgram("blocks")
    x = [lp.add_variable(f"x[{i}]", ub=ub) for i, ub in enumerate((1.0, 0.25, 1.0))]
    t = lp.add_variable("t")
    lp.add_constraint((x[0] + x[1]).equals(1.0), name="pair[0]")
    lp.add_constraint((x[1] + x[2]).equals(1.0), name="pair[1]")
    for i, x_i in enumerate(x):
        lp.add_constraint(t >= x_i, name=f"top[{i}]")
    lp.set_objective(t, Sense.MINIMIZE)
    return lp


def _satisfies(compiled, values, tol=1e-6):
    """Whether *values* meets the compiled bounds and rows."""
    x = np.asarray(values)
    lower = np.array([lb for lb, _ub in compiled.bounds])
    upper = np.array([np.inf if ub is None else ub for _lb, ub in compiled.bounds])
    return bool(
        np.all(x >= lower - tol)
        and np.all(x <= upper + tol)
        and np.all(compiled.a_ub @ x <= compiled.b_ub + tol)
        and np.all(np.abs(compiled.a_eq @ x - compiled.b_eq) <= tol)
    )


class TestBlocks:
    def test_solve_reads_no_block_name(self):
        lp, x, x_names, row_names = _block_program()
        solution = solve_or_raise(lp)
        assert solution.objective == pytest.approx(0.75)
        assert solution.values[x[1]] == pytest.approx(0.25)
        # Names given as lists resolve before any block is rendered.
        assert solution.value_by_name("t") == pytest.approx(0.75)
        assert solution.dual_by_name("top[0]") == pytest.approx(
            solution.ineq_duals[0]
        )
        assert (x_names.calls, row_names.calls) == (0, 0)
        # Asking for a block's own names renders that block, once.
        assert solution.value_by_name("x[1]") == pytest.approx(0.25)
        assert solution.dual_by_name("pair[1]") == solution.eq_duals[1]
        assert solution.dual_by_name("pair[0]") == solution.eq_duals[0]
        assert (x_names.calls, row_names.calls) == (1, 1)
        assert list(solution.variable_names) == ["x[0]", "x[1]", "x[2]", "t"]
        assert solution.as_dict()["x[2]"] == pytest.approx(0.75)
        with pytest.raises(KeyError):
            solution.dual_by_name("nonexistent")
        with pytest.raises(ValueError):
            solution.value_by_name("nonexistent")
        reference = solve_or_raise(_reference_program())
        assert solution.values.tolist() == reference.values.tolist()
        assert solution.objective == reference.objective
        assert (solution.ineq_duals, solution.eq_duals) == (
            reference.ineq_duals, reference.eq_duals
        )

    def test_is_feasible_honours_block_rows(self):
        lp, _x, _x_names, _row_names = _block_program()
        reference = _reference_program()
        assert lp.num_variables == reference.num_variables == 4
        assert lp.num_constraints == reference.num_constraints == 5
        compiled = lp.compile()
        _assert_same_compile(compiled, reference.compile())
        for point, feasible in (
            ([0.75, 0.25, 0.75, 0.75], True),
            ([0.75, 0.25, 0.5, 0.75], False),  # pair[1] broken
            ([0.5, 0.5, 0.5, 0.5], False),  # x[1] above its bound
            ([0.75, 0.25, 0.75, 0.5], False),  # top rows broken
        ):
            assert reference.is_feasible(point) is feasible
            assert _satisfies(compiled, point) is feasible

    def test_inequality_blocks_flip_like_expressions(self):
        def blocks():
            lp = LinearProgram()
            x, y = lp.add_variables(2, ["x", "y"], ub=10.0)
            lp.add_constraints(
                Relation.GE, [0, 1, 1], [x, x, y], [1.0, 1.0, 2.0], [2.0, 7.0], ["lo", "mix"]
            )
            lp.add_constraints(Relation.LE, [0], [y], [1.0], [3.0], ["hi"])
            lp.set_objective([x, y], [1.0, 1.0], Sense.MINIMIZE)
            return lp

        def expressions():
            lp = ExpressionProgram()
            x = lp.add_variable("x", ub=10.0)
            y = lp.add_variable("y", ub=10.0)
            lp.add_constraint(x >= 2.0, name="lo")
            lp.add_constraint(x + 2.0 * y >= 7.0, name="mix")
            lp.add_constraint(y <= 3.0, name="hi")
            lp.set_objective(x + y, Sense.MINIMIZE)
            return lp

        ours, theirs = blocks().compile(), expressions().compile()
        _assert_same_compile(ours, theirs)
        assert list(ours.ineq_names) == ["lo", "mix", "hi"]
        assert solve_or_raise(blocks()).objective == pytest.approx(4.5)
        assert solve_or_raise(blocks()).dual_by_name("mix") == pytest.approx(
            solve_or_raise(expressions()).dual_by_name("mix")
        )

    def test_a_zero_right_hand_side_stays_positive_zero(self):
        # ``>=`` rows are negated for the backend; -1.0 * 0.0 is -0.0,
        # which ``==`` cannot tell from what the reference lowers to.
        lp, _x, _x_names, _row_names = _block_program()
        assert not np.signbit(lp.compile().b_ub).any()
        assert not np.signbit(_reference_program().compile().b_ub).any()

    def test_malformed_blocks_are_rejected(self):
        lp = LinearProgram()
        lp.add_variables(2, ["a", "b"])
        with pytest.raises(ValueError):
            lp.add_variables(2, ["only-one"])
        with pytest.raises(ValueError):
            lp.add_constraints(Relation.EQ, [0, 1], [0, 1], [1.0], [0.0, 0.0], ["r", "s"])
        with pytest.raises(ValueError):
            lp.add_constraints(Relation.EQ, [0, 2], [0, 1], [1.0, 1.0], [0.0, 0.0], ["r", "s"])
        with pytest.raises(ValueError):
            lp.add_constraints(Relation.EQ, [0, 1], [0, 2], [1.0, 1.0], [0.0, 0.0], ["r", "s"])
        with pytest.raises(ValueError):
            lp.set_objective([0, 1], [1.0], Sense.MINIMIZE)
        with pytest.raises(ValueError):
            lp.set_objective([0, 2], [1.0, 1.0], Sense.MINIMIZE)
        lp.add_constraints(Relation.EQ, [0], [0], [1.0], [0.0], lambda: ["r", "s"])
        with pytest.raises(ValueError):
            list(lp.compile().eq_names)


# -- the unit table ------------------------------------------------------------
class TestUnitTable:
    """``UnitTable`` against the unit objects it replaced."""

    def test_rows_table_rows_round_trip(self, world):
        topology, paths, sessions = world
        rows = oracle.build_units(module_set(21), sessions, paths)
        table = UnitTable.of(rows)
        oracle.assert_same_units(table, rows)
        assert table.rows is not rows and table.rows == rows
        assert all(a is b for a, b in zip(table, rows))
        assert UnitTable.of(table) is table
        rebuilt = UnitTable(
            table.idents, table.nodes, table.offsets, table.codes, table.volumes
        )
        assert list(rebuilt) == rows and rebuilt.rows is not table.rows
        assert table[3:11] == rows[3:11] and table[-1] == rows[-1]
        assert table.index(rows[5]) == 5 and rows[5] in table
        built = build_units(module_set(21), sessions, paths)
        assert UnitTable.of(list(built)) == built
        oracle.assert_same_units(UnitTable.of(list(built)), list(built))

    @pytest.mark.parametrize("headroom", [1.3, 2.0, 1.0 + 1e-3, 7.25])
    def test_conservative_units_is_the_replace_loop(self, world, headroom):
        _topology, paths, sessions = world
        units = build_units(STANDARD_MODULES, sessions, paths)
        expected = oracle.conservative_units(list(units), headroom)
        scaled = conservative_units(units, headroom)
        oracle.assert_same_units(scaled, expected)
        assert conservative_units(list(units), headroom) == expected
        assert scaled.codes is units.codes and scaled.idents is units.idents

    @pytest.mark.parametrize("coverage", [1, 2.0, 3])
    def test_uniform_assignment_is_the_loop(self, world, coverage):
        topology, paths, sessions = world
        hetero = topology.copy()
        for k, name in enumerate(hetero.node_names):
            cpu, mem = 1 + k % 7 / 7, 3 - k % 11 / 11
            hetero.scale_capacity(name, cpu_factor=cpu, mem_factor=mem)
        units = build_units(module_set(21), sessions, paths)
        got = uniform_assignment(units, hetero, coverage)
        want = oracle.uniform_assignment(list(units), hetero, coverage)
        assert fractions_of(got) == fractions_of(want)
        assert (got.cpu_load, got.mem_load, got.objective) == (
            want.cpu_load, want.mem_load, want.objective,
        )
        assert list(got.cpu_load) == list(want.cpu_load)
        assert got.coverage == want.coverage
        assert [type(v) for v in got.coverage.values()] == [
            type(v) for v in want.coverage.values()
        ]

    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exclude_failed_is_the_loop(self, data):
        topology, paths, sessions = EXCLUDE_WORLD
        nodes = topology.node_names
        controller = Controller(
            topology, paths, STANDARD_MODULES, Bus(BusConfig(latency=0.0))
        )
        failed = data.draw(st.sets(st.sampled_from(nodes)), label="failed")
        fenced = data.draw(st.sets(st.sampled_from(nodes)), label="fenced")
        controller.monitor.failed = set(failed)
        controller.fenced = set(fenced)
        units = build_units(STANDARD_MODULES, sessions, paths)
        expected = oracle.exclude_failed(
            list(units), controller._unavailable(), controller._live_fenced()
        )
        oracle.assert_same_units(controller._exclude_failed(units), expected, nodes)

    def test_exclude_failed_keeps_a_fenced_singleton(self):
        """A unit whose only nodes are fenced but alive stays planned on
        them; a unit whose only node failed is dropped."""
        topology, paths, sessions = EXCLUDE_WORLD
        a, b = topology.node_names[:2]
        controller = Controller(
            topology, paths, STANDARD_MODULES, Bus(BusConfig(latency=0.0))
        )
        controller.monitor.failed = {b}
        controller.fenced = {a}
        units = build_units(STANDARD_MODULES, sessions, paths)
        kept = controller._exclude_failed(units)
        assert ("scan", (a,)) in kept.by_ident and ("scan", (b,)) not in kept.by_ident
        assert kept.eligible[kept.by_ident["scan", (a,)]] == (a,)
        oracle.assert_same_units(
            kept, oracle.exclude_failed(list(units), {a, b}, {a})
        )

    def test_a_unit_listed_twice_counts_as_its_last(self):
        """``check_assignment`` and the on-path check read a unit's path
        from the last time *units* lists it."""
        first = CoordinationUnit("c", ("k",), ("X", "Y"), 1.0, 1.0, 1.0, 1.0)
        last = CoordinationUnit("c", ("k",), ("Y", "Z"), 1.0, 1.0, 1.0, 1.0)
        assignment = NIDSAssignment.from_triples(
            [("c", ("k",), "X", 0.5), ("c", ("k",), "Y", 0.5)], {("c", ("k",)): 1.0}
        )
        manifests = {
            "X": NodeManifest("X", {("c", ("k",)): (HashRange(0.0, 0.5),)}),
            "Y": NodeManifest("Y", {("c", ("k",)): (HashRange(0.5, 1.0),)}),
            "Z": NodeManifest("Z"),
        }
        for units, stray in (([last, first], []), ([first, last], ["c/k@X"])):
            assert [f.subject for f in check_assignment(units, assignment)] == stray
            assert [f.subject for f in check_on_path(units, manifests)] == stray


EXCLUDE_WORLD = _world("internet2", 600, seed=5)
