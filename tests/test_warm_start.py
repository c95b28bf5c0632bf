"""Re-plans solved from the controller's own last simplex basis.

``solve`` can start an LP from a :class:`~repro.lp.solver.Basis` and
read its final one back; ``nids_lp.NIDSBasis.mapped`` carries a solved
assignment LP's basis onto the next program by label, and a controller
holds its own last one (``WarmStart``, scoped by ``hold_start``).  A
warm re-plan reaches the same optimum as a cold one by another route,
so every check here compares it with a cold solve of the same program.

Seeded mutations each of which fails a test here: dropping the start
basis (``WarmStart.start_for`` always ``None``) fails
``test_seed_7_control_run_passes_its_acceptance_rule``; a cover row mapped by position instead of by ident, or a ``d``
column by position instead of by (unit, node), fails
``test_the_mapping_labels_what_it_carries_over``; the controller
keeping its basis across an election fails
``test_a_promoted_leader_forgets_an_earlier_reigns_basis``; a threshold
of 0 fails ``test_a_small_to_large_replan_solves_cold``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.control.controller as controller
from repro.cli import main
from repro.control.bus import Bus, BusConfig
from repro.control.chaos import build_plan, run_chaos
from repro.control.plane import ScenarioConfig
from repro.control.replication import Beat, HAConfig
from repro.core import nids_lp
from repro.core.nids_lp import WarmStart, build_nids_lp, hold_start, solve_nids_lp
from repro.core.units import CoordinationUnit, UnitTable
from repro.lp import solver
from repro.lp.model import LinearProgram, Relation, Sense
from repro.lp.solver import BASIS_BASIC, BASIS_LOWER, Basis, SolveStatus, solve
from repro.nids.modules import STANDARD_MODULES
from repro.obs import MetricsRegistry
from repro.topology import PathSet, by_label

try:
    from scipy.optimize._highspy import _core  # noqa: F401
except ImportError:  # pragma: no cover - SciPy without the bindings
    HAVE_BINDINGS = False
else:
    HAVE_BINDINGS = True

pytestmark = pytest.mark.skipif(
    not HAVE_BINDINGS, reason="SciPy ships no HiGHS bindings"
)

#: Warm and cold optima of the same program agree this closely.
REL_TOL = 1e-12


def _close(warm, cold):
    return abs(warm - cold) <= REL_TOL * abs(cold)


def _gate_config(plan):
    """The chaos-smoke bookkeeping gate's run: pop100, 3 replicas,
    re-plan every epoch."""
    nodes = by_label("pop100").node_names
    return ScenarioConfig(
        plan=build_plan(plan, 7, 14, nodes), topology="pop100",
        epochs=14, base_sessions=400, seed=7, resolve_every=1, replicas=3,
    )


def _recorded_run(monkeypatch, plan):
    """*plan*'s gate run with every re-plan's program, assignment and
    start recorded, and its registry."""
    calls = []
    real = controller.solve_nids_lp

    def recording(units, topology, coverage):
        held = nids_lp._held
        assignment = real(units, topology, coverage)
        calls.append((units, topology, coverage, assignment, held.outcome))
        return assignment

    monkeypatch.setattr(controller, "solve_nids_lp", recording)
    registry = MetricsRegistry()
    result = run_chaos(_gate_config(plan), registry)
    return result, calls, registry


# -- the solver ----------------------------------------------------------


def _small_program(seed=3, units=12):
    return build_nids_lp(_units(np.random.default_rng(seed), units), _topology()).program


def test_a_solve_reads_back_its_basis_only_when_asked():
    program = _small_program()
    assert solve(program).basis is None
    solution = solve(program, read_basis=True)
    compiled = program.compile()
    basis = solution.basis
    assert len(basis.col_status) == compiled.num_variables
    assert len(basis.row_status) == len(compiled.b_ub) + len(compiled.b_eq)
    # A basis has one basic column or row per row.
    basic = np.count_nonzero(basis.col_status == BASIS_BASIC) + np.count_nonzero(
        basis.row_status == BASIS_BASIC
    )
    assert basic == len(basis.row_status)


def test_a_solve_from_its_own_final_basis_does_not_iterate(monkeypatch):
    program = _small_program()
    cold = solve(program, read_basis=True)
    iterations = []

    def counted(*args, **options):
        result = solver._solve_highs(*args, **options)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(solver, "backend", counted)
    warm = solve(program, start=cold.basis, read_basis=True)
    assert iterations == [0]
    assert warm.objective == cold.objective
    assert warm.values.tolist() == cold.values.tolist()


def test_the_basis_read_back_is_highs_own(monkeypatch):
    """``_read_basis`` against the bindings' ``getBasis`` on small
    programs and a 400-unit one: the same basic set, and
    each nonbasic column and row at the same bound — but for a fixed
    row, whose two bounds are one value."""
    checked = []
    read = solver._read_basis

    def against_get_basis(highs, cols, rows):
        ours = read(highs, cols, rows)
        theirs = highs.getBasis()
        col = np.array([status.value for status in theirs.col_status], np.int8)
        row = np.array([status.value for status in theirs.row_status], np.int8)
        assert ours.col_status.tolist() == col.tolist()
        _value, lower, upper = rows
        free = lower != upper
        assert ours.row_status[free].tolist() == row[free].tolist()
        assert ((ours.row_status == BASIS_BASIC) == (row == BASIS_BASIC)).all()
        checked.append(len(row))
        return ours

    monkeypatch.setattr(solver, "_read_basis", against_get_basis)
    for seed in range(4):
        solve(_small_program(seed, units=10 + 10 * seed), read_basis=True)
    units = _units(np.random.default_rng(9), 400)
    with hold_start(WarmStart(0.5)):
        solve_nids_lp(units, _topology())
    assert len(checked) == 5


def test_an_alien_start_is_repaired():
    program = _small_program()
    cold = solve(program)
    compiled = program.compile()
    rows = len(compiled.b_ub) + len(compiled.b_eq)
    # Every column basic: far too many; every row basic too.
    for start in (
        Basis(np.full(compiled.num_variables, BASIS_BASIC, np.int8),
              np.full(rows, BASIS_LOWER, np.int8)),
        Basis(np.full(compiled.num_variables, BASIS_LOWER, np.int8),
              np.full(rows, BASIS_BASIC, np.int8)),
    ):
        warm = solve(program, start=start)
        assert warm.status is SolveStatus.OPTIMAL
        assert _close(warm.objective, cold.objective)


def test_a_start_of_another_shape_is_an_error():
    program = _small_program()
    basis = solve(program, read_basis=True).basis
    short = Basis(basis.col_status[:-1], basis.row_status)
    solution = solve(program, start=short)
    assert solution.status is SolveStatus.ERROR
    assert "start basis" in solution.message


def test_the_linprog_fallback_ignores_the_start(monkeypatch):
    program = _small_program()
    direct = solve(program, read_basis=True)
    monkeypatch.setattr(solver, "backend", solver._solve_linprog)
    # A start that is no basis at all: the fallback never reads it.
    bogus = Basis(np.zeros(0, np.int8), np.zeros(0, np.int8))
    reference = solve(program, start=bogus, read_basis=True)
    assert reference.status is SolveStatus.OPTIMAL
    assert reference.basis is None
    assert reference.objective == direct.objective


def test_a_milp_or_a_bounds_view_takes_no_start(monkeypatch):
    lp = LinearProgram("box")
    cols = lp.add_variables(4, ["w", "x", "y", "z"], ub=4.0)
    lp.add_constraints(Relation.LE, [0] * 4, cols, [1.0, 1.0, 2.0, 1.0], [6.0], ["budget"])
    lp.set_objective(cols, [1.0, 3.0, 2.0, 1.0], Sense.MAXIMIZE)
    compiled = lp.compile()
    start = solve(compiled, read_basis=True).basis
    calls = []

    def spy(*args, **options):
        calls.append(options)
        return solver._solve_highs(*args, **options)

    monkeypatch.setattr(solver, "backend", spy)
    for program in (
        compiled.with_bounds(0.0, [4.0, 0.0, 4.0, 4.0]),
        dataclasses.replace(compiled, binary_indices=(0, 1)),
    ):
        solution = solve(program, start=start, read_basis=True)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.basis is None
    assert [(o["start"], o["read_basis"]) for o in calls] == [(None, False)] * 2


# -- the mapping ---------------------------------------------------------


def _topology():
    return by_label("internet2").set_uniform_capacities(cpu=1.0, mem=1.0)


def _units(rng, count, classes=("http", "scan"), offset=0):
    """*count* units with random eligible sets and volumes, keys
    numbered from *offset*."""
    names = _topology().node_names
    rows = []
    for k in range(offset, offset + count):
        size = int(rng.integers(1, 5))
        eligible = tuple(rng.choice(names, size=size, replace=False).tolist())
        pkts, items = rng.uniform(1.0, 100.0, size=2).tolist()
        rows.append(CoordinationUnit(
            classes[k % len(classes)], (f"u{k}",), eligible,
            pkts, items, pkts * rng.uniform(0.5, 2.0), items * rng.uniform(0.5, 2.0),
        ))
    return UnitTable.of(rows)


def _successor(rng, units, vanish, appear, failed, scale):
    """*units* with a share *vanish* dropped, *appear* new ones added,
    volumes scaled per unit by up to *scale* and *failed* nodes struck
    from every eligible set (a unit left with none is dropped)."""
    kept = [u for u in units if rng.random() >= vanish]
    rows = [
        CoordinationUnit(
            u.class_name, u.key, u.eligible, u.pkts, u.items,
            u.cpu_work * (1.0 + scale * rng.random()),
            u.mem_bytes * (1.0 + scale * rng.random()),
        )
        for u in kept
    ] + list(_units(rng, appear, offset=10_000))
    table = UnitTable.of(rows)
    if failed:
        keep = ~table.entries_in(set(failed))
        table = table.where(keep)
    return table


def test_the_mapping_labels_what_it_carries_over():
    topology = _topology()
    nodes = tuple(topology.node_names)
    rng = np.random.default_rng(5)
    first = _units(rng, 20)
    held = WarmStart(0.0)
    with hold_start(held):
        solve_nids_lp(first, topology)
    previous = held.last
    # The same units in reverse order, one node failed.
    reordered = UnitTable.of(list(first)[::-1])
    failed = nodes[0]
    second = reordered.where(~reordered.entries_in({failed}))
    built = build_nids_lp(second, topology)
    start, overlap = previous.mapped(second, nodes, built)
    assert overlap == 1.0
    old_col = {
        (previous.idents[u], nodes[k]): status
        for u, k, status in zip(
            previous.unit_of.tolist(), previous.node_of.tolist(),
            previous.basis.col_status.tolist(),
        )
    }
    for t, (u, k) in enumerate(zip(built.unit_of.tolist(), built.node_of.tolist())):
        assert start.col_status[t] == old_col[second.idents[u], nodes[k]]
    ineq = 2 * len(nodes) + 2
    old_cover = dict(zip(previous.idents, previous.basis.row_status[ineq:].tolist()))
    for u, ident in enumerate(second.idents):
        assert start.row_status[ineq + u] == old_cover[ident]
    d = len(built.d)
    assert start.col_status[d:].tolist() == previous.basis.col_status[
        len(previous.unit_of):
    ].tolist()
    # Another node table maps nothing.
    assert previous.mapped(second, nodes[::-1], built) == (None, 0.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 30),
    vanish=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    appear=st.integers(0, 12),
    failed=st.sets(st.sampled_from(_topology().node_names), max_size=3),
    scale=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_a_warm_replan_reaches_the_cold_optimum(seed, count, vanish, appear, failed, scale):
    topology = _topology()
    rng = np.random.default_rng(seed)
    first = _units(rng, count)
    second = _successor(rng, first, vanish, appear, sorted(failed), scale)
    held = WarmStart(0.0)  # start from any overlap at all
    with hold_start(held):
        solve_nids_lp(first, topology)
        warm = solve_nids_lp(second, topology)
    cold = solve_nids_lp(second, topology)
    assert held.outcome == "warm"
    assert _close(warm.objective, cold.objective)
    assert warm.units == cold.units
    # Every unit still covered exactly: the warm point is feasible.
    sums = np.bincount(warm.unit_of, warm.value, len(warm.units))
    assert np.allclose(sums, [warm.coverage[ident] for ident in warm.units])


def test_a_plan_without_a_predecessor_is_todays(monkeypatch):
    topology = _topology()
    units = _units(np.random.default_rng(11), 25)
    calls = []

    def spy(*args, **options):
        calls.append(options)
        return solver._solve_highs(*args, **options)

    monkeypatch.setattr(solver, "backend", spy)
    outside = solve_nids_lp(units, topology)
    held = WarmStart(0.5)
    with hold_start(held):
        inside = solve_nids_lp(units, topology)
    # Outside a held start nothing is started from or read back.
    assert calls[0]["start"] is None and calls[0]["read_basis"] is False
    assert calls[1]["start"] is None and calls[1]["read_basis"] is True
    assert held.outcome == "no-basis" and held.last is not None
    assert inside.value.tolist() == outside.value.tolist()
    assert inside.objective == outside.objective
    assert nids_lp._held is None


# -- the controller ------------------------------------------------------


def test_seed_7_control_run_passes_its_acceptance_rule(capsys):
    code = main(
        ["control", "run", "--no-events", "--epochs", "6", "--sessions", "300",
         "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "acceptance criteria: all satisfied" in out


def test_every_replan_of_the_gate_config_matches_a_cold_solve(monkeypatch):
    result, calls, registry = _recorded_run(monkeypatch, "leader-crash-mid-push")
    assert result.ok, result.check_acceptance()
    outcomes = [outcome for *_rest, outcome in calls]
    # The first plan and the promoted leader's first re-plan are cold.
    assert outcomes.count("no-basis") == 2 and outcomes[0] == "no-basis"
    assert outcomes.count("warm") == len(calls) - 2
    cold_solves = registry.get("controller_cold_solves_total")
    assert cold_solves.value(reason="no-basis") == 2
    assert cold_solves.value(reason="low-overlap") == 0
    for units, topology, coverage, warm, _outcome in calls:
        cold = solve_nids_lp(units, topology, coverage)
        assert _close(warm.objective, cold.objective)


def test_a_promoted_leader_forgets_an_earlier_reigns_basis():
    topology = _topology()
    standby = controller.Controller(
        topology, PathSet(topology), STANDARD_MODULES, Bus(BusConfig()),
        index=1, ha_config=HAConfig(replicas=3),
    )
    with hold_start(standby._warm):
        solve_nids_lp(_units(np.random.default_rng(2), 10), topology)
    assert standby._warm.last is not None
    standby._apply(Beat(elected=True), 0.0)
    assert standby._warm.last is None


def test_a_small_to_large_replan_solves_cold(monkeypatch):
    """``leader-partition``: the leader re-plans a partitioned (small)
    view, then the healed (larger) one, whose ``d`` the small basis
    labels less than half of."""
    result, calls, registry = _recorded_run(monkeypatch, "leader-partition")
    assert result.ok, result.check_acceptance()
    assert registry.get("controller_cold_solves_total").value(reason="low-overlap") == 1
    at = [outcome for *_rest, outcome in calls].index("low-overlap")
    small, large = calls[at - 1][0], calls[at][0]
    assert len(small.owner) < 0.5 * len(large.owner)
    # Forced warm, that start costs more iterations than a cold solve.
    topology = calls[at][1]
    iterations = []

    def counted(*args, **options):
        result = solver._solve_highs(*args, **options)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(solver, "backend", counted)
    with hold_start(WarmStart(0.0)):
        solve_nids_lp(small, topology)
        solve_nids_lp(large, topology)
    solve_nids_lp(large, topology)
    _first, forced, cold = iterations
    assert forced > cold


def test_the_held_start_reaches_any_solve_fn(monkeypatch):
    """A ``solve_fn`` that calls ``solve_nids_lp`` itself (as the
    benchmark's traced loop does) re-plans exactly as the default."""
    baseline = run_chaos(_gate_config("leader-crash-mid-push"))
    monkeypatch.setattr(
        controller, "solve_nids_lp",
        lambda units, topology, coverage: nids_lp.solve_nids_lp(units, topology, coverage),
    )
    wrapped = run_chaos(_gate_config("leader-crash-mid-push"))
    assert wrapped.bus_stats.to_dict() == baseline.bus_stats.to_dict()
    assert wrapped.records == baseline.records
