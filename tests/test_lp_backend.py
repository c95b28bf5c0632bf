"""The direct HiGHS path of ``repro.lp.solver`` against ``linprog``.

``solve`` hands HiGHS the program through SciPy's bindings
(``_solve_highs``); ``scipy.optimize.linprog`` (``_solve_linprog``) is
the fallback where they do not import, and the reference here: on the
same program both must give bit-identical values, duals and statuses,
and refuse the same malformed inputs.

Seeded mutations each of which fails a test here: dropping the NaN
check on the cost, passing a NaN lower bound through instead of
reading it as ``-inf``, or mapping HiGHS's model error to ``ERROR``
instead of ``INFEASIBLE`` (``test_malformed_inputs_fail_the_same_way``);
``presolve`` off, or the primal instead of the dual simplex
(``test_nids_lp_duals_and_values`` on Internet2); dropping the
post-solve feasibility check
(``test_an_optimum_outside_the_tolerance_is_an_error``).  ``presolve``
left at HiGHS's ``choose`` is not caught: these programs solve the same
under it.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.core.nids_lp import build_nids_lp
from repro.core.nips_milp import build_nips_problem, compile_nips_polytope
from repro.core.provisioning import bottleneck_analysis
from repro.core.units import build_units
from repro.lp import solver
from repro.lp.model import LinearProgram, Relation, Sense
from repro.lp.solver import SolveStatus, solve
from repro.nids.modules.catalog import module_set
from repro.nips.rules import MatchRateMatrix, unit_rules
from repro.topology import PathSet, by_label
from repro.traffic import GeneratorConfig, TrafficGenerator

try:
    from scipy.optimize._highspy import _core  # noqa: F401
except ImportError:  # pragma: no cover - SciPy without the bindings
    HAVE_BINDINGS = False
else:
    HAVE_BINDINGS = True

needs_bindings = pytest.mark.skipif(
    not HAVE_BINDINGS, reason="SciPy ships no HiGHS bindings"
)


def _same(left, right):
    """Bit equality of two float lists, NaN equal to NaN."""
    return len(left) == len(right) and all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(left, right)
    )


def _both(monkeypatch, program):
    """*program* solved through each backend, direct first."""
    solutions = []
    for backend in (solver._solve_highs, solver._solve_linprog):
        monkeypatch.setattr(solver, "backend", backend)
        solutions.append(solve(program))
    return solutions


def _assert_identical(monkeypatch, program):
    direct, reference = _both(monkeypatch, program)
    assert direct.status is reference.status
    assert _same(direct.values, reference.values)
    assert _same([direct.objective], [reference.objective])
    assert _same(direct.ineq_duals, reference.ineq_duals)
    assert _same(direct.eq_duals, reference.eq_duals)
    return direct


def _nids_program(label, sessions, coverage=1.0):
    topology = by_label(label).set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    batch = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=29)).generate(
        sessions
    )
    units = build_units(module_set(21), batch, paths)
    return topology, units, build_nids_lp(units, topology, coverage).program


def _nips_polytope(label, num_rules, seed):
    rules = unit_rules(num_rules)
    topology = by_label(label).set_uniform_capacities(
        cpu=2_000_000.0, mem=400_000.0, cam=max(1.0, 0.25 * num_rules)
    )
    names = topology.node_names
    pairs = [(a, b) for a in names for b in names if a != b]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(seed))
    return compile_nips_polytope(build_nips_problem(topology, rules, match))


def _toy(lb=0.0, ub=4.0, cost=(3.0, 2.0), rhs=5.0, eq=None):
    lp = LinearProgram("toy")
    x, y = lp.add_variables(2, ["x", "y"], lb=lb, ub=ub)
    lp.add_constraints(Relation.LE, [0, 0], [x, y], [1.0, 1.0], [rhs], ["budget"])
    if eq is not None:
        lp.add_constraints(Relation.EQ, [0], [x], [1.0], [eq], ["pin"])
    lp.set_objective([x, y], list(cost), Sense.MAXIMIZE)
    return lp


def test_the_direct_path_is_in_use_whenever_the_bindings_import():
    expected = solver._solve_highs if HAVE_BINDINGS else solver._solve_linprog
    assert solver.backend is expected


@needs_bindings
class TestSameAsLinprog:
    @pytest.mark.parametrize(
        "label, sessions, coverage",
        [("internet2", 1500, 1.0), ("internet2", 1500, 2.0), ("AS1239", 800, 1.0)],
    )
    def test_nids_lp_duals_and_values(self, monkeypatch, label, sessions, coverage):
        _topology, _units, program = _nids_program(label, sessions, coverage)
        solution = _assert_identical(monkeypatch, program)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.eq_duals and solution.ineq_duals

    def test_provisioning_duals(self, monkeypatch):
        topology, units, _program = _nids_program("internet2", 1500)
        reports = []
        for backend in (solver._solve_highs, solver._solve_linprog):
            monkeypatch.setattr(solver, "backend", backend)
            reports.append(bottleneck_analysis(units, topology))
        direct, reference = reports
        assert direct.objective == reference.objective
        assert direct.cpu_pressure == reference.cpu_pressure
        assert direct.mem_pressure == reference.mem_pressure

    def test_nips_relaxation_and_fixed_rule_views(self, monkeypatch):
        polytope = _nips_polytope("internet2", 6, seed=9)
        compiled = polytope.compiled
        _assert_identical(monkeypatch, compiled)
        rng = np.random.default_rng(4)
        for _ in range(4):
            # A fixed-``e`` view: most columns fixed at zero, dropped
            # before the backend sees them.
            upper = (rng.random(compiled.num_variables) < 0.3).astype(float)
            _assert_identical(monkeypatch, compiled.with_bounds(0.0, upper))
        weights = rng.random(compiled.num_variables)
        _assert_identical(monkeypatch, compiled.with_cost(weights))

    def test_infeasible_and_unbounded(self, monkeypatch):
        solution = _assert_identical(monkeypatch, _toy(rhs=-1.0))
        assert solution.status is SolveStatus.INFEASIBLE
        lp = LinearProgram("ray")
        x, y = lp.add_variables(2, ["x", "y"])
        lp.add_constraints(Relation.GE, [0, 0], [x, y], [1.0, 1.0], [5.0], ["floor"])
        lp.set_objective([x], [1.0], Sense.MAXIMIZE)
        assert _assert_identical(monkeypatch, lp).status is SolveStatus.UNBOUNDED

    @pytest.mark.parametrize(
        "case, expected",
        [
            (dict(cost=(float("nan"), 1.0)), SolveStatus.ERROR),
            (dict(cost=(float("inf"), 1.0)), SolveStatus.ERROR),
            (dict(rhs=float("nan")), SolveStatus.ERROR),
            (dict(eq=float("nan")), SolveStatus.ERROR),
            # ``linprog`` refuses neither: HiGHS finds the box empty.
            (dict(lb=5.0, ub=4.0), SolveStatus.INFEASIBLE),
            (dict(lb=float("inf")), SolveStatus.INFEASIBLE),
            # A NaN bound reads as no bound.
            (dict(lb=float("nan")), SolveStatus.OPTIMAL),
            (dict(ub=float("nan")), SolveStatus.OPTIMAL),
            (dict(eq=1.5), SolveStatus.OPTIMAL),
        ],
    )
    def test_malformed_inputs_fail_the_same_way(self, monkeypatch, case, expected):
        assert _assert_identical(monkeypatch, _toy(**case)).status is expected

    def test_misshapen_views_are_errors(self, monkeypatch):
        compiled = _toy().compile()
        for view in (
            compiled.with_cost([1.0]),
            dataclasses.replace(compiled, b_ub=np.array([5.0, 1.0])),
            dataclasses.replace(compiled, bounds=[(0.0, 4.0)] * 3),
        ):
            assert _assert_identical(monkeypatch, view).status is SolveStatus.ERROR

    def test_every_column_fixed_at_zero_is_an_error(self, monkeypatch):
        # Nothing is left to hand the backend; ``linprog`` refuses an
        # empty cost vector.
        compiled = _toy().compile()
        view = compiled.with_bounds(0.0, 0.0)
        assert _assert_identical(monkeypatch, view).status is SolveStatus.ERROR


@needs_bindings
def test_an_optimum_outside_the_tolerance_is_an_error(monkeypatch):
    # ``linprog`` re-checks a reported optimum against the rows and
    # bounds and calls a violation status 4, keeping the point; no
    # program at hand violates 3.2e-4, so the tolerance is tightened
    # past zero instead.
    monkeypatch.setattr(solver, "_FEASIBILITY_TOL", -1.0)
    solution = solve(_toy())
    assert solution.status is SolveStatus.ERROR
    assert solution.values == [4.0, 1.0]
