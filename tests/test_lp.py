"""Tests for the LP modeling layer and the solver backend, LPs and MILPs.

The product states programs as index blocks (``repro.lp.model``); the
operator-overloading spelling is the tests' reference module
(``tests/lp_expressions.py``).  ``TestLinExpr`` / ``TestLinearProgram``
cover the reference itself, ``TestSolver`` / ``TestDuals`` solve small
programs written both ways, ``TestMILP`` and the classes after it drive
the product's blocks; ``TestMILPOnBothBackends`` solves every MILP here
through the HiGHS bindings and through the ``linprog`` fallback.
"""

import math

import numpy as np
import pytest

import repro.lp
from repro.lp import (
    LinearProgram,
    Relation,
    Sense,
    SolveStatus,
    SolverError,
    solve,
    solve_or_raise,
)
from repro.lp import solver
from tests.lp_expressions import ExpressionProgram, LinExpr, linear_sum, value
from tests.test_planning_columns import _Counted


class TestLinExpr:
    def test_variable_arithmetic(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expr = 2 * x + y - 3
        assert expr.coefficients == {x.index: 2.0, y.index: 1.0}
        assert expr.constant == -3.0

    def test_negation_and_subtraction(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        expr = -(x - 5)
        assert expr.coefficients[x.index] == -1.0
        assert expr.constant == 5.0

    def test_rsub(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        expr = 10 - x
        assert expr.coefficients[x.index] == -1.0
        assert expr.constant == 10.0

    def test_division(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        expr = (4 * x) / 2
        assert expr.coefficients[x.index] == pytest.approx(2.0)

    def test_evaluate(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expr = 3 * x + 2 * y + 1
        assert expr.evaluate([2.0, 5.0]) == pytest.approx(17.0)

    def test_linear_sum_merges_terms(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        total = linear_sum([x, x * 2, 5, LinExpr({}, 1.0)])
        assert total.coefficients[x.index] == pytest.approx(3.0)
        assert total.constant == pytest.approx(6.0)

    def test_relations_build_constraints(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        le = x <= 5
        ge = x >= 1
        eq = x.equals(3)
        assert le.relation is Relation.LE
        assert ge.relation is Relation.GE
        assert eq.relation is Relation.EQ


class TestLinearProgram:
    def test_duplicate_names_rejected(self):
        lp = ExpressionProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_variable("x")

    def test_variable_by_name(self):
        lp = ExpressionProgram()
        lp.add_variable("a")
        b = lp.add_variable("b")
        assert lp.variable_by_name("b").index == b.index

    def test_is_feasible(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", ub=10)
        lp.add_constraint(x >= 2)
        assert lp.is_feasible([5.0])
        assert not lp.is_feasible([1.0])
        assert not lp.is_feasible([11.0])
        assert not lp.is_feasible([])

    def test_constraint_slack(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        c = lp.add_constraint(x <= 4)
        assert c.slack([3.0]) == pytest.approx(1.0)
        assert c.slack([5.0]) == pytest.approx(-1.0)

    def test_add_constraint_type_check(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        with pytest.raises(TypeError):
            lp.add_constraint(x)  # type: ignore[arg-type]


class TestSolver:
    def test_minimize(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", lb=1.0)
        y = lp.add_variable("y", lb=2.0)
        lp.set_objective(x + y, Sense.MINIMIZE)
        solution = solve_or_raise(lp)
        assert solution.objective == pytest.approx(3.0)

    def test_maximize_reports_model_sense(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", ub=4.0)
        y = lp.add_variable("y", ub=4.0)
        lp.add_constraint(x + y <= 5.0)
        lp.set_objective(3 * x + 2 * y, Sense.MAXIMIZE)
        solution = solve_or_raise(lp)
        assert solution.objective == pytest.approx(14.0)
        assert value(solution, x) == pytest.approx(4.0)
        assert value(solution, y) == pytest.approx(1.0)

    def test_equality_constraint(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint((x + y).equals(10.0))
        lp.set_objective(x, Sense.MINIMIZE)
        solution = solve_or_raise(lp)
        assert value(solution, x) + value(solution, y) == pytest.approx(10.0)
        assert value(solution, x) == pytest.approx(0.0)

    def test_infeasible(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", ub=1.0)
        lp.add_constraint(x >= 2.0)
        lp.set_objective(x, Sense.MINIMIZE)
        assert solve(lp).status is SolveStatus.INFEASIBLE
        with pytest.raises(SolverError):
            solve_or_raise(lp)

    def test_unbounded(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        lp.set_objective(x, Sense.MAXIMIZE)
        assert solve(lp).status is SolveStatus.UNBOUNDED

    def test_value_by_name_and_dict(self):
        lp = ExpressionProgram()
        x = lp.add_variable("price", lb=3.0)
        lp.set_objective(x, Sense.MINIMIZE)
        solution = solve_or_raise(lp)
        assert solution.value_by_name("price") == pytest.approx(3.0)
        assert solution.as_dict()["price"] == pytest.approx(3.0)

    def test_solution_satisfies_model(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", ub=7)
        y = lp.add_variable("y", ub=7)
        lp.add_constraint(2 * x + y <= 10)
        lp.add_constraint(x + 3 * y <= 15)
        lp.set_objective(x + y, Sense.MAXIMIZE)
        solution = solve_or_raise(lp)
        assert lp.is_feasible(solution.values)

    def test_solve_seconds_recorded(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", lb=1.0)
        lp.set_objective(x, Sense.MINIMIZE)
        assert solve_or_raise(lp).solve_seconds >= 0.0


def _knapsack(values, weights, capacity):
    lp = LinearProgram("knapsack")
    variables = lp.add_variables(
        len(values), [f"b{i}" for i in range(len(values))], lb=0.0, ub=1.0
    )
    lp.binary_indices.extend(variables)
    lp.add_constraints(
        Relation.LE, [0] * len(values), variables, weights, [capacity], ["capacity"]
    )
    lp.set_objective(variables, values, Sense.MAXIMIZE)
    return lp, variables


def _infeasible_milp():
    lp = LinearProgram()
    (b,) = lp.add_variables(1, ["b"], ub=1.0)
    lp.binary_indices.append(b)
    lp.add_constraints(Relation.GE, [0], [b], [1.0], [2.0], ["two"])
    lp.set_objective([b], [1.0], Sense.MAXIMIZE)
    return lp


def _minimization_milp():
    lp = LinearProgram()
    a, b = lp.add_variables(2, ["a", "b"], ub=1.0)
    lp.binary_indices.extend((a, b))
    lp.add_constraints(Relation.GE, [0, 0], [a, b], [1.0, 1.0], [1.0], ["one"])
    lp.set_objective([a, b], [3.0, 2.0], Sense.MINIMIZE)
    return lp


def _mixed_milp():
    lp = LinearProgram()
    b, x = lp.add_variables(2, ["b", "x"], ub=[1.0, 10.0])
    lp.binary_indices.append(b)
    lp.add_constraints(Relation.LE, [0, 0], [x, b], [1.0, -5.0], [2.5], ["link"])
    lp.set_objective([x], [1.0], Sense.MAXIMIZE)
    return lp


class TestMILP:
    def test_knapsack_exact(self):
        lp, _ = _knapsack([6, 5, 4], [5, 4, 3], 8)
        result = solve(lp)
        assert result.objective == pytest.approx(10.0)
        assert result.optimal

    def test_binary_values_integral(self):
        lp, variables = _knapsack([10, 7, 3, 2], [4, 3, 2, 1], 6)
        result = solve(lp)
        for var in variables:
            value = result.values[var]
            assert abs(value - round(value)) < 1e-6

    def test_matches_bruteforce(self):
        import itertools

        values, weights, capacity = [7, 9, 4, 6, 3], [3, 5, 2, 4, 1], 9
        best = max(
            sum(v for v, pick in zip(values, picks) if pick)
            for picks in itertools.product([0, 1], repeat=5)
            if sum(w for w, pick in zip(weights, picks) if pick) <= capacity
        )
        lp, _ = _knapsack(values, weights, capacity)
        assert solve(lp).objective == pytest.approx(best)

    def test_milp_never_beats_relaxation(self):
        lp, _ = _knapsack([6, 5, 4], [5, 4, 3], 8)
        integral = solve(lp)
        lp.binary_indices.clear()
        relaxed = solve_or_raise(lp)
        assert integral.objective <= relaxed.objective + 1e-6

    def test_infeasible_milp(self):
        result = solve(_infeasible_milp())
        assert result.status is SolveStatus.INFEASIBLE

    def test_minimization_milp(self):
        result = solve(_minimization_milp())
        assert result.objective == pytest.approx(2.0)
        assert round(result.value_by_name("b")) == 1

    def test_continuous_variables_stay_fractional(self):
        result = solve(_mixed_milp())
        assert result.objective == pytest.approx(7.5)

    def test_a_milp_reports_no_duals(self):
        lp, _ = _knapsack([6, 5, 4], [5, 4, 3], 8)
        result = solve(lp)
        assert result.optimal and result.ineq_duals == result.eq_duals == []
        lp.binary_indices.clear()
        assert len(solve(lp).ineq_duals) == 1


class TestDuals:
    def test_shadow_price_of_binding_constraint(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", ub=4.0)
        y = lp.add_variable("y", ub=4.0)
        lp.add_constraint(x + y <= 5.0, name="budget")
        lp.set_objective(3 * x + 2 * y, Sense.MAXIMIZE)
        solution = solve_or_raise(lp)
        # Relaxing the budget by 1 admits one more unit of y (+2).
        assert solution.dual_by_name("budget") == pytest.approx(2.0)

    def test_nonbinding_constraint_zero_dual(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", ub=1.0)
        lp.add_constraint(x <= 100.0, name="slack")
        lp.set_objective(x, Sense.MAXIMIZE)
        solution = solve_or_raise(lp)
        assert solution.dual_by_name("slack") == pytest.approx(0.0)

    def test_unknown_name_raises(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x", lb=1.0)
        lp.set_objective(x, Sense.MINIMIZE)
        solution = solve_or_raise(lp)
        with pytest.raises(KeyError):
            solution.dual_by_name("nonexistent")

    def test_equality_dual_reported(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint((x + y).equals(10.0), name="balance")
        lp.set_objective(2 * x + y, Sense.MINIMIZE)
        solution = solve_or_raise(lp)
        # Cheapest way to satisfy the equality is all-y (cost 1/unit).
        assert solution.dual_by_name("balance") == pytest.approx(1.0)


class TestObjectiveFold:
    """The reported objective is a left fold in stated order, on every
    interpreter: builtin ``sum`` is Neumaier-compensated from Python
    3.12 on and returns 1.6 for these terms, ``math.fsum`` always does."""

    TERMS = [1e16, 1.0, -1e16, 0.1, 0.2, 0.3]
    LEFT_FOLD = 0.6000000000000001

    def test_block_program_folds_left(self):
        lp = LinearProgram()
        x = lp.add_variables(len(self.TERMS), [f"x{i}" for i in range(len(self.TERMS))])
        lp.set_objective(x, np.full(len(self.TERMS), 0.5), Sense.MINIMIZE)
        doubled = [2.0 * term for term in self.TERMS]
        assert lp.objective_value(doubled) == self.LEFT_FOLD
        assert lp.objective_value(doubled) != math.fsum(self.TERMS) == 1.6
        # The order is the stated one, not the column order.
        lp.set_objective(x[::-1], np.full(len(self.TERMS), 0.5), Sense.MINIMIZE)
        assert lp.objective_value(doubled) == ((((0.3 + 0.2) + 0.1) - 1e16) + 1.0) + 1e16 == 0.0

    def test_reference_program_folds_the_same_way(self):
        lp = ExpressionProgram()
        variables = [lp.add_variable(f"x{i}") for i in range(len(self.TERMS))]
        lp.set_objective(linear_sum(variables), Sense.MINIMIZE)
        assert lp.objective_value(self.TERMS) == self.LEFT_FOLD

    def test_solve_reports_the_fold(self):
        # Bounds pin the point, so the backend's own objective (its
        # summation order is not ours to know) is never what is reported.
        terms = [1e9, 1.1, -1e9, 0.1, 0.2, 0.3]
        lp = LinearProgram()
        x = lp.add_variables(len(terms), [f"x{i}" for i in range(len(terms))], lb=1.0, ub=1.0)
        lp.set_objective(x, terms, Sense.MINIMIZE)
        total = 0.0
        for term in terms:
            total += term
        assert solve_or_raise(lp).objective == total != math.fsum(terms)


def _counted_knapsack(capacity):
    """A knapsack whose variable names count how often they render."""
    names = _Counted([f"b{i}" for i in range(4)])
    lp = LinearProgram("knapsack")
    b = lp.add_variables(4, names, ub=1.0)
    lp.binary_indices.extend(b)
    lp.add_constraints(Relation.LE, [0] * 4, b, [4.0, 3.0, 2.0, 1.0], [capacity], ["capacity"])
    lp.add_constraints(Relation.GE, [0] * 4, b, [1.0] * 4, [0.5], ["some"])
    lp.set_objective(b, [10.0, 7.0, 3.0, 2.0], Sense.MAXIMIZE)
    return lp, names


class TestMILPNames:
    def test_a_solve_renders_no_block(self):
        lp, names = _counted_knapsack(6.0)
        result = solve(lp)
        assert result.optimal
        assert result.objective == pytest.approx(13.0)
        assert names.calls == 0
        assert round(result.value_by_name("b2")) == 1
        assert list(result.variable_names) == ["b0", "b1", "b2", "b3"]
        assert names.calls == 1
        with pytest.raises(ValueError):
            result.value_by_name("nonexistent")

    def test_neither_does_an_infeasible_one(self):
        lp, names = _counted_knapsack(-1.0)
        assert solve(lp).status is SolveStatus.INFEASIBLE
        lp, fractional_names = _counted_knapsack(0.5)  # relaxation feasible, no integral point
        result = solve(lp)
        assert result.status is SolveStatus.INFEASIBLE
        assert (names.calls, fractional_names.calls) == (0, 0)


try:
    from scipy.optimize._highspy import _core  # noqa: F401
except ImportError:  # pragma: no cover - SciPy without the bindings
    HAVE_BINDINGS = False
else:
    HAVE_BINDINGS = True

#: Every MILP solved in this module, by a name for its test id.
MILP_CASES = {
    "knapsack": lambda: _knapsack([6, 5, 4], [5, 4, 3], 8)[0],
    "knapsack-integral": lambda: _knapsack([10, 7, 3, 2], [4, 3, 2, 1], 6)[0],
    "knapsack-bruteforce": lambda: _knapsack([7, 9, 4, 6, 3], [3, 5, 2, 4, 1], 9)[0],
    "infeasible": _infeasible_milp,
    "minimization": _minimization_milp,
    "mixed": _mixed_milp,
    "names": lambda: _counted_knapsack(6.0)[0],
    "names-infeasible": lambda: _counted_knapsack(-1.0)[0],
    "names-fractional-infeasible": lambda: _counted_knapsack(0.5)[0],
}


@pytest.mark.skipif(not HAVE_BINDINGS, reason="SciPy ships no HiGHS bindings")
class TestMILPOnBothBackends:
    """The bindings and the ``linprog`` fallback hand HiGHS the same
    MILP, so they report the same status, objective and point."""

    @pytest.mark.parametrize("case", sorted(MILP_CASES))
    def test_same_outcome(self, monkeypatch, case):
        outcomes = []
        for backend in (solver._solve_highs, solver._solve_linprog):
            monkeypatch.setattr(solver, "backend", backend)
            result = solve(MILP_CASES[case]())
            outcomes.append((result.status, result.objective, result.values))
        (status, objective, values), reference = outcomes
        assert status is reference[0]
        assert objective == reference[1] or math.isnan(objective) and math.isnan(reference[1])
        assert values.tolist() == reference[2].tolist()


class TestRemovedSpellings:
    """Index blocks are the only way to state a program under ``src/``;
    the expression spelling and the options nobody set are gone, not
    deprecated."""

    @pytest.mark.parametrize("name", ["LinExpr", "Variable", "Constraint", "linear_sum"])
    def test_expression_names_are_not_importable(self, name):
        import importlib

        for module in ("repro.lp", "repro.lp.model"):
            assert not hasattr(importlib.import_module(module), name)
        with pytest.raises(ImportError):
            exec(f"from repro.lp import {name}")

    @pytest.mark.parametrize(
        "name",
        ["add_variable", "add_constraint", "variable_by_name", "is_feasible", "objective"],
    )
    def test_program_has_no_expression_methods(self, name):
        with pytest.raises(AttributeError):
            getattr(LinearProgram(), name)

    def test_solution_reads_by_index_or_name(self):
        lp = LinearProgram()
        (x,) = lp.add_variables(1, ["x"], lb=1.0)
        lp.set_objective([x], [1.0], Sense.MINIMIZE)
        solution = solve_or_raise(lp)
        assert not hasattr(solution, "value")
        assert solution.values[x] == solution.value_by_name("x") == 1.0

    def test_the_backend_method_is_not_an_option(self):
        lp = LinearProgram()
        (x,) = lp.add_variables(1, ["x"], lb=1.0)
        lp.set_objective([x], [1.0], Sense.MINIMIZE)
        for function in (solve, solve_or_raise):
            with pytest.raises(TypeError):
                function(lp, method="highs-ds")
            with pytest.raises(TypeError):
                function(lp, "highs-ipm")

    def test_set_objective_takes_columns_not_an_expression(self):
        lp = ExpressionProgram()
        x = lp.add_variable("x")
        with pytest.raises(TypeError):
            LinearProgram().set_objective(2 * x, Sense.MINIMIZE)

    def test_package_surface(self):
        assert repro.lp.__all__ == [
            "LPSolution",
            "LinearProgram",
            "Relation",
            "Sense",
            "SolveStatus",
            "SolverError",
            "solve",
            "solve_or_raise",
        ]
