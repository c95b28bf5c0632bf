"""Which programs HiGHS presolves, and what solving without it gives.

Presolve is the program's choice (``LinearProgram.presolve`` →
``CompiledLP.presolve``), stated by its builder: the NIPS programs
(Eqs. 7–13) are solved without it — it removes no column there and
costs about a quarter of each solve — and every other program keeps it.

* Which programs presolve, read at the backend: the NIDS LP, the
  provisioning LP and the exact NIPS MILP do; the NIPS relaxation, a
  fixed-``ê`` view and an FPL cost view do not.
* The relaxation's optimum without presolve is the presolved optimum to
  a relative 1e-9, on Internet2 and Géant over 2–6 rules and several
  match-rate draws, and ``NIPSProblem.check`` finds nothing at either
  point.

Seeded mutation that fails a test here: ``compile_nips_polytope`` or
``build_nips_lp(integral=False)`` leaving presolve on
(``test_which_programs_presolve``).  Dropping the choice from the
``linprog`` fallback is caught by ``tests/test_lp_backend.py``.
"""

import random

import numpy as np
import pytest

from repro.core.nids_lp import build_nids_lp, solve_nids_lp
from repro.core.nips_milp import (
    build_nips_lp,
    build_nips_problem,
    compile_nips_polytope,
    solve_exact,
    solve_relaxation,
    solve_with_fixed_rules,
)
from repro.core.online import solve_best_response
from repro.core.provisioning import bottleneck_analysis
from repro.core.units import build_units
from repro.lp import solver
from repro.lp.solver import solve_or_raise
from repro.nids.modules.catalog import module_set
from repro.nips.rules import MatchRateMatrix, unit_rules
from repro.topology import PathSet, by_label, random_pop_topology
from repro.traffic import GeneratorConfig, TrafficGenerator

#: How far the optimum without presolve may sit from the presolved one.
REL = 1e-9


def _nips_problem(topology, num_rules, seed):
    rules = unit_rules(num_rules)
    topology = topology.set_uniform_capacities(
        cpu=2_000_000.0, mem=400_000.0, cam=max(1.0, 0.25 * num_rules)
    )
    names = topology.node_names
    pairs = [(a, b) for a in names for b in names if a != b]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(seed))
    return build_nips_problem(topology, rules, match)


def _nids_inputs():
    topology = by_label("internet2").set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    batch = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=29)).generate(800)
    return build_units(module_set(8), batch, paths), topology


@pytest.fixture
def presolved(monkeypatch):
    """The ``presolve`` argument of every backend call, in call order."""
    calls = []
    real = solver.backend

    def spy(*args, presolve, **options):
        calls.append(presolve)
        return real(*args, presolve=presolve, **options)

    monkeypatch.setattr(solver, "backend", spy)
    return calls


def test_which_programs_presolve(presolved):
    units, topology = _nids_inputs()
    small = _nips_problem(random_pop_topology(5, seed=5), 3, seed=5)
    problem = _nips_problem(by_label("internet2"), 4, seed=1)
    polytope = compile_nips_polytope(problem)
    layout = polytope.layout
    rng = np.random.default_rng(3)
    on = {
        "nids": lambda: solve_nids_lp(units, topology),
        "provisioning": lambda: bottleneck_analysis(units, topology),
        "exact": lambda: solve_exact(small),
    }
    off = {
        "relaxation": lambda: solve_relaxation(problem),
        "fixed-e": lambda: solve_with_fixed_rules(
            polytope, (rng.random(layout.num_e) < 0.5).astype(float)
        ),
        "fpl": lambda: solve_best_response(polytope, rng.random(layout.num_d)),
    }
    for expected, programs in ((True, on), (False, off)):
        for name, run in programs.items():
            presolved.clear()
            run()
            assert presolved == [expected], name


def test_the_builders_state_the_choice():
    units, topology = _nids_inputs()
    assert build_nids_lp(units, topology).program.compile().presolve
    problem = _nips_problem(by_label("internet2"), 2, seed=0)
    assert build_nips_lp(problem, integral=True).program.compile().presolve
    assert not build_nips_lp(problem, integral=False).program.compile().presolve
    compiled = compile_nips_polytope(problem).compiled
    ones = np.ones(compiled.num_variables)
    for view in (compiled, compiled.with_bounds(0.0, ones), compiled.with_cost(ones)):
        assert view.presolve is False


@pytest.mark.parametrize("label", ["internet2", "Geant"])
@pytest.mark.parametrize("num_rules", [2, 4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_relaxation_without_presolve_is_the_presolved_optimum(label, num_rules, seed):
    problem = _nips_problem(by_label(label), num_rules, seed)
    relaxed = solve_relaxation(problem)
    built = build_nips_lp(problem, integral=False)
    built.program.presolve = True
    reference = solve_or_raise(built.program)
    assert relaxed.objective == pytest.approx(reference.objective, rel=REL, abs=0.0)
    split = built.polytope.layout.num_e
    assert problem.check(relaxed.e, relaxed.d) == []
    assert problem.check(reference.values[:split], reference.values[split:]) == []
