"""Per-session, per-term reference implementation of the planning path.

These are the two Python loops that used to live in the product as
``repro.core.units.build_units`` and ``repro.core.nids_lp.build_nids_lp``
/ ``solve_nids_lp``, re-homed verbatim as the tests' oracle (the
``tests/scalar_oracle.py`` precedent): one iteration per (module,
session) with ``acc += ...``, one ``Variable * coef`` per LP term, one
``value(solution, var)`` per fraction.  They use only the scalar
surfaces — ``TrafficFilter.matches_session``, ``ModuleSpec.session_cpu``
/ ``item_key``, ``unit_key_for_session``, ``eligible_nodes`` and the
expression programs of ``tests/lp_expressions.py``, which lower
themselves to a ``CompiledLP`` — so they share no arithmetic and no
lowering code with the columnar ``build_units`` or the index-block
``build_nids_lp``, and ``tests/test_planning_columns.py`` compares the
two with ``==``.

The NIPS half (the second part of this file) is the same move for
Section 3.2: ``build_nips_lp`` with its ``fixed_e=`` fork,
``solve_with_fixed_rules`` on that fork and ``core/online.py``'s private
``solve_best_response`` builder, each of which restated Eqs. 9–11 with
one ``LinExpr`` per term.  ``tests/test_nips_layout.py`` compares the
product's one index-block layout against them.  Its last part is
Section 3.3's rounding as it was before it became vector passes
(``round_enablement``, ``greedy_fill``, ``d_mapping``), which
``tests/test_rounding_columns.py`` compares with ``==``.
"""

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.nids_lp import NIDSAssignment
from repro.core.nips_milp import DKey, EKey, NIPSPolytope, NIPSProblem, NIPSSolution, Pair
from repro.core.units import (
    CoordinationUnit,
    UnitKey,
    eligible_nodes,
    unit_key_for_session,
)
from repro.hashing.keys import Aggregation
from repro.lp.model import Sense
from repro.lp.solver import LPSolution, solve_or_raise

FractionKey = Tuple[str, UnitKey, str]  # (class, unit key, node)
from repro.nids.modules.base import ModuleSpec
from repro.topology.graph import Topology
from repro.topology.routing import PathSet
from repro.traffic.session import Session
from tests.lp_expressions import ExpressionProgram, LinExpr, Variable, linear_sum, value


@dataclass
class _UnitAccumulator:
    pkts: float = 0.0
    cpu_work: float = 0.0
    sessions: int = 0
    distinct: Set[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.distinct is None:
            self.distinct = set()


def build_units(
    modules: Sequence[ModuleSpec],
    sessions: Sequence[Session],
    paths: PathSet,
) -> List[CoordinationUnit]:
    """Coordination units and volumes, one session at a time."""
    accumulators: Dict[Tuple[str, UnitKey], _UnitAccumulator] = {}
    for spec in modules:
        for session in sessions:
            if not spec.traffic_filter.matches_session(session):
                continue
            key = unit_key_for_session(spec, session)
            acc = accumulators.setdefault((spec.name, key), _UnitAccumulator())
            acc.pkts += session.num_packets
            acc.cpu_work += spec.session_cpu(session)
            acc.sessions += 1
            if spec.aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION):
                acc.distinct.add(spec.item_key(session))

    by_name = {spec.name: spec for spec in modules}
    units: List[CoordinationUnit] = []
    for (class_name, key), acc in accumulators.items():
        spec = by_name[class_name]
        if spec.aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION):
            items = float(len(acc.distinct))
        else:
            items = float(acc.sessions)
        units.append(
            CoordinationUnit(
                class_name=class_name,
                key=key,
                eligible=eligible_nodes(key, paths),
                pkts=acc.pkts,
                items=items,
                cpu_work=acc.cpu_work,
                mem_bytes=items * spec.mem_req,
            )
        )
    units.sort(key=lambda u: (u.class_name, u.key))
    return units


@dataclass
class BuiltNIDSLP:
    """The expression-built LP plus its variable maps."""

    program: ExpressionProgram
    d_vars: Dict[FractionKey, Variable]
    cpu_load_vars: Dict[str, Variable]
    mem_load_vars: Dict[str, Variable]
    coverage: Dict[Tuple[str, UnitKey], float]


def build_nids_lp(
    units: Sequence[CoordinationUnit],
    topology: Topology,
    coverage: float = 1.0,
) -> BuiltNIDSLP:
    """The Section 2.2 LP, one named variable and one term at a time."""
    if coverage < 1.0:
        raise ValueError("coverage must be >= 1")
    lp = ExpressionProgram("nids-assignment")

    d_vars: Dict[FractionKey, Variable] = {}
    per_unit_coverage: Dict[Tuple[str, UnitKey], float] = {}
    for unit in units:
        unit_coverage = min(coverage, float(len(unit.eligible)))
        per_unit_coverage[unit.ident] = unit_coverage
        unit_vars = []
        for node in unit.eligible:
            var = lp.add_variable(
                f"d[{unit.class_name}|{'/'.join(unit.key)}|{node}]", lb=0.0, ub=1.0
            )
            d_vars[(unit.class_name, unit.key, node)] = var
            unit_vars.append(var)
        lp.add_constraint(
            linear_sum(unit_vars).equals(unit_coverage),
            name=f"cover[{unit.class_name}|{'/'.join(unit.key)}]",
        )

    # Group load terms per node.
    cpu_terms: Dict[str, List] = {name: [] for name in topology.node_names}
    mem_terms: Dict[str, List] = {name: [] for name in topology.node_names}
    for unit in units:
        for node in unit.eligible:
            var = d_vars[(unit.class_name, unit.key, node)]
            cpu_terms[node].append(var * unit.cpu_work)
            mem_terms[node].append(var * unit.mem_bytes)

    cpu_load_vars: Dict[str, Variable] = {}
    mem_load_vars: Dict[str, Variable] = {}
    cpu_max = lp.add_variable("CpuLoad")
    mem_max = lp.add_variable("MemLoad")
    for name in topology.node_names:
        node = topology.node(name)
        cpu_j = lp.add_variable(f"CpuLoad[{name}]")
        mem_j = lp.add_variable(f"MemLoad[{name}]")
        cpu_load_vars[name] = cpu_j
        mem_load_vars[name] = mem_j
        lp.add_constraint(
            cpu_j.equals(linear_sum(cpu_terms[name]) / node.cpu_capacity),
            name=f"cpu-def[{name}]",
        )
        lp.add_constraint(
            mem_j.equals(linear_sum(mem_terms[name]) / node.mem_capacity),
            name=f"mem-def[{name}]",
        )
        lp.add_constraint(cpu_max >= cpu_j, name=f"cpu-max[{name}]")
        lp.add_constraint(mem_max >= mem_j, name=f"mem-max[{name}]")

    target = lp.add_variable("MaxLoad")
    lp.add_constraint(target >= cpu_max, name="obj-cpu")
    lp.add_constraint(target >= mem_max, name="obj-mem")
    lp.set_objective(target, Sense.MINIMIZE)

    return BuiltNIDSLP(
        program=lp,
        d_vars=d_vars,
        cpu_load_vars=cpu_load_vars,
        mem_load_vars=mem_load_vars,
        coverage=per_unit_coverage,
    )


def fractions_of(assignment: NIDSAssignment) -> Dict[FractionKey, float]:
    """The ``d*`` dict an assignment carried before it held columns:
    ``{(class, unit key, node): value}`` in column order."""
    units, nodes = assignment.units, assignment.nodes
    return {
        (units[u][0], units[u][1], nodes[k]): value
        for u, k, value in zip(
            assignment.unit_of.tolist(),
            assignment.node_of.tolist(),
            assignment.value.tolist(),
        )
    }


def solve_nids_lp(
    units: Sequence[CoordinationUnit],
    topology: Topology,
    coverage: float = 1.0,
) -> Tuple[NIDSAssignment, LPSolution]:
    """Build and solve with per-variable read-back; also returns the
    raw solution (for dual comparisons)."""
    started = time.perf_counter()
    built = build_nids_lp(units, topology, coverage)
    solution = solve_or_raise(built.program)
    elapsed = time.perf_counter() - started

    fractions = {
        key: max(0.0, min(1.0, value(solution, var)))
        for key, var in built.d_vars.items()
    }
    cpu_load = {
        name: value(solution, var) for name, var in built.cpu_load_vars.items()
    }
    mem_load = {
        name: value(solution, var) for name, var in built.mem_load_vars.items()
    }
    assignment = NIDSAssignment.from_triples(
        ((*key, value) for key, value in fractions.items()),
        built.coverage,
        cpu_load=cpu_load,
        mem_load=mem_load,
        objective=solution.objective,
        solve_seconds=elapsed,
    )
    return assignment, solution


# -- NIPS (Section 3.2) --------------------------------------------------------
@dataclass
class BuiltNIPSLP:
    """Constructed program plus variable maps."""

    program: ExpressionProgram
    e_vars: Dict[EKey, Variable]
    d_vars: Dict[DKey, Variable]


def build_nips_lp(
    problem: NIPSProblem,
    integral: bool = False,
    fixed_e: Optional[Mapping[EKey, int]] = None,
) -> BuiltNIPSLP:
    """Construct Eqs. 7–14.

    ``integral=False`` builds the LP relaxation (``0 <= e <= 1``).
    ``fixed_e`` pins the enablement variables to given binary values,
    yielding the restricted d-only LP used after rounding; disabled
    (rule, node) combinations are omitted entirely, which keeps the
    restricted program small.
    """
    lp = ExpressionProgram("nips-deployment")
    e_vars: Dict[EKey, Variable] = {}
    d_vars: Dict[DKey, Variable] = {}

    def enabled_value(i: int, node: str) -> Optional[float]:
        if fixed_e is None:
            return None
        return float(fixed_e.get((i, node), 0))

    for rule in problem.rules:
        for node in problem.topology.node_names:
            fixed = enabled_value(rule.index, node)
            if fixed is None:
                e_vars[(rule.index, node)] = lp.add_variable(
                    f"e[{rule.index}|{node}]", binary=integral, lb=0.0, ub=1.0
                )
            # fixed e needs no variable; Eq. 12 becomes a bound on d.

    objective_terms: List[LinExpr] = []
    path_terms: Dict[Tuple[int, Pair], List[Variable]] = {}
    mem_terms: Dict[str, List[LinExpr]] = {n: [] for n in problem.topology.node_names}
    cpu_terms: Dict[str, List[LinExpr]] = {n: [] for n in problem.topology.node_names}

    for rule in problem.rules:
        i = rule.index
        for pair in problem.pairs:
            rate = problem.match.rate(i, pair)
            for node in problem.paths[pair].nodes:
                fixed = enabled_value(i, node)
                if fixed is not None and fixed <= 0.0:
                    continue  # rule disabled here: d forced to 0, omit
                var = lp.add_variable(f"d[{i}|{pair[0]}-{pair[1]}|{node}]", lb=0.0, ub=1.0)
                d_vars[(i, pair, node)] = var
                weight = problem.items[pair] * rate * problem.dist[pair][node]
                if weight > 0.0:
                    objective_terms.append(var * weight)
                path_terms.setdefault((i, pair), []).append(var)
                mem_terms[node].append(var * (problem.items[pair] * rule.mem_req))
                cpu_terms[node].append(var * (problem.pkts[pair] * rule.cpu_req))
                if fixed is None:
                    lp.add_constraint(
                        var <= e_vars[(i, node)], name=f"link[{i}|{pair}|{node}]"
                    )

    # Eq. 8: TCAM capacity (only over free e variables; fixed assignments
    # are validated by the caller via check_feasible).
    if fixed_e is None:
        for node_name in problem.topology.node_names:
            node = problem.topology.node(node_name)
            terms = [
                e_vars[(rule.index, node_name)] * rule.cam_req
                for rule in problem.rules
            ]
            lp.add_constraint(
                linear_sum(terms) <= node.cam_capacity, name=f"cam[{node_name}]"
            )

    # Eqs. 9-10: node memory and CPU capacity.
    for node_name in problem.topology.node_names:
        node = problem.topology.node(node_name)
        if mem_terms[node_name]:
            lp.add_constraint(
                linear_sum(mem_terms[node_name]) <= node.mem_capacity,
                name=f"mem[{node_name}]",
            )
        if cpu_terms[node_name]:
            lp.add_constraint(
                linear_sum(cpu_terms[node_name]) <= node.cpu_capacity,
                name=f"cpu[{node_name}]",
            )

    # Eq. 11: at most the whole path's traffic is sampled.
    for (i, pair), variables in path_terms.items():
        lp.add_constraint(
            linear_sum(variables) <= 1.0, name=f"sample[{i}|{pair[0]}-{pair[1]}]"
        )

    lp.set_objective(linear_sum(objective_terms), Sense.MAXIMIZE)
    return BuiltNIPSLP(program=lp, e_vars=e_vars, d_vars=d_vars)


def solve_with_fixed_rules(
    problem: NIPSProblem, fixed_e: Mapping[EKey, int]
) -> NIPSSolution:
    """The d-only LP rebuilt for one placement (disabled columns omitted)."""
    started = time.perf_counter()
    built = build_nips_lp(problem, fixed_e=fixed_e)
    if built.program.num_variables == 0:
        return NIPSSolution(
            e={key: float(value) for key, value in fixed_e.items()},
            d={},
            objective=0.0,
            solve_seconds=time.perf_counter() - started,
        )
    solution = solve_or_raise(built.program)
    elapsed = time.perf_counter() - started
    return NIPSSolution(
        e={key: float(value) for key, value in fixed_e.items()},
        d={key: value(solution, var) for key, var in built.d_vars.items()},
        objective=solution.objective,
        solve_seconds=elapsed,
    )


def solve_best_response(
    problem: NIPSProblem, weights: Mapping[DKey, float]
) -> Dict[DKey, float]:
    """``Λ``: the offline optimizer over the TCAM-free polytope.

    Maximizes ``sum(weights * d)`` subject to the node memory/CPU
    capacities (Eqs. 9–10) and the per-(rule, path) sampling bound
    (Eq. 11).  Components with non-positive weight are fixed to zero —
    they can only consume capacity.
    """
    lp = ExpressionProgram("nips-online")
    d_vars: Dict[DKey, Variable] = {}
    mem_terms: Dict[str, List] = {n: [] for n in problem.topology.node_names}
    cpu_terms: Dict[str, List] = {n: [] for n in problem.topology.node_names}
    path_terms: Dict[Tuple[int, Tuple[str, str]], List[Variable]] = {}
    objective_terms = []

    for key, weight in weights.items():
        if weight <= 0.0:
            continue
        i, pair, node = key
        var = lp.add_variable(f"d[{i}|{pair[0]}-{pair[1]}|{node}]", lb=0.0, ub=1.0)
        d_vars[key] = var
        rule = problem.rules[i]
        objective_terms.append(var * weight)
        mem_terms[node].append(var * (problem.items[pair] * rule.mem_req))
        cpu_terms[node].append(var * (problem.pkts[pair] * rule.cpu_req))
        path_terms.setdefault((i, pair), []).append(var)

    if not d_vars:
        # Nothing is worth filtering (all weights non-positive).
        return {}

    for node_name in problem.topology.node_names:
        node = problem.topology.node(node_name)
        if mem_terms[node_name]:
            lp.add_constraint(linear_sum(mem_terms[node_name]) <= node.mem_capacity)
        if cpu_terms[node_name]:
            lp.add_constraint(linear_sum(cpu_terms[node_name]) <= node.cpu_capacity)
    for variables in path_terms.values():
        lp.add_constraint(linear_sum(variables) <= 1.0)

    lp.set_objective(linear_sum(objective_terms), Sense.MAXIMIZE)
    solution = solve_or_raise(lp)
    return {key: value(solution, var) for key, var in d_vars.items()}


# -- NIPS rounding (Section 3.3, Fig. 9) -------------------------------------------
# ``repro.core.rounding``'s dict loops before the draws, the repair and
# greedy's gains became passes over the polytope's vectors, verbatim but
# for ``greedy_gains`` split out of ``greedy_fill`` and ``d_mapping``
# taking the polytope as an argument.  ``tests/test_rounding_columns.py``
# compares them with the product.

_TINY = 1e-9


def _violation_factor(polytope: NIPSPolytope, d: np.ndarray) -> float:
    """Largest factor by which Eqs. 9–11 are exceeded at the ``d``-block
    vector *d* (1.0 = feasible): ``max(A · d / b)`` over the polytope's
    own rows (a zero-capacity row has no factor)."""
    compiled = polytope.compiled
    bounded = compiled.b_ub > 0
    load = compiled.a_ub @ d
    return float(np.max(load[bounded] / compiled.b_ub[bounded], initial=1.0))


def _repair_cam(
    problem: NIPSProblem, e_hat: Dict[EKey, int], rng: random.Random
) -> None:
    """Zero ``ê`` entries until every node's TCAM constraint holds.

    The paper drops entries "arbitrarily"; we drop uniformly at random
    among the node's enabled rules, which keeps the repair unbiased.
    """
    for node_name in problem.topology.node_names:
        cap = problem.topology.node(node_name).cam_capacity
        enabled = [
            (i, node_name)
            for (i, n), value in e_hat.items()
            if n == node_name and value
        ]
        used = sum(problem.rules[i].cam_req for i, _ in enabled)
        while used > cap + _TINY and enabled:
            victim = enabled.pop(rng.randrange(len(enabled)))
            e_hat[victim] = 0
            used -= problem.rules[victim[0]].cam_req


def round_enablement(
    polytope: NIPSPolytope,
    relaxed: NIPSSolution,
    rng: random.Random,
    alpha: float = 2.0,
    beta: float = 2.0,
    max_trials: int = 100,
) -> Tuple[Dict[EKey, int], Dict[DKey, float], int]:
    """Fig. 9 lines 3–10: rounded ``ê``, induced ``d̂``, trials used.

    The returned ``d̂`` is *unscaled* (pre line 11); callers choose
    between conservative scaling (:func:`finish_basic`) and the
    LP-re-solve improvements.
    """
    problem = polytope.problem
    e_star = polytope.enabler_values(relaxed.e)
    eps = np.divide(
        polytope.d_vector(relaxed.d), e_star, out=np.zeros(len(e_star)), where=e_star > _TINY
    )

    threshold = beta * problem.log_n()
    e_hat: Dict[EKey, int] = {}
    trials = 0
    while trials < max_trials:
        trials += 1
        e_hat = {
            key: 1 if rng.random() < min(1.0, value / alpha) else 0
            for key, value in relaxed.e.items()
        }
        if _violation_factor(polytope, eps * polytope.enabler_values(e_hat)) <= threshold:
            break

    _repair_cam(problem, e_hat, rng)
    d_hat = eps * polytope.enabler_values(e_hat)
    return e_hat, dict(zip(polytope.d_keys, d_hat.tolist())), trials


def greedy_gains(problem: NIPSProblem) -> Dict[EKey, float]:
    """The first half of :func:`greedy_fill`: each candidate's gain, keys
    in first-visit order."""
    gains: Dict[EKey, float] = {}
    for pair in problem.pairs:
        items = problem.items[pair]
        for node in problem.paths[pair].nodes:
            dist = problem.dist[pair][node]
            for rule in problem.rules:
                rate = problem.match.rate(rule.index, pair)
                if rate <= 0.0:
                    continue
                key = (rule.index, node)
                gains[key] = gains.get(key, 0.0) + items * rate * dist
    return gains


def greedy_fill(
    problem: NIPSProblem,
    e_hat: Dict[EKey, int],
) -> Dict[EKey, int]:
    """Greedily enable more rules while TCAM capacity remains.

    Candidates are ordered by their maximum potential footprint
    reduction at the node (sum over paths through the node of
    ``T^items * M_ik * Dist_ikj``), so TCAM slots go to the most
    valuable rules first.
    """
    filled = dict(e_hat)
    cam_used: Dict[str, float] = {}
    for (i, node), value in filled.items():
        if value:
            cam_used[node] = cam_used.get(node, 0.0) + problem.rules[i].cam_req

    gains = greedy_gains(problem)
    for key in sorted(gains, key=lambda k: -gains[k]):
        if filled.get(key, 0):
            continue
        i, node_name = key
        cap = problem.topology.node(node_name).cam_capacity
        need = problem.rules[i].cam_req
        if cam_used.get(node_name, 0.0) + need <= cap + _TINY:
            filled[key] = 1
            cam_used[node_name] = cam_used.get(node_name, 0.0) + need
    return filled


def d_mapping(
    polytope: NIPSPolytope, values: Sequence[float], kept: Sequence[bool]
) -> Dict[DKey, float]:
    """``NIPSPolytope.d_mapping``: the ``d`` variables *kept* marks, by key."""
    return {key: value for key, value, keep in zip(polytope.d_keys, values, kept) if keep}
