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
two with ``==``.  Beside them are the loops over unit objects that
:class:`repro.core.units.UnitTable` replaced: ``units_from_volumes``
(the assembly tail both producers shared), ``conservative_units``' one
``dataclasses.replace`` per unit, the controller's ``_exclude_failed``
and ``uniform_assignment``'s per-node accumulation.

The NIPS half (the second part of this file) is the same move for
Section 3.2: ``build_nips_lp`` with its ``fixed_e=`` fork,
``solve_with_fixed_rules`` on that fork and ``core/online.py``'s private
``solve_best_response`` builder, each of which restated Eqs. 9–11 with
one ``LinExpr`` per term.  ``tests/test_nips_layout.py`` compares the
product's one index-block layout against them.  Beside them are
``NIPSProblem.check`` and ``objective`` as the dict walks they were
before they became column passes (``tests/test_nips_columns.py``
compares the two finding for finding), with the key helpers that read
a solution's vectors by (rule, node) and (rule, pair, node).  Its last
part is Section 3.3's rounding as it was before it became vector
passes (``round_enablement``, ``greedy_fill``), which
``tests/test_rounding_columns.py`` compares with ``==``.
"""

import dataclasses
import math
import random
import time
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.nids_lp import NIDSAssignment
from repro.core.manifest import MASS_TOL, REP101, REP105, REP108, Finding
from repro.core.nips_milp import (
    NIPSPolytope,
    NIPSProblem,
    NIPSSolution,
    Pair,
    compile_nips_polytope,
    d_subject,
)
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
EKey = Tuple[int, str]  # (rule index, node)
DKey = Tuple[int, Pair, str]  # (rule index, path pair, node)
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


#: One unit's measured volumes before assembly:
#: ``(spec, key, pkts, items, cpu_work)``.
UnitVolume = Tuple[ModuleSpec, UnitKey, float, float, float]


def units_from_volumes(
    volumes: Iterable[UnitVolume], paths: PathSet
) -> List[CoordinationUnit]:
    """Assemble measured or estimated volumes into sorted units.

    ``P_ik`` is :func:`eligible_nodes` (memoised on *paths*), memory is
    ``items * MemReq_i``, and the result is ordered by ``(class, key)``
    — the order the LP lays its variables out in.
    """
    units = [
        CoordinationUnit(
            class_name=spec.name,
            key=key,
            eligible=eligible_nodes(key, paths),
            pkts=pkts,
            items=items,
            cpu_work=cpu_work,
            mem_bytes=items * spec.mem_req,
        )
        for spec, key, pkts, items, cpu_work in volumes
    ]
    units.sort(key=lambda u: (u.class_name, u.key))
    return units


def assert_same_units(table, rows: Sequence[CoordinationUnit], nodes=None) -> None:
    """*table*'s columns are *rows*, in order: the idents, the eligible
    sets as CSR (over *nodes* when given) and every volume bit for bit."""
    assert table.idents == tuple(unit.ident for unit in rows)
    if nodes is not None:
        assert table.nodes == tuple(nodes)
    sizes = [len(unit.eligible) for unit in rows]
    assert table.offsets.tolist() == np.concatenate(([0], np.cumsum(sizes))).tolist()
    assert [table.nodes[c] for c in table.codes.tolist()] == [
        node for unit in rows for node in unit.eligible
    ]
    for name in RESOURCE_FIELDS:
        column = getattr(table, name)
        expected = np.array([getattr(unit, name) for unit in rows], dtype=np.float64)
        assert column.dtype == np.float64, name
        assert column.tobytes() == expected.tobytes(), name


#: Every measured resource field of a :class:`CoordinationUnit` that a
#: headroom factor must scale.
RESOURCE_FIELDS = ("pkts", "items", "cpu_work", "mem_bytes")


def conservative_units(
    units: Sequence[CoordinationUnit], headroom: float
) -> List[CoordinationUnit]:
    """Every resource field of every unit times *headroom* (the
    validation and the ``headroom == 1`` fast path are the product's)."""
    return [
        dataclasses.replace(
            unit,
            **{name: getattr(unit, name) * headroom for name in RESOURCE_FIELDS},
        )
        for unit in units
    ]


def exclude_failed(
    units: Sequence[CoordinationUnit],
    unavailable: AbstractSet[str],
    live_fenced: AbstractSet[str],
) -> List[CoordinationUnit]:
    """The controller's ``_exclude_failed`` loop: *unavailable* nodes
    struck from each eligible set, falling back to the unit's live
    fenced nodes when none is left, the unit dropped when neither is."""
    if not unavailable:
        return list(units)
    surviving = []
    for unit in units:
        eligible = tuple(n for n in unit.eligible if n not in unavailable)
        if not eligible:
            eligible = tuple(n for n in unit.eligible if n in live_fenced)
        if not eligible:
            continue
        if eligible != unit.eligible:
            unit = dataclasses.replace(unit, eligible=eligible)
        surviving.append(unit)
    return surviving


def uniform_assignment(
    units: Sequence[CoordinationUnit], topology: Topology, coverage: float = 1.0
) -> NIDSAssignment:
    """The even split ``d_ikj = coverage / |P_ik|``, one unit and one
    eligible node at a time."""
    triples = []
    per_unit_coverage: Dict[Tuple[str, UnitKey], float] = {}
    cpu_load = {name: 0.0 for name in topology.node_names}
    mem_load = {name: 0.0 for name in topology.node_names}
    for unit in units:
        unit_coverage = min(coverage, float(len(unit.eligible)))
        per_unit_coverage[unit.ident] = unit_coverage
        share = unit_coverage / len(unit.eligible)
        for node in unit.eligible:
            triples.append((unit.class_name, unit.key, node, share))
            spec = topology.node(node)
            cpu_load[node] += unit.cpu_work * share / spec.cpu_capacity
            mem_load[node] += unit.mem_bytes * share / spec.mem_capacity
    objective = max(
        max(cpu_load.values(), default=0.0), max(mem_load.values(), default=0.0)
    )
    return NIDSAssignment.from_triples(
        triples, per_unit_coverage, cpu_load, mem_load, objective
    )


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
# A NIPS solution holds ``e`` and ``d`` as vectors in the problem's
# layout; the loops below read them keyed by (rule, node) and
# (rule, pair, node).  The keys are stated here from the problem alone
# (rule-major, pairs in order, each path's nodes in path order), not
# read off the product's index columns.
def e_keys(problem: NIPSProblem) -> List[EKey]:
    """The ``e`` vector's keys, in order."""
    return [(rule.index, node) for rule in problem.rules for node in problem.topology.node_names]


def d_keys(problem: NIPSProblem) -> List[DKey]:
    """The ``d`` vector's keys, in order."""
    return [
        (rule.index, pair, node)
        for rule in problem.rules
        for pair in problem.pairs
        for node in problem.paths[pair].nodes
    ]


def e_dict(problem: NIPSProblem, e: Sequence[float]) -> Dict[EKey, float]:
    """An ``e`` vector keyed by (rule, node)."""
    return dict(zip(e_keys(problem), np.asarray(e, dtype=np.float64).tolist()))


def d_dict(problem: NIPSProblem, d: Sequence[float]) -> Dict[DKey, float]:
    """A ``d`` vector keyed by (rule, pair, node)."""
    return dict(zip(d_keys(problem), np.asarray(d, dtype=np.float64).tolist()))


def e_vector(problem: NIPSProblem, e: Mapping[EKey, float]) -> np.ndarray:
    """A (rule, node)-keyed mapping as an ``e`` vector (0.0 when absent)."""
    return np.array([e.get(key, 0.0) for key in e_keys(problem)], dtype=np.float64)


def d_vector(problem: NIPSProblem, d: Mapping[DKey, float]) -> np.ndarray:
    """A (rule, pair, node)-keyed mapping as a ``d`` vector (0.0 when absent)."""
    return np.array([d.get(key, 0.0) for key in d_keys(problem)], dtype=np.float64)


def solution_of(
    problem: NIPSProblem, e: Mapping[EKey, float], d: Mapping[DKey, float]
) -> NIPSSolution:
    """A :class:`NIPSSolution` of the keyed ``e`` and ``d`` (0.0 where a
    key is absent) on a polytope compiled for *problem*."""
    return NIPSSolution(
        e=e_vector(problem, e),
        d=d_vector(problem, d),
        objective=objective(problem, d),
        solve_seconds=0.0,
        polytope=compile_nips_polytope(problem),
    )


def objective(problem: NIPSProblem, d: Mapping[DKey, float]) -> float:
    """Eq. 7 evaluated at a fractional filtering assignment."""
    total = 0.0
    for (i, pair, node), fraction in d.items():
        if fraction <= 0.0:
            continue
        total += (
            problem.items[pair]
            * problem.match.rate(i, pair)
            * problem.dist[pair][node]
            * fraction
        )
    return total


def check(
    problem: NIPSProblem, e: Mapping[EKey, float], d: Mapping[DKey, float]
) -> List[Finding]:
    """Eqs. 8–13 at ``(e, d)``: one finding per violated constraint,
    one dict walk (``NIPSProblem.check`` before it became column passes)."""
    findings: List[Finding] = []
    cam_used: Dict[str, float] = {}
    mem_used: Dict[str, float] = {}
    cpu_used: Dict[str, float] = {}
    path_sum: Dict[Tuple[int, Pair], float] = {}
    for (i, node), enabled in e.items():
        if not math.isfinite(enabled):
            findings.append(
                Finding(
                    REP101,
                    f"rule{i}@{node}",
                    f"enablement {enabled!r} is not a finite number (Eq. 13)",
                )
            )
        if enabled > MASS_TOL:
            cam_used[node] = cam_used.get(node, 0.0) + problem.rules[i].cam_req * enabled
    for (i, pair, node), fraction in d.items():
        if not math.isfinite(fraction):
            findings.append(
                Finding(
                    REP101,
                    d_subject(i, pair, node),
                    f"sampling fraction {fraction!r} is not a finite number (Eq. 13)",
                )
            )
        elif fraction < -MASS_TOL:
            findings.append(
                Finding(
                    REP101,
                    d_subject(i, pair, node),
                    f"sampling fraction {fraction!r} is negative (Eq. 13)",
                )
            )
        if fraction > e.get((i, node), 0.0) + MASS_TOL:
            findings.append(
                Finding(
                    REP108,
                    d_subject(i, pair, node),
                    f"samples {fraction:.6f} of the path, which exceeds"
                    f" e[{i},{node}] (Eq. 12)",
                )
            )
        mem_used[node] = mem_used.get(node, 0.0) + (
            problem.items[pair] * problem.rules[i].mem_req * fraction
        )
        cpu_used[node] = cpu_used.get(node, 0.0) + (
            problem.pkts[pair] * problem.rules[i].cpu_req * fraction
        )
        path_sum[(i, pair)] = path_sum.get((i, pair), 0.0) + fraction
    for node_name in problem.topology.node_names:
        node = problem.topology.node(node_name)
        for resource, equation, used, capacity, relative in (
            ("TCAM", 8, cam_used, node.cam_capacity, 0.0),
            ("memory", 9, mem_used, node.mem_capacity, MASS_TOL),
            ("CPU", 10, cpu_used, node.cpu_capacity, MASS_TOL),
        ):
            need = used.get(node_name, 0.0)
            if need > capacity * (1 + relative) + MASS_TOL:
                findings.append(
                    Finding(
                        REP105,
                        f"{resource.lower()}@{node_name}",
                        f"{resource} capacity exceeded: needs {need:g},"
                        f" capacity is {capacity:g} (Eq. {equation})",
                    )
                )
    for (i, pair), total in path_sum.items():
        if total > 1.0 + MASS_TOL:
            findings.append(
                Finding(
                    REP101,
                    d_subject(i, pair),
                    f"sampling fractions sum to {total!r} > 1 (Eq. 11)",
                )
            )
    return findings


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
    lp.presolve = integral  # as the product's builders state it
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


@dataclass
class KeyedSolution:
    """The restricted LP's solution keyed by (rule, node) and
    (rule, pair, node); ``d`` only on the columns the program had."""

    e: Dict[EKey, float]
    d: Dict[DKey, float]
    objective: float


def solve_with_fixed_rules(
    problem: NIPSProblem, fixed_e: Mapping[EKey, int]
) -> KeyedSolution:
    """The d-only LP rebuilt for one placement (disabled columns omitted)."""
    built = build_nips_lp(problem, fixed_e=fixed_e)
    e = {key: float(value) for key, value in fixed_e.items()}
    if built.program.num_variables == 0:
        return KeyedSolution(e=e, d={}, objective=0.0)
    solution = solve_or_raise(built.program)
    return KeyedSolution(
        e=e,
        d={key: value(solution, var) for key, var in built.d_vars.items()},
        objective=solution.objective,
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
    lp.presolve = False
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
# for ``greedy_gains`` split out of ``greedy_fill`` and the relaxation
# read through ``e_dict`` / ``d_dict``.  ``tests/test_rounding_columns.py``
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
    keys = d_keys(problem)
    relaxed_e, relaxed_d = e_dict(problem, relaxed.e), d_dict(problem, relaxed.d)

    def enabler_values(e: Mapping[EKey, float]) -> np.ndarray:
        return np.array([e.get((i, node), 0.0) for i, _pair, node in keys], dtype=np.float64)

    e_star = enabler_values(relaxed_e)
    eps = np.divide(
        np.array([relaxed_d.get(key, 0.0) for key in keys], dtype=np.float64),
        e_star,
        out=np.zeros(len(e_star)),
        where=e_star > _TINY,
    )

    threshold = beta * problem.log_n()
    e_hat: Dict[EKey, int] = {}
    trials = 0
    while trials < max_trials:
        trials += 1
        e_hat = {
            key: 1 if rng.random() < min(1.0, value / alpha) else 0
            for key, value in relaxed_e.items()
        }
        if _violation_factor(polytope, eps * enabler_values(e_hat)) <= threshold:
            break

    _repair_cam(problem, e_hat, rng)
    d_hat = eps * enabler_values(e_hat)
    return e_hat, dict(zip(keys, d_hat.tolist())), trials


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
