"""The NIPS deployment MILP (paper Section 3.2, Eqs. 7–14).

Decision variables: binary ``e_ij`` (rule ``C_i`` enabled on node
``R_j``) and fractional ``d_ikj`` (fraction of path ``P_ik``'s traffic
node ``R_j`` filters with rule ``C_i``).  The objective maximizes the
network-footprint reduction of dropped unwanted traffic:

    max  sum_ikj  T_ik^items * M_ik * Dist_ikj * d_ikj          (Eq. 7)
    s.t. sum_i CamReq_i * e_ij            <= CamCap_j           (Eq. 8)
         sum_ik T_ik^items * MemReq_i * d_ikj <= MemCap_j       (Eq. 9)
         sum_ik T_ik^pkts  * CpuReq_i * d_ikj <= CpuCap_j       (Eq. 10)
         sum_j d_ikj <= 1                                       (Eq. 11)
         d_ikj <= e_ij                                          (Eq. 12)
         d >= 0, e binary                                       (Eq. 13-14)

The discrete ``e`` variables make the problem NP-hard (reduction from
MAX-CUT in the paper's technical report); this module provides the
exact formulation, its LP relaxation (``OptLP``, the upper bound used
throughout the Fig. 10 evaluation), restricted LPs with ``e`` fixed
(used by the improved rounding variants), and the exact solve for small
instances (HiGHS's branch-and-bound over the binary ``e``).  Eqs. 7 and
9–11 are stated once, by :func:`compile_nips_polytope`: the full program
wraps that compiled polytope with ``e``, Eq. 8 and Eq. 12, and the
restricted LP is the polytope itself under the bounds ``d <= ê``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..lp.model import CompiledLP, LinearProgram, Relation, Sense
from ..lp.solver import LPSolution, solve, solve_or_raise
from ..nips.rules import MatchRateMatrix, NIPSRule
from ..topology.graph import Topology
from ..topology.routing import DistanceMetric, Path, PathSet
from ..hashing.ranges import EPSILON
from .manifest import MASS_TOL, REP101, REP104, REP105, REP108, Finding

Pair = Tuple[str, str]
EKey = Tuple[int, str]  # (rule index, node)
DKey = Tuple[int, Pair, str]  # (rule index, path pair, node)

#: Paper Section 3.4 baseline volumes for Internet2 (per 5-minute
#: interval), scaled linearly with network size for other topologies.
INTERNET2_BASE_FLOWS = 8_000_000.0
INTERNET2_BASE_PACKETS = 40_000_000.0
INTERNET2_SIZE = 11

#: Paper Section 3.4 per-node capacities (per 5-minute interval).
DEFAULT_MEM_CAP_FLOWS = 400_000.0
DEFAULT_CPU_CAP_PACKETS = 2_000_000.0


@dataclass
class NIPSProblem:
    """A complete NIPS deployment instance."""

    topology: Topology
    paths: Dict[Pair, Path]
    pkts: Dict[Pair, float]
    items: Dict[Pair, float]
    dist: Dict[Pair, Dict[str, float]]
    rules: List[NIPSRule]
    match: MatchRateMatrix

    @property
    def pairs(self) -> List[Pair]:
        """All ordered (ingress, egress) pairs with paths."""
        return list(self.paths)

    @property
    def num_rules(self) -> int:
        """Number of NIPS rules in the instance."""
        return len(self.rules)

    @property
    def num_nodes(self) -> int:
        """Number of candidate NIPS nodes."""
        return len(self.topology)

    def log_n(self) -> float:
        """``log N`` with ``N = max(#nodes, #rules)`` (rounding analysis)."""
        import math

        return math.log(max(self.num_nodes, self.num_rules, 2))

    # -- solution evaluation ---------------------------------------------------
    def objective(self, d: Mapping[DKey, float]) -> float:
        """Eq. 7 evaluated at a fractional filtering assignment."""
        total = 0.0
        for (i, pair, node), fraction in d.items():
            if fraction <= 0.0:
                continue
            total += (
                self.items[pair]
                * self.match.rate(i, pair)
                * self.dist[pair][node]
                * fraction
            )
        return total

    def check(
        self, e: Mapping[EKey, float], d: Mapping[DKey, float]
    ) -> List[Finding]:
        """Eqs. 8–13 at ``(e, d)``: one finding per violated constraint.

        The one statement of NIPS feasibility, including what the LP
        states by construction: filtering mass only on nodes the path
        traverses.  ``e`` is charged as given, so an LP relaxation's
        fractional enablement is judged by the relaxed Eq. 8; a
        deployable placement has binary ``e``.
        """
        findings: List[Finding] = []
        cam_used: Dict[str, float] = {}
        mem_used: Dict[str, float] = {}
        cpu_used: Dict[str, float] = {}
        path_sum: Dict[Tuple[int, Pair], float] = {}
        for (i, node), enabled in e.items():
            if enabled > MASS_TOL:
                cam_used[node] = cam_used.get(node, 0.0) + self.rules[i].cam_req * enabled
        for (i, pair, node), fraction in d.items():
            if fraction < -MASS_TOL:
                findings.append(
                    Finding(
                        REP101,
                        d_subject(i, pair, node),
                        f"sampling fraction {fraction!r} is negative (Eq. 13)",
                    )
                )
            path = self.paths.get(pair)
            if path is None or node not in path.nodes:
                if fraction > EPSILON:
                    findings.append(
                        Finding(
                            REP104,
                            d_subject(i, pair, node),
                            "filtering mass on a node the path never traverses",
                        )
                    )
                continue  # nothing on the path to charge the node with
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
                self.items[pair] * self.rules[i].mem_req * fraction
            )
            cpu_used[node] = cpu_used.get(node, 0.0) + (
                self.pkts[pair] * self.rules[i].cpu_req * fraction
            )
            path_sum[(i, pair)] = path_sum.get((i, pair), 0.0) + fraction
        for node_name in self.topology.node_names:
            node = self.topology.node(node_name)
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

    def check_feasible(
        self, e: Mapping[EKey, float], d: Mapping[DKey, float]
    ) -> List[str]:
        """:meth:`check` rendered as text, empty when feasible."""
        return [finding.render() for finding in self.check(e, d)]


def d_subject(i: int, pair: Pair, node: Optional[str] = None) -> str:
    """Finding subject of a (rule, path) — ``rule<i>/<src>-><dst>`` — or,
    with *node*, of one ``d_ikj`` on it (``…@<node>``)."""
    path = f"rule{i}/{pair[0]}->{pair[1]}"
    return path if node is None else f"{path}@{node}"


def build_nips_problem(
    topology: Topology,
    rules: Sequence[NIPSRule],
    match: MatchRateMatrix,
    path_set: Optional[PathSet] = None,
    metric: DistanceMetric = DistanceMetric.HOPS,
    total_flows: Optional[float] = None,
    total_packets: Optional[float] = None,
) -> NIPSProblem:
    """Assemble a :class:`NIPSProblem` with the paper's volume model.

    Volumes default to the Internet2 baseline (8M flows / 40M packets
    per 5-minute interval) scaled linearly with network size, split
    across ordered node pairs by the gravity model.
    """
    from ..topology.gravity import gravity_fractions

    size_factor = len(topology) / INTERNET2_SIZE
    if total_flows is None:
        total_flows = INTERNET2_BASE_FLOWS * size_factor
    if total_packets is None:
        total_packets = INTERNET2_BASE_PACKETS * size_factor

    path_set = path_set or PathSet(topology)
    fractions = gravity_fractions(topology.populations)
    paths: Dict[Pair, Path] = {}
    pkts: Dict[Pair, float] = {}
    items: Dict[Pair, float] = {}
    dist: Dict[Pair, Dict[str, float]] = {}
    for pair, fraction in fractions.items():
        path = path_set.path(*pair)
        paths[pair] = path
        pkts[pair] = fraction * total_packets
        items[pair] = fraction * total_flows
        dist[pair] = {
            node: path_set.downstream_distance(path, node, metric)
            for node in path.nodes
        }
    return NIPSProblem(
        topology=topology,
        paths=paths,
        pkts=pkts,
        items=items,
        dist=dist,
        rules=list(rules),
        match=match,
    )


@dataclass
class NIPSSolution:
    """A (possibly fractional) NIPS deployment.

    A relaxation carries the :class:`NIPSPolytope` it was solved on, so
    whoever rounds it next reuses that compile (``None`` otherwise).
    """

    e: Dict[EKey, float]
    d: Dict[DKey, float]
    objective: float
    solve_seconds: float
    polytope: Optional["NIPSPolytope"] = field(default=None, repr=False, compare=False)

    def enabled_rules(self, node: str, threshold: float = 0.5) -> List[int]:
        """Rule indices enabled on *node* (binary solutions only)."""
        return sorted(
            i for (i, n), value in self.e.items() if n == node and value >= threshold
        )


@dataclass
class NIPSPolytope:
    """The ``d``-only polytope of one problem — Eqs. 9–11 and 13 with
    Eq. 7 as objective — compiled once.

    ``d`` variables are in (rule, pair, on-path node) order.  What
    Sections 3.3 and 3.5 re-solve is this program under other bounds
    (``e`` fixed makes Eq. 12 the bound ``d_ikj <= ê_ij``) or another
    cost vector (FPL's perturbed weights): ``compiled.with_bounds`` /
    ``with_cost``, which share its matrices.  Whoever loops holds one
    for the length of the loop.
    """

    problem: NIPSProblem
    e_keys: List[EKey]  # rule-major over the topology's nodes
    d_keys: List[DKey]
    #: Per ``d`` variable, the position in ``e_keys`` of the ``e_ij``
    #: Eq. 12 links it to (same rule, same node).
    enabler: np.ndarray
    #: Per ``d`` variable, its Eq. 7 coefficient ``T^items · M_ik ·
    #: Dist_ikj`` and whether its rule matches the path at all
    #: (``M_ik > 0``) — greedy's gains and candidates.
    value: np.ndarray
    matched: np.ndarray
    compiled: CompiledLP

    def enabler_values(self, e: Mapping[EKey, float]) -> np.ndarray:
        """Per ``d`` variable, what *e* gives its Eq. 12 ``e_ij`` (0 when absent)."""
        return np.array([e.get(key, 0.0) for key in self.e_keys], dtype=np.float64)[
            self.enabler
        ]

    def d_vector(self, d: Mapping[DKey, float]) -> np.ndarray:
        """A ``d``-keyed mapping as a vector in variable order (0 when absent)."""
        return np.array([d.get(key, 0.0) for key in self.d_keys], dtype=np.float64)

    def d_mapping(self, values: Sequence[float], kept: Sequence[bool]) -> Dict[DKey, float]:
        """The inverse, on the variables *kept* marks."""
        keys = self.d_keys
        return {keys[t]: values[t] for t in np.flatnonzero(kept).tolist()}


def compile_nips_polytope(problem: NIPSProblem) -> NIPSPolytope:
    """The one statement of Eqs. 7 and 9–11, as index blocks.

    With ``H`` (pair, on-path node) hops, ``d`` variable ``r·H + h`` is
    rule ``r`` on hop ``h``.  Rows ``2k`` / ``2k + 1`` are the memory /
    CPU capacity of the ``k``-th node some path traverses, rows
    ``2K + r·P + p`` the sampling bound of (rule ``r``, pair ``p``).
    Each coefficient is the product the per-term model formed
    (``(T^items · M) · Dist``, ``T^items · MemReq``, ``T^pkts · CpuReq``).
    """
    node_names = problem.topology.node_names
    node_index = {name: j for j, name in enumerate(node_names)}
    pairs, rules = problem.pairs, problem.rules
    hops = [(p, node) for p, pair in enumerate(pairs) for node in problem.paths[pair].nodes]
    d_keys = [(rule.index, pairs[p], node) for rule in rules for p, node in hops]
    rule_of = np.repeat(np.arange(len(rules)), len(hops))
    pair_of = np.tile(np.array([p for p, _ in hops], dtype=np.intp), len(rules))
    node_of = np.tile(np.array([node_index[n] for _, n in hops], dtype=np.intp), len(rules))

    items = np.array([problem.items[pair] for pair in pairs])[pair_of]
    pkts = np.array([problem.pkts[pair] for pair in pairs])[pair_of]
    rate = np.array(
        [problem.match.rate(rule.index, pair) for rule in rules for pair in pairs]
    ).reshape(len(rules), len(pairs))[rule_of, pair_of]
    dist = np.tile([problem.dist[pairs[p]][node] for p, node in hops], len(rules))
    mem_req = np.array([rule.mem_req for rule in rules])[rule_of]
    cpu_req = np.array([rule.cpu_req for rule in rules])[rule_of]

    # Capacity rows exist only for nodes some path traverses.
    on_path = np.flatnonzero(np.bincount(node_of, minlength=len(node_names)))
    rank = np.zeros(len(node_names), dtype=np.intp)
    rank[on_path] = np.arange(len(on_path))
    capacities = [
        capacity
        for node in (problem.topology.node(node_names[j]) for j in on_path)
        for capacity in (node.mem_capacity, node.cpu_capacity)
    ]

    lp = LinearProgram("nips-polytope")
    d = lp.add_variables(
        len(d_keys),
        lambda: [f"d[{i}|{a}-{b}|{node}]" for i, (a, b), node in d_keys],
        lb=0.0,
        ub=1.0,
    )
    lp.add_constraints(
        Relation.LE,
        rows=np.concatenate(
            (
                2 * rank[node_of],
                2 * rank[node_of] + 1,
                2 * len(on_path) + rule_of * len(pairs) + pair_of,
            )
        ),
        cols=np.tile(d, 3),
        data=np.concatenate((items * mem_req, pkts * cpu_req, np.ones(len(d)))),
        rhs=np.concatenate((capacities, np.ones(len(rules) * len(pairs)))),
        names=lambda: [f"{kind}[{node_names[j]}]" for j in on_path for kind in ("mem", "cpu")]
        + [f"sample[{rule.index}|{a}-{b}]" for rule in rules for a, b in pairs],
    )
    value = items * rate * dist
    worth = np.flatnonzero(value > 0.0)
    lp.set_objective(worth, value[worth], Sense.MAXIMIZE)
    return NIPSPolytope(
        problem=problem,
        e_keys=[(rule.index, node) for rule in rules for node in node_names],
        d_keys=d_keys,
        enabler=rule_of * len(node_names) + node_of,
        value=value,
        matched=rate > 0.0,
        compiled=lp.compile(),
    )


@dataclass
class BuiltNIPSLP:
    """The full program (Eqs. 7–14): variables are the polytope's
    ``e_keys`` then its ``d_keys``."""

    program: LinearProgram
    polytope: NIPSPolytope


def build_nips_lp(problem: NIPSProblem, integral: bool = False) -> BuiltNIPSLP:
    """Construct Eqs. 7–14: the ``e`` block, Eq. 12 and Eq. 8 wrapped
    around the compiled ``d``-only polytope.

    ``integral=False`` builds the LP relaxation (``0 <= e <= 1``).
    Rows are Eq. 12 (one per ``d``), Eq. 8 (one per node), then the
    polytope's own Eqs. 9–11.
    """
    polytope = compile_nips_polytope(problem)
    inner = polytope.compiled
    node_names = problem.topology.node_names
    lp = LinearProgram("nips-deployment")
    e = lp.add_variables(
        len(polytope.e_keys),
        lambda: [f"e[{i}|{node}]" for i, node in polytope.e_keys],
        lb=0.0,
        ub=1.0,
    )
    if integral:
        lp.binary_indices.extend(e)
    d = lp.add_variables(
        inner.num_variables, lambda: list(inner.variable_names), lb=0.0, ub=1.0
    )
    # Eq. 12: d_ikj - e_ij <= 0.
    lp.add_constraints(
        Relation.LE,
        rows=np.tile(np.arange(len(d)), 2),
        cols=np.concatenate((d, e.start + polytope.enabler)),
        data=np.repeat([1.0, -1.0], len(d)),
        rhs=np.zeros(len(d)),
        names=lambda: [f"link[{i}|{pair}|{node}]" for i, pair, node in polytope.d_keys],
    )
    # Eq. 8: TCAM capacity, e being rule-major over the nodes.
    lp.add_constraints(
        Relation.LE,
        rows=np.tile(np.arange(len(node_names)), len(problem.rules)),
        cols=e,
        data=np.repeat([rule.cam_req for rule in problem.rules], len(node_names)),
        rhs=[problem.topology.node(name).cam_capacity for name in node_names],
        names=[f"cam[{name}]" for name in node_names],
    )
    rows = inner.a_ub.tocoo()
    lp.add_constraints(
        Relation.LE, rows.row, d.start + rows.col, rows.data, inner.b_ub,
        lambda: list(inner.ineq_names),
    )
    worth = np.flatnonzero(inner.cost)
    lp.set_objective(d.start + worth, -inner.cost[worth], Sense.MAXIMIZE)
    return BuiltNIPSLP(program=lp, polytope=polytope)


def solve_relaxation(problem: NIPSProblem) -> NIPSSolution:
    """Solve the LP relaxation; its objective is ``OptLP >= OptNIPS``."""
    started = time.perf_counter()
    built = build_nips_lp(problem, integral=False)
    solution = solve_or_raise(built.program)
    elapsed = time.perf_counter() - started
    e_keys, d_keys = built.polytope.e_keys, built.polytope.d_keys
    return NIPSSolution(
        e=dict(zip(e_keys, solution.values[: len(e_keys)])),
        d=dict(zip(d_keys, solution.values[len(e_keys) :])),
        objective=solution.objective,
        solve_seconds=elapsed,
        polytope=built.polytope,
    )


def solve_with_fixed_rules(
    polytope: NIPSPolytope, fixed_e: Mapping[EKey, int]
) -> NIPSSolution:
    """Solve the d-only LP given a binary rule placement (the
    "solve a second LP" improvement of Section 3.3).

    With ``e`` fixed Eq. 12 is the bound ``d_ikj <= ê_ij`` on the
    polytope; Eq. 8 has no ``d`` in it and stays the caller's
    :meth:`NIPSProblem.check`.  ``d`` is reported on enabled
    (rule, node) combinations only.  A placement that enables nothing
    (possible when the TCAM budget is below one rule slot) filters
    nothing: the zero deployment is returned directly.
    """
    started = time.perf_counter()
    upper = polytope.enabler_values(fixed_e)
    e = {key: float(value) for key, value in fixed_e.items()}
    if not upper.any():
        return NIPSSolution(
            e=e, d={}, objective=0.0, solve_seconds=time.perf_counter() - started
        )
    solution = solve_or_raise(polytope.compiled.with_bounds(0.0, upper))
    return NIPSSolution(
        e=e,
        d=polytope.d_mapping(solution.values, upper),
        objective=solution.objective,
        solve_seconds=time.perf_counter() - started,
    )


def solve_exact(problem: NIPSProblem) -> LPSolution:
    """The integer optimum ``OptNIPS``, proved by HiGHS's
    branch-and-bound (small instances / test baselines)."""
    return solve(build_nips_lp(problem, integral=True).program)
