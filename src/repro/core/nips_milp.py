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
(used by the improved rounding variants), and an exact branch-and-bound
solve for small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..lp.milp import MILPSolution, solve_milp
from ..lp.model import LinearProgram, LinExpr, Sense, Variable, linear_sum
from ..lp.solver import LPSolution, solve_or_raise
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
class BuiltNIPSLP:
    """Constructed program plus variable maps."""

    program: LinearProgram
    e_vars: Dict[EKey, Variable]
    d_vars: Dict[DKey, Variable]


@dataclass
class NIPSSolution:
    """A (possibly fractional) NIPS deployment."""

    e: Dict[EKey, float]
    d: Dict[DKey, float]
    objective: float
    solve_seconds: float

    def enabled_rules(self, node: str, threshold: float = 0.5) -> List[int]:
        """Rule indices enabled on *node* (binary solutions only)."""
        return sorted(
            i for (i, n), value in self.e.items() if n == node and value >= threshold
        )


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
    lp = LinearProgram("nips-deployment")
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


def solve_relaxation(problem: NIPSProblem) -> NIPSSolution:
    """Solve the LP relaxation; its objective is ``OptLP >= OptNIPS``."""
    started = time.perf_counter()
    built = build_nips_lp(problem, integral=False)
    solution = solve_or_raise(built.program)
    elapsed = time.perf_counter() - started
    return NIPSSolution(
        e={key: solution.value(var) for key, var in built.e_vars.items()},
        d={key: solution.value(var) for key, var in built.d_vars.items()},
        objective=solution.objective,
        solve_seconds=elapsed,
    )


def solve_with_fixed_rules(
    problem: NIPSProblem, fixed_e: Mapping[EKey, int]
) -> NIPSSolution:
    """Solve the d-only LP given a binary rule placement (the
    "solve a second LP" improvement of Section 3.3).

    A placement that enables nothing (possible when the TCAM budget is
    below one rule slot) filters nothing: the restricted program is
    empty and the zero deployment is returned directly.
    """
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
        d={key: solution.value(var) for key, var in built.d_vars.items()},
        objective=solution.objective,
        solve_seconds=elapsed,
    )


def solve_exact(problem: NIPSProblem, max_nodes: int = 2000) -> MILPSolution:
    """Exact branch-and-bound solve (small instances / test baselines)."""
    built = build_nips_lp(problem, integral=True)
    return solve_milp(built.program, max_nodes=max_nodes)
