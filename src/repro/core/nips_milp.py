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

``e`` and ``d`` have one representation: float64 vectors in the
problem's :class:`NIPSLayout` (``e`` rule-major over the nodes, ``d``
rule-major over the (pair, on-path node) hops), which are the
polytope's columns.  A :class:`NIPSSolution` holds them as the solver
returned them, and :meth:`NIPSProblem.check` / :meth:`~NIPSProblem.objective`
are column passes over them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lp.model import CompiledLP, LinearProgram, Relation, Sense
from ..lp.solver import LPSolution, solve, solve_or_raise
from ..nips.rules import MatchRateMatrix, NIPSRule
from ..topology.graph import Topology
from ..topology.routing import DistanceMetric, Path, PathSet
from .manifest import MASS_TOL, REP101, REP105, REP108, Finding

Pair = Tuple[str, str]

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

    @cached_property
    def layout(self) -> "NIPSLayout":
        """Where each ``e_ij`` and ``d_ikj`` sits in a solution's vectors
        (computed on first use, once per problem)."""
        return NIPSLayout.of(self)

    # -- solution evaluation ---------------------------------------------------
    def objective(self, d: Sequence[float]) -> float:
        """Eq. 7 evaluated at a fractional filtering assignment: the left
        fold, in ``d`` order, of ``T^items · M_ik · Dist_ikj · d_ikj``
        over the entries not ``<= 0``."""
        layout = self.layout
        d = layout.column("d", d)
        kept = ~(d <= 0.0)  # a NaN is kept, as the fold always did
        terms = layout.value[kept] * d[kept]
        # ``np.add.accumulate`` adds in order; ``np.sum`` is pairwise.
        return float(np.add.accumulate(terms)[-1]) if len(terms) else 0.0

    def check(self, e: Sequence[float], d: Sequence[float]) -> List[Finding]:
        """Eqs. 8–13 at ``(e, d)``: one finding per violated constraint.

        The one statement of NIPS feasibility, over vectors in
        :attr:`layout` (a vector of another length is a ``ValueError``).
        ``e`` is charged as given, so an LP relaxation's fractional
        enablement is judged by the relaxed Eq. 8; a deployable
        placement has binary ``e``.  Findings come in a fixed order:
        non-finite ``e`` entries; per ``d`` entry, Eq. 13 (non-finite or
        negative) then Eq. 12; capacities by node, TCAM / memory / CPU;
        Eq. 11 by (rule, pair).  Per-node and per-path sums are left
        folds in ``d`` order.
        """
        layout = self.layout
        e, d = layout.column("e", e), layout.column("d", d)
        rule_ids, pairs, nodes = layout.rule_ids, layout.pairs, layout.nodes
        width = len(nodes)
        findings: List[Finding] = []
        for k in np.flatnonzero(~np.isfinite(e)).tolist():
            findings.append(
                Finding(
                    REP101,
                    f"rule{rule_ids[k // width]}@{nodes[k % width]}",
                    f"enablement {float(e[k])!r} is not a finite number (Eq. 13)",
                )
            )
        finite = np.isfinite(d)
        negative = d < -MASS_TOL
        unlinked = d > e[layout.enabler] + MASS_TOL
        for t in np.flatnonzero(~finite | negative | unlinked).tolist():
            i, node = rule_ids[layout.rule_of[t]], nodes[layout.node_of[t]]
            subject = d_subject(i, pairs[layout.pair_of[t]], node)
            fraction = float(d[t])
            if not finite[t]:
                findings.append(
                    Finding(
                        REP101,
                        subject,
                        f"sampling fraction {fraction!r} is not a finite number (Eq. 13)",
                    )
                )
            elif negative[t]:
                findings.append(
                    Finding(
                        REP101, subject, f"sampling fraction {fraction!r} is negative (Eq. 13)"
                    )
                )
            if unlinked[t]:
                findings.append(
                    Finding(
                        REP108,
                        subject,
                        f"samples {fraction:.6f} of the path, which exceeds"
                        f" e[{i},{node}] (Eq. 12)",
                    )
                )
        cam_req = np.repeat([rule.cam_req for rule in self.rules], width)
        cam_used = np.bincount(
            np.arange(len(e)) % width, np.where(e > MASS_TOL, cam_req * e, 0.0), minlength=width
        )
        mem_used = np.bincount(layout.node_of, layout.mem * d, minlength=width)
        cpu_used = np.bincount(layout.node_of, layout.cpu * d, minlength=width)
        for j, node_name in enumerate(nodes):
            node = self.topology.node(node_name)
            for resource, equation, used, capacity, relative in (
                ("TCAM", 8, cam_used, node.cam_capacity, 0.0),
                ("memory", 9, mem_used, node.mem_capacity, MASS_TOL),
                ("CPU", 10, cpu_used, node.cpu_capacity, MASS_TOL),
            ):
                need = float(used[j])
                if need > capacity * (1 + relative) + MASS_TOL:
                    findings.append(
                        Finding(
                            REP105,
                            f"{resource.lower()}@{node_name}",
                            f"{resource} capacity exceeded: needs {need:g},"
                            f" capacity is {capacity:g} (Eq. {equation})",
                        )
                    )
        totals = np.bincount(layout.rule_pair_of, d, minlength=len(rule_ids) * len(pairs))
        for c in np.flatnonzero(totals > 1.0 + MASS_TOL).tolist():
            findings.append(
                Finding(
                    REP101,
                    d_subject(rule_ids[c // len(pairs)], pairs[c % len(pairs)]),
                    f"sampling fractions sum to {float(totals[c])!r} > 1 (Eq. 11)",
                )
            )
        return findings

    def check_feasible(self, e: Sequence[float], d: Sequence[float]) -> List[str]:
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
    across ordered node pairs by the gravity model.  A problem has at
    least one rule (else a ``ValueError``).
    """
    from ..topology.gravity import gravity_fractions

    if not rules:
        raise ValueError("a NIPS problem needs at least one rule")

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


@dataclass(eq=False)
class NIPSLayout:
    """Where each ``e_ij`` and ``d_ikj`` of one problem sits in its vectors.

    ``e`` is rule-major over the topology's nodes: entry ``r·N + j`` is
    rule ``rule_ids[r]`` on ``nodes[j]``.  ``d`` is rule-major over the
    ``H`` (pair, on-path node) hops, each path's nodes in path order:
    entry ``r·H + h`` is rule ``rule_ids[r]`` on hop ``h``.  Per ``d``
    entry, ``rule_of`` / ``pair_of`` / ``node_of`` index ``rule_ids`` /
    ``pairs`` / ``nodes``, ``rule_pair_of`` indexes its (rule, pair)
    rule-major (``r·P + p``, Eq. 11's row) and ``enabler`` is the ``e``
    entry Eq. 12 links it to; ``items`` and ``dist`` are its ``T^items_ik`` and
    ``Dist_ikj``, ``value`` / ``mem`` / ``cpu`` its Eq. 7 / 9 / 10
    coefficients (``T^items · M_ik · Dist_ikj``, ``T^items · MemReq_i``,
    ``T^pkts · CpuReq_i``) and ``matched`` whether ``M_ik > 0``.
    """

    rule_ids: Tuple[int, ...]
    pairs: Tuple[Pair, ...]
    nodes: Tuple[str, ...]
    hops: int
    rule_of: np.ndarray
    pair_of: np.ndarray
    node_of: np.ndarray
    rule_pair_of: np.ndarray
    enabler: np.ndarray
    items: np.ndarray
    dist: np.ndarray
    value: np.ndarray
    mem: np.ndarray
    cpu: np.ndarray
    matched: np.ndarray

    @classmethod
    def of(cls, problem: NIPSProblem) -> "NIPSLayout":
        """*problem*'s layout: index columns and per-entry coefficients."""
        nodes = tuple(problem.topology.node_names)
        node_index = {name: j for j, name in enumerate(nodes)}
        pairs, rules = tuple(problem.pairs), problem.rules
        hops = [(p, node) for p, pair in enumerate(pairs) for node in problem.paths[pair].nodes]
        rule_of = np.repeat(np.arange(len(rules)), len(hops))
        pair_of = np.tile(np.array([p for p, _ in hops], dtype=np.intp), len(rules))
        node_of = np.tile(np.array([node_index[n] for _, n in hops], dtype=np.intp), len(rules))
        items = np.array([problem.items[pair] for pair in pairs])[pair_of]
        pkts = np.array([problem.pkts[pair] for pair in pairs])[pair_of]
        rate = np.array(
            [problem.match.rate(rule.index, pair) for rule in rules for pair in pairs]
        ).reshape(len(rules), len(pairs))[rule_of, pair_of]
        dist = np.tile([problem.dist[pairs[p]][node] for p, node in hops], len(rules))
        return cls(
            rule_ids=tuple(rule.index for rule in rules),
            pairs=pairs,
            nodes=nodes,
            hops=len(hops),
            rule_of=rule_of,
            pair_of=pair_of,
            node_of=node_of,
            rule_pair_of=rule_of * len(pairs) + pair_of,
            enabler=rule_of * len(nodes) + node_of,
            items=items,
            dist=dist,
            value=items * rate * dist,
            mem=items * np.array([rule.mem_req for rule in rules])[rule_of],
            cpu=pkts * np.array([rule.cpu_req for rule in rules])[rule_of],
            matched=rate > 0.0,
        )

    @property
    def num_e(self) -> int:
        """Length of an ``e`` vector."""
        return len(self.rule_ids) * len(self.nodes)

    @property
    def num_d(self) -> int:
        """Length of a ``d`` vector."""
        return len(self.rule_of)

    @cached_property
    def pair_major(self) -> np.ndarray:
        """The ``d`` entries in (pair, rule, path node) order."""
        return np.lexsort((self.rule_of, self.pair_of))

    def column(self, name: str, values: Sequence[float]) -> np.ndarray:
        """*values* as the float64 ``e`` or ``d`` vector *name*; a
        ``ValueError`` naming the expected length when it is not one."""
        expected = self.num_e if name == "e" else self.num_d
        column = np.asarray(values, dtype=np.float64)
        if column.shape != (expected,):
            raise ValueError(
                f"{name} has shape {column.shape}; this problem's layout has"
                f" {expected} {name} entries"
            )
        return column


@dataclass(eq=False)
class NIPSSolution:
    """A (possibly fractional) NIPS deployment: ``e`` and ``d`` as
    float64 vectors in the layout of the :class:`NIPSPolytope` it was
    solved on, which it carries so whoever rounds it next reuses that
    compile."""

    e: np.ndarray
    d: np.ndarray
    objective: float
    solve_seconds: float
    polytope: "NIPSPolytope" = field(repr=False)

    def enabled_rules(self, node: str, threshold: float = 0.5) -> List[int]:
        """Rule indices enabled on *node* (binary solutions only)."""
        layout = self.polytope.layout
        column = self.e[layout.nodes.index(node) :: len(layout.nodes)]
        return sorted(layout.rule_ids[r] for r in np.flatnonzero(column >= threshold).tolist())


@dataclass(eq=False)
class NIPSPolytope:
    """The ``d``-only polytope of one problem — Eqs. 9–11 and 13 with
    Eq. 7 as objective — compiled once.

    Its variables are the problem's ``d`` vector (:attr:`layout`).
    What Sections 3.3 and 3.5 re-solve is this program under other
    bounds (``e`` fixed makes Eq. 12 the bound ``d_ikj <= ê_ij``) or
    another cost vector (FPL's perturbed weights):
    ``compiled.with_bounds`` / ``with_cost``, which share its matrices.
    Whoever loops holds one for the length of the loop.
    """

    problem: NIPSProblem
    compiled: CompiledLP

    @property
    def layout(self) -> NIPSLayout:
        """The problem's ``e`` / ``d`` layout."""
        return self.problem.layout


def compile_nips_polytope(problem: NIPSProblem) -> NIPSPolytope:
    """The one statement of Eqs. 7 and 9–11, as index blocks over the
    problem's :class:`NIPSLayout`.

    Rows ``2k`` / ``2k + 1`` are the memory / CPU capacity of the
    ``k``-th node some path traverses, rows ``2K + r·P + p`` the
    sampling bound of (rule ``r``, pair ``p``).
    """
    layout = problem.layout
    rule_ids, pairs, node_names = layout.rule_ids, layout.pairs, layout.nodes
    rule_of, pair_of, node_of = layout.rule_of, layout.pair_of, layout.node_of

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
        layout.num_d,
        lambda: [
            f"d[{rule_ids[r]}|{pairs[p][0]}-{pairs[p][1]}|{node_names[j]}]"
            for r, p, j in zip(rule_of.tolist(), pair_of.tolist(), node_of.tolist())
        ],
        lb=0.0,
        ub=1.0,
    )
    lp.add_constraints(
        Relation.LE,
        rows=np.concatenate(
            (
                2 * rank[node_of],
                2 * rank[node_of] + 1,
                2 * len(on_path) + layout.rule_pair_of,
            )
        ),
        cols=np.tile(d, 3),
        data=np.concatenate((layout.mem, layout.cpu, np.ones(len(d)))),
        rhs=np.concatenate((capacities, np.ones(len(rule_ids) * len(pairs)))),
        names=lambda: [f"{kind}[{node_names[j]}]" for j in on_path for kind in ("mem", "cpu")]
        + [f"sample[{i}|{a}-{b}]" for i in rule_ids for a, b in pairs],
    )
    worth = np.flatnonzero(layout.value > 0.0)
    lp.set_objective(worth, layout.value[worth], Sense.MAXIMIZE)
    # Presolve removes no column of these rows and, with its postsolve and
    # re-solve, costs HiGHS more time than it saves (EXPERIMENTS.md §3.4).
    lp.presolve = False
    return NIPSPolytope(problem=problem, compiled=lp.compile())


@dataclass
class BuiltNIPSLP:
    """The full program (Eqs. 7–14): variables are the layout's ``e``
    vector then its ``d`` vector."""

    program: LinearProgram
    polytope: NIPSPolytope


def build_nips_lp(problem: NIPSProblem, integral: bool = False) -> BuiltNIPSLP:
    """Construct Eqs. 7–14: the ``e`` block, Eq. 12 and Eq. 8 wrapped
    around the compiled ``d``-only polytope.

    ``integral=False`` builds the LP relaxation (``0 <= e <= 1``),
    solved without presolve like the polytope's views; the integral
    program keeps it for branch-and-bound.  Rows are Eq. 12 (one per
    ``d``), Eq. 8 (one per node), then the polytope's own Eqs. 9–11.
    """
    polytope = compile_nips_polytope(problem)
    inner, layout = polytope.compiled, polytope.layout
    node_names = layout.nodes
    lp = LinearProgram("nips-deployment")
    e = lp.add_variables(
        layout.num_e,
        lambda: [f"e[{i}|{node}]" for i in layout.rule_ids for node in node_names],
        lb=0.0,
        ub=1.0,
    )
    if integral:
        lp.binary_indices.extend(e)
    else:
        lp.presolve = False
    d = lp.add_variables(
        inner.num_variables, lambda: list(inner.variable_names), lb=0.0, ub=1.0
    )
    # Eq. 12: d_ikj - e_ij <= 0.
    lp.add_constraints(
        Relation.LE,
        rows=np.tile(np.arange(len(d)), 2),
        cols=np.concatenate((d, e.start + layout.enabler)),
        data=np.repeat([1.0, -1.0], len(d)),
        rhs=np.zeros(len(d)),
        names=lambda: [
            f"link[{layout.rule_ids[r]}|{layout.pairs[p]}|{node_names[j]}]"
            for r, p, j in zip(
                layout.rule_of.tolist(), layout.pair_of.tolist(), layout.node_of.tolist()
            )
        ],
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
    values = solution.values
    split = built.polytope.layout.num_e
    return NIPSSolution(
        e=values[:split],
        d=values[split:],
        objective=solution.objective,
        solve_seconds=elapsed,
        polytope=built.polytope,
    )


def solve_with_fixed_rules(polytope: NIPSPolytope, fixed_e: Sequence[float]) -> NIPSSolution:
    """Solve the d-only LP given a binary rule placement ``ê`` (an ``e``
    vector; the "solve a second LP" improvement of Section 3.3).

    With ``e`` fixed Eq. 12 is the bound ``d_ikj <= ê_ij`` on the
    polytope; Eq. 8 has no ``d`` in it and stays the caller's
    :meth:`NIPSProblem.check`.  ``d`` is 0.0 off the enabled
    (rule, node) combinations.  A placement that enables nothing
    (possible when the TCAM budget is below one rule slot) filters
    nothing: the zero deployment is returned directly.
    """
    started = time.perf_counter()
    e = np.array(polytope.layout.column("e", fixed_e))
    upper = e[polytope.layout.enabler]
    if not upper.any():
        return NIPSSolution(
            e=e,
            d=np.zeros(len(upper)),
            objective=0.0,
            solve_seconds=time.perf_counter() - started,
            polytope=polytope,
        )
    solution = solve_or_raise(polytope.compiled.with_bounds(0.0, upper))
    return NIPSSolution(
        e=e,
        d=solution.values,
        objective=solution.objective,
        solve_seconds=time.perf_counter() - started,
        polytope=polytope,
    )


def solve_exact(problem: NIPSProblem) -> LPSolution:
    """The integer optimum ``OptNIPS``, proved by HiGHS's
    branch-and-bound (small instances / test baselines)."""
    return solve(build_nips_lp(problem, integral=True).program)
