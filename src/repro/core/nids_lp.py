"""The NIDS assignment LP (paper Section 2.2).

Decision variables ``d_ikj`` give the fraction of coordination unit
``P_ik``'s traffic that node ``R_j`` analyzes for class ``C_i``.  The
program minimizes the maximum per-node CPU/memory load while covering
every unit:

    min  max{CpuLoad, MemLoad}
    s.t. sum_j d_ikj = coverage           for all i, k        (Eq. 1)
         MemLoad_j = sum_ik mem_ik d_ikj / MemCap_j           (Eq. 2)
         CpuLoad_j = sum_ik cpu_ik d_ikj / CpuCap_j           (Eq. 3)
         CpuLoad >= CpuLoad_j, MemLoad >= MemLoad_j           (Eq. 4-5)
         0 <= d_ikj <= 1                                      (Eq. 6)

``coverage`` is 1 in the base formulation; the Section 2.5 redundancy
extension sets it to ``r`` so the hash space ``[0, r]`` is covered and
each point is analyzed by ``r`` distinct nodes (``d_ikj <= 1`` keeps a
node from covering the same point twice).  Units whose eligible set is
smaller than ``r`` are capped at their set size, which preserves
feasibility (a singleton unit simply cannot be replicated).

The per-unit coefficients ``cpu_ik`` / ``mem_ik`` are the measured
``CpuReq_i * T_ik^pkts`` and ``MemReq_i * T_ik^items`` products,
precomputed by :mod:`repro.core.units` from the trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..lp.model import LinearProgram, Relation, Sense
from ..lp.solver import solve_or_raise
from ..topology.graph import Topology
from .units import CoordinationUnit, UnitKey

FractionKey = Tuple[str, UnitKey, str]  # (class, unit key, node)


@dataclass
class NIDSAssignment:
    """Optimal ``d*`` fractions plus the per-node load profile."""

    fractions: Dict[FractionKey, float]
    cpu_load: Dict[str, float]
    mem_load: Dict[str, float]
    objective: float
    coverage: Dict[Tuple[str, UnitKey], float]
    solve_seconds: float

    def fraction(self, class_name: str, key: UnitKey, node: str) -> float:
        """``d*`` for (class, unit, node); 0 when absent."""
        return self.fractions.get((class_name, key, node), 0.0)

    @property
    def max_cpu_load(self) -> float:
        """Largest per-node CPU load."""
        return max(self.cpu_load.values()) if self.cpu_load else 0.0

    @property
    def max_mem_load(self) -> float:
        """Largest per-node memory load."""
        return max(self.mem_load.values()) if self.mem_load else 0.0

    def responsible_nodes(self, class_name: str, key: UnitKey) -> List[Tuple[str, float]]:
        """Nodes with positive responsibility for a unit, with fractions."""
        return [
            (node, value)
            for (c, k, node), value in self.fractions.items()
            if c == class_name and k == key and value > 1e-9
        ]


@dataclass
class BuiltNIDSLP:
    """The constructed LP plus the index layout needed to read it back.

    Variables ``d`` (a contiguous range) are the ``d_ikj`` in unit
    order, each unit's eligible nodes in ``P_ik`` order — the same
    order ``(unit, node) for unit in units for node in unit.eligible``
    enumerates.  ``cpu_load_cols[j]`` / ``mem_load_cols[j]`` are the
    columns of ``CpuLoad[j]`` / ``MemLoad[j]`` for the topology's
    ``j``-th node.
    """

    program: LinearProgram
    d: range
    cpu_load_cols: np.ndarray
    mem_load_cols: np.ndarray
    coverage: Dict[Tuple[str, UnitKey], float]


def check_coverage(coverage: float, name: str = "coverage") -> None:
    """``ValueError`` unless *coverage* is a redundancy level §2.5 can
    plan: an integer ``r >= 1``.

    Generation lays ``r`` laps of the hash space end to end; a
    fractional ``r`` leaves part of a lap short (caught only after the
    solve, as a REP101 fold), and an infinite one would silently plan
    ``r = |P_ik|`` for every unit.
    """
    if not (float(coverage).is_integer() and coverage >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {coverage!r}")


def build_nids_lp(
    units: Sequence[CoordinationUnit],
    topology: Topology,
    coverage: float = 1.0,
) -> BuiltNIDSLP:
    """Construct the Section 2.2 LP for *units* on *topology*.

    *coverage* > 1 activates the redundancy extension; each unit's
    effective coverage is ``min(coverage, |P_ik|)``.  A coverage that
    is not an integer ``>= 1`` is a ``ValueError`` (:func:`check_coverage`).

    The paper notes the load should be balanced "for a suitable
    balancing function" and adopts min-max for concreteness; so does
    this program: ``MaxLoad`` bounds ``CpuLoad`` and ``MemLoad`` from
    above and is the whole objective.

    Layout (index blocks, see :mod:`repro.lp.model`): variables
    ``[0, D)`` are the ``d_ikj``, then ``CpuLoad``, ``MemLoad``, the
    per-node ``CpuLoad[j]``/``MemLoad[j]`` pairs and ``MaxLoad``;
    equality rows ``[0, U)`` are Eq. 1, rows ``[U, U + 2N)`` the Eq. 2–3
    load definitions, CPU and memory alternating per node; inequality
    rows ``[0, 2N)`` are Eqs. 4–5 in the same alternation, then the two
    rows that put ``MaxLoad`` above ``CpuLoad`` and ``MemLoad``.  The
    ``d``-sized families are stated through ``unit_of``/``node_of``
    index arrays.
    """
    check_coverage(coverage)
    lp = LinearProgram("nids-assignment")
    node_names = topology.node_names
    node_index = {name: j for j, name in enumerate(node_names)}

    # unit_of[t] / node_of[t]: the unit and the node of the t-th d variable.
    sizes = np.fromiter((len(u.eligible) for u in units), dtype=np.intp, count=len(units))
    unit_of = np.repeat(np.arange(len(units)), sizes)
    node_of = np.fromiter(
        (node_index[node] for unit in units for node in unit.eligible),
        dtype=np.intp,
        count=int(sizes.sum()),
    )
    d = lp.add_variables(
        len(unit_of),
        lambda: [
            f"d[{unit.class_name}|{'/'.join(unit.key)}|{node}]"
            for unit in units
            for node in unit.eligible
        ],
        lb=0.0,
        ub=1.0,
    )
    per_unit_coverage = {
        unit.ident: min(coverage, float(len(unit.eligible))) for unit in units
    }
    lp.add_constraints(
        Relation.EQ,
        rows=unit_of,
        cols=d,
        data=np.ones(len(unit_of)),
        rhs=np.fromiter(per_unit_coverage.values(), dtype=np.float64, count=len(units)),
        names=lambda: [
            f"cover[{unit.class_name}|{'/'.join(unit.key)}]" for unit in units
        ],
    )

    nodes = np.arange(len(node_names))
    loads = lp.add_variables(
        2 * len(nodes) + 3,
        ["CpuLoad", "MemLoad"]
        + [f"{kind}Load[{name}]" for name in node_names for kind in ("Cpu", "Mem")]
        + ["MaxLoad"],
    )
    cpu_max, mem_max, target = loads[0], loads[1], loads[-1]
    cpu_load_cols = loads.start + 2 + 2 * nodes
    mem_load_cols = cpu_load_cols + 1

    # Eqs. 4–5, row 2j: CpuLoad - CpuLoad[j] >= 0, row 2j + 1 the same
    # for memory; then MaxLoad - CpuLoad >= 0 and MaxLoad - MemLoad >= 0.
    above = np.concatenate((np.tile([cpu_max, mem_max], len(nodes)), [target, target]))
    below = np.concatenate((loads[2:-1], [cpu_max, mem_max]))
    lp.add_constraints(
        Relation.GE,
        rows=np.tile(np.arange(len(above)), 2),
        cols=np.concatenate((above, below)),
        data=np.repeat([1.0, -1.0], len(above)),
        rhs=np.zeros(len(above)),
        names=[f"{kind}-max[{name}]" for name in node_names for kind in ("cpu", "mem")]
        + ["obj-cpu", "obj-mem"],
    )

    # Eq. 2–3, row 2j: CpuLoad[j] - sum_ik cpu_ik d_ikj / CpuCap_j = 0,
    # row 2j + 1 the same for memory.  The coefficient is written
    # ``0.0 - w * (1.0 / cap)`` because that is the arithmetic the
    # expression ``load_j - sum(d * w) / cap`` performs (a zero-work
    # unit gets +0.0, and ``w / cap`` can differ in the last bit), so
    # HiGHS sees the matrix the per-term model produced.
    cpu_work = np.fromiter((u.cpu_work for u in units), dtype=np.float64, count=len(units))
    mem_bytes = np.fromiter((u.mem_bytes for u in units), dtype=np.float64, count=len(units))
    per_cpu = np.array([1.0 / topology.node(name).cpu_capacity for name in node_names])
    per_mem = np.array([1.0 / topology.node(name).mem_capacity for name in node_names])
    lp.add_constraints(
        Relation.EQ,
        rows=np.concatenate((2 * nodes, 2 * nodes + 1, 2 * node_of, 2 * node_of + 1)),
        cols=np.concatenate((cpu_load_cols, mem_load_cols, d, d)),
        data=np.concatenate(
            (
                np.ones(2 * len(nodes)),
                0.0 - cpu_work[unit_of] * per_cpu[node_of],
                0.0 - mem_bytes[unit_of] * per_mem[node_of],
            )
        ),
        rhs=np.zeros(2 * len(nodes)),
        names=[f"{kind}-def[{name}]" for name in node_names for kind in ("cpu", "mem")],
    )

    lp.set_objective([target], [1.0], Sense.MINIMIZE)
    return BuiltNIDSLP(
        program=lp,
        d=d,
        cpu_load_cols=cpu_load_cols,
        mem_load_cols=mem_load_cols,
        coverage=per_unit_coverage,
    )


def solve_nids_lp(
    units: Sequence[CoordinationUnit],
    topology: Topology,
    coverage: float = 1.0,
) -> NIDSAssignment:
    """Build and solve the assignment LP, returning the ``d*`` profile.

    The LP is always feasible: ``d_ikj = coverage / |P_ik|`` satisfies
    every constraint, so a solver failure indicates a bug and raises.
    """
    started = time.perf_counter()
    built = build_nids_lp(units, topology, coverage)
    solution = solve_or_raise(built.program)
    elapsed = time.perf_counter() - started

    values = np.asarray(solution.values)
    # Clamp solver noise into [0, 1]; "+ 0.0" turns a -0.0 into 0.0.
    d_star = np.clip(values[built.d.start : built.d.stop], 0.0, 1.0) + 0.0
    fractions = dict(
        zip(
            (
                (unit.class_name, unit.key, node)
                for unit in units
                for node in unit.eligible
            ),
            d_star.tolist(),
        )
    )
    return NIDSAssignment(
        fractions=fractions,
        cpu_load=dict(zip(topology.node_names, values[built.cpu_load_cols].tolist())),
        mem_load=dict(zip(topology.node_names, values[built.mem_load_cols].tolist())),
        objective=solution.objective,
        coverage=built.coverage,
        solve_seconds=elapsed,
    )


def integral_assignment(
    units: Sequence[CoordinationUnit],
    topology: Topology,
) -> NIDSAssignment:
    """Whole-unit assignment (ablation for the fractional split).

    Assigns each coordination unit entirely to one eligible node —
    the least-loaded-first heuristic an operator without fractional
    hash-range splitting would use.  Quantifies what Eq. 6's
    "fractional split to provide more fine-grained opportunities for
    distributing the load" buys: with coarse units (one hot path can
    exceed a node's fair share) the integral max load is strictly
    worse than the LP optimum.
    """
    ordered = sorted(units, key=lambda u: -(u.cpu_work + u.mem_bytes))
    fractions: Dict[FractionKey, float] = {}
    per_unit_coverage: Dict[Tuple[str, UnitKey], float] = {}
    cpu_load = {name: 0.0 for name in topology.node_names}
    mem_load = {name: 0.0 for name in topology.node_names}
    for unit in ordered:
        per_unit_coverage[unit.ident] = 1.0
        best = min(
            unit.eligible,
            key=lambda node: max(
                cpu_load[node]
                + unit.cpu_work / topology.node(node).cpu_capacity,
                mem_load[node]
                + unit.mem_bytes / topology.node(node).mem_capacity,
            ),
        )
        fractions[(unit.class_name, unit.key, best)] = 1.0
        cpu_load[best] += unit.cpu_work / topology.node(best).cpu_capacity
        mem_load[best] += unit.mem_bytes / topology.node(best).mem_capacity
    objective = max(
        max(cpu_load.values(), default=0.0), max(mem_load.values(), default=0.0)
    )
    return NIDSAssignment(
        fractions=fractions,
        cpu_load=cpu_load,
        mem_load=mem_load,
        objective=objective,
        coverage=per_unit_coverage,
        solve_seconds=0.0,
    )


def uniform_assignment(
    units: Sequence[CoordinationUnit],
    topology: Topology,
    coverage: float = 1.0,
) -> NIDSAssignment:
    """The naive even split ``d_ikj = coverage/|P_ik|`` (ablation baseline).

    Ignores load: every eligible node takes an equal share.  Useful for
    quantifying what the LP's load-awareness buys.
    """
    fractions: Dict[FractionKey, float] = {}
    per_unit_coverage: Dict[Tuple[str, UnitKey], float] = {}
    cpu_load = {name: 0.0 for name in topology.node_names}
    mem_load = {name: 0.0 for name in topology.node_names}
    for unit in units:
        unit_coverage = min(coverage, float(len(unit.eligible)))
        per_unit_coverage[unit.ident] = unit_coverage
        share = unit_coverage / len(unit.eligible)
        for node in unit.eligible:
            fractions[(unit.class_name, unit.key, node)] = share
            spec = topology.node(node)
            cpu_load[node] += unit.cpu_work * share / spec.cpu_capacity
            mem_load[node] += unit.mem_bytes * share / spec.mem_capacity
    objective = max(
        max(cpu_load.values(), default=0.0), max(mem_load.values(), default=0.0)
    )
    return NIDSAssignment(
        fractions=fractions,
        cpu_load=cpu_load,
        mem_load=mem_load,
        objective=objective,
        coverage=per_unit_coverage,
        solve_seconds=0.0,
    )
