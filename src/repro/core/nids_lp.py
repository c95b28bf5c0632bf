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

A re-plan solves a program much like the last one.  Inside
:func:`hold_start`, :func:`solve_nids_lp` starts from the held
:class:`WarmStart`'s last final basis, mapped onto the new program by
label (:meth:`NIDSBasis.mapped`), and leaves its own final basis there;
outside one it solves cold and reads no basis back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..lp.model import LinearProgram, Relation, Sense
from ..lp.solver import BASIS_BASIC, BASIS_LOWER, Basis, solve_or_raise
from ..topology.graph import Topology
from .manifest_table import EntryKey
from .units import UnitKey, Units, UnitTable, unit_label


@dataclass(eq=False)
class NIDSAssignment:
    """Optimal ``d*`` as the solver's columns, plus the per-node load profile.

    Entry ``t`` says ``d_ikj = value[t]`` for the unit ``units[unit_of[t]]``
    (a ``(class, key)`` ident) on the node ``nodes[node_of[t]]``.  Entries
    are grouped by unit in table order and name a (unit, node) pair at
    most once; a pair without an entry is 0.0.  A solve holds
    :func:`build_nids_lp`'s ``d`` slice as it is: every eligible pair,
    zeros included, each unit's nodes in path order.

    The ``(class, key, node)`` triple is this module's alone: built by
    :meth:`from_triples`, read back in bulk by :meth:`gather` and
    :meth:`sorted_order`, one unit at a time by :meth:`fraction` and
    :meth:`responsible_nodes`.
    """

    units: Tuple[EntryKey, ...]
    nodes: Tuple[str, ...]
    unit_of: np.ndarray
    node_of: np.ndarray
    value: np.ndarray
    cpu_load: Dict[str, float]
    mem_load: Dict[str, float]
    objective: float
    coverage: Dict[EntryKey, float]
    solve_seconds: float

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Tuple[str, Sequence[str], str, float]],
        coverage: Mapping[EntryKey, float],
        cpu_load: Optional[Mapping[str, float]] = None,
        mem_load: Optional[Mapping[str, float]] = None,
        objective: float = 0.0,
        solve_seconds: float = 0.0,
    ) -> "NIDSAssignment":
        """The assignment with ``d*[class, key, node] = value`` for each
        ``(class, key, node, value)`` of *triples*, units and nodes in
        first-seen order.  A (class, key, node) given twice, or a value
        that is not a number, is a ``ValueError`` naming the entry."""
        unit_ids: Dict[EntryKey, int] = {}
        node_ids: Dict[str, int] = {}
        entries: Dict[Tuple[int, int], float] = {}
        for class_name, key, node, value in triples:
            ident = (class_name, tuple(key))
            u = unit_ids.setdefault(ident, len(unit_ids))
            k = node_ids.setdefault(node, len(node_ids))
            if (u, k) in entries:
                raise ValueError(
                    f"assignment lists d* of {unit_label(ident)}@{node} twice"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"d* of {unit_label(ident)}@{node} is {value!r}, not a number"
                )
            entries[u, k] = value
        unit_col = np.array([u for u, _ in entries], dtype=np.intp)
        grouped = np.argsort(unit_col, kind="stable")
        return cls(
            units=tuple(unit_ids),
            nodes=tuple(node_ids),
            unit_of=unit_col[grouped],
            node_of=np.array([k for _, k in entries], dtype=np.intp)[grouped],
            value=np.array(list(entries.values()), dtype=np.float64)[grouped],
            cpu_load=dict(cpu_load or {}),
            mem_load=dict(mem_load or {}),
            objective=objective,
            coverage=dict(coverage),
            solve_seconds=solve_seconds,
        )

    @property
    def max_cpu_load(self) -> float:
        """Largest per-node CPU load."""
        return max(self.cpu_load.values()) if self.cpu_load else 0.0

    @property
    def max_mem_load(self) -> float:
        """Largest per-node memory load."""
        return max(self.mem_load.values()) if self.mem_load else 0.0

    # -- the index joins ----------------------------------------------------
    @cached_property
    def _unit_ids(self) -> Dict[EntryKey, int]:
        return {ident: u for u, ident in enumerate(self.units)}

    def unit_ids(self, idents: Iterable[EntryKey]) -> np.ndarray:
        """Index into :attr:`units` of each of *idents* (``-1``: absent)."""
        index = self._unit_ids
        return np.fromiter(
            (index.get(ident, -1) for ident in idents), dtype=np.intp
        )

    def gather(self, units: Units) -> np.ndarray:
        """``d*`` in *units*' (unit, eligible node) order — the order of
        :func:`build_nids_lp`'s ``d`` for them — joined on the unit and
        node tables; a unit or node the assignment lacks reads 0.0."""
        table = UnitTable.of(units)
        unit = np.repeat(self.unit_ids(table.idents), table.sizes)
        node = table.codes_in(self.nodes)
        at, found = _find_pairs(
            self.unit_of, self.node_of, unit, node, len(self.nodes)
        )
        return np.where(found, np.append(self.value, 0.0)[at], 0.0)

    def sorted_order(self) -> np.ndarray:
        """The entries in ``(class, key, node)`` order: the order the
        sorted triples come in."""
        return np.lexsort(
            (_ranks(self.nodes)[self.node_of], _ranks(self.units)[self.unit_of])
        )

    # -- one unit ---------------------------------------------------------------
    def _entries(self, class_name: str, key: UnitKey) -> List[Tuple[str, float]]:
        """The unit's (node, ``d*``) entries, in column order."""
        u = self._unit_ids.get((class_name, key))
        if u is None:
            return []
        lo, hi = np.searchsorted(self.unit_of, [u, u + 1]).tolist()
        nodes, values = self.node_of[lo:hi].tolist(), self.value[lo:hi].tolist()
        return [(self.nodes[k], value) for k, value in zip(nodes, values)]

    def fraction(self, class_name: str, key: UnitKey, node: str) -> float:
        """``d*`` for (class, unit, node); 0 when absent."""
        entries = self._entries(class_name, key)
        return next((value for name, value in entries if name == node), 0.0)

    def responsible_nodes(
        self, class_name: str, key: UnitKey
    ) -> List[Tuple[str, float]]:
        """Nodes with positive responsibility for a unit, with fractions."""
        entries = self._entries(class_name, key)
        return [(node, value) for node, value in entries if value > 1e-9]


def _find_pairs(
    unit_of: np.ndarray,
    node_of: np.ndarray,
    unit: np.ndarray,
    node: np.ndarray,
    num_nodes: int,
):
    """Where each wanted (*unit*, *node*) sits among the entries
    (*unit_of*, *node_of*), and whether it is there at all (a ``-1``
    unit or node never is): one join on ``unit * num_nodes + node``,
    which names one pair.  A position indexes the entries with one
    slot appended; it means something only where found."""
    wanted = np.where((unit >= 0) & (node >= 0), unit * num_nodes + node, -1)
    pairs = np.append(unit_of * num_nodes + node_of, -1)
    order = np.argsort(pairs)
    at = order[np.minimum(np.searchsorted(pairs, wanted, sorter=order), len(pairs) - 1)]
    found = (pairs[at] == wanted) & (wanted >= 0)
    return at, found


def _ranks(items: Sequence) -> np.ndarray:
    """Each item's position in ``sorted(items)``."""
    ranks = np.empty(len(items), dtype=np.intp)
    ranks[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    return ranks


@dataclass
class BuiltNIDSLP:
    """The constructed LP plus the index layout needed to read it back.

    Variables ``d`` (a contiguous range) are the ``d_ikj`` in unit
    order, each unit's eligible nodes in ``P_ik`` order — the order of
    the unit table's CSR entries; ``d[t]`` is unit ``unit_of[t]``'s share on the
    topology's ``node_of[t]``-th node.  ``cpu_load_cols[j]`` /
    ``mem_load_cols[j]`` are the columns of ``CpuLoad[j]`` /
    ``MemLoad[j]`` for the topology's ``j``-th node.
    """

    program: LinearProgram
    d: range
    unit_of: np.ndarray
    node_of: np.ndarray
    cpu_load_cols: np.ndarray
    mem_load_cols: np.ndarray
    coverage: Dict[EntryKey, float]


def _node_codes(units: UnitTable, names: Sequence[str]) -> np.ndarray:
    """:meth:`UnitTable.codes_in` *names*, a node not there a ``KeyError``."""
    codes = units.codes_in(names)
    if (codes < 0).any():
        raise KeyError(units.nodes[units.codes[int(np.argmin(codes))]])
    return codes


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
    units: Units,
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
    units = UnitTable.of(units)
    lp = LinearProgram("nids-assignment")
    node_names = topology.node_names

    # unit_of[t] / node_of[t]: the unit and the node of the t-th d variable.
    unit_of = units.owner
    node_of = _node_codes(units, node_names)
    d = lp.add_variables(
        len(unit_of),
        lambda: [
            f"d[{class_name}|{'/'.join(key)}|{node}]"
            for (class_name, key), eligible in zip(units.idents, units.eligible)
            for node in eligible
        ],
        lb=0.0,
        ub=1.0,
    )
    per_unit_coverage = {
        ident: min(coverage, float(size))
        for ident, size in zip(units.idents, units.sizes.tolist())
    }
    lp.add_constraints(
        Relation.EQ,
        rows=unit_of,
        cols=d,
        data=np.ones(len(unit_of)),
        rhs=np.fromiter(per_unit_coverage.values(), dtype=np.float64, count=len(units)),
        names=lambda: [
            f"cover[{class_name}|{'/'.join(key)}]" for class_name, key in units.idents
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
    cpu_work, mem_bytes = units.cpu_work, units.mem_bytes
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
        unit_of=unit_of,
        node_of=node_of,
        cpu_load_cols=cpu_load_cols,
        mem_load_cols=mem_load_cols,
        coverage=per_unit_coverage,
    )


@dataclass(frozen=True)
class NIDSBasis:
    """A solved assignment LP's final basis, with the labels that map it
    onto another program: the unit idents and node names, and
    :class:`BuiltNIDSLP`'s ``unit_of`` / ``node_of`` of its ``d``."""

    idents: Tuple[EntryKey, ...]
    nodes: Tuple[str, ...]
    unit_of: np.ndarray
    node_of: np.ndarray
    basis: Basis

    def mapped(
        self, units: UnitTable, nodes: Tuple[str, ...], built: BuiltNIDSLP
    ) -> Tuple[Optional[Basis], float]:
        """This basis as a start for *built* (the program of *units* on
        *nodes*), and the share of *built*'s ``d`` columns it has a
        status for.

        ``d`` columns are matched by (unit ident, node) and cover rows
        by ident; the load columns and the load and max rows, which
        depend only on the nodes, by position.  An unmatched column
        starts nonbasic at its lower bound (0), an unmatched cover row
        basic; the solver repairs the basic count.  Another node table
        matches nothing (``None``).
        """
        if nodes != self.nodes:
            return None, 0.0
        num_d, num_nodes = len(built.d), len(nodes)
        col_status = np.full(built.program.num_variables, BASIS_LOWER, dtype=np.int8)
        index = {ident: u for u, ident in enumerate(self.idents)}
        old_unit = np.fromiter(
            (index.get(ident, -1) for ident in units.idents),
            dtype=np.intp,
            count=len(units),
        )
        at, found = _find_pairs(
            self.unit_of, self.node_of, old_unit[built.unit_of], built.node_of,
            num_nodes,
        )
        old_cols, old_rows = self.basis.col_status, self.basis.row_status
        old_d = len(self.unit_of)
        col_status[:num_d][found] = old_cols[at[found]]
        col_status[num_d:] = old_cols[old_d:]
        # Backend rows: the 2N + 2 inequalities, then Eq. 1's cover rows
        # (one per unit), then the 2N load definitions.
        ineq = 2 * num_nodes + 2
        cover = np.full(len(units), BASIS_BASIC, dtype=np.int8)
        known = old_unit >= 0
        cover[known] = old_rows[ineq + old_unit[known]]
        row_status = np.concatenate(
            (old_rows[:ineq], cover, old_rows[len(old_rows) - 2 * num_nodes :])
        )
        overlap = float(np.count_nonzero(found)) / num_d if num_d else 0.0
        return Basis(col_status, row_status), overlap


class WarmStart:
    """One planner's simplex start: the final basis of its last solve
    inside :func:`hold_start`, and whether the next one may start from it.

    A solve starts from :attr:`last` mapped onto its program when the
    mapped ``d`` columns make up at least *min_overlap* of it; otherwise
    it solves cold, and :attr:`outcome` names why: ``"no-basis"`` (none
    held) or ``"low-overlap"``.  A warm solve's outcome is ``"warm"``.
    """

    def __init__(self, min_overlap: float):
        self.min_overlap = min_overlap
        self.last: Optional[NIDSBasis] = None
        #: How the last solve started (``None``: no solve yet).
        self.outcome: Optional[str] = None

    def start_for(
        self, units: UnitTable, nodes: Tuple[str, ...], built: BuiltNIDSLP
    ) -> Optional[Basis]:
        """The start for *built* (see :meth:`NIDSBasis.mapped`), or
        ``None`` to solve cold; sets :attr:`outcome`."""
        if self.last is None:
            self.outcome = "no-basis"
            return None
        start, overlap = self.last.mapped(units, nodes, built)
        if start is None or overlap < self.min_overlap:
            self.outcome = "low-overlap"
            return None
        self.outcome = "warm"
        return start


#: The start :func:`solve_nids_lp` reads (set by :func:`hold_start`).
_held: Optional[WarmStart] = None


@contextmanager
def hold_start(start: WarmStart) -> Iterator[WarmStart]:
    """Scope *start* around the solves of a block: every
    :func:`solve_nids_lp` in it starts from *start* and leaves its final
    basis there, whoever calls it."""
    global _held
    previous, _held = _held, start
    try:
        yield start
    finally:
        _held = previous


def solve_nids_lp(
    units: Units,
    topology: Topology,
    coverage: float = 1.0,
) -> NIDSAssignment:
    """Build and solve the assignment LP, returning the ``d*`` profile.

    The LP is always feasible: ``d_ikj = coverage / |P_ik|`` satisfies
    every constraint, so a solver failure indicates a bug and raises.
    Inside :func:`hold_start` the solve starts from the held basis (see
    :class:`WarmStart`) and leaves its own there.
    """
    started = time.perf_counter()
    units = UnitTable.of(units)
    built = build_nids_lp(units, topology, coverage)
    held = _held
    if held is None:
        solution = solve_or_raise(built.program)
    else:
        nodes = tuple(topology.node_names)
        start = held.start_for(units, nodes, built)
        solution = solve_or_raise(built.program, start=start, read_basis=True)
        held.last = None
        if solution.basis is not None:
            held.last = NIDSBasis(
                units.idents, nodes, built.unit_of, built.node_of, solution.basis
            )
    elapsed = time.perf_counter() - started

    values = solution.values
    # Clamp solver noise into [0, 1]; "+ 0.0" turns a -0.0 into 0.0.
    d_star = np.clip(values[built.d.start : built.d.stop], 0.0, 1.0) + 0.0
    return NIDSAssignment(
        units=units.idents,
        nodes=tuple(topology.node_names),
        unit_of=built.unit_of,
        node_of=built.node_of,
        value=d_star,
        cpu_load=dict(zip(topology.node_names, values[built.cpu_load_cols].tolist())),
        mem_load=dict(zip(topology.node_names, values[built.mem_load_cols].tolist())),
        objective=solution.objective,
        coverage=built.coverage,
        solve_seconds=elapsed,
    )


def integral_assignment(
    units: Units,
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
    triples = []
    per_unit_coverage: Dict[EntryKey, float] = {}
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
        triples.append((unit.class_name, unit.key, best, 1.0))
        cpu_load[best] += unit.cpu_work / topology.node(best).cpu_capacity
        mem_load[best] += unit.mem_bytes / topology.node(best).mem_capacity
    objective = max(
        max(cpu_load.values(), default=0.0), max(mem_load.values(), default=0.0)
    )
    return NIDSAssignment.from_triples(
        triples, per_unit_coverage, cpu_load, mem_load, objective
    )


def uniform_assignment(
    units: Units,
    topology: Topology,
    coverage: float = 1.0,
) -> NIDSAssignment:
    """The naive even split ``d_ikj = coverage/|P_ik|`` (ablation baseline).

    Ignores load: every eligible node takes an equal share.  Useful for
    quantifying what the LP's load-awareness buys.  Each node's loads
    are ``np.bincount`` folds over the units' entries in table order.
    """
    units = UnitTable.of(units)
    names, owner = topology.node_names, units.owner
    node = _node_codes(units, names)
    per_unit = [min(coverage, float(size)) for size in units.sizes.tolist()]
    share = (np.array(per_unit, dtype=np.float64) / units.sizes)[owner]
    cpu_cap = np.array([topology.node(n).cpu_capacity for n in names], dtype=float)
    mem_cap = np.array([topology.node(n).mem_capacity for n in names], dtype=float)
    cpu = np.bincount(node, units.cpu_work[owner] * share / cpu_cap[node], len(names))
    mem = np.bincount(node, units.mem_bytes[owner] * share / mem_cap[node], len(names))
    cpu_load, mem_load = dict(zip(names, cpu.tolist())), dict(zip(names, mem.tolist()))
    objective = max(
        max(cpu_load.values(), default=0.0), max(mem_load.values(), default=0.0)
    )
    triples = [
        (*units.idents[u], units.nodes[k], value)
        for u, k, value in zip(owner.tolist(), units.codes.tolist(), share.tolist())
    ]
    return NIDSAssignment.from_triples(
        triples, dict(zip(units.idents, per_unit)), cpu_load, mem_load, objective
    )
