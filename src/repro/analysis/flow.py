"""Cross-module determinism & protocol flow pass (REP201, REP202, REP206).

The repo's load-bearing guarantee — consolidated and streamed
reports bit-identical to the inline oracle — is enforced dynamically by
equality tests.  Those tests can only catch a nondeterminism source the
moment it actually bites.  This pass proves the absence of whole defect
classes *statically*: it builds the package call graph
(:mod:`repro.analysis.callgraph`), computes which functions are
reachable from the report-producing entrypoints, and flags the patterns
that make a report depend on more than its inputs and seeds:

======  ==============================================================
Rule    What it catches
======  ==============================================================
REP201  wall-clock reads (``time.*``, ``datetime.now``) reachable from
        report entrypoints outside allowlisted ``*_seconds`` /
        ``*_per_second`` timing sites
REP202  nondeterministic iteration feeding reports: bare ``set``
        iteration, unsorted ``os.listdir`` / ``glob`` / ``scandir``,
        ``dict.popitem``
REP206  control-plane protocol drift: message kinds sent on the
        ``Bus`` vs the declared :data:`repro.control.protocol.PROTOCOL`
        table vs the dispatch sites that handle them
======  ==============================================================

Run as ``repro analysis flow src/repro``; same suppression comments
(``# repnoqa: REP202 -- reason``), renderers, and exit-code contract
(0 clean / 1 findings / 2 usage) as ``repro analysis lint``.  Both
passes share the :mod:`~repro.analysis.astcache` parse store, so
running them back to back parses the package once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .astcache import ASTStore, DEFAULT_STORE
from .callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    build_callgraph,
    dotted_name,
)
from .lint import (
    LintResult,
    Violation,
    _parse_suppressions,
    _suppressed,
    find_project_root,
    iter_python_files,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

FLOW_RULE_IDS: Tuple[str, ...] = ("REP201", "REP202", "REP206")

FLOW_CATALOGUE: Dict[str, str] = {
    "REP201": (
        "wall-clock read reachable from a report entrypoint outside an"
        " allowlisted *_seconds/*_per_second timing site"
    ),
    "REP202": (
        "nondeterministic iteration order (set / os.listdir / glob /"
        " dict.popitem) in report-reachable code"
    ),
    "REP206": (
        "control-plane protocol drift between Bus sends, the declared"
        " PROTOCOL table, and dispatch handling"
    ),
}


@dataclass(frozen=True)
class FlowConfig:
    """Entrypoints and allowlists anchoring the reachability rules.

    The defaults describe this repo; tests analyzing synthetic packages
    pass their own instance.  Unknown entrypoints are reported as
    errors (not silently dropped) so a rename cannot quietly disable a
    rule.
    """

    report_entrypoints: Tuple[str, ...] = (
        "repro.nids.emulation.run_emulation",
        "repro.sweep.worker.run_cell_payload",
        "repro.nids.engine.PartialInstanceReport.merge",
        "repro.nids.engine.PartialInstanceReport.finalize",
    )
    #: Modules whose wall-clock reads are categorically timing-layer
    #: (REP201) — the metrics primitives themselves.
    timing_allowlist_modules: Tuple[str, ...] = ("repro.obs.metrics",)
    #: Module declaring the control-plane ``PROTOCOL`` table (REP206);
    #: skipped when absent from the analyzed file set.
    protocol_module: str = "repro.control.protocol"
    #: Functions whose ``message.kind == ...`` comparisons count as
    #: protocol dispatch.
    dispatch_sites: Tuple[str, ...] = (
        "repro.control.controller.Controller._drain",
        "repro.control.replication.ReplicatedLog.receive",
        "repro.control.agent.Agent.step",
    )
    #: Record types a bus-free state machine returns its messages as:
    #: constructing one (kind as the second argument or ``kind=``)
    #: counts as sending that kind.
    outbound_records: Tuple[str, ...] = ("repro.control.replication.Outbound",)
    #: Functions that relay such records onto the bus; there, and only
    #: there, a send whose kind is not a static string is the relay.
    relay_sites: Tuple[str, ...] = ("repro.control.controller.Controller._apply",)


# --------------------------------------------------------------------------
# shared helpers


_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_TIMING_TOKENS = ("_seconds", "_per_second")

_UNORDERED_SOURCES = {
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
}

#: Consumers whose result does not depend on iteration order.  ``sum``
#: is not one (float addition is not associative); only a counting sum,
#: ``sum(<int literal> for ...)``, is exempt (:func:`_counting_sum`).
_ORDER_INSENSITIVE = {
    "sorted",
    "min",
    "max",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}

def _parents(info: FunctionInfo) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(info.node):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _canonical(graph: CallGraph, module: ModuleInfo, node: ast.AST) -> Optional[str]:
    text = dotted_name(node)
    return graph.canonical_text(module, text) if text is not None else None


# --------------------------------------------------------------------------
# REP201 — wall-clock reads on report paths


def _has_timing_token(info: FunctionInfo) -> bool:
    node = info.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    docstring_node: Optional[ast.AST] = None
    if (
        node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    ):
        docstring_node = node.body[0].value
    for sub in ast.walk(node):
        token: Optional[str] = None
        if isinstance(sub, ast.Name):
            token = sub.id
        elif isinstance(sub, ast.Attribute):
            token = sub.attr
        elif isinstance(sub, ast.keyword) and sub.arg:
            token = sub.arg
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub is not docstring_node
        ):
            token = sub.value
        if token and any(mark in token for mark in _TIMING_TOKENS):
            return True
    return False


def _check_rep201(
    graph: CallGraph,
    origins: Dict[str, str],
    config: FlowConfig,
) -> List[Violation]:
    findings: List[Violation] = []
    token_cache: Dict[str, bool] = {}

    def has_token(qual: str) -> bool:
        if qual not in token_cache:
            token_cache[qual] = _has_timing_token(graph.functions[qual])
        return token_cache[qual]

    for qualname, entry in origins.items():
        info = graph.functions[qualname]
        module = graph.modules[info.module]
        if module.name in config.timing_allowlist_modules:
            continue
        clock_calls = [
            (node, canonical)
            for node in ast.walk(info.node)
            if isinstance(node, ast.Call)
            for canonical in (_canonical(graph, module, node.func),)
            if canonical in _CLOCK_CALLS
        ]
        if not clock_calls:
            continue
        # A declared timing site either names the *_seconds family
        # itself or hands the reading to a helper that does (the
        # read-here/record-there split in the engine's trace paths).
        if has_token(qualname) or any(has_token(c) for c in info.calls):
            continue
        for node, canonical in clock_calls:
            findings.append(
                Violation(
                    rule_id="REP201",
                    path=info.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"wall-clock read `{canonical}` in `{qualname}`,"
                        f" reachable from report entrypoint `{entry}`;"
                        " wall time must only feed *_seconds/*_per_second"
                        " metric families"
                    ),
                )
            )
    return findings


# --------------------------------------------------------------------------
# REP202 — unordered iteration on report paths


class _SetTyping:
    """Per-function inference of 'this expression iterates unordered'."""

    def __init__(self, graph: CallGraph, module: ModuleInfo, info: FunctionInfo) -> None:
        self.graph = graph
        self.module = module
        self.info = info
        self.set_locals: Set[str] = set()
        # Two passes so ``a = set(); b = a`` propagates one level.
        for _ in range(2):
            for sub in ast.walk(info.node):
                value: Optional[ast.AST] = None
                targets: List[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    value, targets = sub.value, list(sub.targets)
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    value, targets = sub.value, [sub.target]
                if value is None or not self.is_unordered(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.set_locals.add(target.id)

    def is_unordered(self, node: ast.AST, depth: int = 0) -> bool:
        if depth > 6:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_locals
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_unordered(node.left, depth + 1) or self.is_unordered(
                node.right, depth + 1
            )
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.info.class_name is not None
                and node.attr
                in self.module.set_attrs.get(self.info.class_name, set())
            ):
                return True
            return False
        if isinstance(node, ast.Call):
            text = dotted_name(node.func)
            if text is not None:
                leaf = text.rsplit(".", 1)[-1]
                if leaf in {"set", "frozenset"}:
                    return True
                canonical = self.graph.canonical_text(self.module, text)
                if canonical in _UNORDERED_SOURCES:
                    return True
                resolved = self.graph.resolve(self.module, text, self.info)
                if resolved is not None and self._returns_set(resolved):
                    return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _SET_METHODS:
                    return True
                if node.func.attr == "keys" or node.func.attr == "values":
                    return False  # dicts preserve insertion order
                # ``x.alert_keys()``-style accessors: bare-name lookup
                # against known set-returning functions.
                for qual in self.graph.by_bare_name.get(node.func.attr, ()):
                    if self._returns_set(qual):
                        return True
        return False

    def _returns_set(self, qualname: str) -> bool:
        target = self.graph.functions.get(qualname)
        if target is None:
            return False
        owner = self.graph.modules.get(target.module)
        if owner is None:
            return False
        key = (
            f"{target.class_name}.{target.name}" if target.class_name else target.name
        )
        return key in owner.set_returning


def _counting_sum(call: ast.Call, node: ast.AST) -> bool:
    """``sum(<int literal> for ...)``: a count, exact in any order."""
    return (
        isinstance(call.func, ast.Name)
        and call.func.id == "sum"
        and isinstance(node, (ast.GeneratorExp, ast.ListComp))
        and isinstance(node.elt, ast.Constant)
        and type(node.elt.value) is int
    )


def _consumed_order_insensitively(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> bool:
    parent = parents.get(node)
    if isinstance(parent, ast.Call):
        text = dotted_name(parent.func)
        if text is not None and text.rsplit(".", 1)[-1] in _ORDER_INSENSITIVE:
            return True
        return _counting_sum(parent, node)
    return False


def _check_rep202(
    graph: CallGraph,
    origins: Dict[str, str],
    config: FlowConfig,
) -> List[Violation]:
    findings: List[Violation] = []

    def flag(info: FunctionInfo, node: ast.AST, what: str, entry: str) -> None:
        findings.append(
            Violation(
                rule_id="REP202",
                path=info.path,
                line=getattr(node, "lineno", info.lineno),
                col=getattr(node, "col_offset", 0),
                message=(
                    f"{what} in `{info.qualname}`, reachable from report"
                    f" entrypoint `{entry}`; sort (or otherwise fix the"
                    " order) before results can feed a report"
                ),
            )
        )

    for qualname, entry in origins.items():
        info = graph.functions[qualname]
        module = graph.modules[info.module]
        typing = _SetTyping(graph, module, info)
        parents = _parents(info)
        for node in ast.walk(info.node):
            if isinstance(node, ast.For):
                if typing.is_unordered(node.iter):
                    flag(info, node, "iteration over an unordered collection", entry)
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if any(typing.is_unordered(gen.iter) for gen in node.generators):
                    if not _consumed_order_insensitively(node, parents):
                        flag(
                            info,
                            node,
                            "comprehension over an unordered collection",
                            entry,
                        )
            elif isinstance(node, ast.Call):
                text = dotted_name(node.func)
                leaf = text.rsplit(".", 1)[-1] if text else (
                    node.func.attr if isinstance(node.func, ast.Attribute) else None
                )
                if leaf == "popitem" and isinstance(node.func, ast.Attribute):
                    flag(info, node, "`dict.popitem()` (order-dependent)", entry)
                elif leaf in {"list", "tuple", "enumerate", "zip", "map", "join"}:
                    if any(typing.is_unordered(arg) for arg in node.args):
                        if not _consumed_order_insensitively(node, parents):
                            flag(
                                info,
                                node,
                                f"`{leaf}(...)` over an unordered collection",
                                entry,
                            )
    return findings


# --------------------------------------------------------------------------
# REP206 — control-plane protocol conformance


@dataclass(frozen=True)
class _DeclaredKind:
    kind: str
    implicit: bool
    line: int


def _kind_value(
    graph: CallGraph, module: ModuleInfo, node: ast.AST
) -> Optional[str]:
    """Static string value of a message-kind expression, if derivable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    text = dotted_name(node)
    if text is None:
        return None
    if "." not in text and text in module.string_constants:
        return module.string_constants[text]
    canonical = graph.canonical_text(module, text)
    owner, remainder = graph._split_module(canonical)
    if owner is not None and len(remainder) == 1:
        return graph.modules[owner].string_constants.get(remainder[0])
    return None


def _declared_protocol(
    graph: CallGraph, config: FlowConfig
) -> Optional[Tuple[str, Dict[str, _DeclaredKind]]]:
    module = graph.modules.get(config.protocol_module)
    if module is None:
        return None
    declared: Dict[str, _DeclaredKind] = {}
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "MessageSpec"
        ):
            continue
        kind: Optional[str] = None
        implicit = False
        if node.args:
            kind = _kind_value(graph, module, node.args[0])
        for keyword in node.keywords:
            if keyword.arg == "kind":
                kind = _kind_value(graph, module, keyword.value)
            elif keyword.arg == "implicit":
                implicit = (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                )
        if kind is not None:
            declared[kind] = _DeclaredKind(kind=kind, implicit=implicit, line=node.lineno)
    return module.path, declared


def _check_rep206(graph: CallGraph, config: FlowConfig) -> List[Violation]:
    table = _declared_protocol(graph, config)
    if table is None:
        return []  # no protocol module in the analyzed set: rule not applicable
    protocol_path, declared = table

    findings: List[Violation] = []
    sent: Dict[str, Tuple[FunctionInfo, int, int]] = {}
    handled: Dict[str, Tuple[FunctionInfo, int, int]] = {}

    for info in graph.functions.values():
        module = graph.modules[info.module]
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = dotted_name(func)
            if callee is None:
                continue
            canonical = graph.canonical_text(module, callee)
            if "." not in canonical:
                canonical = f"{module.name}.{canonical}"
            if canonical in config.outbound_records:
                position = 1
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "send"
                and "bus" in callee.lower()
            ):
                position = 2
            else:
                continue
            kind_node: Optional[ast.AST] = None
            if len(node.args) > position:
                kind_node = node.args[position]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "kind":
                        kind_node = keyword.value
            if kind_node is None:
                continue
            kind = _kind_value(graph, module, kind_node)
            if kind is None and info.qualname in config.relay_sites:
                continue  # relays records whose construction was the send
            if kind is None:
                findings.append(
                    Violation(
                        rule_id="REP206",
                        path=info.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"bus send in `{info.qualname}` uses a message"
                            " kind the analyzer cannot resolve statically;"
                            " use a literal or a repro.control.protocol"
                            " constant"
                        ),
                    )
                )
                continue
            sent.setdefault(kind, (info, node.lineno, node.col_offset))

    for qualname in config.dispatch_sites:
        info = graph.functions.get(qualname)
        if info is None:
            continue
        module = graph.modules[info.module]
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            left = node.left
            if not (isinstance(left, ast.Attribute) and left.attr == "kind"):
                continue
            op = node.ops[0]
            comparator = node.comparators[0]
            kind_nodes: List[ast.AST] = []
            if isinstance(op, ast.Eq):
                kind_nodes = [comparator]
            elif isinstance(op, ast.In) and isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                kind_nodes = list(comparator.elts)
            for kind_node in kind_nodes:
                kind = _kind_value(graph, module, kind_node)
                if kind is not None:
                    handled.setdefault(kind, (info, node.lineno, node.col_offset))

    for kind, (info, line, col) in sorted(sent.items()):
        if kind not in declared:
            findings.append(
                Violation(
                    rule_id="REP206",
                    path=info.path,
                    line=line,
                    col=col,
                    message=(
                        f"message kind '{kind}' is sent on the bus by"
                        f" `{info.qualname}` but not declared in the"
                        f" {config.protocol_module}.PROTOCOL table"
                    ),
                )
            )
    for kind, (info, line, col) in sorted(handled.items()):
        if kind not in declared:
            findings.append(
                Violation(
                    rule_id="REP206",
                    path=info.path,
                    line=line,
                    col=col,
                    message=(
                        f"message kind '{kind}' is dispatched in"
                        f" `{info.qualname}` but not declared in the"
                        f" {config.protocol_module}.PROTOCOL table"
                    ),
                )
            )
    for kind, spec in sorted(declared.items()):
        if kind not in sent:
            findings.append(
                Violation(
                    rule_id="REP206",
                    path=protocol_path,
                    line=spec.line,
                    col=0,
                    message=(
                        f"declared message kind '{kind}' is never sent on"
                        " the bus (dead protocol entry or missing sender)"
                    ),
                )
            )
        if kind not in handled and not spec.implicit:
            findings.append(
                Violation(
                    rule_id="REP206",
                    path=protocol_path,
                    line=spec.line,
                    col=0,
                    message=(
                        f"declared message kind '{kind}' is never handled by"
                        f" a dispatch site ({', '.join(config.dispatch_sites)});"
                        " mark it implicit=True if a blanket handler covers it"
                    ),
                )
            )
    return findings


# --------------------------------------------------------------------------
# driver


def flow_paths(
    paths: Sequence[str],
    config: Optional[FlowConfig] = None,
    root: Optional[str] = None,
    registry: Optional["MetricsRegistry"] = None,
    store: Optional[ASTStore] = None,
) -> LintResult:
    """Run the REP201, REP202 and REP206 flow rules over the package at *paths*.

    Returns the same :class:`~repro.analysis.lint.LintResult` shape as
    ``lint_paths`` (shared renderers, suppressions, and exit-code
    contract).  *registry* (default ``NULL_REGISTRY``) receives the
    ``analysis_flow_*`` metric families.
    """
    if config is None:
        config = FlowConfig()
    if store is None:
        store = DEFAULT_STORE
    if registry is None:
        from repro.obs import NULL_REGISTRY

        registry = NULL_REGISTRY

    files = iter_python_files(paths)
    if root is None and files:
        root = find_project_root(files[0])

    graph = build_callgraph(files, store)
    registry.counter(
        "analysis_flow_files_total",
        "files parsed into the flow-pass call graph",
    ).inc(len(files))

    report_reach = graph.reachable(config.report_entrypoints)

    checks = (
        ("REP201", lambda: _check_rep201(graph, report_reach, config)),
        ("REP202", lambda: _check_rep202(graph, report_reach, config)),
        ("REP206", lambda: _check_rep206(graph, config)),
    )
    violations: List[Violation] = []
    for rule_id, check in checks:
        with registry.timer(
            "analysis_flow_rule_seconds",
            "wall-clock seconds per flow rule",
            rule=rule_id,
        ):
            found = check()
        violations.extend(found)
        registry.counter(
            "analysis_flow_findings_total",
            "flow-pass findings before suppression",
            labels=("rule",),
        ).inc(len(found), rule=rule_id)

    errors: List[Tuple[str, str]] = []
    for error in graph.errors:
        errors.append(("<callgraph>", error))

    kept: List[Violation] = []
    suppression_cache: Dict[str, Tuple] = {}
    for violation in violations:
        if violation.path not in suppression_cache:
            try:
                source, _ = store.get(violation.path)
            except (OSError, SyntaxError):
                suppression_cache[violation.path] = ({}, None, False)
            else:
                suppression_cache[violation.path] = _parse_suppressions(
                    source.splitlines()
                )
        per_line, file_rules, file_all = suppression_cache[violation.path]
        if not _suppressed(violation, per_line, file_rules, file_all):
            kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return LintResult(
        violations=kept,
        files_checked=len(files),
        rule_ids=FLOW_RULE_IDS,
        errors=errors,
    )
