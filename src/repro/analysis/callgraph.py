"""Whole-package import- and call-graph construction (AST only).

This module turns a set of Python files into a :class:`CallGraph`: every
module parsed (via the shared :mod:`repro.analysis.astcache` store),
every function/method registered under a canonical qualified name
(``pkg.mod.func`` / ``pkg.mod.Class.method``), and a conservative edge
set linking callers to callees.  Nothing is imported or executed — the
graph is built for the flow rules (REP201, REP202, REP206), which need
to answer "is this call site reachable from ``run_cell_payload``?"
without running any traffic.

Resolution handles the shapes that actually occur in this repo:

* plain and aliased imports, including relative imports
  (``from ..obs import metrics``);
* facade re-exports — ``repro.api`` imports a symbol, callers go
  through the facade name, the graph follows the chain to the defining
  module;
* PEP 562 lazy modules — a module-level ``__getattr__`` backed either
  by a ``_LAZY``-style dict table (``{"lint": "lint"}``) or by literal
  string dispatch (``if name in ("api", ...)``) resolves to the lazy
  submodule;
* function references passed as values (``pool.submit(run_cell_payload,
  ...)``, ``functools.partial(run_cell, spec)``) — these produce edges
  exactly like direct calls, because a spawn pool *will* call them;
* unresolvable method calls (``obj.merge(...)``) — these fall back to
  an edge to *every* known function with that bare method name.  That
  over-approximation keeps reachability sound: a merge implementation
  cannot hide behind dynamic dispatch.

Nested functions are folded into their enclosing function's body (their
calls count as the parent's), which matches how reachability is used.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .astcache import ASTStore, DEFAULT_STORE

_MAX_RESOLVE_HOPS = 24


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: str) -> str:
    """Canonical dotted module name for *path*.

    Walks up from the file through directories that contain an
    ``__init__.py``; the topmost such directory is the package root.
    ``src/repro/nids/engine.py`` → ``repro.nids.engine``;
    ``src/repro/nids/__init__.py`` → ``repro.nids``; a stray script in
    no package keeps just its stem.
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method, addressed by canonical qualname."""

    qualname: str
    module: str
    name: str  # bare name ("merge"), used for the method fallback
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    path: str
    lineno: int
    class_name: Optional[str] = None
    calls: Set[str] = field(default_factory=set)  # resolved callee qualnames
    bare_method_calls: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Per-module facts the resolver and the flow rules consume."""

    name: str
    path: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    #: top-level ``NAME = "literal"`` string constants
    string_constants: Dict[str, str] = field(default_factory=dict)
    #: names of top-level functions and classes defined here
    top_level: Set[str] = field(default_factory=set)
    #: PEP 562 lazy exports: attr -> (target_module, symbol or None)
    lazy_exports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    #: functions (bare or Class.method key) whose return annotation is set-like
    set_returning: Set[str] = field(default_factory=set)
    #: per class: self attributes assigned/annotated as sets
    set_attrs: Dict[str, Set[str]] = field(default_factory=dict)


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    text = dotted_name(node)
    if text is None and isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("[", 1)[0].strip()
    if text is None:
        return False
    leaf = text.rsplit(".", 1)[-1]
    return leaf in {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}


def _collect_lazy_exports(module: ModuleInfo, getattr_fn: ast.FunctionDef) -> None:
    """Populate ``module.lazy_exports`` from a module-level ``__getattr__``.

    Two shapes are understood (both live in this repo):

    * a dict table consulted by the function — module-level dict
      literals mapping ``"attr"`` to either ``"submodule"``
      (``repro.analysis._LAZY``; the symbol keeps the attr name) or an
      explicit ``("target.module", "symbol")`` tuple
      (``repro.nids._LAZY_EXPORTS``);
    * literal dispatch — ``if name in ("api", "analysis"):`` or
      ``if name == "api":`` followed by an import of the submodule
      (``repro.__getattr__``).
    """
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict):
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    continue
                attr = key.value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    # ``getattr(import_module(sub), attr)``: the symbol
                    # keeps the attr name.  A dotted value is already a
                    # canonical module path; a bare one is a sibling.
                    sub = value.value
                    target = sub if "." in sub else f"{module.name}.{sub}"
                    module.lazy_exports.setdefault(attr, (target, attr))
                elif (
                    isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == 2
                    and all(
                        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                        for elt in value.elts
                    )
                ):
                    target_module, symbol = (
                        value.elts[0].value,  # type: ignore[union-attr]
                        value.elts[1].value,  # type: ignore[union-attr]
                    )
                    if "." not in target_module:
                        target_module = f"{module.name}.{target_module}"
                    module.lazy_exports.setdefault(attr, (target_module, symbol))
    # Literal string dispatch inside the __getattr__ body: every string
    # constant that is a valid identifier is assumed to name a lazy
    # submodule.  Conservative, but the repo's facades follow it.
    for node in ast.walk(getattr_fn):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if text.isidentifier():
                module.lazy_exports.setdefault(text, (f"{module.name}.{text}", None))


def _register_aliases(module: ModuleInfo, node: ast.stmt) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            module.aliases[bound] = target
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            # Resolve the relative base against this module's package.
            pkg_parts = module.name.split(".")
            if not module.path.endswith("__init__.py"):
                pkg_parts = pkg_parts[:-1]
            if node.level > 1:
                pkg_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
            base = ".".join(pkg_parts)
        else:
            base = ""
        stem = node.module or ""
        prefix = ".".join(p for p in (base, stem) if p)
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            module.aliases[bound] = f"{prefix}.{alias.name}" if prefix else alias.name


def _scan_module(name: str, path: str, tree: ast.Module) -> Tuple[ModuleInfo, List[FunctionInfo]]:
    module = ModuleInfo(name=name, path=path, tree=tree)
    functions: List[FunctionInfo] = []
    getattr_fn: Optional[ast.FunctionDef] = None

    for stmt in tree.body:
        _register_aliases(module, stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.top_level.add(stmt.name)
            if stmt.name == "__getattr__" and isinstance(stmt, ast.FunctionDef):
                getattr_fn = stmt
            functions.append(
                FunctionInfo(
                    qualname=f"{name}.{stmt.name}",
                    module=name,
                    name=stmt.name,
                    node=stmt,
                    path=path,
                    lineno=stmt.lineno,
                )
            )
            if _is_set_annotation(stmt.returns):
                module.set_returning.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            module.top_level.add(stmt.name)
            attrs: Set[str] = set()
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(
                        FunctionInfo(
                            qualname=f"{name}.{stmt.name}.{item.name}",
                            module=name,
                            name=item.name,
                            node=item,
                            path=path,
                            lineno=item.lineno,
                            class_name=stmt.name,
                        )
                    )
                    if _is_set_annotation(item.returns):
                        module.set_returning.add(f"{stmt.name}.{item.name}")
                    for sub in ast.walk(item):
                        target: Optional[ast.AST] = None
                        value: Optional[ast.AST] = None
                        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                            target, value = sub.targets[0], sub.value
                        elif isinstance(sub, ast.AnnAssign):
                            target, value = sub.target, sub.value
                            if _is_set_annotation(sub.annotation) and _is_self_attr(target):
                                attrs.add(target.attr)  # type: ignore[union-attr]
                        if (
                            target is not None
                            and value is not None
                            and _is_self_attr(target)
                            and _is_set_expr_shallow(value)
                        ):
                            attrs.add(target.attr)  # type: ignore[union-attr]
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if _is_set_annotation(item.annotation):
                        attrs.add(item.target.id)
            if attrs:
                module.set_attrs[stmt.name] = attrs
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                module.top_level.add(target.id)
                if isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
                    module.string_constants[target.id] = stmt.value.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module.top_level.add(stmt.target.id)

    if getattr_fn is not None:
        _collect_lazy_exports(module, getattr_fn)
    return module, functions


def _is_self_attr(node: Optional[ast.AST]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_set_expr_shallow(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        text = dotted_name(node.func)
        if text is not None and text.rsplit(".", 1)[-1] in {"set", "frozenset"}:
            return True
    return False


class CallGraph:
    """Functions, modules, and conservative call/reference edges."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_bare_name: Dict[str, List[str]] = {}
        self.errors: List[str] = []

    # -- construction -------------------------------------------------

    def add_module(self, name: str, path: str, tree: ast.Module) -> None:
        module, functions = _scan_module(name, path, tree)
        self.modules[name] = module
        for info in functions:
            self.functions[info.qualname] = info
            self.by_bare_name.setdefault(info.name, []).append(info.qualname)

    def link(self) -> None:
        """Populate call/reference edges for every registered function."""
        for info in self.functions.values():
            self._link_function(info)

    def _link_function(self, info: FunctionInfo) -> None:
        module = self.modules[info.module]
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                self._link_call(info, module, node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                # Function referenced as a value (submitted to a pool,
                # stored in a table): treat as a potential call.
                resolved = self.resolve(module, node.id, info)
                if resolved is not None and resolved in self.functions:
                    info.calls.add(resolved)

    def _link_call(self, info: FunctionInfo, module: ModuleInfo, node: ast.Call) -> None:
        text = dotted_name(node.func)
        if text is not None:
            resolved = self.resolve(module, text, info)
            if resolved is not None and resolved in self.functions:
                info.calls.add(resolved)
                return
            canonical = self.canonical_text(module, text)
            if canonical in {"functools.partial", "partial"}:
                if node.args:
                    inner = dotted_name(node.args[0])
                    if inner is not None:
                        bound = self.resolve(module, inner, info)
                        if bound is not None and bound in self.functions:
                            info.calls.add(bound)
                return
        if isinstance(node.func, ast.Attribute):
            # Unresolvable method call: fall back to every function with
            # this bare name (sound over-approximation).
            info.bare_method_calls.add(node.func.attr)
            for qualname in self.by_bare_name.get(node.func.attr, ()):  # pragma: no branch
                info.calls.add(qualname)

    # -- resolution ---------------------------------------------------

    def canonical_text(self, module: ModuleInfo, dotted: str) -> str:
        """Alias-expand the head of *dotted* without requiring a target."""
        head, _, rest = dotted.partition(".")
        base = module.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base

    def resolve(
        self,
        module: ModuleInfo,
        dotted: str,
        context: Optional[FunctionInfo] = None,
    ) -> Optional[str]:
        """Canonical function qualname for *dotted* as written in *module*.

        Follows aliases, re-export facades, and PEP 562 lazy exports up
        to a hop limit.  ``self.method`` resolves within the enclosing
        class when *context* is a method.
        """
        parts = dotted.split(".")
        if context is not None and context.class_name and parts[0] in {"self", "cls"}:
            if len(parts) >= 2:
                qualname = f"{module.name}.{context.class_name}.{parts[1]}"
                if qualname in self.functions:
                    return qualname
            return None
        head, rest = parts[0], parts[1:]
        if head in module.aliases:
            target = module.aliases[head]
        elif f"{module.name}.{head}" in self.functions or head in module.top_level:
            target = f"{module.name}.{head}"
        else:
            return None
        return self._resolve_canonical(".".join([target] + rest))

    def _resolve_canonical(self, dotted: str) -> Optional[str]:
        for _ in range(_MAX_RESOLVE_HOPS):
            if dotted in self.functions:
                return dotted
            owner, remainder = self._split_module(dotted)
            if owner is None or not remainder:
                return None
            module = self.modules[owner]
            head, tail = remainder[0], remainder[1:]
            qualname = f"{owner}.{head}"
            if qualname in self.functions and not tail:
                return qualname
            if tail and f"{owner}.{head}.{tail[0]}" in self.functions:
                # Class attribute access: Module.Class.method
                return f"{owner}.{head}.{tail[0]}"
            if head in module.aliases:
                dotted = ".".join([module.aliases[head]] + tail)
                continue
            if head in module.lazy_exports:
                target_module, symbol = module.lazy_exports[head]
                pieces = [target_module] + ([symbol] if symbol else []) + tail
                dotted = ".".join(pieces)
                continue
            return None
        return None

    def _split_module(self, dotted: str) -> Tuple[Optional[str], List[str]]:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate, parts[cut:]
        return None, parts

    # -- reachability -------------------------------------------------

    def reachable(self, entrypoints: Iterable[str]) -> Dict[str, str]:
        """BFS closure: function qualname -> the entrypoint that reaches it.

        Unknown entrypoints are skipped (recorded in ``errors``) so a
        config naming a function the repo has since renamed degrades
        loudly in the report rather than crashing the pass.
        """
        origin: Dict[str, str] = {}
        queue: List[str] = []
        for entry in entrypoints:
            if entry not in self.functions:
                self.errors.append(f"unknown entrypoint: {entry}")
                continue
            if entry not in origin:
                origin[entry] = entry
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for callee in self.functions[current].calls:
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin


def build_callgraph(
    files: Sequence[str],
    store: Optional[ASTStore] = None,
) -> CallGraph:
    """Parse *files* (via the shared store) and return a linked graph."""
    store = store if store is not None else DEFAULT_STORE
    graph = CallGraph()
    for path in files:
        try:
            _, tree = store.get(path)
        except (OSError, SyntaxError) as exc:
            graph.errors.append(f"{path}: {exc}")
            continue
        graph.add_module(module_name_for(path), os.path.abspath(path), tree)
    graph.link()
    return graph
