"""The domain lint rules (REP001, REP002, REP004).

Each rule encodes an invariant this reproduction has been burned by —
or would be, the next time someone edits a boundary comparison, an
experiment seed, or a metric family — without noticing:

========  ==========================================================
REP001    float-literal equality on fractions/boundaries
REP002    unseeded ``random`` / ``np.random`` global-state draws
REP004    metric-name drift vs. ``docs/observability.md``
========  ==========================================================

Suppress a deliberate exception with ``# repnoqa: REPnnn`` on the
line (see :mod:`repro.analysis.lint`); ``docs/static_analysis.md``
is the full catalogue with rationale, examples, and the evidence each
rule is kept on.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .lint import FileContext, ProjectContext, Rule, Violation

#: ``random``-module functions that draw from the *global* (implicitly
#: seeded) generator.  ``random.Random(seed)`` instances are fine.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "expovariate",
        "betavariate", "paretovariate", "lognormvariate", "vonmisesvariate",
        "weibullvariate", "triangular", "getrandbits", "randbytes", "seed",
    }
)

#: ``numpy.random`` attributes that do NOT touch the legacy global
#: state (constructors of explicit generators and state inspectors).
_NP_RANDOM_SAFE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState",
     "get_state", "set_state", "BitGenerator", "PCG64", "Philox"}
)

#: Registry methods that declare a metric family with their first
#: positional string argument.
_REGISTRY_DECLARATORS = frozenset({"counter", "gauge", "histogram", "timer", "span"})

_METRIC_TOKEN = re.compile(r"`([a-z_][a-z0-9_]*)`")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FloatLiteralEquality(Rule):
    """REP001: ``==`` / ``!=`` against a float literal.

    Hash-range boundaries, coverage sums, and headroom factors are all
    accumulated floats; exact comparison against a literal like ``1.0``
    silently misses values an ulp away (the ``headroom == 1.0``
    fast-path bug).  Compare within ``EPSILON`` or ``math.isclose``;
    suppress with ``# repnoqa: REP001`` where bit-exactness is the
    invariant itself (e.g. the manifest top-snap check).
    """

    rule_id = "REP001"
    description = "float-literal equality; use EPSILON/math.isclose"

    def visit_file(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[index], operands[index + 1]):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        symbol = "==" if isinstance(op, ast.Eq) else "!="
                        yield Violation(
                            rule_id=self.rule_id,
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"float-literal comparison `{symbol}"
                                f" {side.value!r}`; use an EPSILON-tolerant"
                                " check (math.isclose or abs(a-b) <= EPSILON)"
                            ),
                        )
                        break


class UnseededRandomness(Rule):
    """REP002: draws from implicitly seeded global RNG state.

    Every figure of the paper (Figs. 6-11) must regenerate
    bit-identically from a seed; a single ``random.random()`` or
    ``np.random.rand()`` call routes through process-global state that
    any import can perturb.  Use ``random.Random(seed)`` /
    ``np.random.default_rng(seed)`` instances instead.
    """

    rule_id = "REP002"
    description = "unseeded global RNG draw; use Random(seed)/default_rng(seed)"

    def visit_file(self, ctx: FileContext) -> Iterable[Violation]:
        aliases = self._module_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            resolved = self._resolve(dotted, aliases)
            message = self._diagnose(resolved, node)
            if message:
                yield Violation(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )

    @staticmethod
    def _module_aliases(tree: ast.Module) -> Dict[str, str]:
        """Map local names to the canonical module path they bind."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 0
            ):
                for item in node.names:
                    aliases[item.asname or item.name] = (
                        f"{node.module}.{item.name}"
                    )
        return aliases

    @staticmethod
    def _resolve(dotted: str, aliases: Dict[str, str]) -> str:
        head, _, rest = dotted.partition(".")
        canonical = aliases.get(head, head)
        return f"{canonical}.{rest}" if rest else canonical

    @staticmethod
    def _diagnose(resolved: str, call: ast.Call) -> Optional[str]:
        if resolved.startswith("numpy.random.") or resolved.startswith(
            "np.random."
        ):
            attr = resolved.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_SAFE:
                return (
                    f"`np.random.{attr}()` draws from numpy's global RNG;"
                    " use np.random.default_rng(seed)"
                )
            if attr in ("default_rng", "RandomState") and not (
                call.args or call.keywords
            ):
                return (
                    f"`np.random.{attr}()` without a seed is irreproducible;"
                    " pass an explicit seed"
                )
            return None
        if resolved.startswith("random."):
            attr = resolved.rsplit(".", 1)[1]
            if attr in _GLOBAL_RANDOM_FNS:
                return (
                    f"`random.{attr}()` uses the process-global RNG;"
                    " use a seeded random.Random(seed) instance"
                )
            if attr == "Random" and not (call.args or call.keywords):
                return (
                    "`random.Random()` without a seed is irreproducible;"
                    " pass an explicit seed"
                )
        return None


class MetricNameDrift(Rule):
    """REP004: metric families vs. the observability catalogue.

    Exporters are generic (they serialize whatever the registry
    holds), so the *names* are the contract: every family declared via
    ``registry.counter/gauge/histogram/timer/span("name", ...)`` must
    appear in ``docs/observability.md``, and every name catalogued
    there must still be declared somewhere in the linted tree.  A
    rename that touches only one side orphans dashboards silently.
    """

    rule_id = "REP004"
    description = "metric-name drift between code and docs/observability.md"

    #: Repository-relative location of the catalogue.
    DOC_PATH = os.path.join("docs", "observability.md")

    def __init__(self) -> None:
        self._declared: Dict[str, Tuple[str, int, int]] = {}
        self._consumed: Dict[str, Tuple[str, int, int]] = {}

    def visit_file(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            site = (ctx.path, node.lineno, node.col_offset)
            if node.func.attr in _REGISTRY_DECLARATORS:
                self._declared.setdefault(name, site)
                if node.func.attr == "span":
                    # span() implicitly creates a companion counter.
                    self._declared.setdefault(f"{name}_total", site)
            elif node.func.attr == "get" and self._is_registry(node.func.value):
                # Consumer side: reading a family by name must refer to
                # a declared one, or the dashboard/test reads nothing.
                self._consumed.setdefault(name, site)
        return ()

    @staticmethod
    def _is_registry(node: ast.AST) -> bool:
        """True when *node* is a ``...registry``-named receiver."""
        if isinstance(node, ast.Attribute):
            return node.attr.lower().endswith("registry")
        if isinstance(node, ast.Name):
            return node.id.lower().endswith("registry")
        return False

    def finish(self, project: ProjectContext) -> Iterable[Violation]:
        declared, self._declared = self._declared, {}
        consumed, self._consumed = self._consumed, {}
        if project.root is None:
            return
        doc_path = os.path.join(project.root, self.DOC_PATH)
        if not os.path.exists(doc_path) or not declared:
            return  # tree under lint has no catalogue to agree with
        with open(doc_path, "r", encoding="utf-8") as handle:
            doc_lines = handle.read().splitlines()
        documented = self._catalogue_names(doc_lines)
        for name, (path, line, col) in sorted(consumed.items()):
            if name not in declared and name not in documented:
                yield Violation(
                    rule_id=self.rule_id,
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"metric family {name!r} is read via registry.get"
                        " but neither declared in code nor catalogued in"
                        f" {self.DOC_PATH}"
                    ),
                )
        for name, (path, line, col) in sorted(declared.items()):
            if name not in documented:
                yield Violation(
                    rule_id=self.rule_id,
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"metric family {name!r} is declared in code but"
                        f" missing from {self.DOC_PATH}"
                    ),
                )
        for name, line in sorted(documented.items()):
            if name not in declared:
                yield Violation(
                    rule_id=self.rule_id,
                    path=doc_path,
                    line=line,
                    col=0,
                    message=(
                        f"metric family {name!r} is catalogued but no"
                        " linted source declares it"
                    ),
                )

    @staticmethod
    def _catalogue_names(doc_lines: Sequence[str]) -> Dict[str, int]:
        """Backticked tokens in the first column of catalogue tables."""
        names: Dict[str, int] = {}
        in_catalogue = False
        for number, text in enumerate(doc_lines, start=1):
            if text.startswith("## "):
                in_catalogue = text.strip() == "## Metric catalogue"
                continue
            if not in_catalogue or not text.lstrip().startswith("|"):
                continue
            cells = text.split("|")
            if len(cells) < 2:
                continue
            for token in _METRIC_TOKEN.findall(cells[1]):
                names.setdefault(token, number)
        return names


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, REP001 first."""
    return [
        FloatLiteralEquality(),
        UnseededRandomness(),
        MetricNameDrift(),
    ]


#: Stable id -> one-line description, for ``--list-rules`` and docs.
RULE_CATALOGUE: Dict[str, str] = {
    rule.rule_id: rule.description for rule in default_rules()
}
