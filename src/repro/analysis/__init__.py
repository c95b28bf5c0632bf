"""repro.analysis — domain-aware static analysis.

Two shift-left guards for the deployment pipeline:

* :mod:`repro.analysis.lint` — a small AST rule engine with domain
  rules (REP001, REP002, REP004): float-literal boundary comparisons,
  unseeded RNG draws, and metric-name drift against
  ``docs/observability.md``.  Runnable as ``repro analysis lint`` or
  ``python -m repro.analysis lint``.
* :mod:`repro.analysis.verify` — a static deployment-artifact
  verifier (REP101-REP108) proving, without running any traffic, that
  manifests partition ``[0, 1]`` exactly, mass only lands on
  forwarding paths, TCAM budgets hold, and deltas apply cleanly.  The
  controller runs it as a fail-closed pre-distribution gate.

See ``docs/static_analysis.md`` for the full rule catalogue.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

#: PEP 562 lazy surface: name -> defining submodule.  Resolved on
#: first attribute access so ``import repro.analysis`` stays light and
#: the lint CLI never pays for the verifier's planning imports.
_LAZY = {
    "ASTStore": "astcache",
    "DEFAULT_STORE": "astcache",
    "CallGraph": "callgraph",
    "build_callgraph": "callgraph",
    "FLOW_CATALOGUE": "flow",
    "FlowConfig": "flow",
    "flow_paths": "flow",
    "FileContext": "lint",
    "LintResult": "lint",
    "ProjectContext": "lint",
    "Rule": "lint",
    "Violation": "lint",
    "iter_python_files": "lint",
    "lint_paths": "lint",
    "render_json": "lint",
    "render_text": "lint",
    "RULE_CATALOGUE": "rules",
    "default_rules": "rules",
    "Finding": "verify",
    "VERIFIER_RULES": "verify",
    "VerificationReport": "verify",
    "check_delta": "verify",
    "check_nips": "verify",
    "check_on_path": "verify",
    "check_partition": "verify",
    "verify_artifact_files": "verify",
    "verify_delta": "verify",
    "verify_deployment": "verify",
    "verify_nips": "verify",
    "main": "cli",
}

if TYPE_CHECKING:  # static importers see the real symbols
    from .astcache import ASTStore, DEFAULT_STORE
    from .callgraph import CallGraph, build_callgraph
    from .cli import main
    from .flow import FLOW_CATALOGUE, FlowConfig, flow_paths
    from .lint import (
        FileContext,
        LintResult,
        ProjectContext,
        Rule,
        Violation,
        iter_python_files,
        lint_paths,
        render_json,
        render_text,
    )
    from .rules import RULE_CATALOGUE, default_rules
    from .verify import (
        Finding,
        VERIFIER_RULES,
        VerificationReport,
        check_delta,
        check_nips,
        check_on_path,
        check_partition,
        verify_artifact_files,
        verify_delta,
        verify_deployment,
        verify_nips,
    )


def __getattr__(name: str) -> Any:
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


__all__ = [
    "ASTStore",
    "CallGraph",
    "DEFAULT_STORE",
    "FLOW_CATALOGUE",
    "FileContext",
    "Finding",
    "FlowConfig",
    "LintResult",
    "ProjectContext",
    "RULE_CATALOGUE",
    "Rule",
    "VERIFIER_RULES",
    "VerificationReport",
    "Violation",
    "check_delta",
    "check_nips",
    "check_on_path",
    "check_partition",
    "build_callgraph",
    "default_rules",
    "flow_paths",
    "iter_python_files",
    "lint_paths",
    "main",
    "render_json",
    "render_text",
    "verify_artifact_files",
    "verify_delta",
    "verify_deployment",
    "verify_nips",
]
