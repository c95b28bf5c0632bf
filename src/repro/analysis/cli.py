"""Command-line front end for the static-analysis subsystem.

Three subcommands, shared by ``repro analysis ...`` and
``python -m repro.analysis ...``:

* ``lint`` — run the REP001/REP002/REP004 AST rules over source trees;
* ``flow`` — run the cross-module determinism / protocol-conformance
  flow pass (REP201/REP202/REP206) over a package;
* ``verify`` — statically verify planning artifacts (manifest sets,
  LP assignments) against the deployment invariants (REP101-REP108).

``lint`` and ``flow`` share one parsed-AST store, so running both in
one process parses the package exactly once.

Exit codes: 0 clean, 1 violations/findings, 2 usage or load errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .flow import FLOW_CATALOGUE, flow_paths
from .lint import lint_paths, render_json, render_text
from .rules import RULE_CATALOGUE, default_rules
from .verify import VERIFIER_RULES, verify_artifact_files


def cmd_lint(args: argparse.Namespace) -> int:
    """Handle ``analysis lint``."""
    if args.list_rules:
        for rule_id, description in sorted(RULE_CATALOGUE.items()):
            print(f"{rule_id}  {description}")
        return 0
    rules = default_rules()
    if args.select:
        wanted = {token.strip() for token in args.select.split(",")}
        unknown = wanted - set(RULE_CATALOGUE)
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]
    try:
        result = lint_paths(args.paths, rules=rules, root=args.root)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def cmd_flow(args: argparse.Namespace) -> int:
    """Handle ``analysis flow``."""
    if args.list_rules:
        for rule_id, description in sorted(FLOW_CATALOGUE.items()):
            print(f"{rule_id}  {description}")
        return 0
    try:
        result = flow_paths(args.paths, root=args.root)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.select:
        wanted = {token.strip() for token in args.select.split(",")}
        unknown = wanted - set(FLOW_CATALOGUE)
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        result.violations = [
            violation
            for violation in result.violations
            if violation.rule_id in wanted
        ]
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Handle ``analysis verify``."""
    if args.list_rules:
        for rule_id, description in sorted(VERIFIER_RULES.items()):
            print(f"{rule_id}  {description}")
        return 0
    if not args.manifests:
        print("error: --manifests is required", file=sys.stderr)
        return 2
    try:
        report = verify_artifact_files(
            args.manifests,
            assignment_path=args.assignment,
            topology_label=args.topology,
        )
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot verify artifacts: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` / ``verify`` subcommands to *parser*."""
    sub = parser.add_subparsers(dest="analysis_command", required=True)

    lint = sub.add_parser(
        "lint", help="run the domain AST lint rules over source trees"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument(
        "--select", help="comma-separated rule IDs to run (default: all)"
    )
    lint.add_argument(
        "--root",
        help="project root for cross-file rules (default: auto-detect)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.set_defaults(func=cmd_lint)

    flow = sub.add_parser(
        "flow",
        help="run the cross-module determinism & protocol flow pass"
        " (REP201/REP202/REP206)",
    )
    flow.add_argument(
        "paths", nargs="*", default=["src"], help="package files or directories"
    )
    flow.add_argument("--format", choices=["text", "json"], default="text")
    flow.add_argument(
        "--select", help="comma-separated rule IDs to report (default: all)"
    )
    flow.add_argument(
        "--root",
        help="project root for docs lookups (default: auto-detect)",
    )
    flow.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    flow.set_defaults(func=cmd_flow)

    verify = sub.add_parser(
        "verify",
        help="statically verify planning artifacts (manifests, assignment)",
    )
    verify.add_argument(
        "--manifests", help="dump_manifests JSON artifact to verify"
    )
    verify.add_argument(
        "--assignment", help="dump_assignment JSON artifact (enables d* checks)"
    )
    verify.add_argument(
        "--topology",
        help="topology label (e.g. internet2) to reconstruct forwarding"
        " paths for the off-path check",
    )
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument(
        "--list-rules", action="store_true", help="print the invariant catalogue"
    )
    verify.set_defaults(func=cmd_verify)


def build_parser() -> argparse.ArgumentParser:
    """Standalone parser for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Domain static analysis: AST lint + deployment-artifact"
        " verification",
    )
    configure_parser(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
