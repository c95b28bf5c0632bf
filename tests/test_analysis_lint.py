"""Tests for the domain AST lint (``repro.analysis``, REP001, REP002, REP004).

Besides synthetic files per rule, seeded **mutation tests** on a copy
of the real ``repro`` tree are the evidence ``docs/static_analysis.md``
keeps REP002 and REP004 on: each injected defect changes an output the
repo pins, no behavioural test notices it, and the rule flags it.
"""

import json
import os
import shutil
import textwrap

import pytest

import repro
from repro.analysis.cli import main as analysis_main
from repro.analysis.lint import (
    LINT_SCHEMA_VERSION,
    lint_paths,
    render_json,
    render_text,
)
from repro.analysis.rules import RULE_CATALOGUE, default_rules

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
CATALOGUE = os.path.join(
    os.path.dirname(os.path.dirname(SRC_REPRO)), "docs", "observability.md"
)


def run_lint(tmp_path, source, name="mod.py", root=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], root=str(root) if root else str(tmp_path))


def rule_ids(result):
    return [v.rule_id for v in result.violations]


class TestREP001FloatEquality:
    def test_flags_equality_with_float_literal(self, tmp_path):
        result = run_lint(tmp_path, "def f(x):\n    return x == 1.0\n")
        assert rule_ids(result) == ["REP001"]
        assert "1.0" in result.violations[0].message

    def test_flags_not_equal_and_literal_on_left(self, tmp_path):
        result = run_lint(
            tmp_path, "def f(x, y):\n    return 0.5 != x or y == 0.25\n"
        )
        assert rule_ids(result) == ["REP001", "REP001"]

    def test_integer_literals_and_ordering_pass(self, tmp_path):
        result = run_lint(
            tmp_path,
            """\
            def f(x):
                return x == 1 or x >= 1.0 or abs(x - 1.0) <= 1e-9
            """,
        )
        assert result.ok

    def test_chained_comparison_checks_each_eq_link(self, tmp_path):
        result = run_lint(tmp_path, "def f(a, b):\n    return a < b == 1.0\n")
        assert rule_ids(result) == ["REP001"]

    def test_reseeding_the_headroom_bug_is_caught(self, tmp_path):
        # The acceptance scenario: the exact comparison this PR removed
        # from repro.core.reconfigure must be flagged if reintroduced.
        result = run_lint(
            tmp_path,
            """\
            def conservative_units(units, headroom=1.3):
                if headroom == 1.0:
                    return list(units)
                return units
            """,
        )
        assert rule_ids(result) == ["REP001"]


class TestREP002UnseededRandomness:
    def test_global_draw_flagged(self, tmp_path):
        result = run_lint(
            tmp_path, "import random\n\nx = random.random()\n"
        )
        assert rule_ids(result) == ["REP002"]

    def test_aliased_import_resolved(self, tmp_path):
        result = run_lint(
            tmp_path, "import random as rnd\n\nx = rnd.choice([1, 2])\n"
        )
        assert rule_ids(result) == ["REP002"]

    def test_numpy_legacy_global_flagged(self, tmp_path):
        result = run_lint(
            tmp_path, "import numpy as np\n\nx = np.random.rand(3)\n"
        )
        assert rule_ids(result) == ["REP002"]

    def test_unseeded_constructors_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            """\
            import random
            import numpy as np

            a = random.Random()
            b = np.random.default_rng()
            """,
        )
        assert rule_ids(result) == ["REP002", "REP002"]

    def test_seeded_generators_pass(self, tmp_path):
        result = run_lint(
            tmp_path,
            """\
            import random
            import numpy as np

            a = random.Random(7)
            b = np.random.default_rng(7)
            c = a.random() + b.random()
            """,
        )
        assert result.ok


class TestREP004MetricNameDrift:
    @staticmethod
    def project(tmp_path, catalogue_rows, source):
        docs = tmp_path / "docs"
        docs.mkdir()
        rows = "\n".join(catalogue_rows)
        (docs / "observability.md").write_text(
            "# Observability\n\n## Metric catalogue\n\n"
            "| Metric | Type | Labels | Meaning |\n|---|---|---|---|\n"
            f"{rows}\n\n## Unrelated\n\n| `not_a_metric` | x | x | x |\n"
        )
        (tmp_path / "pkg.py").write_text(textwrap.dedent(source))
        return lint_paths([str(tmp_path / "pkg.py")], root=str(tmp_path))

    def test_declared_but_undocumented_flagged(self, tmp_path):
        result = self.project(
            tmp_path,
            ["| `known_total` | counter | — | fine |"],
            """\
            registry.counter("known_total", "fine")
            registry.counter("rogue_total", "never documented")
            """,
        )
        assert rule_ids(result) == ["REP004"]
        assert "rogue_total" in result.violations[0].message

    def test_documented_but_undeclared_flagged_at_doc_line(self, tmp_path):
        result = self.project(
            tmp_path,
            [
                "| `known_total` | counter | — | fine |",
                "| `orphan_total` | counter | — | dashboard ghost |",
            ],
            'registry.counter("known_total", "fine")\n',
        )
        assert rule_ids(result) == ["REP004"]
        violation = result.violations[0]
        assert "orphan_total" in violation.message
        assert violation.path.endswith("observability.md")

    def test_span_implies_companion_counter(self, tmp_path):
        result = self.project(
            tmp_path,
            [
                "| `phase_seconds` | span | — | timing |",
                "| `phase_seconds_total` | counter | — | companion |",
            ],
            'registry.span("phase_seconds", "timing")\n',
        )
        assert result.ok

    def test_tables_outside_catalogue_section_ignored(self, tmp_path):
        result = self.project(
            tmp_path,
            ["| `known_total` | counter | — | fine |"],
            'registry.counter("known_total", "fine")\n',
        )
        assert result.ok  # `not_a_metric` under "## Unrelated" is not drift


class TestSuppressions:
    def test_line_suppression_with_rule_id(self, tmp_path):
        result = run_lint(
            tmp_path,
            "def f(x):\n    return x == 1.0  # repnoqa: REP001 -- exactness\n",
        )
        assert result.ok

    def test_bare_line_suppression(self, tmp_path):
        result = run_lint(tmp_path, "def f(x):\n    return x == 1.0  # repnoqa\n")
        assert result.ok

    def test_mismatched_rule_id_does_not_suppress(self, tmp_path):
        result = run_lint(
            tmp_path, "def f(x):\n    return x == 1.0  # repnoqa: REP002\n"
        )
        assert rule_ids(result) == ["REP001"]

    def test_file_level_suppression(self, tmp_path):
        result = run_lint(
            tmp_path,
            """\
            # repnoqa-file: REP001
            def f(x):
                return x == 1.0 or x == 0.5
            """,
        )
        assert result.ok


class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = lint_paths([str(tmp_path / "broken.py")], root=str(tmp_path))
        assert result.errors and not result.ok

    def test_violations_sorted_and_rendered(self, tmp_path):
        result = run_lint(
            tmp_path,
            "import random\n\ndef f(x):\n    r = random.random()\n    return x == 1.0\n",
        )
        assert rule_ids(result) == ["REP002", "REP001"]  # line order
        text = render_text(result)
        assert "REP001" in text and "REP002" in text and ":" in text

    def test_json_schema(self, tmp_path):
        result = run_lint(tmp_path, "def f(x):\n    return x == 1.0\n")
        payload = json.loads(render_json(result))
        assert payload["version"] == LINT_SCHEMA_VERSION
        assert payload["files_checked"] == 1
        assert set(payload["rules"]) == set(RULE_CATALOGUE)
        (violation,) = payload["violations"]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "REP001"

    def test_directory_walk_skips_caches(self, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("def f(x):\n    return x == 1.0\n")
        result = lint_paths([str(tmp_path)], root=str(tmp_path))
        assert result.ok and result.files_checked == 1


class TestCLI:
    def test_exit_zero_on_shipped_tree(self):
        # Acceptance criterion: the tree this PR ships lints clean.
        assert analysis_main(["lint", SRC_REPRO]) == 0

    def test_exit_one_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    return x == 1.0\n")
        assert analysis_main(["lint", str(bad)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_select_filters_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\ndef f(x):\n    return x == random.random()\n")
        assert analysis_main(["lint", "--select", "REP002", str(bad)]) == 1
        assert analysis_main(["lint", "--select", "REP001", str(bad)]) == 0

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        assert analysis_main(["lint", "--select", "REP999", str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert analysis_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_CATALOGUE:
            assert rule_id in out

    def test_default_rules_are_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert {r.rule_id for r in first} == set(RULE_CATALOGUE)
        assert all(a is not b for a, b in zip(first, second))


@pytest.fixture
def repo_copy(tmp_path):
    """A private copy of the real package tree and its metric catalogue."""
    shutil.copytree(
        SRC_REPRO, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    (tmp_path / "docs").mkdir()
    shutil.copy(CATALOGUE, tmp_path / "docs" / "observability.md")
    return tmp_path


def mutate(path, anchor, replacement):
    text = path.read_text()
    assert text.count(anchor) == 1, f"mutation anchor not unique in {path}"
    path.write_text(text.replace(anchor, replacement))


class TestSeededMutations:
    """Defects that change a pinned output, pass every behavioural
    test, and are flagged by exactly the rule kept for them."""

    @staticmethod
    def lint_copy(root):
        return lint_paths([str(root / "repro")], root=str(root))

    def test_unmutated_copy_is_clean(self, repo_copy):
        result = self.lint_copy(repo_copy)
        assert result.ok, result.violations

    def test_unseeded_solve_nips_match_matrix_raises_rep002(self, repo_copy):
        # `repro solve-nips --seed S` would print a different objective
        # on every run: its match-rate matrix no longer follows the seed.
        mutate(
            repo_copy / "repro" / "cli.py",
            "MatchRateMatrix.uniform(rules, pairs, random.Random(args.seed))",
            "MatchRateMatrix.uniform(rules, pairs, random.Random())",
        )
        result = self.lint_copy(repo_copy)
        assert [(v.rule_id, os.path.basename(v.path)) for v in result.violations] == [
            ("REP002", "cli.py")
        ]

    def test_renamed_reported_family_raises_rep004(self, repo_copy):
        # The sweep report folds only REPORTED_FAMILIES, so a family
        # renamed in code silently drops out of both sweep reports.
        mutate(
            repo_copy / "repro" / "control" / "controller.py",
            '"repair_orphaned_mass",',
            '"repair_orphan_mass",',
        )
        result = self.lint_copy(repo_copy)
        assert {v.rule_id for v in result.violations} == {"REP004"}
        messages = " ".join(v.message for v in result.violations)
        assert "'repair_orphan_mass' is declared" in messages
        assert "'repair_orphaned_mass' is catalogued" in messages
