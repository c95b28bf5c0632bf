"""Tests for the determinism & protocol flow pass (REP201, REP202, REP206).

Two layers:

* synthetic packages exercising each rule's positive and negative
  space (including suppressions and the timing allowlist);
* seeded **mutation tests** on a copy of the real ``repro`` tree — the
  acceptance scenarios: stamping wall-clock time onto a merged partial,
  a bare set iteration into report assembly, and an undeclared message
  kind into the controller dispatch must each produce the expected
  finding, proving the shipped-clean state is meaningful.
"""

import json
import os
import shutil
import textwrap

import pytest

import repro
from repro.analysis.astcache import ASTStore
from repro.analysis.cli import main as analysis_main
from repro.analysis.flow import FLOW_CATALOGUE, FlowConfig, flow_paths
from repro.analysis.lint import lint_paths

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))


def make_package(tmp_path, files):
    written = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        written.append(str(path))
    return sorted(written)


def run_flow(tmp_path, files, config):
    return flow_paths(
        make_package(tmp_path, files), config=config, root=str(tmp_path)
    )


def rule_ids(result):
    return [v.rule_id for v in result.violations]


def worker_config(**overrides):
    """A FlowConfig anchored on a synthetic ``pkg`` package."""
    base = dict(
        report_entrypoints=("pkg.worker.run_payload",),
        timing_allowlist_modules=(),
        protocol_module="pkg.protocol",
        dispatch_sites=("pkg.node.Hub.drain",),
    )
    base.update(overrides)
    return FlowConfig(**base)


WORKER_STUB = {
    "pkg/__init__.py": "",
    "pkg/worker.py": """\
        def run_payload(payload):
            return payload
    """,
}


class TestREP201WallClock:
    def test_clock_read_reachable_from_report_entrypoint(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    from pkg import deep

                    def run_payload(payload):
                        return deep.helper(payload)
                """,
                "pkg/deep.py": """\
                    import time

                    def helper(payload):
                        return time.time()
                """,
            },
            worker_config(),
        )
        assert rule_ids(result) == ["REP201"]
        violation = result.violations[0]
        assert "time.time" in violation.message
        assert "pkg.worker.run_payload" in violation.message

    def test_from_import_and_datetime_now_are_caught(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    from time import perf_counter
                    from datetime import datetime

                    def run_payload(payload):
                        return perf_counter(), datetime.now()
                """,
            },
            worker_config(),
        )
        assert rule_ids(result) == ["REP201", "REP201"]

    def test_timing_site_naming_a_seconds_family_is_allowlisted(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    import time

                    def run_payload(payload, registry):
                        started = time.perf_counter()
                        work = payload
                        registry.histogram("cell_seconds").observe(
                            time.perf_counter() - started
                        )
                        return work
                """,
            },
            worker_config(),
        )
        assert result.ok

    def test_read_here_record_there_split_is_allowlisted(self, tmp_path):
        # The engine's shape: perf_counter read in one method, the
        # *_seconds family recorded by a helper it calls.
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    import time

                    def run_payload(payload, registry):
                        started = time.perf_counter()
                        record(registry, started)
                        return payload

                    def record(registry, started):
                        registry.histogram("trace_seconds").observe(started)
                """,
            },
            worker_config(),
        )
        assert result.ok


class TestREP202UnorderedIteration:
    def test_bare_set_iteration_is_flagged(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    def run_payload(payload):
                        seen = set(payload)
                        out = []
                        for item in seen:
                            out.append(item)
                        return out
                """,
            },
            worker_config(),
        )
        assert rule_ids(result) == ["REP202"]

    def test_sorted_iteration_and_order_insensitive_consumers_pass(self, tmp_path):
        # A counting sum is order-insensitive; a float fold is not (see
        # the next test).
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    def run_payload(payload):
                        seen = set(payload)
                        total = sum(1 for x in seen if x)
                        return [item for item in sorted(seen)] + [total, len(seen)]
                """,
            },
            worker_config(),
        )
        assert result.ok

    def test_sum_of_values_over_a_set_is_flagged(self, tmp_path):
        # Float addition is not associative: the fold's result follows
        # the set's (string-hash) order.
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    def run_payload(payload):
                        seen = set(payload)
                        return sum(payload[x] for x in seen)
                """,
            },
            worker_config(),
        )
        assert rule_ids(result) == ["REP202"]

    def test_os_listdir_and_glob_are_unordered_sources(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    import glob
                    import os

                    def run_payload(payload):
                        rows = []
                        for name in os.listdir(payload):
                            rows.append(name)
                        rows.extend(list(glob.glob("*.json")))
                        return rows
                """,
            },
            worker_config(),
        )
        assert rule_ids(result) == ["REP202", "REP202"]

    def test_set_returning_annotation_tracks_through_calls(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    from typing import Set

                    def keys(payload) -> Set[str]:
                        return set(payload)

                    def run_payload(payload):
                        return [k for k in keys(payload)]
                """,
            },
            worker_config(),
        )
        assert rule_ids(result) == ["REP202"]

    def test_unreachable_set_iteration_is_out_of_scope(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    def run_payload(payload):
                        return payload

                    def offline_tool(items):
                        return [x for x in set(items)]
                """,
            },
            worker_config(),
        )
        assert result.ok


PROTOCOL_STUB = """\
    from dataclasses import dataclass

    KIND_PING = "ping"
    KIND_PONG = "pong"

    @dataclass(frozen=True)
    class MessageSpec:
        kind: str
        sender: str
        receiver: str
        implicit: bool = False

    PROTOCOL = (
        MessageSpec(kind=KIND_PING, sender="node", receiver="hub"),
        MessageSpec(kind=KIND_PONG, sender="hub", receiver="node"),
    )
"""


class TestREP206ProtocolConformance:
    def test_conforming_protocol_is_clean(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                **WORKER_STUB,
                "pkg/protocol.py": PROTOCOL_STUB,
                "pkg/node.py": """\
                    from pkg.protocol import KIND_PING, KIND_PONG

                    class Hub:
                        def drain(self, bus, now):
                            for message in bus.deliver("hub", now):
                                if message.kind == KIND_PING:
                                    self.bus.send("hub", message.src, KIND_PONG, {}, 8, now)

                        def ping(self, now):
                            self.bus.send("node", "hub", KIND_PING, {}, 8, now)

                        def pong_handler(self, message):
                            pass

                    class Node:
                        def step(self, message):
                            if message.kind == "pong":
                                return True
                            return False
                """,
            },
            worker_config(
                dispatch_sites=("pkg.node.Hub.drain", "pkg.node.Node.step")
            ),
        )
        assert result.ok, result.violations

    def test_sent_but_undeclared_kind_is_flagged(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                **WORKER_STUB,
                "pkg/protocol.py": PROTOCOL_STUB,
                "pkg/node.py": """\
                    from pkg.protocol import KIND_PING

                    class Hub:
                        def drain(self, bus, now):
                            for message in bus.deliver("hub", now):
                                if message.kind == KIND_PING:
                                    pass
                                elif message.kind == "pong":
                                    pass

                        def ping(self, now):
                            self.bus.send("node", "hub", KIND_PING, {}, 8, now)
                            self.bus.send("node", "hub", "rebalance", {}, 8, now)

                        def pong(self, now):
                            self.bus.send("hub", "node", "pong", {}, 8, now)
                """,
            },
            worker_config(),
        )
        messages = [v.message for v in result.violations]
        assert any("'rebalance'" in m and "sent on the bus" in m for m in messages)

    def test_declared_but_never_sent_or_handled_is_flagged(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                **WORKER_STUB,
                "pkg/protocol.py": PROTOCOL_STUB,
                "pkg/node.py": """\
                    from pkg.protocol import KIND_PING

                    class Hub:
                        def drain(self, bus, now):
                            for message in bus.deliver("hub", now):
                                if message.kind == KIND_PING:
                                    pass

                        def ping(self, now):
                            self.bus.send("node", "hub", KIND_PING, {}, 8, now)
                """,
            },
            worker_config(),
        )
        messages = [v.message for v in result.violations]
        assert any("'pong' is never sent" in m for m in messages)
        assert any("'pong' is never handled" in m for m in messages)

    def test_implicit_kind_waives_the_handler_check(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                **WORKER_STUB,
                "pkg/protocol.py": """\
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class MessageSpec:
                        kind: str
                        sender: str
                        receiver: str
                        implicit: bool = False

                    PROTOCOL = (
                        MessageSpec(kind="lease", sender="hub", receiver="node", implicit=True),
                    )
                """,
                "pkg/node.py": """\
                    class Hub:
                        def drain(self, bus, now):
                            return bus.deliver("hub", now)

                        def renew(self, now):
                            self.bus.send("hub", "node", "lease", {}, 8, now)
                """,
            },
            worker_config(),
        )
        assert result.ok, result.violations

    def test_missing_protocol_module_skips_the_rule(self, tmp_path):
        result = run_flow(tmp_path, dict(WORKER_STUB), worker_config())
        assert result.ok


class TestSuppressionsAndErrors:
    def test_repnoqa_suppresses_a_flow_finding(self, tmp_path):
        result = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    def run_payload(payload):
                        out = []
                        for item in set(payload):  # repnoqa: REP202 -- test
                            out.append(item)
                        return out
                """,
            },
            worker_config(),
        )
        assert result.ok

    def test_unknown_entrypoint_surfaces_as_error(self, tmp_path):
        result = run_flow(
            tmp_path,
            dict(WORKER_STUB),
            worker_config(report_entrypoints=("pkg.worker.renamed_away",)),
        )
        assert not result.ok
        assert any("renamed_away" in message for _, message in result.errors)


class TestSharedASTStore:
    def test_lint_and_flow_parse_each_file_once(self, tmp_path):
        files = make_package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    def run_payload(payload):
                        return payload
                """,
            },
        )
        store = ASTStore()
        lint_paths(files, root=str(tmp_path), store=store)
        after_lint = store.parse_count
        assert after_lint == len(files)
        flow_paths(files, config=worker_config(), root=str(tmp_path), store=store)
        assert store.parse_count == after_lint  # zero re-parses

    def test_store_invalidates_on_file_change(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n")
        store = ASTStore()
        store.get(str(path))
        store.get(str(path))
        assert store.parse_count == 1
        path.write_text("x = 2\ny = 3\n")
        os.utime(path, ns=(1, 1))  # force a distinct fingerprint
        _, tree = store.get(str(path))
        assert store.parse_count == 2
        assert len(tree.body) == 2


class TestFlowMetrics:
    def test_registry_receives_flow_families(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        files = make_package(tmp_path, dict(WORKER_STUB))
        flow_paths(
            files, config=worker_config(), root=str(tmp_path), registry=registry
        )
        assert registry.get("analysis_flow_files_total").total() == len(files)
        assert registry.get("analysis_flow_rule_seconds") is not None
        assert registry.get("analysis_flow_findings_total") is not None


class TestCLI:
    def test_list_rules_prints_the_catalogue(self, capsys):
        assert analysis_main(["flow", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in FLOW_CATALOGUE:
            assert rule_id in out

    def test_exit_one_on_findings_and_json_format(self, tmp_path, capsys):
        make_package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/worker.py": """\
                    import os

                    def anything(payload):
                        return payload
                """,
            },
        )
        # Default config: the repo entrypoints don't exist in this tree,
        # so the run must fail loudly (errors), never silently pass.
        code = analysis_main(["flow", str(tmp_path / "pkg"), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"]

    def test_unknown_select_is_a_usage_error(self, tmp_path):
        make_package(tmp_path, {"pkg/__init__.py": ""})
        assert analysis_main(["flow", str(tmp_path / "pkg"), "--select", "REP999"]) == 2

    def test_shipped_tree_is_clean(self):
        assert analysis_main(["flow", SRC_REPRO]) == 0


@pytest.fixture
def repro_copy(tmp_path):
    """A private copy of the real package tree, safe to mutate."""
    target = tmp_path / "repro"
    shutil.copytree(
        SRC_REPRO, target, ignore=shutil.ignore_patterns("__pycache__")
    )
    return target


def mutate(path, anchor, replacement):
    text = path.read_text()
    assert anchor in text, f"mutation anchor not found in {path}"
    path.write_text(text.replace(anchor, replacement, 1))


class TestSeededMutations:
    """Injected defects must produce the expected findings."""

    def test_wall_clock_in_merge_path_raises_rep201(self, repro_copy):
        # A merged partial that carries the time it was merged is no
        # longer a function of its inputs (docs/determinism.md clause 1),
        # yet every field the reports compare is unchanged.
        mutate(
            repro_copy / "nids" / "engine.py",
            '''        """Fold *other* into this partial — exact and order-independent."""
''',
            '''        """Fold *other* into this partial — exact and order-independent."""
        import time

        self.merged_at = time.time()
''',
        )
        result = flow_paths([str(repro_copy)])
        assert any(
            v.rule_id == "REP201" and "merge" in v.message
            for v in result.violations
        ), result.violations

    def test_bare_set_iteration_in_report_assembly_raises_rep202(self, repro_copy):
        emulation = repro_copy / "nids" / "emulation.py"
        text = emulation.read_text()
        anchor = "def run_emulation("
        assert anchor in text
        body_start = text.index("\n", text.index('"""', text.index('"""', text.index(anchor)) + 3)) + 1
        injected = (
            "    _scramble = []\n"
            "    for _key in {1, 2, 3}:\n"
            "        _scramble.append(_key)\n"
        )
        emulation.write_text(text[:body_start] + injected + text[body_start:])
        result = flow_paths([str(repro_copy)])
        assert any(
            v.rule_id == "REP202" and "run_emulation" in v.message
            for v in result.violations
        ), result.violations

    def test_undeclared_message_kind_in_controller_raises_rep206(self, repro_copy):
        controller = repro_copy / "control" / "controller.py"
        mutate(
            controller,
            "            elif message.kind == KIND_RESYNC_REQUEST:",
            "            elif message.kind == \"rebalance\":\n"
            "                pass\n"
            "            elif message.kind == KIND_RESYNC_REQUEST:",
        )
        result = flow_paths([str(repro_copy)])
        assert any(
            v.rule_id == "REP206" and "'rebalance'" in v.message
            for v in result.violations
        ), result.violations

    def test_unsorted_class_fold_in_controller_drift_raises_rep202(
        self, repro_copy
    ):
        # The drift trigger's L1 sum over the classes in set order gave
        # three different values across PYTHONHASHSEED 0-9.
        mutate(
            repro_copy / "control" / "controller.py",
            "classes = sorted(set(reference) | set(current))",
            "classes = set(reference) | set(current)",
        )
        result = flow_paths([str(repro_copy)])
        assert any(
            v.rule_id == "REP202" and "_drift" in v.message
            for v in result.violations
        ), result.violations

    def test_unmutated_copy_is_clean(self, repro_copy):
        result = flow_paths([str(repro_copy)])
        assert result.ok, (result.violations, result.errors)
