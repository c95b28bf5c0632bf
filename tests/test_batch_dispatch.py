"""Batch dispatch: bit-identical to the per-session Fig. 3 procedure.

The vectorized dispatch (``decide_batch`` / ``batch_decisions``, which
the engine consumes) is an optimization, not a semantic change: every
test here asserts *exact* equality with the per-session reference API
(``decide_session`` / ``should_analyze``) — same modules, same
coordination units, bit-identical hash values, identical analyze
verdicts — and emulation reports equal to the per-session oracle's.
"""

import numpy as np
import pytest

from repro.core.dispatch import CoordinatedDispatcher
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import BroMode
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator
from tests.scalar_oracle import (
    ScalarOracle,
    assert_batch_decisions_match_reference,
)


@pytest.fixture(scope="module")
def deployment_setup():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=51))
    sessions = generator.generate(2000)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    return topo, generator, sessions, deployment


class TestDispatcherEquivalence:
    def test_decide_batch_matches_decide_session(self, deployment_setup):
        """decide_batch == [decide_session(s) for s] field for field,
        on every node of the deployment."""
        topo, _, sessions, deployment = deployment_setup
        for node in topo.node_names:
            dispatcher = deployment.dispatcher(node)
            batch = dispatcher.decide_batch(sessions[:400])
            for session, decisions in zip(sessions[:400], batch):
                scalar = dispatcher.decide_session(session)
                assert len(decisions) == len(scalar)
                for got, want in zip(decisions, scalar):
                    assert got.module is want.module
                    assert got.unit == want.unit
                    assert got.hash_value == want.hash_value  # bit-exact
                    assert got.analyze == want.analyze

    def test_batch_decisions_match_should_analyze(self, deployment_setup):
        topo, _, sessions, deployment = deployment_setup
        for node in topo.node_names[:4]:
            assert_batch_decisions_match_reference(
                deployment.dispatcher(node), sessions[:500]
            )

    def test_batch_with_cold_cache_matches_warm(self, deployment_setup):
        """A dispatcher with a private empty cache batches identically
        to one sharing the deployment-wide cache, warmed here through
        the per-session API (the batch sweep never reads the cache)."""
        topo, _, sessions, deployment = deployment_setup
        node = topo.node_names[2]
        trace = sessions[:300]
        warm = deployment.dispatcher(node)
        for session in trace:
            warm.decide_session(session)
        cold = CoordinatedDispatcher(
            node=node,
            manifest=deployment.manifests[node],
            modules=deployment.modules,
            resolver=deployment.resolver,
            hash_seed=deployment.hash_seed,
        )
        batch = SessionBatch(trace)
        for got, want in zip(cold.batch_decisions(batch), warm.batch_decisions(batch)):
            assert got.spec is want.spec
            assert np.array_equal(got.match, want.match)
            assert np.array_equal(got.analyze, want.analyze)
            assert np.array_equal(got.responsible, want.responsible)

    def test_empty_and_singleton_batches(self, deployment_setup):
        topo, _, sessions, deployment = deployment_setup
        dispatcher = deployment.dispatcher(topo.node_names[0])
        assert dispatcher.decide_batch([]) == []
        for decision in dispatcher.batch_decisions(SessionBatch([])):
            assert len(decision.match) == len(decision.analyze) == 0
            assert len(decision.responsible) == 0
        single = dispatcher.decide_batch(sessions[:1])
        assert len(single) == 1
        scalar = dispatcher.decide_session(sessions[0])
        assert [d.hash_value for d in single[0]] == [d.hash_value for d in scalar]

    def test_full_manifest_batch_analyzes_all_matched(self, deployment_setup):
        _, _, sessions, deployment = deployment_setup
        dispatcher = CoordinatedDispatcher(
            node="STTL",
            manifest=full_manifest("STTL"),
            modules=STANDARD_MODULES,
            resolver=deployment.resolver,
        )
        for decisions in dispatcher.decide_batch(sessions[:200]):
            for decision in decisions:
                assert decision.analyze


class TestEmulationEquivalence:
    def test_batch_emulation_report_identical_to_scalar(self, deployment_setup):
        """Coordinated ``run_emulation`` produces, on every node, the
        exact report of the per-session oracle run over that node's
        trace: same CPU, memory, connection counts, per-module loads."""
        topo, generator, sessions, deployment = deployment_setup
        usage = run_emulation(Traffic.materialized(generator, sessions), deployment)
        traces = generator.split_by_node(sessions, transit=True)
        assert set(usage.reports) == set(traces)
        for node, trace in traces.items():
            oracle = ScalarOracle(
                node, deployment.modules, BroMode.COORD_EVENT,
                deployment.dispatcher(node),
            )
            assert usage.reports[node] == oracle.process_sessions(trace)
