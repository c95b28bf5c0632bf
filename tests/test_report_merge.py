"""PartialInstanceReport merge semantics for chunked runs.

Merging per-chunk partials — in any order, any chunking — must equal
the one-shot accounting exactly: counters add, distinct item keys
union, CPU accumulators merge exactly, and per-run quantities (the
process base memory, item memory) are applied once at finalize rather
than summed across chunks.  Pickling is loss-free, so a revived
partial still merges exactly.
"""

import copy
import pickle

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.exactsum import ExactSum
from repro.core.manifest import full_manifest
from repro.nids.engine import (
    BroInstance,
    BroMode,
    EmulationConfig,
    PartialInstanceReport,
)
from repro.nids.modules import STANDARD_MODULES
from repro.nids.resources import DEFAULT_COST_MODEL
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def trace():
    topo = internet2()
    generator = TrafficGenerator(
        topo, PathSet(topo), config=GeneratorConfig(seed=43)
    )
    return topo, generator.generate(3000)


def _instance(topo):
    dispatcher = CoordinatedDispatcher(
        node="standalone",
        manifest=full_manifest("standalone"),
        modules=STANDARD_MODULES,
        resolver=UnitResolver(topo.node_names),
    )
    return BroInstance(
        node="standalone",
        modules=STANDARD_MODULES,
        mode=BroMode.COORD_EVENT,
        dispatcher=dispatcher,
        config=EmulationConfig(),
    )


@pytest.fixture(scope="module")
def one_shot_and_chunked(trace):
    topo, sessions = trace
    one_shot = _instance(topo).process_sessions_partial(sessions)
    instance = _instance(topo)
    partials = [
        instance.process_sessions_partial(sessions[start : start + 700])
        for start in range(0, len(sessions), 700)
    ]
    return topo, sessions, one_shot, partials


class TestMergeExactness:
    def test_merged_partial_equals_one_shot(self, one_shot_and_chunked):
        _, _, one_shot, partials = one_shot_and_chunked
        merged = partials[0]
        rebuilt = copy.deepcopy(merged)
        for partial in partials[1:]:
            rebuilt.merge(partial)
        assert rebuilt == one_shot

    def test_merge_order_does_not_matter(self, one_shot_and_chunked):
        _, _, one_shot, partials = one_shot_and_chunked
        reversed_merge = copy.deepcopy(partials[-1])
        for partial in reversed(partials[:-1]):
            reversed_merge.merge(partial)
        assert reversed_merge == one_shot

    def test_finalized_reports_bit_identical(self, one_shot_and_chunked):
        """The user-facing guarantee: chunked and one-shot runs render
        the same InstanceReport, float for float."""
        topo, sessions, one_shot, partials = one_shot_and_chunked
        merged = copy.deepcopy(partials[0])
        for partial in partials[1:]:
            merged.merge(partial)
        instance = _instance(topo)
        assert instance.finalize_partial(merged) == instance.finalize_partial(
            one_shot
        )
        assert instance.finalize_partial(merged) == _instance(topo).process_sessions(
            sessions
        )

    def test_process_base_and_items_not_double_counted(self, one_shot_and_chunked):
        """The classic max/sum confusion: per-process base memory and
        distinct-item memory are finalize-time quantities.  Summing the
        chunks' finalized memories must NOT equal the merged memory."""
        topo, _, one_shot, partials = one_shot_and_chunked
        instance = _instance(topo)
        summed = sum(instance.finalize_partial(p).mem_bytes for p in partials)
        merged_mem = instance.finalize_partial(one_shot).mem_bytes
        base = float(DEFAULT_COST_MODEL.process_base_bytes)
        # Naive summation counts the base once per chunk.
        assert summed >= merged_mem + (len(partials) - 1) * base
        # And distinct items must union, not add: every module's item
        # count in the merge is bounded by the sum of chunk counts.
        merged = copy.deepcopy(partials[0])
        for partial in partials[1:]:
            merged.merge(partial)
        for name in merged.module_item_keys:
            chunk_total = sum(len(p.module_item_keys[name]) for p in partials)
            assert len(merged.module_item_keys[name]) <= chunk_total

    def test_merge_validation(self, one_shot_and_chunked):
        topo, _, one_shot, _ = one_shot_and_chunked
        other_node = PartialInstanceReport.empty(
            "elsewhere", BroMode.COORD_EVENT, list(one_shot.module_cpu)
        )
        with pytest.raises(ValueError):
            one_shot.merge(other_node)
        other_modules = PartialInstanceReport.empty(
            "standalone", BroMode.COORD_EVENT, ["only-one"]
        )
        with pytest.raises(ValueError):
            one_shot.merge(other_modules)


class TestRoundTrips:
    def test_partial_pickle_round_trip(self, one_shot_and_chunked):
        _, _, one_shot, partials = one_shot_and_chunked
        rebuilt = pickle.loads(pickle.dumps(one_shot))
        assert rebuilt == one_shot
        # A pickled-and-revived partial still merges exactly.
        revived = [pickle.loads(pickle.dumps(p)) for p in partials]
        merged = revived[0]
        for partial in revived[1:]:
            merged.merge(partial)
        assert merged == one_shot

    def test_instance_report_round_trips(self, one_shot_and_chunked):
        topo, _, one_shot, _ = one_shot_and_chunked
        report = _instance(topo).finalize_partial(one_shot)
        assert pickle.loads(pickle.dumps(report)) == report

    def test_exactsum_transport(self):
        acc = ExactSum.of([0.1, 1e-300, 1e300, -2.5e-13])
        assert pickle.loads(pickle.dumps(acc)) == acc
