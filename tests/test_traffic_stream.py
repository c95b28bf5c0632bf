"""Chunked/streaming traffic generation: one RNG stream, any chunking.

``generate_chunks`` must be a pure re-chunking of the seeded session
stream — no per-chunk reseeding, no chunk-dependent draw block, no
drift — so the concatenation is
invariant to chunk size and ``generate`` (which additionally sorts by
start time) is reproduced verbatim.  The streaming emulation entry
points then inherit bit-identical reports from the engine's exact
accounting.
"""

import pytest

from repro.core.nids_deployment import plan_deployment
from repro.experiments import scaled
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import EmulationConfig, ExecutionPolicy
from repro.nids.modules import STANDARD_MODULES, module_set
from repro.obs import MetricsRegistry, use_registry
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def generator():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    return TrafficGenerator(topo, paths, config=GeneratorConfig(seed=31))


class TestChunkStability:
    def test_concat_invariant_across_chunk_sizes(self, generator):
        """The emitted sequence is identical for every chunk size —
        the seeded-RNG stream does not depend on how it is sliced."""
        (whole,) = generator.generate_chunks(2000, 2000)
        reference = list(whole)
        for chunk_size in (1, 7, 97, 1000, 2000, 5000):
            chunks = list(generator.generate_chunks(2000, chunk_size))
            assert all(len(c) <= chunk_size for c in chunks)
            concatenated = [s for chunk in chunks for s in chunk]
            assert concatenated == reference

    def test_sorted_concat_equals_generate(self, generator):
        """generate == stable sort of the streamed sequence; chunking
        never changes what a materializing caller would have seen."""
        materialized = generator.generate(1500)
        streamed = [s for chunk in generator.generate_chunks(1500, 256) for s in chunk]
        assert sorted(streamed, key=lambda s: s.start_time) == list(materialized)

    def test_same_seed_same_stream(self, generator):
        """Two generators with the same config emit the same chunks."""
        topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
        other = TrafficGenerator(
            topo, PathSet(topo), config=GeneratorConfig(seed=31)
        )
        assert list(map(list, generator.generate_chunks(800, 129))) == list(
            map(list, other.generate_chunks(800, 129))
        )

    def test_exact_session_budget(self, generator):
        """Chunking emits exactly num_sessions sessions, ids 0..n-1."""
        streamed = [s for chunk in generator.generate_chunks(1003, 100) for s in chunk]
        assert len(streamed) == 1003
        assert sorted(s.session_id for s in streamed) == list(range(1003))

    def test_invalid_chunk_size_rejected(self, generator):
        with pytest.raises(ValueError):
            next(generator.generate_chunks(10, 0))

    def test_stream_counters_recorded(self, generator):
        registry = MetricsRegistry()
        with use_registry(registry):
            chunks = list(generator.generate_chunks(250, 64))
        assert registry.counter("traffic_chunks_generated_total").value() == len(
            chunks
        )
        assert registry.counter("traffic_sessions_streamed_total").value() == 250


class TestStreamingEmulation:
    @pytest.fixture(scope="class")
    def deployment(self, generator):
        sessions = generator.generate(3000)
        return (
            plan_deployment(
                generator.topology, generator.paths, STANDARD_MODULES, sessions
            ),
            sessions,
        )

    def test_coordinated_stream_bit_identical(self, generator, deployment):
        """Streaming chunks through persistent per-node instances and
        merging partials equals the materialize-all run exactly —
        order independence of the exact accounting, end to end."""
        plan, sessions = deployment
        materialized = run_emulation(
            Traffic.materialized(generator, sessions), plan, config=EmulationConfig()
        )
        streaming = EmulationConfig(policy=ExecutionPolicy.streamed())
        for chunk_size in (257, 1024, 5000):
            streamed = run_emulation(
                Traffic.chunked(
                    generator, generator.generate_chunks(3000, chunk_size)
                ),
                plan,
                config=streaming,
            )
            assert streamed.to_dict()["reports"] == materialized.to_dict()["reports"]

    def test_edge_stream_bit_identical(self, generator, deployment):
        _, sessions = deployment
        materialized = run_emulation(
            Traffic.materialized(generator, sessions),
            STANDARD_MODULES,
            config=EmulationConfig(),
        )
        streamed = run_emulation(
            Traffic.chunked(generator, generator.generate_chunks(3000, 512)),
            STANDARD_MODULES,
            config=EmulationConfig(policy=ExecutionPolicy.streamed()),
        )
        assert streamed.to_dict()["reports"] == materialized.to_dict()["reports"]

    def test_generated_traffic_streams_by_policy_chunk_size(self, generator, deployment):
        """``Traffic.generate`` + a streamed policy chunks by the
        policy's ``chunk_size`` — no pre-materialized list anywhere."""
        plan, sessions = deployment
        materialized = run_emulation(
            Traffic.materialized(generator, sessions), plan, config=EmulationConfig()
        )
        streamed = run_emulation(
            Traffic.generate(generator, 3000),
            plan,
            config=EmulationConfig(policy=ExecutionPolicy.streamed(chunk_size=999)),
        )
        assert streamed.to_dict()["reports"] == materialized.to_dict()["reports"]

    def test_stream_chunk_counter(self, generator, deployment):
        plan, _ = deployment
        registry = MetricsRegistry()
        run_emulation(
            Traffic.chunked(generator, generator.generate_chunks(1000, 250)),
            plan,
            config=EmulationConfig(policy=ExecutionPolicy.streamed()),
            registry=registry,
        )
        assert registry.counter("engine_stream_chunks_total").value() == 4


def assert_bit_identical(actual, expected):
    """Float-hex equality of two DeploymentUsage objects, per node."""
    assert set(actual.reports) == set(expected.reports)
    for node in expected.reports:
        a, b = actual.reports[node], expected.reports[node]
        assert float(a.cpu).hex() == float(b.cpu).hex(), node
        assert float(a.mem_bytes).hex() == float(b.mem_bytes).hex(), node
        assert a.tracked_connections == b.tracked_connections, node
        assert set(a.module_cpu) == set(b.module_cpu), node
        for module, cpu in b.module_cpu.items():
            assert float(a.module_cpu[module]).hex() == float(cpu).hex(), (
                node,
                module,
            )
        assert a.module_items == b.module_items, node
    assert actual.to_dict() == expected.to_dict()


class TestStreamInvariance:
    """Streamed vs inline at the paper's volume (100k sessions)."""

    def test_streamed_matches_inline(self):
        topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
        paths = PathSet(topo)
        generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=23))
        sessions = generator.generate(scaled(100_000, minimum=5_000))
        modules = module_set(8)
        deployment = plan_deployment(topo, paths, modules, sessions)
        traffic = Traffic.materialized(generator, sessions)
        streamed = EmulationConfig(policy=ExecutionPolicy.streamed(chunk_size=7_919))
        for target in (modules, deployment):
            assert_bit_identical(
                run_emulation(traffic, target, config=streamed),
                run_emulation(traffic, target, config=EmulationConfig()),
            )


class TestTraffic:
    @pytest.fixture(scope="class")
    def sessions(self, generator):
        return generator.generate(2_500)

    def test_exactly_one_source_required(self, generator, sessions):
        with pytest.raises(ValueError):
            Traffic(generator)
        with pytest.raises(ValueError):
            Traffic(generator, sessions=sessions, num_sessions=10)

    def test_generate_source_materializes_deterministically(
        self, generator, sessions
    ):
        traffic = Traffic.generate(generator, len(sessions))
        assert list(traffic.batch()) == list(sessions)

    def test_materialized_chunk_iter_slices(self, generator, sessions):
        traffic = Traffic.materialized(generator, sessions)
        chunks = list(traffic.batches(700))
        assert [s for chunk in chunks for s in chunk] == list(sessions)
        assert all(len(chunk) <= 700 for chunk in chunks)
