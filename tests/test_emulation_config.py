"""EmulationConfig, its removed spellings, registry wiring, and the api facade."""

import dataclasses
import importlib
import pickle
import warnings

import pytest

from repro.core.nids_deployment import plan_deployment
from repro.hashing.keys import Aggregation
from repro.nids.emulation import (
    Traffic,
    compare_deployments,
    run_emulation,
)
from repro.nids.engine import (
    BroInstance,
    BroMode,
    EmulationConfig,
    ExecutionMode,
    ExecutionPolicy,
)
from repro.nids.modules import STANDARD_MODULES, module_set
from repro.nids.resources import DEFAULT_COST_MODEL
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from repro.traffic.batch import SessionBatch


@pytest.fixture(scope="module")
def world():
    topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=11))
    sessions = generator.generate(700)
    modules = module_set(8)
    deployment = plan_deployment(topology, paths, modules, sessions)
    return generator, sessions, modules, deployment


class TestEmulationConfig:
    def test_defaults(self):
        config = EmulationConfig()
        assert config.mode is BroMode.COORD_EVENT
        assert config.cost_model is DEFAULT_COST_MODEL
        assert config.run_detectors is False
        assert config.fine_grained is False
        assert config.registry is NULL_REGISTRY
        assert config.policy.mode is ExecutionMode.INLINE

    def test_exactly_six_fields(self):
        """One engine: no field selects an implementation, and any
        other keyword is a ``TypeError``."""
        names = [f.name for f in dataclasses.fields(EmulationConfig)]
        assert names == [
            "mode", "cost_model", "run_detectors", "fine_grained",
            "registry", "policy",
        ]
        with pytest.raises(TypeError):
            EmulationConfig(vectorized=True)

    def test_execution_policy_rejects_non_enum_mode(self):
        """A string mode used to be accepted and then compared with
        ``is``, so ``mode="streamed"`` silently ran inline."""
        with pytest.raises(TypeError, match="ExecutionMode"):
            ExecutionPolicy(mode="streamed")

    def test_config_rejects_non_enum_mode(self):
        with pytest.raises(TypeError, match="BroMode"):
            EmulationConfig(mode="coord-event")

    def test_frozen(self):
        with pytest.raises(Exception):
            EmulationConfig().run_detectors = True

    def test_instance_adopts_config(self):
        config = EmulationConfig(run_detectors=True)
        instance = BroInstance(
            node="NYCM",
            modules=STANDARD_MODULES[:2],
            mode=BroMode.UNMODIFIED,
            config=config,
        )
        assert instance.config is config
        assert instance.detectors
        assert instance.registry is NULL_REGISTRY


class TestDeprecationShims:
    """The PR 8 shims are gone: their spellings fail loudly."""

    def test_legacy_kwargs_on_instance(self):
        for legacy in (
            {"cost_model": DEFAULT_COST_MODEL},
            {"run_detectors": True},
            {"fine_grained": True},
        ):
            with pytest.raises(TypeError):
                BroInstance(
                    node="NYCM",
                    modules=STANDARD_MODULES[:2],
                    mode=BroMode.UNMODIFIED,
                    **legacy,
                )

    def test_wrapper_names_are_not_importable(self):
        for name in (
            "emulate_edge",
            "emulate_coordinated",
            "emulate_edge_stream",
            "emulate_coordinated_stream",
        ):
            for module in ("repro.api", "repro.nids", "repro.nids.emulation"):
                assert not hasattr(importlib.import_module(module), name)

    def test_run_emulation_does_not_warn(self, world):
        generator, sessions, modules, _ = world
        traffic = Traffic.materialized(generator, sessions)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_emulation(traffic, modules, config=EmulationConfig())

    def test_coordinated_rejects_unmodified_mode(self, world):
        generator, sessions, _, deployment = world
        traffic = Traffic.materialized(generator, sessions)
        with pytest.raises(ValueError):
            run_emulation(
                traffic,
                deployment,
                config=EmulationConfig(mode=BroMode.UNMODIFIED),
            )

    def test_explicit_registry_overrides_config(self, world):
        generator, sessions, modules, _ = world
        registry = MetricsRegistry()
        config = EmulationConfig()  # registry: NULL_REGISTRY
        traffic = Traffic.materialized(generator, sessions)
        run_emulation(traffic, modules, config=config, registry=registry)
        assert registry.get("emulate_edge_seconds").count() == 1
        # The caller's config object itself is untouched.
        assert config.registry is NULL_REGISTRY


class TestRemovedShardedSpellings:
    """The ``sharded`` execution policy is gone: its spellings fail loudly."""

    def test_policy_is_mode_and_chunk_size(self):
        names = tuple(f.name for f in dataclasses.fields(ExecutionPolicy))
        assert names == ("mode", "chunk_size")

    def test_sharded_constructor_and_fields(self):
        with pytest.raises(AttributeError):
            getattr(ExecutionPolicy, "sharded")
        with pytest.raises(TypeError):
            ExecutionPolicy(jobs=1)
        with pytest.raises(TypeError):
            ExecutionPolicy(mp_context="spawn")

    def test_sharded_mode_value(self):
        with pytest.raises(ValueError):
            ExecutionMode("sharded")
        assert [mode.value for mode in ExecutionMode] == ["inline", "streamed"]

    def test_run_sharded_is_not_importable(self):
        with pytest.raises(ImportError):
            from repro.nids import run_sharded  # noqa: F401
        with pytest.raises(ImportError):
            importlib.import_module("repro.nids.shard")

    @pytest.mark.parametrize(
        "flags",
        [["--execution", "sharded"], ["--jobs", "2"]],
        ids=["execution-sharded", "jobs"],
    )
    def test_cli_flags_are_usage_errors(self, flags, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["emulate", *flags])
        assert excinfo.value.code == 2
        assert flags[-1] in capsys.readouterr().err


class TestPickling:
    """Configs, module specs and session batches survive pickling."""

    def test_module_spec_roundtrip(self):
        for spec in STANDARD_MODULES:
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_emulation_config_roundtrip(self):
        config = EmulationConfig(
            run_detectors=True,
            policy=ExecutionPolicy.streamed(chunk_size=123),
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.run_detectors is True
        assert clone.policy.mode is ExecutionMode.STREAMED
        assert clone.policy.chunk_size == 123

    def test_session_batch_roundtrip(self, world):
        _, sessions, _, _ = world
        batch = SessionBatch(sessions[:200])
        clone = pickle.loads(pickle.dumps(batch))
        assert list(clone.session_ids) == list(batch.session_ids)
        assert list(clone.pkts) == list(batch.pkts)
        assert clone.pairs == batch.pairs

    def test_taken_batch_roundtrip_stands_alone(self, world):
        """A pickled take carries its own rows and hash slices, not the
        root it was gathered from."""
        _, sessions, _, _ = world
        root = SessionBatch(sessions)
        taken = root.take(range(5, 200, 3))
        hashes = taken.hash_column(Aggregation.SESSION, 7)
        payload = pickle.dumps(taken)
        assert len(payload) < len(pickle.dumps(root)) / 2
        clone = pickle.loads(payload)
        assert clone.root is clone
        assert list(clone) == list(sessions[5:200:3])
        for name in ("src", "dst", "sport", "dport", "proto", "pkts", "pkts_f",
                     "half_open", "session_ids", "group_ids"):
            assert getattr(clone, name).tolist() == getattr(taken, name).tolist()
        assert clone.pairs == taken.pairs
        assert clone.hash_column(Aggregation.SESSION, 7).tolist() == hashes.tolist()
        assert clone.hash_column(Aggregation.SOURCE, 7).tolist() == (
            taken.hash_column(Aggregation.SOURCE, 7).tolist()
        )
        assert clone.hashes_computed == len(clone)


class TestRegistryIntegration:
    def test_session_counts_match_profile_exactly(self, world):
        generator, sessions, _, deployment = world
        registry = MetricsRegistry()
        usage = run_emulation(
            Traffic.materialized(generator, sessions), deployment, registry=registry
        )
        counter = registry.get("dispatch_sessions_total")
        traces = generator.split_by_node(list(sessions), transit=True)
        assert set(usage.reports) == set(traces)
        for node, trace in traces.items():
            assert counter.value(node=node) == len(trace), node
        assert counter.total() == sum(len(t) for t in traces.values())
        # Throughput and timing series exist for every node that saw traffic.
        per_sec = registry.get("engine_sessions_per_second")
        for node, trace in traces.items():
            if trace:
                assert per_sec.value(node=node) > 0
        assert registry.get("emulate_coordinated_seconds").count() == 1

    def test_hash_cache_counters_propagate(self, world):
        generator, sessions, _, deployment = world
        # Rebuilt from the objects: a root whose hash columns no earlier
        # run has memoised.
        sessions = list(sessions)
        registry = MetricsRegistry()
        run_emulation(
            Traffic.materialized(generator, sessions), deployment, registry=registry
        )
        # lookup3 evaluations actually performed: once per session and
        # aggregation for the whole trace, whatever the execution shape
        # — not once per node on the session's path.
        aggregations = {spec.aggregation for spec in deployment.modules}
        expected = len(aggregations) * len(sessions)
        batched = registry.get("hash_batch_computed_total")
        assert batched.label_names == ()
        assert batched.total() == expected
        streamed = MetricsRegistry()
        run_emulation(
            Traffic.materialized(generator, sessions),
            deployment,
            config=EmulationConfig(policy=ExecutionPolicy.streamed(chunk_size=97)),
            registry=streamed,
        )
        assert streamed.get("hash_batch_computed_total").total() == expected

    def test_null_registry_default_records_nothing(self, world):
        generator, sessions, _, deployment = world
        usage = run_emulation(Traffic.materialized(generator, sessions), deployment)
        assert usage.reports
        assert NULL_REGISTRY.metrics() == []

    def test_live_registry_changes_no_result(self, world):
        generator, sessions, modules, deployment = world
        traffic = Traffic.materialized(generator, sessions)
        for target in (deployment, modules):
            observed = run_emulation(traffic, target, registry=MetricsRegistry())
            assert observed.to_dict() == run_emulation(traffic, target).to_dict()

    def test_compare_deployments_shares_one_config(self, world):
        generator, sessions, _, deployment = world
        registry = MetricsRegistry()
        compare_deployments(
            deployment, generator, sessions, x=1.0, registry=registry
        )
        assert registry.get("emulate_edge_seconds").count() == 1
        assert registry.get("emulate_coordinated_seconds").count() == 1


class TestApiFacade:
    def test_lazy_attribute_access(self):
        import repro

        api = repro.api
        assert api is not None
        from repro import api as direct

        assert direct is api

    def test_all_names_resolve(self):
        from repro import api

        for name in api.__all__:
            assert hasattr(api, name), name

    def test_blessed_surface_covers_the_pipeline(self):
        from repro import api

        for name in (
            "plan_deployment",
            "run_emulation",
            "Traffic",
            "ExecutionPolicy",
            "EmulationConfig",
            "run_scenario",
            "MetricsRegistry",
            "use_registry",
            "MetricsSnapshotReport",
            "Report",
        ):
            assert name in api.__all__, name

    def test_surface_is_pr11_minus_the_four_wrappers(self):
        """The facade carries exactly the names read through it outside
        ``src/``: the README, ``docs/`` and this class."""
        from repro import api

        assert sorted(api.__all__) == [
            "EmulationConfig", "ExecutionPolicy", "MetricsRegistry",
            "MetricsSnapshotReport", "Report", "ScenarioConfig", "Traffic",
            "plan_deployment", "quick_nids_deployment", "run_emulation",
            "run_scenario", "use_registry",
        ]

    def test_facade_objects_are_the_canonical_ones(self):
        from repro import api
        from repro.control.scenarios import run_scenario
        from repro.obs import MetricsRegistry as CanonicalRegistry

        assert api.run_scenario is run_scenario
        assert api.MetricsRegistry is CanonicalRegistry
        assert api.EmulationConfig is EmulationConfig
