"""The engine against its per-session oracle: bit-identical reports.

``BroInstance`` has one implementation (masked NumPy ops over session
arrays); ``tests/scalar_oracle.py`` is the per-session loop it must
reproduce.  Every test here asserts *exact* report equality — same
tracking levels, same coordination-check charges, bit-identical CPU
floats (both fold identical per-session subtotals into an exact
accumulator), identical item counts and alerts.
"""

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.nids.engine import BroInstance, BroMode, EmulationConfig
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator
from tests.scalar_oracle import ScalarOracle

ALL_MODES = [BroMode.UNMODIFIED, BroMode.COORD_POLICY, BroMode.COORD_EVENT]


@pytest.fixture(scope="module")
def network():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=23))
    sessions = generator.generate(4000)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    traces = generator.split_by_node(sessions, transit=True)
    return topo, traces, sessions, deployment


def _standalone(cls, topo, mode, config=None):
    dispatcher = None
    if mode is not BroMode.UNMODIFIED:
        dispatcher = CoordinatedDispatcher(
            node="standalone",
            manifest=full_manifest("standalone"),
            modules=STANDARD_MODULES,
            resolver=UnitResolver(topo.node_names),
        )
    return cls(
        node="standalone",
        modules=STANDARD_MODULES,
        mode=mode,
        dispatcher=dispatcher,
        config=config,
    )


class TestBitIdentity:
    def test_bit_identical_at_100k_sessions(self):
        """The headline parity guarantee: oracle and engine reports are
        *equal* (not approximately equal) at 100k+ sessions, where any
        summation-order drift would have accumulated."""
        topo = internet2()
        generator = TrafficGenerator(
            topo, PathSet(topo), config=GeneratorConfig(seed=97)
        )
        sessions = generator.generate(100_000)
        oracle_report = _standalone(
            ScalarOracle, topo, BroMode.COORD_EVENT
        ).process_sessions(sessions)
        engine_report = _standalone(
            BroInstance, topo, BroMode.COORD_EVENT
        ).process_sessions(sessions)
        assert oracle_report == engine_report
        # Explicitly: the floats are bit-identical, not approx-equal.
        assert oracle_report.cpu.hex() == engine_report.cpu.hex()
        assert oracle_report.mem_bytes.hex() == engine_report.mem_bytes.hex()
        for name, cpu in oracle_report.module_cpu.items():
            assert cpu.hex() == engine_report.module_cpu[name].hex()

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("fine_grained", [False, True])
    def test_all_modes_and_tracking_levels(self, network, mode, fine_grained):
        """Every Fig. 4 variant, with and without §2.5 fine-grained
        tracking (which exercises NONE/LIGHT/FULL levels)."""
        topo, traces, _, deployment = network
        config = EmulationConfig(fine_grained=fine_grained)
        for node in topo.node_names[:3]:
            dispatcher = (
                None if mode is BroMode.UNMODIFIED else deployment.dispatcher(node)
            )
            args = (node, STANDARD_MODULES, mode, dispatcher)
            trace = traces[node]
            oracle = ScalarOracle(*args, config=config)
            engine = BroInstance(*args, config=config)
            assert oracle.process_sessions_partial(
                trace
            ) == engine.process_sessions_partial(trace)
            assert oracle.process_sessions(trace) == engine.process_sessions(trace)

    def test_detectors_equivalent(self, network):
        """Behavioural detectors see the same sessions in the same
        order, so alerts match exactly."""
        topo, traces, _, deployment = network
        node = topo.node_names[1]
        config = EmulationConfig(run_detectors=True)
        args = (node, STANDARD_MODULES, BroMode.COORD_EVENT, deployment.dispatcher(node))
        oracle = ScalarOracle(*args, config=config).process_sessions(traces[node])
        engine = BroInstance(*args, config=config).process_sessions(traces[node])
        assert oracle.alerts
        assert oracle.alerts == engine.alerts
        assert oracle == engine


class TestRouting:
    def test_default_config_routes_through_batch(self, network):
        """No config at all behaves as ``EmulationConfig()`` and equals
        the oracle."""
        topo, _, sessions, _ = network
        trace = sessions[:2000]
        oracle = _standalone(ScalarOracle, topo, BroMode.COORD_EVENT)
        bare = _standalone(BroInstance, topo, BroMode.COORD_EVENT)
        explicit = _standalone(
            BroInstance, topo, BroMode.COORD_EVENT, EmulationConfig()
        )
        expected = oracle.process_sessions(trace)
        assert bare.process_sessions(trace) == expected
        assert explicit.process_sessions(trace) == expected

    def test_single_session_and_empty_trace(self, network):
        """Traces of length 0, 1 and 2 — the sizes that used to fall
        back to the scalar loop — in every mode, under a full manifest
        and under a planned (partial) one, given as a list and as a
        prebuilt ``SessionBatch``."""
        topo, traces, _, deployment = network
        node = topo.node_names[0]
        for mode in ALL_MODES:
            builders = [lambda cls: _standalone(cls, topo, mode)]
            if mode is not BroMode.UNMODIFIED:
                builders.append(
                    lambda cls: cls(
                        node, STANDARD_MODULES, mode, deployment.dispatcher(node)
                    )
                )
            for build in builders:
                for length in (0, 1, 2):
                    for start in (0, 7, 100):
                        trace = traces[node][start : start + length]
                        expected = build(ScalarOracle).process_sessions_partial(trace)
                        assert expected.num_sessions == length
                        for given in (trace, SessionBatch(trace)):
                            got = build(BroInstance).process_sessions_partial(given)
                            assert got == expected, (mode, length, start)

    def test_prebuilt_session_batch_accepted(self, network):
        """A SessionBatch built by the caller is used as-is."""
        topo, _, sessions, _ = network
        trace = sessions[:1500]
        from_list = _standalone(
            BroInstance, topo, BroMode.COORD_EVENT
        ).process_sessions(trace)
        from_batch = _standalone(
            BroInstance, topo, BroMode.COORD_EVENT
        ).process_sessions(SessionBatch(trace))
        assert from_list == from_batch
