"""The NetFlow → planning-input path against the per-record loops it
replaced (``tests/measurement_oracle.py``), compared with ``==``.

* ``FlowExporter.measure`` against ``export`` + ``build_report``: the
  same four report dicts, in the same key order, and the exporter's RNG
  left in the same state.
* ``estimate_units`` against the per-pair dict loop: the same units —
  and the same :class:`~repro.core.units.UnitTable` columns, bit for
  bit — on
  crafted reports (a sampling scale that is not an integer, the two-port
  ``login`` and ``http`` filters, a pair with flows but no port rows,
  pairs with zero flows, ingress and egress keys folding many pairs, a
  multi-agent merge with a duplicated pair, an empty report), on random
  reports drawn by Hypothesis, and through whole chaos runs.
* ``pair_unit_keys``, now a pass over coded pair ends, against one
  ``unit_key`` call per pair (Hypothesis pairs: repeats, both
  orientations, one node at both ends).
* ``eligible_nodes``, now memoised on the ``PathSet``, against walking
  both directed paths on every call.
* Malformed measurement fails loudly: a negative or non-finite report
  volume, an estimated unit volume that is not finite (where the loop
  returned ``inf`` or ``nan``), and an :class:`EstimationModel` ratio
  outside ``[0, 1]``.

Seeded mutations each of which fails a test here: folding each unit's
pairs in sorted pair order (``test_crafted_reports_estimate_as_the_loop[
ingress-egress-folds]``); folding with ``np.add.reduceat`` over the pairs
stably sorted by unit (the same case); dropping the TCP-share scaling of
protocol-wide TCP modules (``test_crafted_reports_estimate_as_the_loop[
flows-without-port-rows]`` and every case with a ``synflood`` unit); drawing the
sampling RNG when the rate is 1.0
(``test_an_unsampled_measure_draws_nothing``).
"""

import dataclasses
import math
import pickle
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control import controller as controller_module
from repro.control.chaos import NAMED_PLANS, build_plan, run_chaos
from repro.control.epochs import merge_reports
from repro.control.plane import ScenarioConfig
from repro.core.units import eligible_nodes, pair_unit_keys
from repro.measurement import EstimationModel, FlowExporter, TrafficReport, estimate_units
from repro.nids.modules import STANDARD_MODULES
from repro.nids.modules.base import Scope
from repro.topology import PathSet, by_label
from repro.traffic.packet import TCP, UDP, FiveTuple
from repro.traffic.session import Session
from tests import measurement_oracle as oracle
from tests.planning_oracle import assert_same_units

PATHS = PathSet(by_label("internet2"))
NODES = sorted(PATHS.topology.node_names)
#: Every server port a standard module filters on, and two none does.
PORTS = (23, 69, 80, 135, 443, 513, 6667, 8080, 53)


def _session(i, ingress, egress, dport, packets, proto=TCP):
    return Session(
        session_id=i,
        tuple=FiveTuple(
            src=1000 + i, dst=2000 + i % 7, sport=40000 + i, dport=dport, proto=proto
        ),
        app="crafted",
        ingress=ingress,
        egress=egress,
        start_time=0.5 * i,
        num_packets=packets,
        num_bytes=100 * packets,
    )


def _sessions(count, seed=0):
    """*count* sessions over a handful of pairs and every filtered port."""
    sessions = []
    for i in range(count):
        a = NODES[(i * 7 + seed) % len(NODES)]
        b = NODES[(i * 3 + 2 * seed) % len(NODES)]
        port = PORTS[(i + seed) % len(PORTS)]
        sessions.append(
            _session(i, a, b, port, 1 + (i * 13) % 29, UDP if port in (53, 69) else TCP)
        )
    return sessions


def _report(flows, packets=None, port_flows=(), port_packets=None):
    """A report from rows: ``flows`` / ``packets`` are ``(pair, value)``
    lists, the port rows ``((pair, port), value)`` lists; packets default
    to three per flow."""
    report = TrafficReport(interval_seconds=300.0, sampling_rate=1.0)
    report.pair_flows.update(flows)
    report.pair_packets.update(
        packets if packets is not None else [(p, 3.0 * v) for p, v in flows]
    )
    report.pair_port_flows.update(port_flows)
    report.pair_port_packets.update(
        port_packets
        if port_packets is not None
        else [(k, 3.0 * v) for k, v in port_flows]
    )
    return report


def _assert_same_report(product, expected):
    assert product == expected
    for name in ("pair_flows", "pair_packets", "pair_port_flows", "pair_port_packets"):
        assert list(getattr(product, name)) == list(getattr(expected, name)), name


def _finite(unit):
    return all(map(math.isfinite, (unit.pkts, unit.items, unit.cpu_work)))


def _assert_same_units(report, paths=PATHS, model=EstimationModel()):
    """The loop's units, or a ``ValueError`` where the loop lets a
    non-finite volume through (``nan`` would defeat ``==``)."""
    expected = oracle.estimate_units(STANDARD_MODULES, report, paths, model)
    if not all(map(_finite, expected)):
        with pytest.raises(ValueError, match="a unit volume must be finite"):
            estimate_units(STANDARD_MODULES, report, paths, model)
        return None
    units = estimate_units(STANDARD_MODULES, report, paths, model)
    assert units == expected
    assert_same_units(units, expected, paths.topology.node_names)
    return units


def _folds():
    """Ingress STTL and egress NYCM each fold eleven pairs whose sum
    depends on the order: one huge pair first, in report order, then ten
    small ones that round away against it."""
    rows = [(("STTL", "WASH"), 1e16)]
    rows += [(("STTL", n), 1.0) for n in reversed(NODES) if n not in ("STTL", "WASH")]
    rows += [(("WASH", "NYCM"), 3e16)]
    rows += [((n, "NYCM"), 1.0) for n in reversed(NODES) if n not in ("WASH", "NYCM")]
    packets = [(p, v * (2.0 + len(p[1]) / 10.0)) for p, v in rows]
    port_flows = [
        ((p, port), v / share) for port, share in ((80, 2.0), (8080, 4.0)) for p, v in rows
    ]
    return _report(rows, packets, port_flows)


CRAFTED = {
    "two-port-filters": lambda: _report(
        [(("ATLA", "WASH"), 10.0), (("CHIN", "ATLA"), 7.0)],
        port_flows=[
            ((("ATLA", "WASH"), 80), 0.1),
            ((("ATLA", "WASH"), 8080), 0.2),
            ((("ATLA", "WASH"), 23), 0.7),
            ((("ATLA", "WASH"), 513), 1e-17),
            ((("CHIN", "ATLA"), 513), 3.0),
        ],
    ),
    "flows-without-port-rows": lambda: _report(
        [(("LOSA", "HSTN"), 5.0), (("HSTN", "LOSA"), 2.0)],
        port_flows=[((("HSTN", "LOSA"), 80), 2.0)],
    ),
    "zero-flow-pairs": lambda: _report(
        [(("DNVR", "KSCY"), 0.0), (("KSCY", "DNVR"), 4.0), (("IPLS", "IPLS"), 0.0)],
        port_flows=[((("DNVR", "KSCY"), 80), 3.0), ((("KSCY", "DNVR"), 6667), 1.0)],
    ),
    "ingress-egress-folds": _folds,
    "empty": lambda: _report([]),
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_reports_estimate_as_the_loop(case):
    units = _assert_same_units(CRAFTED[case]())
    assert bool(units) == (case != "empty")


def test_a_report_with_no_flows_estimates_no_units():
    report = _report(
        [(("ATLA", "WASH"), 0.0), (("WASH", "ATLA"), 0.0)],
        port_flows=[((("ATLA", "WASH"), 80), 0.0)],
    )
    assert len(_assert_same_units(report)) == 0
    assert len(_assert_same_units(TrafficReport(300.0, 1.0))) == 0


def test_singleton_units_from_a_report():
    """Ingress- and egress-scoped classes: each unit one CSR entry, its
    own location, folded from every pair that enters or leaves there."""
    edge = [m for m in STANDARD_MODULES if m.scope is not Scope.PATH]
    report = _folds()
    units = estimate_units(edge, report, PATHS)
    expected = oracle.estimate_units(edge, report, PATHS)
    assert_same_units(units, expected, PATHS.topology.node_names)
    assert units.sizes.tolist() == [1] * len(units) and len(units) > 0
    assert [units.nodes[c] for c in units.codes.tolist()] == [
        key[0] for _name, key in units.idents
    ]


def test_the_folds_depend_on_pair_order():
    """The fold case tests order only if another order sums differently."""
    report = _folds()
    resorted = dataclasses.replace(
        report, pair_flows=dict(sorted(report.pair_flows.items()))
    )

    def scan_cpu(report):
        units = oracle.estimate_units(STANDARD_MODULES, report, PATHS)
        return next(u.cpu_work for u in units if u.ident == ("scan", ("STTL",)))

    assert scan_cpu(report) != scan_cpu(resorted)


@pytest.mark.parametrize("rate", [1.0, 0.37])
def test_measure_reports_as_export_and_build(rate):
    sessions = _sessions(400)
    product = FlowExporter(rate, seed=11)
    reference = FlowExporter(rate, seed=11)
    # Two intervals from one exporter: the second starts where the first
    # left the RNG.
    for chunk in (sessions[:150], sessions[150:]):
        report = product.measure(chunk, interval_seconds=1.0)
        expected = oracle.measure(reference, chunk, interval_seconds=1.0)
        _assert_same_report(report, expected)
        _assert_same_units(report)


def test_an_unsampled_measure_draws_nothing():
    exporter = FlowExporter(1.0, seed=5)
    exporter.measure(_sessions(50))
    assert exporter._rng.random() == FlowExporter(1.0, seed=5)._rng.random()


def test_empty_measure():
    _assert_same_report(
        FlowExporter(0.5, seed=1).measure([]), oracle.measure(FlowExporter(0.5, seed=1), [])
    )


def test_merged_reports_with_a_duplicated_pair_estimate_as_the_loop():
    sessions = _sessions(300)
    reports = [
        FlowExporter(0.37, seed=seed).measure(sessions[seed::3]) for seed in range(3)
    ]
    # The same agent's report delivered twice.
    reports.append(reports[1])
    merged = merge_reports(reports)
    assert any(pair in reports[0].pair_flows for pair in reports[1].pair_flows)
    _assert_same_units(merged)


pairs = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
port_rows = st.tuples(pairs, st.sampled_from(PORTS))
volumes = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e17, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=50).map(lambda n: n / 0.37),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    flows=st.lists(st.tuples(pairs, volumes), max_size=30),
    packets=st.lists(st.tuples(pairs, volumes), max_size=30),
    port_flows=st.lists(st.tuples(port_rows, volumes), max_size=40),
    port_packets=st.lists(st.tuples(port_rows, volumes), max_size=40),
    tcp_fraction=st.floats(min_value=0.0, max_value=1.0),
    half_open=st.floats(min_value=0.0, max_value=1.0),
)
def test_random_reports_estimate_as_the_loop(
    flows, packets, port_flows, port_packets, tcp_fraction, half_open
):
    report = _report(flows, packets, port_flows, port_packets)
    model = EstimationModel(tcp_fraction=tcp_fraction, half_open_fraction=half_open)
    _assert_same_units(report, model=model)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(*[st.sampled_from(["A", "B", "a", "b", "AB", "Ab", ""])] * 2),
        max_size=40,
    ),
    scope=st.sampled_from(list(Scope)),
)
def test_pair_unit_keys_are_the_per_pair_loop(pairs, scope):
    # Repeated pairs, both orientations, a pair with one node at both
    # ends, and names whose order is not their length's.
    keys, pair_unit = pair_unit_keys(pairs, scope)
    expected_keys, expected_pair_unit = oracle.pair_unit_keys(pairs, scope)
    assert keys == expected_keys
    assert pair_unit.dtype == expected_pair_unit.dtype
    assert pair_unit.tolist() == expected_pair_unit.tolist()


# -- routing memo ------------------------------------------------------------


@pytest.mark.parametrize("label", ["internet2", "Geant", "pop100"])
def test_eligible_sets_are_the_two_path_walk(label):
    paths = PathSet(by_label(label))
    nodes = paths.topology.node_names
    for a in nodes:
        assert eligible_nodes((a,), paths) == (a,)
        for b in nodes:
            if a <= b:
                key = (a, b)
                first = eligible_nodes(key, paths)
                assert first == oracle.eligible_nodes(key, paths)
                assert eligible_nodes(key, paths) is first


def test_the_eligible_memo_is_not_pickled():
    paths = PathSet(by_label("internet2"))
    eligible_nodes(("ATLA", "WASH"), paths)
    assert paths._observers
    restored = pickle.loads(pickle.dumps(paths))
    assert restored._observers == {}
    assert eligible_nodes(("ATLA", "WASH"), restored) == paths.observers("ATLA", "WASH")


# -- malformed measurement ----------------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize(
    "field", ["pair_flows", "pair_packets", "pair_port_flows", "pair_port_packets"]
)
def test_a_malformed_volume_is_refused_by_name(field, value):
    report = _report(
        [(("ATLA", "WASH"), 4.0), (("CHIN", "NYCM"), 2.0)],
        port_flows=[((("ATLA", "WASH"), 80), 4.0), ((("CHIN", "NYCM"), 80), 2.0)],
    )
    pair = ("CHIN", "NYCM")
    key = pair if field in ("pair_flows", "pair_packets") else (pair, 80)
    getattr(report, field)[key] = value
    with pytest.raises(ValueError, match=re.escape(f"{field}[{key!r}]")):
        estimate_units(STANDARD_MODULES, report, PATHS)


def test_an_overflowing_flow_average_is_refused_by_unit():
    # One subnormal flow carrying one packet: its packets per flow
    # overflow, and the loop's cost for a per-session module is ``nan``.
    report = _report(
        [(("ATLA", "ATLA"), 2.225073858507203e-309)], [(("ATLA", "ATLA"), 1.0)]
    )
    expected = oracle.estimate_units(STANDARD_MODULES, report, PATHS)
    assert any(math.isnan(unit.cpu_work) for unit in expected)
    with pytest.raises(ValueError, match=re.escape("of scan unit ('ATLA',) = nan")):
        estimate_units(STANDARD_MODULES, report, PATHS)
    _assert_same_units(report)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, 1.5])
@pytest.mark.parametrize(
    "ratio",
    ["distinct_source_ratio", "distinct_dest_ratio", "half_open_fraction", "tcp_fraction"],
)
def test_estimation_ratios_are_finite_shares(ratio, value):
    with pytest.raises(ValueError, match=ratio):
        EstimationModel(**{ratio: value})


def test_the_estimation_model_is_frozen():
    model = EstimationModel()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.tcp_fraction = 0.5
    assert EstimationModel(tcp_fraction=0.0, half_open_fraction=1.0).tcp_fraction == 0.0


# -- whole runs -----------------------------------------------------------------


@pytest.mark.parametrize(
    "plan, seed",
    [(plan, 7) for plan in sorted(NAMED_PLANS)] + [("random", s) for s in range(10)],
)
def test_whole_runs_estimate_as_the_loop(monkeypatch, plan, seed):
    topology = by_label("internet2")
    config = ScenarioConfig(
        plan=build_plan(plan, seed, 18, topology.node_names), seed=seed
    )
    result = run_chaos(config)
    monkeypatch.setattr(controller_module, "estimate_units", oracle.estimate_units)
    monkeypatch.setattr(FlowExporter, "measure", oracle.measure)
    expected = run_chaos(config)
    assert [dataclasses.asdict(r) for r in result.records] == [
        dataclasses.asdict(r) for r in expected.records
    ]
    assert result.bus_stats == expected.bus_stats
    assert result.violations == expected.violations
