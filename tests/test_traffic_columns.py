"""The column-born trace: its ``Sequence[Session]`` view, its exact
columns, and the template rule.

``TrafficGenerator`` draws whole columns and never constructs a
``Session``.  Every comparison here is ``==``: a root's columns (dtype
included) against the list-built form of its own lazily built
``Session`` objects, chunk boundaries, the stable start-time order, the
columns the stream does not draw (ids, pairs, home bits) against
``tests/traffic_oracle.py``, the uniform → template rule against
``random.choices``, and — end to end — the CLI's report bytes.  The
structural tests count ``Session.__init__`` calls: zero on the
generate → plan / emulate path, one per root row when objects are asked
for, however many views ask.
"""

import dataclasses
import json
import pickle
import random

import numpy as np
import pytest

from repro.cli import main
from repro.core.nids_deployment import plan_deployment
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import EmulationConfig, ExecutionPolicy
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, by_label
from repro.traffic import (
    GeneratorConfig,
    SessionBatch,
    TrafficGenerator,
    TrafficProfile,
    attack_heavy_profile,
    mixed_profile,
    web_heavy_profile,
)
from repro.traffic.generator import HOST_BITS
from repro.traffic.packet import TCP, UDP
from repro.traffic.profiles import TEMPLATES, SessionTemplate
from repro.traffic.session import Session
from tests import traffic_oracle

ENGINE_COLUMNS = (
    "src", "dst", "sport", "dport", "proto", "pkts", "pkts_f", "half_open",
    "session_ids",
)
DETAIL_COLUMNS = {
    "start_time": (np.float64, lambda s: s.start_time),
    "num_bytes": (np.int64, lambda s: s.num_bytes),
    "malicious": (np.bool_, lambda s: s.malicious),
}
TOPOLOGIES = ("internet2", "Geant", "AS1239", "pop100")
PROFILES = (mixed_profile, web_heavy_profile, attack_heavy_profile)
SEEDS = (1, 29, 4242)
SIZES = (0, 1, 7, 5_000)


@pytest.fixture(scope="module")
def worlds():
    """(topology, paths) per label — routing is the slow part to build."""
    built = {}
    for label in TOPOLOGIES:
        topology = by_label(label).set_uniform_capacities(cpu=1.0, mem=1.0)
        built[label] = (topology, PathSet(topology))
    return built


def make_generator(worlds, label, profile=mixed_profile, seed=1, **config):
    topology, paths = worlds[label]
    return TrafficGenerator(
        topology, paths, profile=profile(), config=GeneratorConfig(seed=seed, **config)
    )


def assert_columns_equal(batch: SessionBatch, sessions) -> SessionBatch:
    """*batch* against ``SessionBatch(sessions)``, the list-built form
    (returned)."""
    want = SessionBatch(sessions)
    assert len(batch) == len(want) == len(sessions)
    for name in ENGINE_COLUMNS:
        got, expected = getattr(batch, name), getattr(want, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
    assert batch.group_ids.dtype == want.group_ids.dtype
    assert [batch.pairs[g] for g in batch.group_ids.tolist()] == [
        want.pairs[g] for g in want.group_ids.tolist()
    ]
    assert list(batch) == list(sessions)
    return want


def assert_root_equal(batch: SessionBatch, sessions) -> None:
    """A generator chunk: also first-seen pair numbering and the
    columns only the object view reads."""
    want = assert_columns_equal(batch, sessions)
    assert batch.pairs == want.pairs
    assert np.array_equal(batch.group_ids, want.group_ids)
    for name, (dtype, field) in DETAIL_COLUMNS.items():
        column = getattr(batch, name)
        assert column.dtype == dtype, name
        assert column.tolist() == [field(s) for s in sessions], name
    assert [batch.templates[t].name for t in batch.template_ids.tolist()] == [
        s.app for s in sessions
    ]


def pair_column(batch: SessionBatch):
    """Row *i*'s (ingress, egress)."""
    return [batch.pairs[g] for g in batch.group_ids.tolist()]


class TestDifferential:
    """What the stream does not draw — row count, ids, each row's pair
    and the hosts' home bits — is the oracle's exactly; what it draws is
    compared in distribution by ``tests/test_traffic_distribution.py``."""

    @pytest.mark.parametrize("label", TOPOLOGIES)
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.__name__)
    def test_columns_equal_oracle(self, worlds, label, profile):
        for seed in SEEDS:
            generator = make_generator(worlds, label, profile, seed)
            for n in SIZES:
                drawn = list(traffic_oracle.iter_sessions(generator, n))
                chunks = list(generator.generate_chunks(n, max(n, 1)))
                assert len(chunks) == (1 if n else 0)
                for chunk in chunks:
                    assert_root_equal(chunk, list(chunk))
                    assert chunk.session_ids.tolist() == [s.session_id for s in drawn]
                    assert pair_column(chunk) == [(s.ingress, s.egress) for s in drawn]
                    for column in ("src", "dst"):
                        assert (getattr(chunk, column) >> HOST_BITS).tolist() == [
                            getattr(s.tuple, column) >> HOST_BITS for s in drawn
                        ], column
                    assert_columns_equal(
                        generator.generate(n), sorted(chunk, key=lambda s: s.start_time)
                    )
                if not n:
                    assert len(generator.generate(n)) == 0

    @pytest.mark.parametrize("label", ("internet2", "pop100"))
    def test_concatenated_chunks_equal_for_every_chunk_size(self, worlds, label):
        n = 2_000
        generator = make_generator(worlds, label, attack_heavy_profile, seed=5)
        (whole,) = generator.generate_chunks(n, n)
        drawn = list(whole)
        for chunk_size in (1, 999, n, n + 1):
            chunks = list(generator.generate_chunks(n, chunk_size))
            assert [len(c) for c in chunks] == [
                min(chunk_size, n - start) for start in range(0, n, chunk_size)
            ]
            start = 0
            for chunk in chunks:
                assert_root_equal(chunk, drawn[start : start + len(chunk)])
                start += len(chunk)

    def test_generate_is_the_stable_sort_including_ties(self, worlds):
        """With a zero-length trace window every start time ties, so the
        order is generation order iff the argsort is stable."""
        generator = make_generator(worlds, "internet2", seed=3, duration_seconds=0.0)
        got = generator.generate(3_000)
        assert [s.session_id for s in got] == list(range(3_000))
        (drawn,) = generator.generate_chunks(3_000, 3_000)
        assert_columns_equal(got, list(drawn))
        # And with a coarse clock: many ties, many distinct values.
        coarse = make_generator(worlds, "Geant", seed=8, duration_seconds=2.5e-322)
        (drawn,) = coarse.generate_chunks(3_000, 3_000)
        want = sorted(drawn, key=lambda s: s.start_time)
        assert 1 < len({s.start_time for s in want}) < 100
        assert_columns_equal(coarse.generate(3_000), want)

    def test_materialised_fields_are_plain_python(self, worlds):
        generator = make_generator(worlds, "internet2", seed=2)
        for session in generator.generate(300)[::7]:
            fields = dataclasses.asdict(session)
            json.dumps(fields)
            # ``np.float64`` would serialise (it is a ``float``); be exact.
            for value in (*fields.values(), *fields["tuple"].values()):
                assert type(value) in (int, float, bool, str, dict)

    def test_probe_sessions_are_tcp_whatever_the_template(self, worlds, monkeypatch):
        """Every shipped probe template is TCP already, so only a UDP one
        shows whether the scan rule or the template sets the protocol."""
        monkeypatch.setitem(
            TEMPLATES,
            "udpscan",
            SessionTemplate(
                name="udpscan", server_port=0, proto=UDP, mean_packets=1, probe=True,
                mean_packet_size=40, malicious_fraction=1.0, payload_tag="scan",
            ),
        )
        generator = make_generator(
            worlds,
            "internet2",
            lambda: TrafficProfile("udp-scans", {"udpscan": 0.5, "dns": 0.3, "tftp": 0.2}),
            seed=12,
        )
        drawn = list(traffic_oracle.iter_sessions(generator, 400))
        assert {s.tuple.proto for s in drawn if s.probe} == {TCP}
        assert {s.tuple.proto for s in drawn if not s.probe} == {UDP}
        (chunk,) = generator.generate_chunks(400, 400)
        sessions = list(chunk)
        assert {s.tuple.proto for s in sessions if s.probe} == {TCP}
        assert {s.tuple.proto for s in sessions if not s.probe} == {UDP}
        assert_root_equal(chunk, sessions)

    def test_zero_count_pairs_do_not_number_groups(self, worlds):
        """7 sessions over 110 pairs: most pairs draw nothing, and the
        group ids still follow first-seen order."""
        generator = make_generator(worlds, "internet2", seed=6)
        (chunk,) = generator.generate_chunks(7, 7)
        assert len(chunk.pairs) == len(set(chunk.pairs)) <= 7
        assert chunk.group_ids.tolist() == sorted(chunk.group_ids.tolist())
        assert set(chunk.group_ids.tolist()) == set(range(len(chunk.pairs)))
        assert_root_equal(chunk, list(chunk))
        drawn = traffic_oracle.iter_sessions(generator, 7)
        assert pair_column(chunk) == [(s.ingress, s.egress) for s in drawn]


class TestDrawTemplate:
    """``TrafficProfile.template_ids`` names, for each uniform, the
    template ``random.choices`` names for it."""

    @pytest.mark.parametrize(
        "profile",
        [
            mixed_profile(),
            web_heavy_profile(),
            attack_heavy_profile(),
            TrafficProfile("unnormalised", {"http": 3.0, "dns": 0.7, "irc": 11.0, "tftp": 1e-3}),
        ],
        ids=lambda p: p.name,
    )
    def test_same_sequence_as_choices(self, profile):
        class Recording(random.Random):
            def random(self):
                value = super().random()
                self.drawn.append(value)
                return value

        for seed in (0, 17):
            reference = Recording(seed)
            reference.drawn = []
            want = [traffic_oracle.draw_template(profile, reference) for _ in range(50_000)]
            ids = profile.template_ids(np.array(reference.drawn))
            assert ids.dtype == np.intp
            assert [profile.templates[i] for i in ids.tolist()] == want

    def test_clamps_like_choices_when_the_draw_reaches_the_total(self, worlds, monkeypatch):
        """``choices`` bisects with ``hi = n - 1``, so a draw that lands
        on the total still names the last template.  No conforming
        ``random()`` reaches it; a stub does."""

        class Top(random.Random):
            def random(self):
                return 1.0

        for profile in (mixed_profile(), web_heavy_profile(), attack_heavy_profile()):
            last = profile.templates[-1]
            assert traffic_oracle.draw_template(profile, Top()) is last
            assert profile.template_ids(np.array([1.0, 0.0])).tolist() == [
                len(profile.templates) - 1, 0,
            ]

        class FirstDrawAtTheTop:
            """A ``numpy.random.Generator`` whose first uniform is 1.0."""

            def __init__(self, seed):
                self.inner = real(seed)
                self.first = True

            def random(self, size):
                values = self.inner.random(size)
                if self.first:
                    self.first = False
                    values[0] = 1.0
                return values

            def __getattr__(self, name):
                return getattr(self.inner, name)

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", FirstDrawAtTheTop)
        generator = make_generator(worlds, "internet2", seed=40)
        (chunk,) = generator.generate_chunks(50, 50)
        assert chunk[0].app == generator.profile.templates[-1].name
        assert_root_equal(chunk, list(chunk))

    def test_a_draw_on_a_running_sum_names_the_next_template(self):
        """``bisect`` is ``bisect_right``: a scaled draw equal to a
        running sum belongs to the template after it.  Random draws
        almost never land there; halves make it exact."""
        profile = TrafficProfile("halves", {"http": 1.0, "dns": 1.0})
        assert profile.cumulative_weights == [0.5, 1.0]

        class Half(random.Random):
            def random(self):
                return 0.5

        assert traffic_oracle.draw_template(profile, Half()).name == "dns"
        assert profile.template_ids(np.array([0.5, 0.25, 0.75])).tolist() == [1, 0, 1]


@pytest.fixture
def session_count(monkeypatch):
    """Counts ``Session`` constructions while the test runs."""
    calls = []
    original = Session.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Session, "__init__", counting)
    return calls


class TestNoObjectsOnTheColumnPath:
    def test_plan_and_both_emulation_shapes_build_no_session(self, worlds, session_count):
        generator = make_generator(worlds, "internet2", seed=13)
        topology, paths = worlds["internet2"]
        trace = generator.generate(3_000)
        deployment = plan_deployment(topology, paths, STANDARD_MODULES, trace)
        inline = run_emulation(Traffic.materialized(generator, trace), deployment)
        edge = run_emulation(Traffic.materialized(generator, trace), STANDARD_MODULES)
        streamed = run_emulation(
            Traffic.generate(generator, 3_000),
            deployment,
            config=EmulationConfig(policy=ExecutionPolicy.streamed(chunk_size=700)),
        )
        assert session_count == []
        assert streamed.to_dict() == inline.to_dict()
        assert edge.max_cpu > inline.max_cpu
        assert trace[0].session_id >= 0 and len(session_count) == len(trace)

    def test_objects_are_built_once_per_root_not_per_view(self, worlds, session_count):
        """The control plane slices and iterates its pool every epoch."""
        pool = make_generator(worlds, "pop100", seed=4).generate(430)
        for volume in (400, 430, 215, 400):
            window = pool[:volume]
            by_ingress = {}
            for session in window:
                by_ingress.setdefault(session.ingress, []).append(session)
            assert sum(map(len, by_ingress.values())) == volume
        assert len(session_count) == 430
        assert pool[:10][3] is pool[3]

    def test_detectors_see_the_oracle_sessions(self, worlds):
        """Detectors over the column-born batch see what they see over a
        list-born batch of the same ``Session`` objects."""
        generator = make_generator(worlds, "internet2", seed=37)
        topology, paths = worlds["internet2"]
        trace = generator.generate(2_500)
        listed = [dataclasses.replace(session) for session in trace]
        deployment = plan_deployment(topology, paths, STANDARD_MODULES, trace)
        detect = EmulationConfig(run_detectors=True)
        for target in (deployment, STANDARD_MODULES):
            got = run_emulation(Traffic.materialized(generator, trace), target, config=detect)
            want = run_emulation(Traffic.materialized(generator, listed), target, config=detect)
            assert any(report.alerts for report in want.reports.values())
            assert got.to_dict() == want.to_dict()
            for node, report in want.reports.items():
                assert got.reports[node].alerts == report.alerts, node


class TestSequenceProtocol:
    @pytest.fixture(scope="class")
    def trace(self, worlds):
        batch = make_generator(worlds, "internet2", seed=21).generate(60)
        return batch, [dataclasses.replace(session) for session in batch]

    def test_index_and_iteration(self, trace):
        batch, listed = trace
        assert len(batch) == 60 and list(batch) == listed
        assert [batch[i] for i in range(-60, 60)] == [listed[i] for i in range(-60, 60)]
        assert batch[np.int64(5)] == listed[5]
        for bad in (60, -61):
            with pytest.raises(IndexError):
                batch[bad]
        assert listed[7] in batch and batch.index(listed[7]) == 7
        assert list(reversed(batch)) == listed[::-1]

    @pytest.mark.parametrize(
        "key",
        [
            slice(2, 5), slice(None), slice(0, 0), slice(5, 2), slice(-7, None),
            slice(None, -55), slice(-1000, 1000), slice(70, 90), slice(None, None, 3),
            slice(50, 4, -5), slice(None, None, -1),
        ],
        ids=str,
    )
    def test_slices_on_every_view(self, trace, key):
        batch, listed = trace
        positions = [9, 3, 3, 41, 0, 59, 17, 22, 8, 30]
        views = {
            "sorted": (batch, listed),
            "root": (batch.root, sorted(listed, key=lambda s: s.session_id)),
            "take": (batch.take(positions), [listed[i] for i in positions]),
            "list-born": (SessionBatch(listed), listed),
        }
        for name, (view, sessions) in views.items():
            sliced = view[key]
            assert isinstance(sliced, SessionBatch), name
            assert sliced.root is view.root, name
            assert_columns_equal(sliced, sessions[key])
            assert_columns_equal(sliced[1:-1], sessions[key][1:-1])
            # A view gathers the engine's columns only.
            assert sliced.start_time is None and sliced.template_ids is None

    def test_of_and_rewrap_are_views_not_rebuilds(self, trace, session_count):
        batch, listed = trace
        assert SessionBatch.of(batch) is batch
        built = SessionBatch.of(listed)
        assert built.root is built and list(built) == listed
        rewrapped = SessionBatch(batch)
        assert rewrapped is not batch and rewrapped.root is batch.root
        assert session_count == []
        assert_columns_equal(rewrapped, listed)


class TestPickle:
    def test_column_born_batches_pickle_as_columns(self, worlds, session_count):
        generator = make_generator(worlds, "internet2", seed=19)
        (root,) = generator.generate_chunks(5_000, 5_000)
        child = generator.generate(5_000)[100:4_000:7]
        payloads = {"root": pickle.dumps(root), "child": pickle.dumps(child)}
        clones = {name: pickle.loads(payload) for name, payload in payloads.items()}
        assert session_count == []
        # A list-born batch has to ship its objects beside its columns.
        assert len(payloads["root"]) < 0.65 * len(pickle.dumps(SessionBatch(list(root))))
        assert len(payloads["child"]) < len(payloads["root"]) / 5
        clone = clones["child"]
        assert clone.root is clone
        assert_columns_equal(clone, list(child))
        assert clone[-1] == child[-1]
        assert_root_equal(clones["root"], list(root))

    def test_list_born_batch_still_roundtrips(self, worlds):
        generator = make_generator(worlds, "Geant", seed=2)
        listed = list(generator.generate(200))
        taken = SessionBatch(listed).take(range(5, 200, 3))
        clone = pickle.loads(pickle.dumps(taken))
        assert clone.root is clone
        assert_columns_equal(clone, listed[5:200:3])


class TestCLI:
    @pytest.mark.parametrize("seed", (7, 31))
    def test_emulate_output_inline_equals_streamed(self, tmp_path, capsys, seed):
        files = {}
        for execution in ("inline", "streamed"):
            files[execution] = tmp_path / f"{execution}.json"
            code = main(
                [
                    "emulate", "--sessions", "2500", "--seed", str(seed),
                    "--execution", execution, "--chunk-size", "611",
                    "--output", str(files[execution]),
                ]
            )
            assert code == 0
        capsys.readouterr()
        assert files["inline"].read_bytes() == files["streamed"].read_bytes()
