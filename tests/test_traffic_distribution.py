"""The generator's stream: the same distribution as the reference loop,
exact where exactness survives, and pinned.

The product draws whole columns from one ``numpy.random.Generator`` in
fixed blocks of ``DRAW_BLOCK`` rows; ``tests/traffic_oracle.py`` is the
per-session ``random.Random`` loop it replaced.  The two streams share
no value, so they are compared as distributions, at fixed seeds (the
tests are deterministic, never flaky):

* per-pair row counts equal ``session_counts`` exactly, in both;
* template shares, per-template packet / byte means and variances, and
  the half-open / probe / malicious fractions agree within ``K``
  standard errors of their difference.

Every row of every drawn trace also satisfies the generator's exact
rules (``TestExactRules``), the concatenation of ``generate_chunks(n,
c)`` is the same stream for every ``c`` including chunks that straddle
a block boundary (``TestChunkInvariance``), and a sha256 of one small
stream is pinned (``TestCanary``): NumPy does not promise that
``Generator`` method streams stay the same across releases (NEP 19), so
a NumPy upgrade or a reordered draw must fail here, loudly.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from repro.topology import PathSet, by_label
from repro.traffic import (
    GeneratorConfig,
    TrafficGenerator,
    TrafficProfile,
    attack_heavy_profile,
    mixed_profile,
    web_heavy_profile,
)
from repro.traffic.generator import DRAW_BLOCK, HOST_BITS
from repro.traffic.packet import TCP
from tests import traffic_oracle

TOPOLOGIES = ("internet2", "Geant", "AS1239", "pop100")
PROFILES = (mixed_profile, web_heavy_profile, attack_heavy_profile)
SESSIONS = 20_000
SEED = 3
#: Standard errors of the difference two samples of one distribution
#: may lie apart.  About 500 comparisons run (some 125 distinct: neither
#: stream's per-row draws depend on the topology); under equal
#: distributions a 4-sigma gap has probability 6e-5 each, the seeds are
#: fixed, and the largest gap at these seeds is 2.1.
K = 4.0
_LOCAL = (1 << HOST_BITS) - 1


@pytest.fixture(scope="module")
def worlds():
    """(topology, paths) per label — routing is the slow part to build."""
    built = {}
    for label in TOPOLOGIES:
        topology = by_label(label).set_uniform_capacities(cpu=1.0, mem=1.0)
        built[label] = (topology, PathSet(topology))
    return built


def make_generator(worlds, label, profile=mixed_profile, seed=SEED, **config):
    topology, paths = worlds[label]
    return TrafficGenerator(
        topology, paths, profile=profile(), config=GeneratorConfig(seed=seed, **config)
    )


@pytest.fixture(scope="module")
def traces(worlds):
    """(generator, generation-order root) per (label, profile)."""
    cache = {}

    def trace(label, profile):
        key = (label, profile)
        if key not in cache:
            generator = make_generator(worlds, label, profile)
            (root,) = generator.generate_chunks(SESSIONS, SESSIONS)
            cache[key] = generator, root
        return cache[key]

    return trace


def within(ours, theirs, se, what):
    assert abs(ours - theirs) <= K * se, f"{what}: {ours} vs {theirs} (se {se:.3g})"


def compare_proportions(ours, theirs, what):
    """Two samples' share of ``True`` (boolean arrays)."""
    n, m = len(ours), len(theirs)
    pooled = (ours.sum() + theirs.sum()) / (n + m)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / m))
    within(ours.mean(), theirs.mean(), se, what)


def compare_moments(ours, theirs, what):
    """Two samples' mean and variance, each against the standard error
    of the difference (the variance's from the fourth central moment)."""
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)

    def moments(sample):
        """Mean, variance, and the sampling variance of each."""
        centred = sample - sample.mean()
        var = (centred**2).mean()
        m4 = (centred**4).mean()
        return sample.mean(), var, var / len(sample), max(m4 - var**2, 0.0) / len(sample)

    mean_a, var_a, noise_mean_a, noise_var_a = moments(ours)
    mean_b, var_b, noise_mean_b, noise_var_b = moments(theirs)
    within(mean_a, mean_b, math.sqrt(noise_mean_a + noise_mean_b), f"{what} mean")
    within(var_a, var_b, math.sqrt(noise_var_a + noise_var_b), f"{what} variance")


class TestAgainstTheReferenceLoop:
    @pytest.mark.parametrize("label", TOPOLOGIES)
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.__name__)
    def test_same_distribution(self, traces, label, profile):
        generator, root = traces(label, profile)
        drawn = list(traffic_oracle.iter_sessions(generator, SESSIONS))
        counts = {
            pair: count
            for pair, count in generator.matrix.session_counts(SESSIONS).items()
            if count
        }
        rows = np.bincount(root.group_ids, minlength=len(root.pairs)).tolist()
        assert dict(zip(root.pairs, rows)) == counts
        assert list(root.pairs) == list(counts)
        assert Counter((s.ingress, s.egress) for s in drawn) == counts

        def column(field):
            return np.array([getattr(s, field) for s in drawn])

        apps, their_apps = np.array([s.app for s in root]), column("app")
        their_pkts, their_bytes = column("num_packets"), column("num_bytes")
        for name in generator.profile.weights:
            ours, theirs = apps == name, their_apps == name
            compare_proportions(ours, theirs, f"{name} share")
            if ours.sum() > 1 and theirs.sum() > 1:
                compare_moments(root.pkts[ours], their_pkts[theirs], f"{name} packets")
                compare_moments(root.num_bytes[ours], their_bytes[theirs], f"{name} bytes")
        probes = np.array([s.probe for s in root])
        compare_proportions(root.half_open, column("half_open"), "half-open")
        compare_proportions(probes, column("probe"), "probe")
        compare_proportions(root.malicious, column("malicious"), "malicious")


class TestExactRules:
    @pytest.mark.parametrize("label", TOPOLOGIES)
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.__name__)
    def test_every_row(self, traces, label, profile):
        generator, root = traces(label, profile)
        check_rows(generator, root)

    def test_every_row_with_a_udp_probe_and_tight_bounds(self, worlds, monkeypatch):
        """Every shipped probe template is TCP, so only a UDP one shows
        that the scan rule sets the protocol; small host, scanner and
        victim counts make every bound bite."""
        from repro.traffic.profiles import TEMPLATES, SessionTemplate

        monkeypatch.setitem(
            TEMPLATES,
            "udpscan",
            SessionTemplate(
                name="udpscan", server_port=0, proto=17, mean_packets=1, probe=True,
                mean_packet_size=40, malicious_fraction=1.0, payload_tag="scan",
            ),
        )
        weights = {name: 1.0 for name in TEMPLATES}
        generator = make_generator(
            worlds,
            "Geant",
            lambda: TrafficProfile("every", weights),
            seed=9,
            hosts_per_node=5,
            scanners_per_node=1,
            flood_targets_per_node=3,
            duration_seconds=7.5,
        )
        (root,) = generator.generate_chunks(DRAW_BLOCK + 1_000, DRAW_BLOCK + 1_000)
        check_rows(generator, root)


def check_rows(generator, root):
    """The generator's exact rules, on every row of *root*."""
    config = generator.config
    contract = {
        "src": np.uint64, "dst": np.uint64, "sport": np.int64, "dport": np.int64,
        "proto": np.int64, "pkts": np.int64, "num_bytes": np.int64,
        "session_ids": np.int64, "half_open": np.bool_, "malicious": np.bool_,
        "start_time": np.float64, "group_ids": np.intp, "template_ids": np.intp,
    }
    for name, dtype in contract.items():
        assert getattr(root, name).dtype == dtype, name
    templates = root.templates
    tid = root.template_ids
    probe = np.array([t.probe for t in templates])[tid]
    half_open = np.array([t.half_open for t in templates])[tid]
    src, dst = root.src & _LOCAL, root.dst & _LOCAL

    assert np.all(root.proto[probe] == TCP)
    assert np.all(src[probe] < config.scanners_per_node)
    assert np.all((root.dport[probe] >= 1) & (root.dport[probe] < 1024))
    flood = half_open & ~probe
    assert np.all(dst[flood] < config.flood_targets_per_node)
    assert np.all(src[~probe] < config.hosts_per_node)
    assert np.all(dst[~flood] < config.hosts_per_node)
    server_port = np.array([t.server_port for t in templates])[tid]
    assert np.array_equal(root.dport[~probe], server_port[~probe])
    proto = np.array([t.proto for t in templates])[tid]
    assert np.array_equal(root.proto[~probe], proto[~probe])
    assert np.array_equal(root.half_open, half_open)

    assert np.all(root.pkts[probe | half_open] == 1)
    low = np.array([t.min_packets for t in templates])[tid]
    high = np.array([t.max_packets for t in templates])[tid]
    normal = ~(probe | half_open)
    assert np.all((root.pkts[normal] >= low[normal]) & (root.pkts[normal] <= high[normal]))
    assert np.all(root.num_bytes >= 40 * root.pkts)
    assert np.all((root.sport >= 1024) & (root.sport < 65536))
    assert np.all((root.start_time >= 0.0) & (root.start_time < config.duration_seconds))

    index = {name: i for i, name in enumerate(generator.topology.node_names)}
    homes = np.array([[index[a], index[b]] for a, b in root.pairs], dtype=np.uint64)
    assert np.array_equal(root.src >> HOST_BITS, homes[root.group_ids, 0])
    assert np.array_equal(root.dst >> HOST_BITS, homes[root.group_ids, 1])
    assert np.array_equal(root.session_ids, np.arange(len(root)))


def columns_of(chunks):
    """The concatenated stream of *chunks*: every column, plus each
    row's pair as an index into one pair list."""
    chunks = list(chunks)
    order = {}
    pair_ids = []
    for chunk in chunks:
        ids = np.array([order.setdefault(p, len(order)) for p in chunk.pairs], dtype=np.intp)
        pair_ids.append(ids[chunk.group_ids])
    names = (
        "src", "dst", "sport", "dport", "proto", "pkts", "half_open", "session_ids",
        "start_time", "num_bytes", "malicious", "template_ids",
    )
    columns = {
        name: np.concatenate([getattr(chunk, name) for chunk in chunks]) for name in names
    }
    columns["pair"] = np.concatenate(pair_ids)
    return columns, list(order)


class TestChunkInvariance:
    #: Past the first block by seven of Internet2's pair runs (at this
    #: seed and profile), so run boundaries fall on both sides of a
    #: block boundary.
    N = DRAW_BLOCK + 10_000

    @pytest.fixture(scope="class")
    def generator(self, worlds):
        return make_generator(worlds, "internet2", attack_heavy_profile, seed=17)

    @pytest.fixture(scope="class")
    def whole(self, generator):
        return columns_of(generator.generate_chunks(self.N, self.N))

    def test_the_pair_runs_are_session_counts(self, generator, whole):
        columns, pairs = whole
        runs = [
            (pair, count)
            for pair, count in generator.matrix.session_counts(self.N).items()
            if count
        ]
        assert pairs == [pair for pair, _ in runs]
        assert np.array_equal(
            columns["pair"], np.repeat(np.arange(len(runs)), [count for _, count in runs])
        )

    @pytest.mark.parametrize(
        "chunk_size", (1, 7, 97, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, N)
    )
    def test_every_chunk_size_cuts_one_stream(self, generator, whole, chunk_size):
        chunks = list(generator.generate_chunks(self.N, chunk_size))
        assert [len(c) for c in chunks] == [
            min(chunk_size, self.N - start) for start in range(0, self.N, chunk_size)
        ]
        columns, pairs = columns_of(chunks)
        want, want_pairs = whole
        assert pairs == want_pairs
        for name, column in want.items():
            assert columns[name].dtype == column.dtype, name
            assert np.array_equal(columns[name], column), name

    def test_generate_is_the_stable_sort_of_the_stream(self, generator, whole):
        columns, _pairs = whole
        batch = generator.generate(self.N)
        order = np.argsort(columns["start_time"], kind="stable")
        assert np.array_equal(batch.session_ids, columns["session_ids"][order])
        assert np.array_equal(batch.src, columns["src"][order])
        assert np.array_equal(batch.pkts, columns["pkts"][order])
        assert np.all(np.diff(batch.root.start_time[batch.session_ids]) >= 0)

    def test_same_seed_same_stream_other_seed_another(self, worlds, generator, whole):
        again = make_generator(worlds, "internet2", attack_heavy_profile, seed=17)
        other = make_generator(worlds, "internet2", attack_heavy_profile, seed=18)
        columns, _pairs = whole
        repeated, _ = columns_of(again.generate_chunks(self.N, 4_096))
        changed, _ = columns_of(other.generate_chunks(self.N, 4_096))
        for name, column in columns.items():
            assert np.array_equal(repeated[name], column), name
        for name in ("sport", "start_time", "template_ids", "src"):
            assert not np.array_equal(changed[name], columns[name]), name


#: sha256 of ``generate_chunks(2_000, 700)`` on Internet2, mixed profile,
#: seed 1 (see :func:`stream_digest`).  A change here is a change of
#: every trace: bump ``repro.sweep.cache.CACHE_FORMAT_VERSION``,
#: regenerate the sweep reports and say so.
CANARY = "fd982c401f8e708b5f8cb5998751b254ceaf374a39c46ea8a1656d8401623f5c"


def stream_digest(chunks) -> str:
    """sha256 over each chunk's pairs, template names and columns, in a
    fixed byte order."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(repr(chunk.pairs).encode())
        digest.update(repr([t.name for t in chunk.templates]).encode())
        for name in (
            "src", "dst", "sport", "dport", "proto", "pkts", "half_open", "session_ids",
            "group_ids", "start_time", "num_bytes", "malicious", "template_ids",
        ):
            column = getattr(chunk, name)
            kind = {"u": "<u8", "i": "<i8", "b": "u1", "f": "<f8"}[column.dtype.kind]
            digest.update(name.encode())
            digest.update(column.astype(kind).tobytes())
    return digest.hexdigest()


class TestCanary:
    def test_the_stream_is_pinned(self, worlds):
        generator = make_generator(worlds, "internet2", mixed_profile, seed=1)
        chunks = list(generator.generate_chunks(2_000, 700))
        assert [len(c) for c in chunks] == [700, 700, 600]
        assert stream_digest(chunks) == CANARY, (
            f"numpy {np.__version__} draws another stream: {stream_digest(chunks)}"
        )
