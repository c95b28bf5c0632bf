"""The control run's once-per-content rewrites against what they replaced.

* Wire sizes: every push's ``size_bytes`` and ``full_bytes``, every
  epoch-log entry's ``json_size`` and every ``state-handoff``'s size is
  summed from per-entry encodings
  (``repro.core.manifest_io.ConfigurationWire``); each must equal
  ``len(json.dumps(payload, sort_keys=True))`` — in the six named chaos
  plans × seeds 3/7/17, and on Hypothesis manifests (empty, ``full``,
  removed-only deltas, long-repr floats such as ``0.1 + 0.2``), where
  the dicts themselves must encode as ``manifest_to_dict`` /
  ``manifest_diff``'s do.
* Routing: ``PathSet`` (one C shortest-path pass; a source with a tie
  is settled by ``routing._settle``) against
  ``nx.all_pairs_dijkstra_path`` over the topology's links on the nine
  dataset topologies and on Hypothesis graphs with link lengths 1–2,
  where ties are dense, and a link of 1e-17, too short to change a
  float distance; a ``Topology.copy()`` routes as its original.
* Transitions: ``TransitionColumns`` (one pass over both versions'
  ``ManifestTable`` columns) against the per-unit loops in
  ``tests/manifest_oracle.py`` — ``TransitionPlan.duplicated_fraction``'s,
  the controller's packet-weighted fold and its unchanged-entry count —
  compared with ``==`` on Hypothesis manifest pairs, a crafted unit with
  many holders, and the whole chaos runs above, where every adopt is
  scored from the set the controller held (adopted or installed) to the
  one it adopts.
* Table builds: a set is tabled once, when final, and carried — at most
  two builds per full re-plan and one per repair in an HA chaos run, no
  mapping tabled twice, no adopted set written after its adoption.

Seeded mutations each of which fails a test here: keeping a promoted
leader's installed log entry unsized, so its first re-send encodes each
manifest whole (``test_an_installed_entry_is_sized_from_its_install``);
dropping the ``", "``
term from ``joined_size`` (``test_wire_forms_equal_the_encoders``,
``test_whole_runs_match_the_references``); keying
``ConfigurationWire``'s entry cache by ident only
(``test_wire_forms_equal_the_encoders``,
``test_entry_cache_tells_ranges_apart``); breaking a routing tie by node
name — ``_settle``'s heap ordering equal distances by name instead of
first push — or by node index, taking a tied source's routes from the
tight-predecessor table instead of ``_settle``, in
``routing.shortest_routes`` (``test_routes_equal_networkx_on_tied_graphs``,
``test_a_square_ties_in_adjacency_order``); ``_settle`` relaxing with
``<=`` (``test_routes_equal_networkx_on_tied_graphs``);
``Topology.links`` listing links in adjacency-walk order instead of
first-added order (``test_a_copy_routes_as_its_original``); folding
the duplicated mass with ``np.add.reduceat`` instead of the
left-to-right steps (``test_many_holders_fold_left_to_right``,
``test_columns_equal_the_per_unit_loops``); ``Controller._adopt``
tabling the held set again (``test_each_set_is_tabled_once_and_carried``);
``Controller.table`` keeping its first table after ``manifests`` is
replaced (``test_the_held_table_follows_every_assignment_to_manifests``);
``Controller.step`` labelling every re-plan without an assignment
"bootstrap"
(``test_a_promoted_leader_scores_against_the_installed_configuration``).
"""

import copy
import json
import pickle
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.bus import Bus
from repro.control.chaos import NAMED_PLANS, build_plan, run_chaos
from repro.control.controller import Controller
from repro.control.plane import ScenarioConfig
from repro.control.protocol import KIND_MANIFEST_UPDATE, KIND_STATE_HANDOFF
from repro.control.replication import HAConfig, ReplicatedLog
from repro.core.manifest import NodeManifest
from repro.core.manifest_io import ConfigurationWire, manifest_diff, manifest_to_dict
from repro.core.manifest_table import ManifestTable
from repro.core.reconfigure import TransitionColumns, TransitionPlan
from repro.hashing.ranges import HashRange
from repro.topology import PathSet, by_label
from repro.topology.graph import LinkSpec, NodeSpec, Topology
from repro.topology.routing import shortest_routes
from tests import manifest_oracle as oracle

DATASETS = ("internet2", "geant", "AS1221", "AS1239", "AS3257",
            "pop12", "pop50", "pop100", "pop200")
NODES = ("d", "a", "c", "b")  # deliberately not sorted
IDENTS = (("sig", ("a", "b")), ("sig", ("c",)), ("scan", ("a",)),
          ("http", ("b", "d")), ("dns", ("d", "a")))
#: Boundaries whose reprs are long or whose sums do not associate.
_AWKWARD = (0.0, 0.1, 0.2, 0.1 + 0.2, 1 / 3, 2 / 3, 0.7, 0.9, 1.0)
_cut = st.one_of(st.sampled_from(_AWKWARD), st.floats(0.0, 1.0, allow_nan=False))
_pieces = st.lists(st.tuples(_cut, _cut), max_size=4).map(
    lambda cuts: tuple(HashRange(min(c), max(c)) for c in cuts)
)


def _length(payload):
    return len(json.dumps(payload, sort_keys=True))


def _same_json(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@st.composite
def _manifest_set(draw, allow_full):
    manifests = {}
    for node in NODES:
        if allow_full and draw(st.integers(0, 6)) == 0:
            manifests[node] = NodeManifest(node, full=True)
            continue
        held = draw(st.lists(st.sampled_from(IDENTS), unique=True))
        manifests[node] = NodeManifest(
            node, entries={ident: draw(_pieces) for ident in held}
        )
    return manifests


@st.composite
def _versions(draw, allow_full=True):
    """Two consecutive configurations: the new one keeps, drops or
    re-draws each old entry and may add more (a removed-only delta is
    a draw that keeps or drops everything)."""
    old = draw(_manifest_set(allow_full))
    new = {}
    for node, manifest in old.items():
        entries = {}
        for ident, pieces in manifest.entries.items():
            fate = draw(st.sampled_from(("keep", "drop", "redraw")))
            if fate != "drop":
                entries[ident] = pieces if fate == "keep" else draw(_pieces)
        for ident in draw(st.lists(st.sampled_from(IDENTS), unique=True, max_size=2)):
            entries.setdefault(ident, draw(_pieces))
        full = allow_full and draw(st.integers(0, 6)) == 0
        new[node] = NodeManifest(node, entries=entries, full=full)
    return old, new


# -- Wire ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(_versions())
def test_wire_forms_equal_the_encoders(versions):
    old, new = versions
    previous = ConfigurationWire(old)
    for node in old:
        previous.manifest(node)
    wire = ConfigurationWire(new, previous)
    for node in NODES:
        full = wire.manifest(node)
        assert _same_json(full.data, manifest_to_dict(new[node]))
        assert full.size == _length(full.data)
        delta = wire.delta(old[node], node)
        assert _same_json(delta.data, manifest_diff(old[node], new[node]))
        assert delta.size == _length(delta.data)
    # The epoch log's entry and the handoff that carries it.
    machine = ReplicatedLog(0, HAConfig(replicas=2), "controller", NODES)
    beat = machine.close(0.0, 3, wire, reason="periodic", max_acked=2)
    entry = machine.log[3]
    assert entry.json_size == _length(entry.to_dict())
    [handoff] = [s for s in beat.sends if s.kind == KIND_STATE_HANDOFF]
    assert handoff.size == _length(handoff.payload)


def test_entry_cache_tells_ranges_apart():
    """One unit split over two nodes, then moved: three contents under
    one ident, each of which must be sent as itself."""
    ident = IDENTS[0]
    old = {
        "a": NodeManifest("a", entries={ident: (HashRange(0.0, 0.1 + 0.2),)}),
        "b": NodeManifest("b", entries={ident: (HashRange(0.1 + 0.2, 1.0),)}),
    }
    new = {
        "a": NodeManifest("a", entries={ident: (HashRange(0.0, 1.0),)}),
        "b": NodeManifest("b", entries={}),
    }
    previous = ConfigurationWire(old)
    for node in old:
        assert _same_json(previous.manifest(node).data, manifest_to_dict(old[node]))
    wire = ConfigurationWire(new, previous)
    for node in new:
        assert _same_json(wire.manifest(node).data, manifest_to_dict(new[node]))
        assert _same_json(
            wire.delta(old[node], node).data, manifest_diff(old[node], new[node])
        )


# -- Routing -------------------------------------------------------------------
def _networkx_routes(topology):
    graph = nx.Graph()
    graph.add_nodes_from(topology.node_names)
    for link in topology.links:
        graph.add_edge(link.a, link.b, distance=link.distance)
    shortest = dict(nx.all_pairs_dijkstra_path(graph, weight="distance"))
    return [
        [tuple(shortest[a][b]) if a != b else (a,) for b in topology.node_names]
        for a in topology.node_names
    ]


@pytest.mark.parametrize("label", DATASETS)
def test_routes_equal_networkx_on_the_datasets(label):
    topology = by_label(label)
    routes = _networkx_routes(topology)
    paths = PathSet(topology)
    names = topology.node_names
    assert [[paths.path(a, b).nodes for b in names] for a in names] == routes


@st.composite
def _tied_graphs(draw):
    """Connected graphs whose links are 1 or 2 long: equal-length routes
    abound.  Names and link order are drawn too — networkx's tie order
    follows the adjacency, not the names — and one link may be level,
    1e-17 long, so that its two ends sit at the same float distance."""
    n = draw(st.integers(2, 9))
    names = draw(st.permutations([f"r{k}" for k in range(n)]))
    links = {}
    for k in range(1, n):  # a spanning tree keeps it connected
        links[frozenset((names[k], names[draw(st.integers(0, k - 1))]))] = None
    extra = st.tuples(st.sampled_from(names), st.sampled_from(names))
    for a, b in draw(st.lists(extra)):
        if a != b:
            links.setdefault(frozenset((a, b)), None)
    order = draw(st.permutations(sorted(tuple(sorted(pair)) for pair in links)))
    level = draw(st.integers(-1, len(order) - 1))  # -1: no level link
    return Topology(
        "tied",
        [NodeSpec(name=name) for name in names],
        [
            LinkSpec(a, b, 1e-17 if k == level else draw(st.integers(1, 2)))
            for k, (a, b) in enumerate(order)
        ],
    )


@settings(max_examples=400, deadline=None)
@given(_tied_graphs())
def test_routes_equal_networkx_on_tied_graphs(topology):
    assert shortest_routes(topology) == _networkx_routes(topology)


@settings(max_examples=400, deadline=None)
@given(_tied_graphs())
def test_a_copy_routes_as_its_original(topology):
    assert shortest_routes(topology.copy()) == shortest_routes(topology)


def test_a_copy_keeps_each_nodes_link_order():
    """``B`` first meets ``S``, then ``X``, then ``A``; ``S`` reaches ``T``
    through ``X`` or ``A``, both 3 long, and ``X`` is reached first.  A
    copy that replayed the links in an adjacency walk's order would put
    ``A`` before ``X`` at ``B``."""
    topology = Topology(
        "copy",
        [NodeSpec(name=name) for name in "SABXT"],
        [LinkSpec("S", "B"), LinkSpec("B", "X"), LinkSpec("A", "B"),
         LinkSpec("X", "T"), LinkSpec("A", "T")],
    )
    for routed in (topology, topology.copy()):
        assert PathSet(routed).path("S", "T").nodes == ("S", "B", "X", "T")


def test_a_square_ties_in_adjacency_order():
    """``z`` reaches ``b`` through ``y`` or ``x``, both 2 long; networkx
    relaxes ``z``'s links in the order they were added, so ``y`` wins,
    although ``x`` sorts first."""
    topology = Topology(
        "square",
        [NodeSpec(name=name) for name in "zyxb"],
        [LinkSpec("z", "y", 1), LinkSpec("z", "x", 1),
         LinkSpec("y", "b", 1), LinkSpec("x", "b", 1)],
    )
    assert PathSet(topology).path("z", "b").nodes == ("z", "y", "b")
    assert shortest_routes(topology) == _networkx_routes(topology)


def test_path_sets_pickle_without_their_memos():
    paths = PathSet(by_label("internet2"))
    first = paths.path("NYCM", "STTL")
    paths.observers("NYCM", "STTL")
    clone = pickle.loads(pickle.dumps(paths))
    assert clone._paths == {} and clone._observers == {}
    assert clone.path("NYCM", "STTL") == first
    assert list(clone) == list(paths)


# -- Transitions -----------------------------------------------------------------
def _deployment(manifests, units=()):
    return SimpleNamespace(manifests=manifests, units=list(units))


def _check_columns(old, new):
    columns = TransitionColumns(
        ManifestTable.from_manifests(old), ManifestTable.from_manifests(new)
    )
    plan = TransitionPlan(_deployment(old), _deployment(new))
    before, after = _deployment(old), _deployment(new)
    for ident in IDENTS + (("irc", ("nobody",)),):
        assert plan.duplicated_fraction(*ident) == oracle.duplicated_fraction(
            before, after, *ident
        )
    assert dict(zip(columns.units, columns.duplicated.tolist())) == {
        ident: oracle.duplicated_fraction(before, after, *ident)
        for ident in columns.units
    }
    assert columns.unchanged_fraction == oracle.unchanged_fraction(old, new)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_versions(allow_full=False))
def test_columns_equal_the_per_unit_loops(versions):
    _check_columns(*versions)


def test_many_holders_fold_left_to_right():
    """Twelve old holders whose kept masses a pairwise sum adds
    differently from the loop; every one of them moves away."""
    ident = IDENTS[0]
    nodes = [f"n{k:02d}" for k in range(13)]
    masses = np.random.default_rng(1).random(12)
    old = {node: NodeManifest(node) for node in nodes}
    for node, mass in zip(nodes, masses.tolist()):
        old[node].entries[ident] = (HashRange(0.0, mass),)
    new = {node: NodeManifest(node) for node in nodes}
    new[nodes[-1]].entries[ident] = (HashRange(0.0, 1.0),)
    left = 0.0
    for mass in masses.tolist():
        left += mass
    assert np.add.reduceat(masses, [0])[0] != left  # the case is sharp
    _check_columns(old, new)


def test_full_manifests_have_no_rows_to_match():
    full = {"a": NodeManifest("a", full=True)}
    with pytest.raises(ValueError, match="full manifest"):
        TransitionColumns(
            ManifestTable.from_manifests(full), ManifestTable.from_manifests(full)
        )


# -- Whole runs ------------------------------------------------------------------
@pytest.mark.parametrize(
    "plan, seed", [(plan, seed) for plan in sorted(NAMED_PLANS) for seed in (3, 7, 17)]
)
def test_whole_runs_match_the_references(monkeypatch, plan, seed):
    checked = {"push": 0, "handoff": 0, "log": 0, "adopt": 0}
    send = Bus.send

    def spy_send(self, src, dst, kind, payload, size_bytes, now):
        if kind == KIND_MANIFEST_UPDATE:
            assert size_bytes == _length(payload["data"])
            checked["push"] += 1
        elif kind == KIND_STATE_HANDOFF:
            assert size_bytes == _length(payload)
            checked["handoff"] += 1
        return send(self, src, dst, kind, payload, size_bytes, now)

    push = Controller._push

    def spy_push(self, node, target, now):
        push(self, node, target, now)
        state = self.outstanding[node]
        assert state.full_bytes == _length(manifest_to_dict(state.manifest))

    log_epoch = ReplicatedLog._log_epoch

    def spy_log(self, version, adopted, reason, max_acked):
        held = self.log.get(version)
        log_epoch(self, version, adopted, reason, max_acked)
        entry = self.log.get(version)
        if entry is not held:
            assert entry.json_size == _length(entry.to_dict())
            checked["log"] += 1

    adopt = Controller._adopt

    def spy_adopt(self, table, units, assignment, now, reason):
        # Scored against the set this process held, adopted or installed
        # from a handoff (a promoted leader's first re-plan included).
        old = self.manifests
        adopt(self, table, units, assignment, now, reason)
        record = self._epoch
        assert record.unchanged_entry_fraction == oracle.unchanged_fraction(
            old, table.manifests
        )
        assert record.duplicated_fraction == oracle.duplicated_share(
            old, table.manifests, units
        )
        checked["adopt"] += 1

    monkeypatch.setattr(Bus, "send", spy_send)
    monkeypatch.setattr(Controller, "_push", spy_push)
    monkeypatch.setattr(ReplicatedLog, "_log_epoch", spy_log)
    monkeypatch.setattr(Controller, "_adopt", spy_adopt)
    topology = by_label("internet2")
    config = ScenarioConfig(
        plan=build_plan(plan, seed, 18, topology.node_names),
        seed=seed,
        base_sessions=300,
        resolve_every=2,
        replicas=3,
    )
    run_chaos(config)
    assert all(checked.values()), checked


@pytest.mark.parametrize(
    "plan, replans",
    [("leader-crash-mid-push", {"resolve"}), ("leader-partition", {"resolve", "repair"})],
)
def test_each_set_is_tabled_once_and_carried(monkeypatch, plan, replans):
    # A re-plan tables the proposed and the final set (a repair only its
    # final set) and carries the final set's table to the next re-plan;
    # the set a process held is tabled there only after an install.
    built = []  # every mapping tabled, kept alive so identities stay unique
    from_manifests = ManifestTable.from_manifests.__func__

    def spy_build(cls, manifests):
        built.append(manifests)
        return from_manifests(cls, manifests)

    counts = []

    def spy(method, kind):
        call = getattr(Controller, method)

        def wrapper(self, *args):
            held, start = self.manifests, len(built)
            call(self, *args)
            fresh = not any(m is held for m in built[:start])
            counts.append((kind, len(built) - start - fresh))

        monkeypatch.setattr(Controller, method, wrapper)

    adopted = []
    adopt = Controller._adopt

    def spy_adopt(self, table, *args):
        adopt(self, table, *args)
        adopted.append((table.manifests, copy.deepcopy(dict(table.manifests))))

    monkeypatch.setattr(ManifestTable, "from_manifests", classmethod(spy_build))
    spy("_resolve", "resolve")
    spy("_repair", "repair")
    monkeypatch.setattr(Controller, "_adopt", spy_adopt)
    topology = by_label("internet2")
    run_chaos(
        ScenarioConfig(
            plan=build_plan(plan, 7, 18, topology.node_names), seed=7, replicas=3
        )
    )
    assert {kind for kind, _ in counts} == replans
    assert all(n <= 2 for kind, n in counts if kind == "resolve"), counts
    assert all(n == 1 for kind, n in counts if kind == "repair"), counts
    assert len({id(m) for m in built}) == len(built)  # none tabled twice
    assert adopted
    for manifests, held in adopted:
        assert manifests == held  # never written after its adoption


def test_a_promoted_leader_scores_against_the_installed_configuration():
    # The standby promoted after the crash never planned, so its first
    # re-plan is a takeover (not a bootstrap: it holds a version); its
    # transition starts from the configuration it installed from the
    # handoff, not from nothing.
    topology = by_label("internet2")
    result = run_chaos(
        ScenarioConfig(
            plan=build_plan("leader-crash-mid-push", 7, 18, topology.node_names),
            seed=7,
        )
    )
    (first,) = [
        r.record
        for r in result.records
        if r.record is not None
        and r.record.resolved == "takeover"
        and r.leader != "controller"
    ]
    assert first.epoch == 6
    assert first.duplicated_fraction == pytest.approx(0.185678, abs=1e-6)


def test_an_installed_entry_is_sized_from_its_install(monkeypatch):
    # A promoted leader re-sends the log entry it installed from a
    # handoff.  The entry arrived without its manifests' sizes; they
    # come from the install's own encodings (which the leader's next
    # configuration carries), not from encoding each manifest whole.
    import repro.control.epochs as epochs

    encoded = []
    json_size = epochs.json_size
    monkeypatch.setattr(
        epochs, "json_size", lambda payload: encoded.append(payload) or json_size(payload)
    )
    installed = []
    install = ReplicatedLog._install

    def spy_install(self, now, version):
        made = install(self, now, version)
        installed.append((self, made))
        return made

    monkeypatch.setattr(ReplicatedLog, "_install", spy_install)
    adopt = Controller._adopt
    carried = []

    def spy_adopt(self, table, units, assignment, now, reason):
        held = self.wire
        adopt(self, table, units, assignment, now, reason)
        carried.append(self.wire._carried is held._entries)

    monkeypatch.setattr(Controller, "_adopt", spy_adopt)
    topology = by_label("internet2")
    run_chaos(
        ScenarioConfig(
            plan=build_plan("leader-crash-mid-push", 7, 18, topology.node_names),
            seed=7,
            replicas=3,
        )
    )
    assert installed
    for machine, made in installed:
        assert made.configuration is not None
        assert machine.log[made.version].manifest_sizes
    assert all(carried)
    assert not [p for p in encoded if isinstance(p, dict) and "entries" in p]


def test_the_held_table_follows_every_assignment_to_manifests():
    # An install replaces ``manifests`` without an adopt: the next read
    # tables the new set, once.
    topology = by_label("internet2")
    controller = Controller(topology, PathSet(topology), (), Bus())
    for manifests in ({}, {"CHIN": NodeManifest("CHIN")}, {}):
        controller.manifests = manifests
        table = controller.table
        assert table.manifests is manifests
        assert controller.table is table
