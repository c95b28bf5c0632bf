"""``ManifestTable`` and its readers against the all-nodes oracle.

The table (``repro.core.manifest_table``) is the one way the product
goes from a unit to who holds it — its piece gather and its row lookup;
``tests/manifest_oracle.py`` keeps the loops that asked every node about
every unit.  Everything here is ``==`` — holders, float folds, entry
insertion order, pair counts.

Seeded mutations, each run on a copy of ``src/repro``:

* the gather dropping the ``full`` nodes' pieces fails
  ``test_holders_equal_the_scan_over_every_manifest``;
* ``find_rows`` ignoring the node fails ``test_find_rows_is_the_entry_lookup``;
* ``stabilize_manifests`` comparing pieces in entry order instead of
  ``lo`` order fails ``test_tolerance_compares_pieces_in_lo_order``.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.agent import AgentConfig
from repro.control.bus import Bus, BusConfig
from repro.control.chaos import InvariantMonitor
from repro.control.controller import ControllerConfig
from repro.control.epochs import GroundTruth, ranges_reassigned, stabilize_manifests
from repro.control.ha import HAConfig
from repro.control.plane import ControlPlane, profile_pools, unit_capacity_topology
from repro.core.manifest import NodeManifest, full_manifest
from repro.core.manifest_table import ManifestTable
from repro.core.nids_deployment import plan_deployment
from repro.core.reconfigure import TransitionPlan, plan_transition
from repro.core.units import CoordinationUnit, UnitTable
from repro.hashing.ranges import EPSILON, HashRange
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet
from repro.traffic.dynamics import DiurnalBurstModel
from tests import manifest_oracle as oracle

NODES = ["n3", "n1", "n4", "n0", "n2"]  # deliberately not sorted
IDENTS = [("sig", ("n0", "n1")), ("sig", ("n2",)), ("scan", ("n0",)), ("http", ("n1", "n4"))]
NOBODY = ("irc", ("n3", "n4"))

_cut = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_pieces = st.one_of(
    st.just(()),  # written, but empty
    st.tuples(_cut, _cut).map(lambda c: (HashRange(min(c), max(c)),)),
    # A wrapped arc: a piece closed at the top plus one from the bottom,
    # in either order.
    st.tuples(_cut, _cut).map(
        lambda c: (HashRange(max(c), 1.0), HashRange(0.0, min(c)))
    ),
    st.tuples(_cut, _cut).map(
        lambda c: (HashRange(0.0, min(c)), HashRange(max(c), 1.0))
    ),
    # Topping out within EPSILON of 1.0: closed at the top all the same.
    _cut.map(lambda lo: (HashRange(lo * (1.0 - EPSILON / 2), 1.0 - EPSILON / 2),)),
)


@st.composite
def manifest_sets(draw, allow_full=True):
    manifests = {}
    for node in draw(st.permutations(NODES)):
        if allow_full and draw(st.integers(0, 5)) == 0:
            manifests[node] = full_manifest(node)
            continue
        # Any node may hold any unit: the table does not know paths.
        held = draw(st.lists(st.sampled_from(IDENTS), unique=True))
        manifests[node] = NodeManifest(
            node=node, entries={ident: draw(_pieces) for ident in held}
        )
    return manifests


PROBES = np.array(
    [0.0, 1e-12, 0.25, 0.5, 0.75, 1.0 - EPSILON, 1.0 - EPSILON / 4,
     1.0 - 2.0**-32, np.nextafter(1.0, 0.0), 1.0]
)


class TestTable:
    @settings(max_examples=200, deadline=None)
    @given(manifest_sets(), st.lists(st.sampled_from(IDENTS + [NOBODY]), max_size=6))
    def test_holders_equal_the_scan_over_every_manifest(self, manifests, asked):
        """Every piece of every holder — a ``full`` node's ``[0, 1)`` at
        its place in node order, also for a unit nobody wrote — per
        requested unit, repeats included."""
        table = ManifestTable.from_manifests(manifests)
        held = table.pieces(table.unit_ids(asked))
        got = list(
            zip(
                held.owner.tolist(),
                [table.nodes[k] for k in held.node.tolist()],
                held.lo.tolist(),
                held.hi.tolist(),
            )
        )
        assert got == [
            (i, node, piece.lo, piece.hi)
            for i, ident in enumerate(asked)
            for node, pieces in oracle.holders(manifests, ident)
            for piece in pieces
        ]
        assert set(table.units) == {
            ident
            for manifest in manifests.values()
            if not manifest.full
            for ident in manifest.entries
        }

    @settings(max_examples=200, deadline=None)
    @given(manifest_sets())
    def test_find_rows_is_the_entry_lookup(self, manifests):
        """A (unit, node) has a row exactly when that node's manifest,
        not ``full``, writes an entry for the unit — an empty one too —
        and the row carries the manifest's own tuple."""
        table = ManifestTable.from_manifests(manifests)
        idents = IDENTS + [NOBODY]
        names = sorted(manifests) + ["elsewhere"]
        rows = table.find_rows(
            np.repeat(table.unit_ids(idents), len(names)),
            np.tile(table.node_ids(names), len(idents)),
        )
        columns = table.columns
        for (ident, name), row in zip(itertools.product(idents, names), rows.tolist()):
            manifest = manifests.get(name)
            written = manifest is not None and not manifest.full and ident in manifest.entries
            assert (row >= 0) == written
            if written:
                assert columns.entries[row] is manifest.entries[ident]
                assert table.units[columns.row_unit[row]] == ident
                assert table.nodes[columns.row_node[row]] == name

    def test_pieces_are_the_manifests_own_tuples(self):
        pieces = (HashRange(0.25, 0.5),)
        manifests = {"a": NodeManifest("a", entries={IDENTS[0]: pieces})}
        table = ManifestTable.from_manifests(manifests)
        (row,) = table.find_rows(table.unit_ids([IDENTS[0]]), table.node_ids(["a"]))
        assert table.columns.entries[row] is pieces

    @settings(max_examples=200, deadline=None)
    @given(manifest_sets(), st.lists(_cut, max_size=6))
    def test_contains_batch_is_any_scalar_contains(self, manifests, extra):
        table = ManifestTable.from_manifests(manifests)
        idents = IDENTS + [NOBODY]
        values = np.concatenate([PROBES, np.array(extra, dtype=np.float64)])
        units = np.repeat(np.arange(len(idents)), len(values))
        hashes = np.tile(values, len(idents))
        got = table.contains_batch(table.unit_ids(idents)[units], hashes)
        want = [
            any(
                manifest.contains(*idents[u], float(h))
                for manifest in manifests.values()
            )
            for u, h in zip(units.tolist(), hashes.tolist())
        ]
        assert got.tolist() == want

    def test_closed_top_is_closed_in_the_batch_probe(self):
        """A range ending within EPSILON of 1.0 holds everything up to
        and including 1.0 (``HashRange.contains``), in the columns too."""
        short = 1.0 - EPSILON / 2
        manifests = {"a": NodeManifest("a", entries={IDENTS[0]: (HashRange(0.5, short),)})}
        table = ManifestTable.from_manifests(manifests)
        above = np.array([np.nextafter(short, 1.0), np.nextafter(1.0, 0.0), 1.0])
        assert table.contains_batch(
            table.unit_ids([IDENTS[0]] * 3), above
        ).tolist() == [True, True, True]

    def test_a_table_is_a_snapshot(self):
        """An in-place ``entries[...] =`` write after the build is not
        in the table: readers build theirs where they read."""
        manifests = {"a": NodeManifest("a"), "b": NodeManifest("b")}
        table = ManifestTable.from_manifests(manifests)
        manifests["b"].entries[IDENTS[0]] = (HashRange(0.0, 1.0),)

        def read(table):
            groups = table.unit_ids([IDENTS[0]])
            held = table.pieces(groups)
            row = table.find_rows(groups, table.node_ids(["b"]))
            return held.lo.tolist(), held.hi.tolist(), row.tolist()

        assert read(table) == ([], [], [-1])
        assert read(ManifestTable.from_manifests(manifests)) == ([0.0], [1.0], [0])


# -- consecutive re-plans ----------------------------------------------------
def _replans(label, coverage=1.0):
    """Four deployments planned from four consecutive epoch slices."""
    topology = unit_capacity_topology(label)
    paths = PathSet(topology)
    pool = profile_pools(["mixed"], 23, topology, paths, 520)["mixed"]
    return [
        plan_deployment(topology, paths, STANDARD_MODULES, pool[:volume], coverage=coverage)
        for volume in (400, 470, 430, 520)
    ]


@pytest.fixture(
    scope="module",
    params=[("Internet2", 1.0), ("Internet2", 2.0), ("pop100", 1.0)],
    ids=["internet2", "internet2-r2", "pop100"],
)
def replans(request):
    return _replans(*request.param)


class TestTransitionPlan:
    def test_metrics_equal_the_all_nodes_fold(self, replans):
        for old, new in zip(replans, replans[1:]):
            plan = plan_transition(old, new)
            idents = sorted({u.ident for u in old.units} | {u.ident for u in new.units})
            moved = 0
            for class_name, key in idents:
                duplicated = plan.duplicated_fraction(class_name, key)
                # ``==``: same terms, same (sorted-node) fold order.
                assert duplicated == oracle.duplicated_fraction(old, new, class_name, key)
                assert plan.orphaned_fraction(class_name, key) == pytest.approx(
                    oracle.orphaned_fraction(old, new, class_name, key), abs=1e-12
                )
                moved += duplicated > 0
            assert moved, "re-plan moved nothing: the comparison is vacuous"

    def test_duplicated_mass_folds_in_sorted_node_order(self):
        """Three old holders whose masses do not add associatively, in
        a dict that is not in node order."""
        ident = IDENTS[0]
        old = {
            "c": NodeManifest("c", entries={ident: (HashRange(0.9, 1.0),)}),
            "a": NodeManifest("a", entries={ident: (HashRange(0.2, 0.6),)}),
            "b": NodeManifest("b", entries={ident: (HashRange(0.6, 0.8),)}),
            "d": NodeManifest("d"),
        }
        new = {node: NodeManifest(node) for node in old}
        new["d"].entries[ident] = (HashRange(0.0, 1.0),)
        a, b, c = (old[n].entries[ident][0].length for n in "abc")
        assert (a + b) + c != (c + a) + b
        old, new = (SimpleNamespace(manifests=m, units=[]) for m in (old, new))
        assert TransitionPlan(old, new).duplicated_fraction(
            *ident
        ) == oracle.duplicated_fraction(old, new, *ident)

    def test_handoffs_equal_the_all_pairs_scan(self, replans):
        old, new = replans[0], replans[1]
        transfers = plan_transition(old, new).handoffs()
        assert transfers
        masses = [t[4] for t in transfers]
        assert masses == sorted(masses, reverse=True)
        # The oracle breaks mass ties in set-iteration order; the plan in
        # (unit, donor, receiver) order.  Same transfers, same masses.
        canonical = lambda ts: sorted(ts, key=lambda t: (-t[4],) + t[:4])
        assert transfers == canonical(oracle.handoffs(old, new))


def _deployment(manifests, paths):
    """A deployment stand-in: *manifests* in sorted node order (the
    oracle folds in dict order) and one unit per ident of IDENTS +
    NOBODY, eligible on *paths*[ident]."""
    rows = [
        CoordinationUnit(*ident, eligible=paths[ident], pkts=1.0, items=1.0, cpu_work=1.0, mem_bytes=1.0)
        for ident in IDENTS + [NOBODY]
    ]
    return SimpleNamespace(
        manifests={node: manifests[node] for node in sorted(manifests)},
        units=UnitTable.of(rows),
    )


_paths = st.fixed_dictionaries(
    {
        ident: st.lists(st.sampled_from(NODES), min_size=1, unique=True).map(tuple)
        for ident in IDENTS + [NOBODY]
    }
)


class TestTransitionPlanOnGeneratedSets:
    """``full`` donors and receivers, empty entries, units nobody wrote."""

    @settings(max_examples=150, deadline=None)
    @given(manifest_sets(), manifest_sets(), _paths)
    def test_handoffs_and_orphaned_mass(self, old, new, paths):
        old, new = _deployment(old, paths), _deployment(new, paths)
        plan = TransitionPlan(old, new)
        canonical = lambda ts: sorted(ts, key=lambda t: (-t[4],) + t[:4])
        assert plan.handoffs() == canonical(oracle.handoffs(old, new))
        for ident in IDENTS + [NOBODY]:
            assert plan.orphaned_fraction(*ident) == oracle.orphaned_fraction(old, new, *ident)

    @settings(max_examples=100, deadline=None)
    @given(manifest_sets(), manifest_sets(allow_full=False))
    def test_ranges_reassigned(self, survivors, failed):
        snapshot = {
            ident: pieces
            for manifest in failed.values()
            for ident, pieces in manifest.entries.items()
        }
        for skip in (set(), set(IDENTS[:2])):
            assert ranges_reassigned(snapshot, survivors, skip) == oracle.ranges_reassigned(
                snapshot, survivors, skip
            )

    def test_a_full_survivor_holds_every_range(self):
        snapshot = {IDENTS[0]: (HashRange(0.2, 0.7),), NOBODY: (HashRange(0.0, 1.0),)}
        survivors = {"a": NodeManifest("a"), "b": full_manifest("b")}
        assert ranges_reassigned(snapshot, survivors, set())
        survivors["b"] = NodeManifest("b", entries={IDENTS[0]: (HashRange(0.2, 0.7),)})
        assert not ranges_reassigned(snapshot, survivors, set())
        assert ranges_reassigned(snapshot, survivors, {NOBODY})


class TestStabilize:
    @staticmethod
    def _same(got, want):
        manifests, changed = got
        want_manifests, want_changed = want
        assert changed == want_changed
        assert list(manifests) == list(want_manifests)
        for node, manifest in manifests.items():
            assert manifest.full == want_manifests[node].full
            # Insertion order too: it decides JSON and delta bytes.
            assert list(manifest.entries.items()) == list(
                want_manifests[node].entries.items()
            )

    def test_replans_stabilize_as_the_oracle_does(self, replans):
        previous = replans[0].manifests
        kept = 0
        for deployment in replans[1:]:
            allowed = {u.ident: set(u.eligible) for u in deployment.units}
            for tolerance, permit in ((0.02, allowed), (0.3, allowed), (0.3, None)):
                got = stabilize_manifests(previous, deployment.manifests, tolerance, permit)
                self._same(
                    got,
                    oracle.stabilize_manifests(
                        previous, deployment.manifests, tolerance, permit
                    ),
                )
            kept += len(ManifestTable.from_manifests(got[0]).units) - len(got[1])
            previous = got[0]
        assert kept, "no unit was ever reused: the comparison is vacuous"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(manifest_sets(allow_full=False), manifest_sets(), st.sampled_from([0.0, 0.05, 1.0]))
    def test_generated_sets(self, previous, proposed, tolerance):
        self._same(
            stabilize_manifests(previous, proposed, tolerance),
            oracle.stabilize_manifests(previous, proposed, tolerance),
        )


    def test_tolerance_compares_pieces_in_lo_order(self):
        """A wrapped arc written bottom piece first is the same arc:
        each row's pieces are matched in ``lo`` order, not entry order."""
        ident = IDENTS[0]
        previous = {"a": NodeManifest("a", entries={ident: (HashRange(0.7, 1.0), HashRange(0.0, 0.3))})}
        proposed = {"a": NodeManifest("a", entries={ident: (HashRange(0.0, 0.31), HashRange(0.71, 1.0))})}
        got = stabilize_manifests(previous, proposed, 0.02)
        self._same(got, oracle.stabilize_manifests(previous, proposed, 0.02))
        assert got[0]["a"].entries[ident] is previous["a"].entries[ident]
        assert got[1] == set()


# -- the coverage monitor ----------------------------------------------------
@pytest.fixture(scope="module")
def plane():
    """A pop12 plane four epochs in: every agent serves a coordinated
    manifest, re-planned every epoch."""
    topology = unit_capacity_topology("pop12")
    plane = ControlPlane(
        topology,
        Bus(BusConfig(latency=0.05, jitter=0.02, seed=5)),
        ControllerConfig(resolve_every=1, lease_ttl=2.5, retry_seed=5),
        HAConfig(replicas=1),
        AgentConfig(transition_window=2.0, lease_ttl=2.5),
        DiurnalBurstModel(base_sessions=300, seed=5),
        epochs=6,
        profiles=("mixed", "attack_heavy"),
        seed=5,
    )
    for epoch in range(4):
        facts = plane.run_epoch(epoch, "mixed")
    assert not facts.degraded and facts.record.converged
    return plane, facts.truth.sessions


class _Patched:
    """Set attributes on agents for one case, restore them after."""

    def __init__(self, agents, **changes):
        self.agents, self.changes = agents, changes

    def __enter__(self):
        self.saved = {
            (node, name): getattr(self.agents[node], name)
            for name, by_node in self.changes.items()
            for node in by_node
        }
        for name, by_node in self.changes.items():
            for node, value in by_node.items():
                setattr(self.agents[node], name, value)

    def __exit__(self, *exc):
        for (node, name), value in self.saved.items():
            setattr(self.agents[node], name, value)


def _truth(plane, sessions):
    return GroundTruth(plane.modules, sessions, plane.paths, plane.agents)


def _floor(plane, sessions):
    got = InvariantMonitor(plane.modules).coverage_floor(
        0, _truth(plane, sessions), excluded=True
    )
    assert got == oracle.coverage_floor(plane.modules, list(sessions), plane.agents)
    return got


def _busiest(agents, transit):
    """The node holding the most mass for units it is (not) an endpoint of."""
    def mass(node):
        return sum(
            sum(p.length for p in pieces)
            for (_cls, key), pieces in agents[node].manifest.entries.items()
            if (node not in key) == transit
        )
    return max(sorted(agents), key=mass)


class TestCoverageFloor:
    def test_steady_state(self, plane):
        plane, sessions = plane
        baseline, uncovered = _floor(plane, sessions)
        assert baseline > len(sessions) and uncovered == 0

    def test_crashed_holder_before_repair(self, plane):
        plane, sessions = plane
        node = _busiest(plane.agents, transit=True)
        with _Patched(plane.agents, alive={node: False}):
            _baseline, uncovered = _floor(plane, sessions)
        assert uncovered > 0

    def test_degraded_agent_at_a_transit_node(self, plane):
        """Its transit ranges go dark, its own endpoints it still takes."""
        plane, sessions = plane
        node = _busiest(plane.agents, transit=True)
        with _Patched(plane.agents, degraded={node: True}):
            _baseline, uncovered = _floor(plane, sessions)
            with _Patched(plane.agents, alive={node: False}):
                _baseline, dead = _floor(plane, sessions)
        assert 0 < uncovered < dead

    def test_degraded_agent_at_an_endpoint(self, plane):
        """Edge stance: every unit the node is an endpoint of stays
        analyzed although its coordinated manifest is not served."""
        plane, sessions = plane
        node = _busiest(plane.agents, transit=False)
        emptied = {
            other: NodeManifest(node=other)
            for other in plane.agents
            if other != node
        }
        with _Patched(plane.agents, degraded={node: True}, manifest=emptied):
            baseline, uncovered = _floor(plane, sessions)
            with _Patched(plane.agents, alive={node: False}):
                dead_baseline, dead = _floor(plane, sessions)
        assert 0 < baseline - uncovered and dead == dead_baseline

    def test_full_manifest_covers_everything(self, plane):
        plane, sessions = plane
        node = sorted(plane.agents)[0]
        emptied = {other: NodeManifest(node=other) for other in plane.agents}
        emptied[node] = full_manifest(node)
        with _Patched(plane.agents, manifest=emptied):
            baseline, uncovered = _floor(plane, sessions)
            assert baseline > 0 and uncovered == 0
            # ... unless it is the full node that is degraded.
            with _Patched(plane.agents, degraded={node: True}):
                _baseline, uncovered = _floor(plane, sessions)
            assert uncovered > 0

    def test_open_transition_window_does_not_count(self, plane):
        """The floor asks about NEW connections: a retiring manifest
        (§5) answers only for existing ones."""
        plane, sessions = plane
        node = _busiest(plane.agents, transit=True)
        agent = plane.agents[node]
        window = {node: (agent.manifest, 99.0)}
        # The twin: the same window open beside the live manifest.
        with _Patched(plane.agents, retiring=window):
            _baseline, kept = _floor(plane, sessions)
        with _Patched(
            plane.agents,
            retiring=window,
            manifest={node: NodeManifest(node=node)},
        ):
            _baseline, uncovered = _floor(plane, sessions)
        assert kept == 0 < uncovered

    def test_units_that_post_date_the_plan(self, plane):
        plane, _sessions = plane
        later = plane.pools["attack_heavy"][:300]
        baseline, uncovered = _floor(plane, later)
        assert 0 < uncovered < baseline

    def test_in_place_write_between_calls_is_seen(self, plane):
        """One monitor, two calls, an ``entries[...] =`` write between
        them (what a repair does): the second call reads the write."""
        plane, sessions = plane
        monitor = InvariantMonitor(plane.modules)
        before = monitor.coverage_floor(0, _truth(plane, sessions), excluded=True)
        node = _busiest(plane.agents, transit=True)
        entries = plane.agents[node].manifest.entries
        saved = dict(entries)
        try:
            for ident in saved:
                entries[ident] = ()
            after = monitor.coverage_floor(1, _truth(plane, sessions), excluded=True)
            assert after == oracle.coverage_floor(
                plane.modules, list(sessions), plane.agents
            )
        finally:
            entries.update(saved)
        assert after[1] > before[1]

    def test_ranges_reassigned_reads_the_survivors(self, plane):
        plane, _sessions = plane
        node = _busiest(plane.agents, transit=True)
        snapshot = dict(plane.agents[node].manifest.entries)
        survivors = {
            name: agent.manifest
            for name, agent in plane.agents.items()
            if name != node
        }
        adopted = dict(survivors)
        adopted["elsewhere"] = NodeManifest("elsewhere", entries=snapshot)
        for held, skip in ((survivors, set()), (adopted, set()), (survivors, set(snapshot))):
            assert ranges_reassigned(snapshot, held, skip) == oracle.ranges_reassigned(
                snapshot, held, skip
            )
        assert not ranges_reassigned(snapshot, survivors, set())
        assert ranges_reassigned(snapshot, adopted, set())
