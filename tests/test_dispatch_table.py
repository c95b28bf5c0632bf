"""Batch dispatch probes the node's ``ManifestTable``; a root memoises
what every node view reads.

``CoordinatedDispatcher.batch_decisions`` answers Fig. 3 for a whole
node trace with one ``ManifestTable.unit_ids`` and one
``contains_batch`` per module.  The exactness cases are the ones a range
probe can get wrong — a top within ``EPSILON`` of 1.0 (closed), touching
and overlapping pieces, empty tuples, ``full=True``, a unit nobody
holds, the wrapped two-piece entries of r = 2 — each compared session by
session with ``decide_session`` and ``NodeManifest.contains``.  The
sessions' hash values are planted through the dispatcher's hash cache
and the batch's hash column, so probes land on the boundaries.

The memo tests pin the rule of :meth:`SessionBatch.match_mask` and
:meth:`SessionBatch.item_key_ids`: computed once on the root, gathered
(never cached) by a view, not pickled, rebuilt equal after unpickling.
"""

import pickle

import numpy as np
import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import NodeManifest, full_manifest
from repro.core.manifest_table import ManifestTable
from repro.core.nids_deployment import plan_deployment
from repro.core.units import unit_key_for_session
from repro.hashing.keys import Aggregation
from repro.hashing.ranges import EPSILON, HashRange
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator
from tests.manifest_oracle import WrappedRange

#: The largest value hash_unit() can return: (2**32 - 1) / 2**32.
MAX_HASH_UNIT = 1.0 - 2.0**-32
NODE = "KSCY"

PIECES = {
    "closed-top": (HashRange(0.5, 1.0 - EPSILON / 2),),
    "touching": (HashRange(0.0, 0.25), HashRange(0.25, 0.5)),
    "overlapping": (HashRange(0.1, 0.4), HashRange(0.3, 0.6), HashRange(0.6, 0.6)),
    "empty-tuple": (),
    "empty-range": (HashRange(0.3, 0.3),),
    "wrapped-r2": tuple(WrappedRange(start=1.7, length=0.6).pieces()),
}


@pytest.fixture(scope="module")
def world():
    topology = internet2()
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=5))
    sessions = generator.generate(600)
    deployment = plan_deployment(topology, paths, STANDARD_MODULES, sessions)
    return topology, generator, sessions, deployment


def _probes(pieces):
    """Every boundary, the floats either side of it, and the extremes."""
    values = {0.0, 0.5, MAX_HASH_UNIT, 1.0 - EPSILON / 2, 1.0}
    for piece in pieces:
        for edge in (piece.lo, piece.hi):
            values.update((edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)))
    return sorted(value for value in values if 0.0 <= value <= 1.0)


def _planted(sessions, probes, seed=0):
    """A fresh root over *sessions* and a hash cache that agree on a
    hash per (aggregation, session) drawn cyclically from *probes*."""
    batch = SessionBatch(list(sessions))
    cache = {}
    for shift, aggregation in enumerate(sorted(Aggregation, key=lambda a: a.name)):
        sub = cache.setdefault(aggregation, {})
        column = np.empty(len(batch))
        for i, session in enumerate(batch):
            t = session.tuple
            key = (t.src, t.dst, t.sport, t.dport, t.proto)
            column[i] = sub.setdefault(key, probes[(i + shift) % len(probes)])
        batch._hashes[(aggregation, seed)] = column
    return batch, cache


def _holding(sessions, pieces, skip_every=2):
    """*NODE*'s manifest: *pieces* for the units the trace touches, bar
    every *skip_every*-th one, which nobody holds (0: skip none)."""
    units = sorted(
        {
            (spec.name, unit_key_for_session(spec, session))
            for session in sessions
            for spec in STANDARD_MODULES
        }
    )
    return NodeManifest(
        node=NODE,
        entries={
            ident: pieces
            for n, ident in enumerate(units)
            if not skip_every or n % skip_every
        },
    )


def _dispatcher(manifest, cache, topology):
    return CoordinatedDispatcher(
        node=manifest.node,
        manifest=manifest,
        modules=STANDARD_MODULES,
        resolver=UnitResolver(topology.node_names),
        hash_cache=cache,
    )


def assert_batch_is_per_session(dispatcher, batch) -> int:
    """``batch_decisions`` against ``decide_session`` and the manifest's
    own checks, per (module, session); the number analysed."""
    manifest = dispatcher.manifest
    decisions = dispatcher.batch_decisions(batch)
    analysed = 0
    for i, session in enumerate(batch):
        scalar = {d.module.name: d for d in dispatcher.decide_session(session)}
        for decision in decisions:
            spec = decision.spec
            unit = unit_key_for_session(spec, session)
            value = dispatcher.session_hash(spec, session)
            assert value == batch.hash_column(spec.aggregation, 0)[i]
            matched = spec.traffic_filter.matches_session(session)
            want = matched and manifest.contains(spec.name, unit, value)
            assert bool(decision.match[i]) == matched
            assert bool(decision.analyze[i]) == want, (spec.name, unit, value)
            responsible = manifest.responsible(spec.name, unit)
            assert bool(decision.responsible[i]) == responsible
            assert (spec.name in scalar) == matched
            if matched:
                assert scalar[spec.name].analyze == want
                assert scalar[spec.name].hash_value == value
            analysed += want
    return analysed


class TestExactness:
    @pytest.mark.parametrize("case", sorted(PIECES))
    def test_pieces_against_the_scalar_check(self, world, case):
        topology, _, sessions, _ = world
        pieces = PIECES[case]
        batch, cache = _planted(sessions, _probes(pieces))
        dispatcher = _dispatcher(_holding(sessions, pieces), cache, topology)
        analysed = assert_batch_is_per_session(dispatcher, batch)
        assert bool(analysed) == any(not piece.empty for piece in pieces)

    def test_closed_top_claims_up_to_one(self, world):
        """The band above a top within EPSILON of 1.0 is inside."""
        topology, _, sessions, _ = world
        pieces = (HashRange(0.5, 1.0 - EPSILON / 2),)
        batch, cache = _planted(sessions, [1.0 - EPSILON / 4, MAX_HASH_UNIT, 1.0])
        manifest = _holding(sessions, pieces, skip_every=0)
        dispatcher = _dispatcher(manifest, cache, topology)
        for decision in dispatcher.batch_decisions(batch):
            assert decision.match.any()
            assert np.array_equal(decision.analyze, decision.match)

    def test_full_manifest(self, world):
        topology, _, sessions, _ = world
        batch, cache = _planted(sessions, _probes(()))
        manifest = full_manifest(NODE)
        manifest.entries[("signature", ("KSCY", "NYCM"))] = ()
        dispatcher = _dispatcher(manifest, cache, topology)
        assert assert_batch_is_per_session(dispatcher, batch)

    def test_a_unit_nobody_holds(self, world):
        topology, _, sessions, _ = world
        batch, cache = _planted(sessions, _probes(()))
        dispatcher = _dispatcher(NodeManifest(node=NODE), cache, topology)
        assert assert_batch_is_per_session(dispatcher, batch) == 0
        for decision in dispatcher.batch_decisions(batch):
            assert not decision.analyze.any() and not decision.responsible.any()

    def test_views_of_one_root(self, world):
        """Node views (split takes, a slice, a take of it) decide as the
        batch rebuilt from their sessions does, on every node."""
        topology, generator, sessions, deployment = world
        root = SessionBatch(list(sessions))
        views = [trace for _, trace in generator.split_batch(root, transit=True)]
        views += [root[3:400:2], root[3:400:2].take(np.arange(0, 150, 3))]
        for view in views:
            rebuilt = SessionBatch(list(view))
            for node in topology.node_names:
                dispatcher = deployment.dispatcher(node)
                got = dispatcher.batch_decisions(view)
                want = dispatcher.batch_decisions(rebuilt)
                for a, b in zip(got, want):
                    assert np.array_equal(a.match, b.match)
                    assert np.array_equal(a.analyze, b.analyze)
                    assert np.array_equal(a.responsible, b.responsible)


def test_table_calls_do_not_grow_with_units(world, monkeypatch):
    """One ``unit_ids`` and one ``contains_batch`` per (view, module),
    whether the view's sessions fall in one unit per module or in all."""
    topology, _, sessions, deployment = world
    calls = {"unit_ids": 0, "contains_batch": 0}
    for name in calls:
        original = getattr(ManifestTable, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ManifestTable, name, counted)
    root = SessionBatch(list(sessions))
    one_pair = root.take(np.flatnonzero(root.group_ids == root.group_ids[0]))
    assert len(root.pairs) > 50 and len(one_pair.pairs) == 1
    for view in (root, one_pair):
        for node in topology.node_names:
            dispatcher = deployment.dispatcher(node)
            for key in calls:
                calls[key] = 0
            dispatcher.batch_decisions(view)
            assert calls == {
                "unit_ids": len(STANDARD_MODULES),
                "contains_batch": len(STANDARD_MODULES),
            }


class TestRootMemo:
    def test_views_gather_and_never_cache(self, world):
        _, _, sessions, _ = world
        root = SessionBatch(list(sessions))
        view = root[5:500:3].take(np.arange(0, 100, 2))
        for spec in STANDARD_MODULES:
            mask = view.match_mask(spec.traffic_filter)
            assert np.array_equal(
                mask, spec.traffic_filter.matches_sessions_batch(view.proto, view.dport)
            )
            distinct, ids = view.item_key_ids(spec.aggregation)
            assert ids.dtype == np.uint32
            assert np.array_equal(distinct[ids], view.item_keys(spec.aggregation))
            assert np.array_equal(distinct, np.unique(root.item_keys(spec.aggregation)))
        assert view._memo == {}
        assert {kind for kind, _ in root._memo} == {"match", "keys"}
        assert {key for kind, key in root._memo if kind == "keys"} == {
            spec.aggregation for spec in STANDARD_MODULES
        }

    def test_pickle_ships_no_memo_and_rebuilds_it(self, world):
        """A 5k root pickles to as many bytes after two emulations filled
        its memo as a twin that only computed the same hash columns."""
        topology, generator, _, _ = world
        used = next(generator.generate_chunks(5_000, 5_000))
        twin = next(generator.generate_chunks(5_000, 5_000))
        assert used.root is used and np.array_equal(used.src, twin.src)
        paths = PathSet(topology)
        deployment = plan_deployment(topology, paths, STANDARD_MODULES, used)
        run_emulation(Traffic.materialized(generator, used), deployment)
        run_emulation(Traffic.materialized(generator, used), STANDARD_MODULES)
        assert used._memo
        for spec in STANDARD_MODULES:
            twin.hash_column(spec.aggregation, deployment.hash_seed)
        payload = pickle.dumps(used)
        assert len(payload) == len(pickle.dumps(twin))
        clone = pickle.loads(payload)
        assert clone._memo == {}
        for spec in STANDARD_MODULES:
            matches = spec.traffic_filter
            assert np.array_equal(clone.match_mask(matches), used.match_mask(matches))
            keys = spec.aggregation
            for got, want in zip(clone.item_key_ids(keys), used.item_key_ids(keys)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert clone._memo.keys() == used._memo.keys()
