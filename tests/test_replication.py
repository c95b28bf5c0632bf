"""The replication state machine alone, enumerated without a bus.

``ReplicatedLog`` takes its inputs with an explicit ``now`` and returns
what to send, so its state space can be walked directly.  One replica of
three, from each role it can hold, folds every ordering of up to four
replica-plane messages drawn from {announce, promote, handoff} × terms
0–3, then an optional agent ``nack``, then a beat (``settle`` and
``open``).  Along every path:

* the term never decreases;
* after the beat, no leader holds an observed term above its own;
* merging the same handoff twice leaves the log identical.

A malformed replica-plane payload — a header field dropped or mistyped
in the frame or in any epoch-log entry — raises a ``ValueError`` naming
its kind and field, and leaves term, observed term, log and counters as
they were.

Each message comes from the replica that could have minted its term
(``term % 3``); a handoff carries one entry at version ``term % 2``, so
two terms compete for each version.  The machine is deterministic, so a
state reached twice with the same number of messages left is walked
once: every ordering is covered, each distinct one checked.
"""

import copy
import itertools
import re
from typing import NamedTuple

import pytest

from repro.control.epochs import EpochLogEntry
from repro.control.protocol import (
    KIND_PROMOTE,
    KIND_STATE_HANDOFF,
    KIND_TERM_ANNOUNCE,
)
from repro.control.replication import HAConfig, ReplicatedLog, replica_name
from repro.core.manifest import NodeManifest
from repro.core.manifest_io import manifest_to_dict
from repro.hashing.ranges import HashRange

REPLICAS = 3
INDEX = 1
TERMS = range(4)
MAX_MESSAGES = 4
AGENTS = ("a", "b")


class _Message(NamedTuple):
    kind: str
    src: str
    payload: dict


def _manifest(term):
    """Node ``a``'s manifest as the leader of *term* logged it."""
    return NodeManifest(
        node="a", entries={("c", ("k",)): (HashRange(0.0, 0.5 + term / 8),)}
    )


def _message(kind, term):
    leader = replica_name(term % REPLICAS)
    payload = {"term": term, "leader": leader}
    if kind == KIND_TERM_ANNOUNCE:
        payload.update(version=term, lease=False)
    elif kind == KIND_STATE_HANDOFF:
        entry = EpochLogEntry(
            term=term,
            version=term % 2,
            reason="periodic",
            max_acked=-1,
            manifests=(("a", manifest_to_dict(_manifest(term))),),
        )
        payload["entries"] = [entry.to_dict()]
    return _Message(kind, leader, payload)


MESSAGES = [
    _message(kind, term)
    for kind in (KIND_TERM_ANNOUNCE, KIND_PROMOTE, KIND_STATE_HANDOFF)
    for term in TERMS
]


def _clone(machine):
    twin = copy.copy(machine)
    twin.log = dict(machine.log)
    twin.claims = dict(machine.claims)
    return twin


def _standby():
    return ReplicatedLog(INDEX, HAConfig(replicas=REPLICAS), "controller", AGENTS)


def _leader(rebuilding):
    machine = _standby()
    machine._promote(0.0)
    machine.rebuilding = rebuilding
    return machine


def _check_beat(machine, nack, now):
    term = machine.term
    if nack is not None:
        machine.nack(nack)
    was_leader = machine.role == "leader"
    beat = machine.settle(now)
    assert beat.deposed == (was_leader and machine.role != "leader")
    assert machine.term >= term
    if machine.role == "leader":
        assert machine.observed_term <= machine.term
    term = machine.term
    machine.open(now, version=0)
    assert machine.term >= term
    if machine.role == "leader":
        assert machine.observed_term <= machine.term


def _state(machine):
    """Everything the machine's future behaviour depends on."""
    return (
        machine.role,
        machine.term,
        machine.observed_term,
        machine.leader_name,
        machine.rebuilding,
        machine._last_heard,
        tuple(sorted((v, entry.term) for v, entry in machine.log.items())),
    )


def _walk(machine, depth, seen):
    """Check every beat from *machine* and every ordering that extends
    it; return how many orderings (this prefix included) were covered."""
    key = (depth, _state(machine))
    if key in seen:
        return seen[key]
    for nack in (None, *TERMS):
        _check_beat(_clone(machine), nack, 10.0)
    covered = 1
    if depth < MAX_MESSAGES:
        now = 0.1 * (depth + 1)
        for message in MESSAGES:
            child = _clone(machine)
            assert child.receive(message, now)
            assert child.term >= machine.term
            if message.kind == KIND_STATE_HANDOFF:
                again = _clone(child)
                again.receive(message, now)
                assert again.log == child.log
                assert again.handoff_entries == child.handoff_entries
            covered += _walk(child, depth + 1, seen)
    seen[key] = covered
    return covered


def test_every_ordering_keeps_the_invariants():
    orderings = sum(len(MESSAGES) ** n for n in range(MAX_MESSAGES + 1))
    for start in (_standby(), _leader(rebuilding=False), _leader(rebuilding=True)):
        assert _walk(start, 0, {}) == orderings


def test_agent_plane_kinds_are_left_to_the_owner():
    machine = _standby()
    for kind in ("heartbeat", "report", "ack", "nack"):
        assert not machine.receive(_Message(kind, "a", {"term": 3}), 1.0)
    assert (machine.term, machine.observed_term) == (0, 0)


def test_enumeration_reaches_every_role_change():
    """The walk is not vacuous: a leader is deposed, a standby adopts a
    higher term, and a standby promotes past everything it observed."""
    leader = _leader(rebuilding=False)
    leader.receive(_message(KIND_TERM_ANNOUNCE, 2), 0.1)
    assert leader.role == "leader" and leader.observed_term == 2
    assert leader.settle(0.1).deposed
    assert (leader.role, leader.term, leader.leader_name) == (
        "standby", 2, "controller-2"
    )
    standby = _standby()
    for term in itertools.chain(TERMS, reversed(TERMS)):
        standby.receive(_message(KIND_PROMOTE, term), 0.1)
    assert standby.term == 3
    beat = standby.open(10.0, version=0)
    assert beat.elected and standby.term == 4 and standby.term % REPLICAS == INDEX


# -- Malformed replica-plane payloads ----------------------------------------
def _handoff(entries, term=3):
    return _Message(
        KIND_STATE_HANDOFF,
        "controller",
        {"term": term, "leader": "controller", "entries": entries},
    )


def _entry(term=3, version=5):
    return EpochLogEntry(
        term=term, version=version, reason="periodic", max_acked=-1,
        manifests=(("a", manifest_to_dict(_manifest(term))),),
    ).to_dict()


def _refused(message, field):
    """*message* raises a ValueError naming its kind and *field*, and
    leaves the machine as it was."""
    machine = _standby()
    machine.receive(_handoff([_entry(term=0, version=1)], term=0), 0.0)
    before = _state(machine), machine.handoff_entries, dict(machine.log)
    with pytest.raises(ValueError, match=f"{message.kind}: .*{re.escape(field)}"):
        machine.receive(message, 1.0)
    assert (_state(machine), machine.handoff_entries, dict(machine.log)) == before


def test_a_headless_entry_refuses_the_whole_handoff():
    """A valid v5 followed by ``{"term": 3}`` used to merge v5, adopt
    term 3, then raise ``KeyError('version')``."""
    _refused(_handoff([_entry(), {"term": 3}]), "entries[1].version")


def test_a_string_term_is_refused_before_it_is_witnessed():
    for kind in (KIND_TERM_ANNOUNCE, KIND_PROMOTE, KIND_STATE_HANDOFF):
        payload = {"term": "7", "leader": "controller-1", "entries": []}
        _refused(_Message(kind, "controller-1", payload), "term")


FRAME_FIELDS = {
    "term": (-1, True, 2.0, "3"),
    "leader": (1, None),
    "entries": ({}, "x", None),
}
ENTRY_FIELDS = {
    "term": ("3", 3.0, None),
    "version": ("5", False, None),
    "max_acked": (-1.0, "-1", None),
    "reason": (1, None),
    "manifests": ([], "a", None),
}


@pytest.mark.parametrize("field", sorted(FRAME_FIELDS))
def test_each_frame_field_dropped_or_mistyped(field):
    good = _handoff([_entry()]).payload
    dropped = {name: value for name, value in good.items() if name != field}
    _refused(_Message(KIND_STATE_HANDOFF, "controller", dropped), field)
    for wrong in FRAME_FIELDS[field]:
        wrong_payload = dict(good, **{field: wrong})
        _refused(_Message(KIND_STATE_HANDOFF, "controller", wrong_payload), field)


@pytest.mark.parametrize("field", sorted(ENTRY_FIELDS))
def test_each_entry_field_dropped_or_mistyped(field):
    good = _entry()
    dropped = {name: value for name, value in good.items() if name != field}
    _refused(_handoff([_entry(version=4), dropped]), f"entries[1].{field}")
    for wrong in ENTRY_FIELDS[field]:
        wrong_entry = dict(good, **{field: wrong})
        _refused(_handoff([_entry(version=4), wrong_entry]), f"entries[1].{field}")


def test_an_adopted_entry_must_map_nodes_to_manifests():
    for manifests in ({"a": [1, 2]}, {3: manifest_to_dict(_manifest(3))}):
        _refused(_handoff([_entry(version=4), dict(_entry(), manifests=manifests)]),
                 "entries[1].manifests")


def test_a_well_formed_handoff_still_merges():
    machine = _standby()
    machine.receive(_handoff([_entry(version=4), _entry()]), 1.0)
    assert sorted(machine.log) == [4, 5]
    assert (machine.term, machine.handoff_entries) == (3, 2)
