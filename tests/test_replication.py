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

Each message comes from the replica that could have minted its term
(``term % 3``); a handoff carries one entry at version ``term % 2``, so
two terms compete for each version.  The machine is deterministic, so a
state reached twice with the same number of messages left is walked
once: every ordering is covered, each distinct one checked.
"""

import copy
import itertools
from typing import NamedTuple

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
