"""Fig. 2's r-fold cover, enumerated where the layout is small.

Every unit over a path of 1–6 nodes at redundancy r = 1–3 is laid out
by :func:`generate_manifests`; every piece boundary, and the floats
either side of it (``np.nextafter``), is then probed through each
node's :meth:`ManifestTable.contains_batch` and must be held by exactly
r nodes — the contract dispatch relies on.  ``check_partition`` must
flag exactly the units that fail the probe.

The ``d*`` vectors come from structured families rather than random
draws, so a failure reproduces bit for bit:

* every composition of r over k/8 and over k/10 (entries > 0), but for
  path length 6 at r = 3;
* repeated values: two values in a fixed pattern, scaled to sum r —
  (0.875, b, 0.875, 0.875, 0.875, b) is the lap-seam case;
* near-lap prefixes: a prefix of k/10 steps summing to a lap (1 or 2),
  its last step nudged an ulp either way, the rest filling the unit
  to r.

Two defects once failed it, with the gate silent on both: a lap
boundary landing within ``EPSILON`` above 1.0 started the next range an
ulp above 0.0 (hash 0 held r − 1 times), and a whole lap (d = 1) moved
the cursor by ``(c + 1) - 1``, which can miss ``c`` by an ulp.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from repro.core.manifest import check_partition, generate_manifests
from repro.core.manifest_table import ManifestTable
from repro.core.nids_lp import NIDSAssignment
from repro.core.units import CoordinationUnit, unit_label

NODES = tuple(f"n{i}" for i in range(6))
LENGTHS = range(1, 7)
FOLDS = (1, 2, 3)


@lru_cache(maxsize=None)
def _compositions(total, parts, top):
    """Every ordered way to write *total* as *parts* integers in [1, top]."""
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (k,) + rest
        for k in range(1, min(top, total) + 1)
        for rest in _compositions(total - k, parts - 1, top)
    ]


def _grid(denominator):
    for n in LENGTHS:
        for r in FOLDS:
            if (n, r) == (6, 3):
                continue  # 67k compositions: the other families cover it
            for steps in _compositions(denominator * r, n, denominator):
                yield r, [k / denominator for k in steps]


def _repeated():
    values = [k / 64 for k in range(16, 64)]
    for n in LENGTHS:
        for r in FOLDS:
            if r > n:
                continue
            for pattern in itertools.product((0, 1), repeat=n):
                if not 0 < sum(pattern) < n:
                    continue
                for b in values:
                    raw = [b if bit else 0.875 for bit in pattern]
                    scale = r / sum(raw)
                    vector = [value * scale for value in raw]
                    if max(vector) <= 1.0:
                        yield r, vector


def _near_lap():
    for n in LENGTHS:
        for r in FOLDS:
            for lap in range(1, r + 1):
                for cut in range(1, n):
                    for prefix in _compositions(10 * lap, cut, 10):
                        rest = n - cut
                        remainder = r - lap
                        if not rest <= 10 * remainder or remainder > rest:
                            continue
                        for toward in (-np.inf, np.inf):
                            head = [k / 10 for k in prefix]
                            head[-1] = float(np.nextafter(head[-1], toward))
                            if head[-1] > 1.0:
                                continue
                            tail = [remainder / rest] * rest
                            if max(tail, default=0.0) <= 1.0:
                                yield r, head + tail


FAMILIES = {
    "eighths": lambda: _grid(8),
    "tenths": lambda: _grid(10),
    "repeated": _repeated,
    "near-lap": _near_lap,
}


def _layout(vectors):
    units, triples, coverage = [], [], {}
    for i, (r, vector) in enumerate(vectors):
        path = NODES[: len(vector)]
        unit = CoordinationUnit("c", (str(i),), path, 1.0, 1.0, 1.0, 1.0)
        units.append(unit)
        coverage[unit.ident] = float(r)
        triples.extend(("c", unit.key, node, d) for node, d in zip(path, vector))
    assignment = NIDSAssignment.from_triples(triples, coverage)
    return units, generate_manifests(units, assignment, NODES)


def _miscounted(units, manifests, folds):
    """Indices of the units with a probe held by other than r nodes."""
    idents = [unit.ident for unit in units]
    whole = ManifestTable.from_manifests(manifests)
    offsets, lo, hi = whole.columns[:3]
    unit_of_group = np.empty(len(offsets) - 1, dtype=np.intp)
    unit_of_group[whole.unit_ids(idents)] = np.arange(len(units))
    owner = np.repeat(unit_of_group, np.diff(offsets))
    # Every distinct boundary of a unit's pieces, and the floats either
    # side of it.
    at = np.concatenate((lo, hi))
    who = np.concatenate((owner, owner))
    order = np.lexsort((at, who))
    at, who = at[order], who[order]
    fresh = np.ones(len(at), dtype=bool)
    fresh[1:] = (at[1:] != at[:-1]) | (who[1:] != who[:-1])
    at, who = at[fresh], who[fresh]
    at = np.concatenate((at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)))
    who = np.tile(who, 3)
    keep = (0.0 <= at) & (at <= 1.0)
    at, who = at[keep], who[keep]
    held = np.zeros(len(at), dtype=np.intp)
    for node in NODES:
        table = ManifestTable.from_manifests({node: manifests[node]})
        held += table.contains_batch(table.unit_ids(idents)[who], at)
    return sorted(set(who[held != folds[who]].tolist()))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_boundary_is_held_exactly_r_times(family):
    vectors = list(FAMILIES[family]())
    assert vectors
    units, manifests = _layout(vectors)
    folds = np.array([r for r, _vector in vectors])
    miscounted = _miscounted(units, manifests, folds)
    examples = [vectors[u] for u in miscounted[:3]]
    flagged = {
        finding.subject
        for finding in check_partition(units, manifests)
    }
    assert [unit_label(units[u].ident) for u in miscounted] == sorted(
        flagged, key=lambda label: int(label.split("/")[1])
    ), examples
    assert miscounted == [], (len(miscounted), examples)
