"""A fixed piece of work that tells how fast the machine is right now.

On a shared two-vCPU host the same commit and seed ran 10-25 % faster
or slower from one minute to the next: the whole machine changes speed
in regimes that last tens of seconds to minutes, and every operation
slows with it (the ratio of two operations timed a second apart held to
3-4 % while each alone moved 14 %).  The harness therefore runs this
kernel at every round boundary and reports each end-to-end timing
relative to the kernels around it, scaled by ``REFERENCE_SECONDS`` so
that the number still reads as seconds — seconds on a machine on which
the kernel takes exactly that long.  Wall-clock medians are reported
next to them (``plan_wall_s``, ``run_wall_s``) with the measured speed
(``harness.speed``).

The kernel mixes what the program mixes: attribute-heavy Python objects
in lists and dicts, a keyed sort, ``fromiter`` column builds, and NumPy
sort / searchsorted / masked reductions.  It belongs to the benchmark,
so a change that claims a gain cannot touch it.
"""

from __future__ import annotations

import numpy as np

#: What one kernel run takes on the machine this benchmark was written
#: on, in its fast state.  Only a unit: every normalised timing is
#: (wall ÷ kernel wall) × this.
REFERENCE_SECONDS = 0.30

_UNIFORM = np.random.default_rng(2010).random(600_000)


class _Record:
    __slots__ = ("ident", "key", "group")

    def __init__(self, ident: int, key: int, group: int):
        self.ident = ident
        self.key = key
        self.group = group


def reference_kernel() -> float:
    """Run the fixed work once; the return value only keeps it alive."""
    records = [_Record(i, (i * 2654435761) % 1000003, i % 97) for i in range(200_000)]
    totals: dict = {}
    for record in records:
        slot = (record.group, record.key % 13)
        held = totals.get(slot)
        if held is None:
            totals[slot] = [record.ident, 1]
        else:
            held[0] += record.ident
            held[1] += 1
    records.sort(key=lambda record: record.key)
    keys = np.fromiter((record.key for record in records), dtype=np.int64, count=len(records))
    ordered = np.sort(_UNIFORM)
    ranks = np.searchsorted(ordered, _UNIFORM[:300_000])
    odd = (ranks & 1).astype(bool)
    return (
        float((_UNIFORM[:300_000][odd] * 2.0).sum())
        + float(np.unique(keys % 5003).sum())
        + len(totals)
    )
