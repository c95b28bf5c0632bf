"""Sharded sweep execution over a process pool, with artifact cache.

:func:`run_sweep` drives the grid three ways, all producing the same
results in the same (spec) order:

* ``jobs > 1`` — a ``concurrent.futures.ProcessPoolExecutor`` with the
  **spawn** start method (safe on every platform, no forked locks or
  inherited RNG state), one shared-nothing worker process per cell;
* ``jobs == 1`` — a plain in-process loop, the sequential fallback;
  its consolidated report is bit-identical to the parallel one
  (test-verified) because cells share nothing and results are folded
  in spec order regardless of completion order;
* any cell already present in the artifact cache is served from disk
  and never re-executed, so a grown grid only runs its new cells.

The parent registry receives ``sweep_*`` runner telemetry plus the
fold of every cell's own metric snapshot (via
:meth:`~repro.obs.MetricsRegistry.merge_from`, in spec order).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import MetricsRegistry, NULL_REGISTRY
from .cache import ArtifactCache
from .spec import SweepCell, SweepSpec
from .worker import CellResult, run_cell_payload

#: Default artifact-cache directory (relative to the working dir).
DEFAULT_CACHE_DIR = ".sweep-cache"


@dataclass
class SweepRun:
    """Outcome of one :func:`run_sweep` invocation."""

    spec: SweepSpec
    #: Cell results in spec (odometer) order, cached and executed alike.
    results: List[CellResult]
    #: ``cell_id`` of every cell actually executed this invocation.
    executed: Tuple[str, ...]
    #: ``cell_id`` of every cell served from the artifact cache.
    cached: Tuple[str, ...]
    jobs: int
    duration_seconds: float = 0.0
    #: Violations across all cells, in spec order.
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell passed its acceptance/invariant checks."""
        return not self.violations


def _execute(
    cells: List[SweepCell], jobs: int, mp_context: Optional[str]
) -> Dict[str, dict]:
    """Run *cells*, returning result dicts keyed by ``cell_id``.

    ``executor.map`` yields in submission order, but results are keyed
    (not positional) so the caller's fold order never depends on the
    pool's scheduling.
    """
    if not cells:
        return {}
    payloads = [cell.to_dict() for cell in cells]
    if jobs <= 1 or len(cells) == 1:
        produced = [run_cell_payload(payload) for payload in payloads]
    else:
        context = multiprocessing.get_context(mp_context or "spawn")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)), mp_context=context
        ) as pool:
            produced = list(pool.map(run_cell_payload, payloads, chunksize=1))
    return {
        cell.cell_id: result for cell, result in zip(cells, produced)
    }


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    registry: Optional[MetricsRegistry] = None,
    force: bool = False,
    mp_context: Optional[str] = None,
) -> SweepRun:
    """Execute the grid named by *spec* and return its results.

    ``cache_dir=None`` disables the artifact cache entirely;
    ``force=True`` keeps the cache but re-executes (and re-stores)
    every cell.  ``registry`` receives runner telemetry and the merged
    per-cell snapshots.
    """
    registry = registry if registry is not None else NULL_REGISTRY
    started = time.perf_counter()
    cells = spec.cells()
    cache = ArtifactCache(cache_dir) if cache_dir else None
    if cache is not None and not force:
        hits, missing = cache.partition(cells)
    else:
        hits, missing = {}, list(cells)
    registry.counter(
        "sweep_cache_hits_total",
        "sweep cells served from the artifact cache",
    ).inc(len(hits))
    registry.counter(
        "sweep_cache_misses_total",
        "sweep cells not found in the artifact cache",
    ).inc(len(missing))

    executed = _execute(missing, jobs, mp_context)
    if cache is not None:
        for cell in missing:
            cache.put(cell, executed[cell.cell_id])

    cells_counter = registry.counter(
        "sweep_cells_total",
        "sweep cells graded, by result source",
        labels=("source",),
    )
    cells_counter.inc(len(hits), source="cached")
    cells_counter.inc(len(missing), source="executed")

    results: List[CellResult] = []
    violations: List[Tuple[str, str]] = []
    for cell in cells:
        if cell.cell_id in hits:
            payload = hits[cell.cell_id]
        else:
            payload = executed[cell.cell_id]
        result = CellResult.from_dict(payload)
        results.append(result)
        registry.merge_from(result.metrics)
        for violation in result.violations:
            violations.append((cell.cell_id, violation))

    registry.gauge(
        "sweep_workers", "worker processes used by the last sweep"
    ).set(jobs)
    return SweepRun(
        spec=spec,
        results=results,
        executed=tuple(cell.cell_id for cell in missing),
        cached=tuple(sorted(hits)),
        jobs=jobs,
        duration_seconds=time.perf_counter() - started,
        violations=violations,
    )
