"""repro.obs — lightweight, dependency-free telemetry.

The runtime metrics and tracing layer for the network-wide deployment:
counters, gauges, and fixed-bucket histograms in a
:class:`MetricsRegistry`, ``span()``/``timer()`` phase timing, and
JSON / CSV / Prometheus-text exporters.  Everything a hot path touches
defaults to :data:`NULL_REGISTRY`, whose recordings are free no-ops,
so instrumentation costs nothing until a caller opts in.

Two ways to wire a registry in:

* **explicitly** — ``run_emulation(..., registry=reg)``,
  ``run_scenario(config, registry=reg)``, ``Controller(...,
  registry=reg)``: the component records into the registry you hand
  it;
* **ambiently** — ``with use_registry(reg): ...``: deep call sites
  that no parameter reaches (the LP solver backend, manifest
  generation) record into the ambient registry, which defaults to the
  null registry.

Quickstart::

    from repro.obs import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        usage = run_emulation(Traffic.materialized(generator, sessions),
                              deployment, registry=registry)
    print(json.dumps(registry.snapshot(), indent=2))

See ``docs/observability.md`` for the metric catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .export import (
    CSV_HEADER,
    csv_rows,
    parse_prometheus,
    snapshot,
    to_prometheus,
    write_csv,
    write_json,
    write_prometheus,
)
from .metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    Span,
)

#: The ambient registry used by call sites too deep to parameterize
#: (LP solver backend, manifest generation).  Null by default.
_ambient: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The current ambient registry (the null registry by default)."""
    # Per-process ambient default; each spawned worker installs its own
    # registry (run_scenario(registry=...)), nothing is shared or merged
    # across the process boundary.
    return _ambient


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install *registry* as ambient; returns the previous one.

    ``None`` restores the null registry.
    """
    global _ambient
    previous = _ambient
    _ambient = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Scoped ambient registry: installed on entry, restored on exit."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)


__all__ = [
    "COUNT_BUCKETS",
    "CSV_HEADER",
    "Counter",
    "csv_rows",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "get_registry",
    "parse_prometheus",
    "set_registry",
    "snapshot",
    "to_prometheus",
    "use_registry",
    "write_csv",
    "write_json",
    "write_prometheus",
]
