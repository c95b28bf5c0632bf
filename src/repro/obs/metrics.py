"""Dependency-free runtime metrics primitives.

The paper's evaluation (Figs. 5-8) is fundamentally about *measuring*
a sensor fleet — per-node CPU/memory load, per-module overheads, and
coordination cost — yet a deployed system needs those quantities at
runtime, not from post-hoc CSV dumps.  This module provides the
minimal metric vocabulary a network-wide NIDS deployment needs:

* :class:`Counter` — monotonically increasing totals (sessions
  dispatched, bytes pushed, bus drops);
* :class:`Gauge` — point-in-time values (config version, convergence);
* :class:`Histogram` — fixed-bucket distributions (LP solve seconds,
  epoch convergence latency) with exact ``sum``/``count`` so means are
  recoverable;
* :class:`MetricsRegistry` — the namespace that owns them, plus
  :meth:`~MetricsRegistry.timer`/:meth:`~MetricsRegistry.span` context
  managers for phase timing.

All metrics support a fixed set of label names declared at creation
(e.g. ``labels=("node",)``), mirroring the Prometheus data model so
the text exposition in :mod:`repro.obs.export` is lossless.

:class:`NullRegistry` is the no-op twin used as the default everywhere
a registry can be passed: hot paths call it unconditionally and the
cost is one no-op method call per *batch* (never per session), keeping
instrumented-but-disabled throughput within noise of uninstrumented.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[str, ...]

#: Default histogram buckets (seconds): spans sub-millisecond hash
#: batches through multi-second paper-scale LP solves.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Buckets for discrete size/iteration distributions.
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000,
)


class Metric:
    """Base class: a named family of labelled time series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        _validate_name(name)
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        if len(labels) != len(self.label_names) or any(
            name not in labels for name in self.label_names
        ):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names},"
                f" got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def label_dict(self, key: LabelKey) -> Dict[str, str]:
        """Reattach label names to a stored label-value key."""
        return dict(zip(self.label_names, key))


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")


class Counter(Metric):
    """A monotonically increasing total per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (>= 0) to the series selected by *labels*."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current total for the series (0.0 if never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label combinations."""
        return sum(self._values.values())

    def series(self) -> Iterator[Tuple[Dict[str, str], float]]:
        """All (labels, value) pairs, in insertion order."""
        for key, value in self._values.items():
            yield self.label_dict(key), value


class Gauge(Metric):
    """A point-in-time value per label combination."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the series to *value*."""
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the series by *amount* (may be negative)."""
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the series by ``-amount``."""
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        """Current value for the series (0.0 if never set)."""
        return self._values.get(self._key(labels), 0.0)

    def series(self) -> Iterator[Tuple[Dict[str, str], float]]:
        """All (labels, value) pairs, in insertion order."""
        for key, value in self._values.items():
            yield self.label_dict(key), value


class _HistogramSeries:
    """Per-label-combination histogram state."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int):
        #: Per-bucket (non-cumulative) counts; the last slot is +Inf.
        self.bucket_counts: List[int] = [0] * (num_buckets + 1)
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket distribution with exact sum and count.

    *buckets* are finite, strictly increasing upper bounds; an implicit
    ``+Inf`` bucket catches the tail.  Counts are stored per bucket
    (not cumulative); the Prometheus exporter accumulates on the way
    out.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b >= c for b, c in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} buckets must be finite and strictly"
                f" increasing, got {bounds}"
            )
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _get(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return series

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        series = self._get(self._key(labels))
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        series.bucket_counts[index] += 1
        series.sum += value
        series.count += 1

    def count(self, **labels: object) -> int:
        """Number of observations for the series."""
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations for the series."""
        series = self._series.get(self._key(labels))
        return series.sum if series is not None else 0.0

    def mean(self, **labels: object) -> float:
        """Mean observation (0.0 with no observations)."""
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return 0.0
        return series.sum / series.count

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket counts (last entry is the +Inf tail)."""
        series = self._series.get(self._key(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        return list(series.bucket_counts)

    def merge_series(
        self,
        labels: Mapping[str, object],
        bucket_counts: Sequence[int],
        total: float,
        count: int,
    ) -> None:
        """Fold one exported series into this histogram.

        *bucket_counts* must match this histogram's bucket layout
        (``len(buckets) + 1`` non-cumulative counts, +Inf last) — the
        caller (:meth:`MetricsRegistry.merge_from`) verifies bucket
        bounds agree before dispatching here.
        """
        if len(bucket_counts) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram {self.name!r} has {len(self.buckets) + 1}"
                f" buckets, snapshot series has {len(bucket_counts)}"
            )
        series = self._get(self._key(labels))
        for index, bucket_count in enumerate(bucket_counts):
            series.bucket_counts[index] += int(bucket_count)
        # merge_from feeds series in sorted-name order and sweep-cell
        # snapshots merge in spec order, so this float addition happens
        # in one fixed order for any worker count.
        series.sum += float(total)
        series.count += int(count)

    def cumulative_buckets(self, **labels: object) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs incl. +Inf."""
        counts = self.bucket_counts(**labels)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def series(self) -> Iterator[Tuple[Dict[str, str], _HistogramSeries]]:
        """All (labels, state) pairs, in insertion order."""
        for key, series in self._series.items():
            yield self.label_dict(key), series


class Span:
    """Handle yielded by :meth:`MetricsRegistry.span`/``timer``."""

    __slots__ = ("name", "started", "elapsed")

    def __init__(self, name: str):
        self.name = name
        self.started = time.perf_counter()
        self.elapsed: Optional[float] = None

    def stop(self) -> float:
        """Freeze and return the elapsed seconds."""
        if self.elapsed is None:
            self.elapsed = time.perf_counter() - self.started
        return self.elapsed


class MetricsRegistry:
    """Owns a namespace of metrics; the unit of snapshot/export.

    ``counter``/``gauge``/``histogram`` are create-or-get: the first
    call fixes the help text, label names, and (for histograms) the
    buckets; later calls with a conflicting declaration raise, so two
    call sites cannot silently fork one name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- declaration ------------------------------------------------------
    def _declare(self, cls, name: str, help: str, label_names, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, label_names=label_names, **kwargs)
            self._metrics[name] = metric
            return metric
        if type(metric) is not cls or metric.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already declared as {metric.kind}"
                f" with labels {metric.label_names}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        """Create-or-get the counter called *name*."""
        return self._declare(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """Create-or-get the gauge called *name*."""
        return self._declare(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Create-or-get the histogram called *name*."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help=help, label_names=labels, buckets=buckets)
            self._metrics[name] = metric
        elif type(metric) is not Histogram or metric.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already declared as {metric.kind}"
                f" with labels {metric.label_names}"
            )
        return metric  # type: ignore[return-value]

    # -- phase timing -----------------------------------------------------
    @contextmanager
    def timer(self, name: str, help: str = "", **labels: object):
        """Time a block into the histogram called *name* (seconds)."""
        histogram = self.histogram(name, help=help, labels=tuple(sorted(labels)))
        span = Span(name)
        try:
            yield span
        finally:
            histogram.observe(span.stop(), **labels)

    @contextmanager
    def span(self, name: str, help: str = "", **labels: object):
        """Instrumented phase: ``<name>_seconds`` histogram plus a
        ``<name>_total`` completion counter."""
        label_names = tuple(sorted(labels))
        histogram = self.histogram(f"{name}_seconds", help=help, labels=label_names)
        counter = self.counter(f"{name}_total", help=help, labels=label_names)
        span = Span(name)
        try:
            yield span
        finally:
            histogram.observe(span.stop(), **labels)
            counter.inc(**labels)

    # -- cross-process merge ----------------------------------------------
    def merge_from(self, snapshot: Mapping) -> None:
        """Fold a registry *snapshot* (see :func:`repro.obs.snapshot`)
        into this registry, deterministically.

        The merge semantics per metric kind:

        * **counter** — snapshot totals are *added* per series (the
          natural fold for shared-nothing workers: each worker counted
          disjoint work);
        * **gauge** — the snapshot value *overwrites* the series
          (last-merge-wins; callers wanting a deterministic outcome
          merge snapshots in a fixed order, e.g. sweep-cell order);
        * **histogram** — per-bucket counts, ``sum``, and ``count`` are
          added per series; the snapshot's bucket bounds must match the
          local declaration exactly.

        Families absent locally are created from the snapshot's
        declaration (help text, label names, buckets); families already
        declared must agree on kind and label names or the merge
        raises, mirroring the create-or-get contract.
        """
        if not self.enabled:
            return
        version = snapshot.get("version")
        if version != 1:
            raise ValueError(f"unsupported snapshot version {version!r}")
        for name in sorted(snapshot["metrics"]):
            entry = snapshot["metrics"][name]
            kind = entry["type"]
            label_names = tuple(entry.get("labels", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                counter = self.counter(name, help_text, labels=label_names)
                for series in entry["series"]:
                    counter.inc(float(series["value"]), **series["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, help_text, labels=label_names)
                for series in entry["series"]:
                    gauge.set(float(series["value"]), **series["labels"])
            elif kind == "histogram":
                buckets = tuple(float(b) for b in entry["buckets"])
                histogram = self.histogram(
                    name, help_text, labels=label_names, buckets=buckets
                )
                if histogram.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} declared with buckets"
                        f" {histogram.buckets}, snapshot has {buckets}"
                    )
                for series in entry["series"]:
                    histogram.merge_series(
                        series["labels"],
                        series["bucket_counts"],
                        series["sum"],
                        series["count"],
                    )
            else:
                raise ValueError(
                    f"snapshot metric {name!r} has unknown type {kind!r}"
                )

    # -- introspection ----------------------------------------------------
    def metrics(self) -> List[Metric]:
        """All declared metrics, in declaration order."""
        return list(self._metrics.values())

    def get(self, name: str) -> Optional[Metric]:
        """The metric called *name*, or ``None``."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    @property
    def enabled(self) -> bool:
        """Whether recordings are retained (``False`` on the null twin)."""
        return True

    def snapshot(self) -> dict:
        """JSON-compatible snapshot of every metric (see repro.obs.export)."""
        from .export import snapshot

        return snapshot(self)


class _NullMetric:
    """Absorbs every mutation; answers every read with zero."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def sum(self, **labels: object) -> float:
        return 0.0

    def mean(self, **labels: object) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The do-nothing registry used as the default everywhere.

    Every declaration returns one shared absorbing metric; nothing is
    ever stored, so a hot path wired for telemetry pays only a no-op
    method call per recording site when telemetry is off.
    """

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name, help="", labels=(), buckets=DEFAULT_BUCKETS):
        return _NULL_METRIC  # type: ignore[return-value]

    @contextmanager
    def timer(self, name: str, help: str = "", **labels: object):
        span = Span(name)
        try:
            yield span
        finally:
            span.stop()

    span = timer

    def metrics(self) -> List[Metric]:
        return []

    @property
    def enabled(self) -> bool:
        return False


#: Shared no-op registry; safe as a default argument because it holds
#: no state.
NULL_REGISTRY = NullRegistry()
