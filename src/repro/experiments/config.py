"""Experiment scaling configuration.

The paper's evaluation volumes (100,000-session traces, 30 match-rate
scenarios × 10 rounding iterations, 1000-epoch online runs) are
tractable but slow on a laptop.  ``REPRO_SCALE`` (a float, default
``0.1``) scales the *sizes* of the experiments — session counts,
scenario counts, epochs — without changing their structure, so every
figure keeps its shape at any scale.  Set ``REPRO_SCALE=1`` to run the
paper's full volumes.
"""

from __future__ import annotations

import math
import os


def repro_scale() -> float:
    """The global experiment scale factor from ``REPRO_SCALE``."""
    raw = os.environ.get("REPRO_SCALE", "0.1")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"REPRO_SCALE must be finite, got {raw!r}")
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


def scaled(value: int, minimum: int = 1, scale: float = None) -> int:
    """Scale an experiment size, keeping at least *minimum*."""
    factor = repro_scale() if scale is None else scale
    return max(minimum, int(round(value * factor)))
