"""``python -m bench compare A.json B.json``: did B regress against A?

One row per (metric, workload) that carries a bound: both medians with
their quartiles, the ratio B/A, and a verdict —

* ``ok``: B is no worse than A by more than the bound, or every rep of
  B reads better than every rep of A;
* ``regressed``: B is worse by more than the bound and by more than
  the spread;
* ``unresolved``: the spread is wider than the bound, so the rows
  cannot tell.

A result file holds one run, so the run-to-run spread of a median is
estimated from that run's own reps: the distance between their
quartiles over the square root of their number.
"""

from __future__ import annotations

import json
import math
from typing import List, Tuple


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / math.sqrt(entry["n"])


def _cell(entry: dict) -> str:
    return f"{entry['value']:.6g} [{entry['q1']:.6g},{entry['q3']:.6g}]"


def verdict(base: dict, new: dict) -> Tuple[str, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, amount by which B is worse)."""
    lower = base["better"] == "lower"
    worse = (new["value"] - base["value"]) * (1.0 if lower else -1.0)
    bound = base["bound"]
    limit = bound if base.get("absolute") else bound * abs(base["value"])
    limit += 1e-12 * max(1.0, abs(base["value"]))
    if lower:
        separated = max(new["samples"]) < min(base["samples"])
    else:
        separated = min(new["samples"]) > max(base["samples"])
    if separated:
        return "ok", worse
    spread = max(_spread(base), _spread(new))
    if worse > limit:
        return ("regressed" if worse > spread else "unresolved"), worse
    if spread > limit:
        return "unresolved", worse
    return "ok", worse


def compare(path_a: str, path_b: str) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    lines = [
        f"A = {path_a} ({a['envelope'].get('git_rev')}, seed {a['envelope']['seed']})",
        f"B = {path_b} ({b['envelope'].get('git_rev')}, seed {b['envelope']['seed']})",
        f"{'workload':<26} {'metric':<24} {'A median [q1,q3]':>34}"
        f" {'B median [q1,q3]':>34} {'B/A':>8} {'bound':>8}  verdict",
    ]
    bad = False
    for name, base_run in a["workloads"].items():
        new_run = b["workloads"].get(name)
        if new_run is None:
            lines.append(f"{name:<26} missing from B")
            bad = True
            continue
        for metric, base in base_run["metrics"].items():
            new = new_run["metrics"].get(metric)
            if base["bound"] is None or new is None:
                continue
            status, _worse = verdict(base, new)
            if metric == "failed_frac" and new["value"] > base["value"]:
                status = "regressed"
            bad = bad or status == "regressed"
            ratio = new["value"] / base["value"] if base["value"] else float("nan")
            gate = (
                f"±{base['bound']:g}" if base.get("absolute") else f"{100 * base['bound']:g}%"
            )
            lines.append(
                f"{name:<26} {metric:<24} {_cell(base):>34} {_cell(new):>34}"
                f" {ratio:>8.4f} {gate:>8}  {status}"
            )
    return lines, bad
