"""The measuring loop shared by every workload.

One workload runs in one process, closed loop, one thread:

1. *set-up* — import the program (``repro`` purged and re-imported, so
   module-level work shows), then build the workload's inputs from the
   seed; both are repeated and ``setup_s`` is the sum of their medians;
2. *rounds* — the workload's operations interleaved round-robin, each
   preceded by ``gc.collect()`` with the collector left on, until the
   time budget is spent and ``MIN_ROUNDS`` are in (a machine slow
   enough to overrun the budget by a quarter stops at ``HARD_FLOOR``);
   every operation's outcome is checked outside its timed region, and
   the reference kernel runs at every round boundary (``reference``);
3. *traced reps* (``--trace 1`` only) — each operation once bare and
   once under a root span with a live ``MetricsRegistry``, back to
   back, then once more layer by layer with the benchmark's own spans.

End-to-end numbers come from (2) alone; with tracing on, (2) gets half
the budget and (3) the rest.  End-to-end timings are normalised to the
machine's speed in their own round; ``*_wall_s`` are the raw medians.
"""

from __future__ import annotations

import gc
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from . import metrics as catalogue
from .reference import REFERENCE_SECONDS, reference_kernel
from .trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Rounds wanted even when the budget is already spent ...
MIN_ROUNDS = 5
MIN_ROUNDS_TRACED = 3
#: ... unless the rounds so far overran it by half: the driver caps the
#: total time of all its runs, and a median needs three samples.
HARD_FLOOR = 3
OVERRUN = 1.25
#: Repetitions of each half of the set-up.
SETUP_REPS = 3
DEFAULT_SEED = 51
#: BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 20


def timed(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Run ``fn`` once after a full collection; (seconds, result)."""
    gc.collect()
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles and count of *samples* (kept for ``compare``)."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def constant(value: float) -> dict:
    """A metric that is one reading, not a sample (counts, ratios)."""
    return summarize([value])


def import_program() -> List[float]:
    """Import ``repro`` from this checkout ``SETUP_REPS`` times.

    The first import also loads NumPy/SciPy and may byte-compile; the
    later ones re-execute only ``repro``'s own modules, which is the
    part a change to this repository can move, and dominate the median.
    """
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    seconds = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        sys.modules.pop("bench.workloads", None)
        for name in [m for m in sys.modules if m.startswith("bench.workloads.")]:
            del sys.modules[name]
        started = time.perf_counter()
        importlib.import_module("bench.workloads")
        seconds.append(time.perf_counter() - started)
    return seconds


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor()}


def _git() -> dict:
    def run(*args: str) -> str:
        try:
            done = subprocess.run(
                ("git", "-C", str(ROOT)) + args,
                capture_output=True, text=True, timeout=10, check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    rev = run("rev-parse", "HEAD")
    return {"git_rev": rev or None, "git_dirty": bool(run("status", "--porcelain")) if rev else None}


def envelope(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Where and how the numbers were taken (closed by ``close_envelope``)."""
    import numpy
    import scipy

    return {
        **_git(),
        **_machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "started_unix": time.time(),
    }


def close_envelope(env: dict) -> dict:
    env["loadavg_end"] = list(os.getloadavg())
    env["wall_s"] = time.time() - env.pop("started_unix")
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload in this process and return its result record."""
    reference_kernel()  # the first run in a process also grows the heap
    before_setup = timed(reference_kernel)[0]
    import_seconds = import_program()
    from .workloads import WORKLOADS

    workload = WORKLOADS[name](smoke=smoke)
    tracer = Tracer(name, enabled=trace)

    # -- set-up ------------------------------------------------------------
    input_seconds = []
    for attempt in range(SETUP_REPS):
        tracer.rep = -1 - attempt  # set-up spans never mix with traced reps
        with tracer.span("setup"):
            elapsed, _ = timed(workload.setup, seed, tracer)
        input_seconds.append(elapsed)
    setup_wall = statistics.median(import_seconds) + statistics.median(input_seconds)
    # The static inputs leave the collector's working set: without this,
    # full collections over 100k+ long-lived sessions land inside timed
    # operations at allocation-dependent moments.
    gc.collect()
    gc.freeze()

    # -- untraced rounds ---------------------------------------------------
    samples: Dict[str, List[float]] = {op: [] for op in workload.ops}
    attempted = failed = 0
    failures: List[str] = []

    def judge(label: str, problems: List[str]) -> None:
        """One attempted operation; it failed if any check on it did."""
        nonlocal attempted, failed
        attempted += 1
        failed += bool(problems)
        failures.extend(f"{label}: {problem}" for problem in problems)

    # Smoke runs measure nothing: two rounds, so that the rep-to-rep
    # digest checks still compare something, and one traced rep.
    budget = 0.0 if smoke else seconds * (0.5 if trace else 1.0)
    floor = 2 if smoke else (MIN_ROUNDS_TRACED if trace else MIN_ROUNDS)
    started = time.perf_counter()
    rounds = 0
    # One kernel run per round boundary; the first also closes the
    # bracket around the set-up.
    reference = [timed(reference_kernel)[0]]
    setup_speed = REFERENCE_SECONDS / ((before_setup + reference[0]) / 2.0)
    while True:
        spent = time.perf_counter() - started
        if spent >= budget and (
            rounds >= floor or (rounds >= HARD_FLOOR and spent >= OVERRUN * budget)
        ):
            break
        for op in workload.ops:
            elapsed, problems = workload.run(op, rounds)
            samples[op].append(elapsed)
            judge(f"{op}[{rounds}]", problems)
        reference.append(timed(reference_kernel)[0])
        rounds += 1
    for label, problems in workload.cross_checks():
        judge(label, problems)

    # -- traced reps -------------------------------------------------------
    layer: Dict[str, dict] = {}
    registry_families: Dict[str, float] = {}
    traced_reps = 0
    if trace:
        deadline = started + seconds
        while traced_reps < 1 or (not smoke and time.perf_counter() < deadline):
            tracer.rep = traced_reps
            judge(f"traced[{traced_reps}]", workload.traced_rep(tracer))
            traced_reps += 1
        layer, registry_families = workload.layer_metrics(tracer)

    # -- assemble ----------------------------------------------------------
    values: Dict[str, dict] = {
        "setup_s": constant(setup_wall * setup_speed),
        "setup_wall_s": constant(setup_wall),
        "peak_rss_mb": constant(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }
    # Each round's timings, as if the reference kernel on either side of
    # it had taken exactly REFERENCE_SECONDS.
    speed = [
        REFERENCE_SECONDS / ((before + after) / 2.0)
        for before, after in zip(reference, reference[1:])
    ]
    wall = workload.end_to_end(samples)
    values.update(
        workload.end_to_end(
            {op: [t * k for t, k in zip(times, speed)] for op, times in samples.items()}
        )
    )
    values.update(
        {
            "plan_wall_s": wall["plan_s"],
            "run_wall_s": wall["run_s"],
            "harness.speed": summarize(speed),
        }
    )
    values.update(layer)
    wanted = list(catalogue.end_to_end_names())
    if trace:
        wanted += list(catalogue.per_layer_names())
    else:
        wanted += [m.name for m in catalogue.NATIVE if name in m.workloads]
    judge(
        "metrics",
        [
            f"{m} was not measured" for m in wanted
            if m not in values and m != "failed_frac"
            and name in catalogue.BY_NAME[m].workloads
        ],
    )
    values["failed_frac"] = constant(failed / attempted)
    report = {}
    for metric_name in wanted:
        metric = catalogue.BY_NAME[metric_name]
        entry = dict(values.get(metric_name) or constant(0.0))
        entry.update(unit=metric.unit, better=metric.better, bound=metric.bound)
        if metric.absolute:
            entry["absolute"] = True
        report[metric_name] = entry
    return {
        "workload": name,
        "why": workload.why,
        "sizes": workload.sizes,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": rounds,
        "traced_reps": traced_reps,
        "setup": {"import_s": import_seconds, "inputs_s": input_seconds},
        "reference_s": reference,
        "metrics": report,
        "registry": registry_families,
        "spans": tracer.spans,
    }


def driver_line(result: dict, trace: bool) -> dict:
    """The one-line JSON object the driver reads from standard output."""
    names = catalogue.per_layer_names() if trace else catalogue.end_to_end_names()
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": result["metrics"][name]["value"],
                "unit": result["metrics"][name]["unit"],
            }
            for name in names
        },
    }


def format_table(result: dict) -> str:
    """Every metric by name with unit, direction and bound."""
    lines = [
        f"== {result['workload']}: {result['rounds']} rounds,"
        f" {result['traced_reps']} traced reps,"
        f" {result['failed']}/{result['attempted']} checks failed"
    ]
    for name, entry in result["metrics"].items():
        bound = entry["bound"]
        if bound is None:
            gate = "-"
        elif entry.get("absolute"):
            gate = f"±{bound:g} abs"
        else:
            gate = f"{100 * bound:g}%"
        spread = ""
        if entry["n"] > 1:
            spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']}]"
        lines.append(
            f"{name:<32} {entry['value']:>14.6g} {entry['unit']:<11}"
            f" {entry['better']:<6} {gate:>9}{spread}"
        )
    for failure in result["failures"]:
        lines.append(f"FAILED {failure}")
    return "\n".join(lines)
