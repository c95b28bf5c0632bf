"""Smoke test of the benchmark itself: ``pytest bench -q`` (< 30 s).

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs every
workload once at the ``--smoke`` sizes, untraced and traced, and checks
the shape of what comes out — names, units, spans — not the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from bench import metrics
from bench.compare import compare, verdict
from bench.trace import check_spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # ``bench.workloads`` imports the program
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Parent span -> the layer spans that should account for its time.
FAMILIES = {
    "plan": ("units.build", "nids_lp.solve", "manifest.generate", "manifest.verify"),
    "emulation.run": (
        "traffic.generate", "traffic.split", "traffic.batch", "engine.process",
        "engine.merge", "engine.finalize",
    ),
    "nips": ("nips_milp.problem", "nips_milp.relax", "rounding.round"),
    "control.epoch": (
        "agent.ingest", "controller.step", "agent.apply", "controller.finish",
    ),
}


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    files = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        done = _bench("run", "--smoke", "--trace", str(trace), "--out", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path) as handle:
            files[trace] = (path, json.load(handle), done.stdout)
    return files


def test_benchmark_json_matches_the_catalogue():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.ALL)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.NATIVE + metrics.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    from bench.workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }


def test_envelope(results):
    for _path, data, _stdout in results.values():
        env = data["envelope"]
        for key in (
            "git_rev", "git_dirty", "python", "numpy", "scipy", "nproc", "cpu_model",
            "loadavg_start", "loadavg_end", "seed", "wall_s",
        ):
            assert key in env, key
        assert all(run["sizes"] for run in data["workloads"].values())


@pytest.mark.parametrize("workload", metrics.ALL)
def test_untraced_metrics(results, workload):
    _path, data, stdout = results[0]
    run = data["workloads"][workload]
    assert run["correct"] and run["failed"] == 0, run["failures"]
    assert run["metrics"]["failed_frac"]["value"] == 0
    expected = [m for m in metrics.END_TO_END] + [
        m for m in metrics.NATIVE if workload in m.workloads
    ]
    assert list(run["metrics"]) == [m.name for m in expected]
    for metric in expected:
        entry = run["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["better"] == metric.better
        assert entry["bound"] == metric.bound
        if metric in metrics.END_TO_END:
            assert entry["value"] > 0, metric.name
        assert re.search(rf"^{re.escape(metric.name)} ", stdout, re.M), metric.name


@pytest.mark.parametrize("workload", metrics.ALL)
def test_traced_metrics_and_spans(results, workload):
    _path, data, _stdout = results[1]
    run = data["workloads"][workload]
    assert run["correct"], run["failures"]
    wanted = [m.name for m in metrics.END_TO_END + metrics.NATIVE + metrics.PER_LAYER]
    assert list(run["metrics"]) == wanted
    for metric in metrics.NATIVE + metrics.PER_LAYER:
        value = run["metrics"][metric.name]["value"]
        if workload not in metric.workloads:
            assert value == 0, metric.name
    for name in ("units.build_s", "lp.solve_s", "lp.solves", "manifest.entries"):
        assert run["metrics"][name]["value"] > 0, name
    assert run["registry"], "no registry families were read"

    spans = run["spans"]
    assert spans and check_spans(spans) == []
    assert {s["workload"] for s in spans} == {workload}
    by_id = {s["id"]: s for s in spans}
    parent_total = defaultdict(float)
    child_total = defaultdict(float)
    for span in spans:
        if span["name"] in FAMILIES:
            parent_total[span["name"]] += span["end"] - span["start"]
        parent = by_id.get(span["parent"])
        if parent and span["name"] in FAMILIES.get(parent["name"], ()):
            child_total[parent["name"]] += span["end"] - span["start"]
    assert parent_total, "no layer family was traced"
    for name, total in parent_total.items():
        assert child_total[name] == pytest.approx(total, rel=0.15), name


def test_driver_line_and_bare_directory(tmp_path):
    done = _bench(
        "run", "--workload", "control-pop100", "--smoke", "--seed", "7",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == list(metrics.end_to_end_names())
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())

    # A directory with only BENCHMARK.json and bench/: no program, no result.
    bare = tmp_path / "bare"
    (bare / "bench" / "workloads").mkdir(parents=True)
    for source in (ROOT / "bench").rglob("*.py"):
        target = bare / source.relative_to(ROOT)
        target.write_bytes(source.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    gone = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "plan-as1239",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert gone.returncode != 0 and gone.stdout.strip() == ""


def test_compare(results, tmp_path):
    path, data, _stdout = results[0]
    lines, bad = compare(str(path), str(path))
    assert not bad and not any("regressed" in line for line in lines)

    slower = json.loads(json.dumps(data))
    entry = slower["workloads"]["control-pop100"]["metrics"]["run_s"]
    for key in ("value", "q1", "q3"):
        entry[key] *= 2
    entry["samples"] = [2 * s for s in entry["samples"]]
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    lines, bad = compare(str(path), str(worse))
    assert bad and any("run_s" in l and "regressed" in l for l in lines)

    base = {"value": 1.0, "q1": 0.5, "q3": 1.5, "n": 4, "samples": [0.5, 0.9, 1.1, 1.5],
            "better": "lower", "bound": 0.1}
    assert verdict(base, dict(base))[0] == "unresolved"
