"""Command line: ``python3 -m bench run ...`` and ``... compare A B``."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from . import harness
from .compare import compare
from .metrics import ALL

def _write(path: str, envelope: dict, results: dict) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as handle:
        json.dump({"schema": 1, "envelope": envelope, "workloads": results}, handle, indent=1)
        handle.write("\n")


def _run_one(args: argparse.Namespace, env: dict) -> int:
    """One workload in this process; the last stdout line is the driver's."""
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    env = harness.close_envelope(env)
    print(harness.format_table(result))
    if args.out:
        _write(args.out, env, {args.workload: result})
    if not result["correct"]:
        print(f"bench: {result['failed']} checks failed on {args.workload}", file=sys.stderr)
        return 1
    print(json.dumps(harness.driver_line(result, bool(args.trace))))
    return 0


def _run_all(args: argparse.Namespace, env: dict) -> int:
    """Every workload in a child process of its own, so that
    ``peak_rss_mb`` belongs to one workload."""
    results = {}
    status = 0
    scratch = Path(args.out).parent if args.out else harness.ROOT
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix=".bench-") as tmp:
        for name in ALL:
            part = str(Path(tmp) / f"{name}.json")
            command = [
                sys.executable, "-m", "bench", "run", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", part,
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=harness.ROOT, check=False)
            status = status or done.returncode
            if Path(part).is_file():
                with open(part) as handle:
                    results.update(json.load(handle)["workloads"])
    env = harness.close_envelope(env)
    if args.out:
        _write(args.out, env, results)
        print(f"bench: wrote {args.out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or all of them")
    run.add_argument("--workload", choices=ALL, help="default: every workload")
    run.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=harness.DEFAULT_SECONDS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", dest="trace", action="store_const", const=1,
                     help="same as --trace 1")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, two rounds, nothing measured")
    run.add_argument("--out", help="write the full result (envelope, reps, spans) here")
    cmp_ = commands.add_parser("compare", help="judge B.json against A.json")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        lines, bad = compare(args.a, args.b)
        print("\n".join(lines))
        return 1 if bad else 0
    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    env = harness.envelope(args.seed, args.seconds, bool(args.trace), args.smoke)
    return _run_one(args, env) if args.workload else _run_all(args, env)


if __name__ == "__main__":
    sys.exit(main())
