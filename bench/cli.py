"""Command line of the benchmark.

Two shapes of one command:

- ``--workload NAME --trace 0|1`` is one *run*: it executes in this
  process (which is therefore the workload's own fresh interpreter)
  and ends with the one-line JSON result the driver reads.
- Anything less is a *sweep*: each named workload (default: all) gets
  an untraced and a traced run, each in a fresh child interpreter, one
  at a time; the sweep exits non-zero if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any

from bench import ROOT, runner, spec


def main(argv: "list[str] | None" = None, import_s: float = 0.0) -> int:
    """Entry point; ``import_s`` is the CPU time it took to get here
    (interpreter start and imports), for ``setup_s``."""
    manifest = spec.manifest()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=float(manifest["run_seconds"]),
        help="how long a run measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="1: one traced pass and the per-layer rows; 0: end-to-end only",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny inputs: a smoke test whose numbers compare with nothing",
    )
    args = parser.parse_args(argv)
    if args.workload is None or args.trace is None:
        return sweep(args)
    outcome = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.quick, import_s,
    )
    report(outcome, args)
    return 0 if outcome.correct else 1


# -- one run ----------------------------------------------------------------------


def environment(args: argparse.Namespace) -> dict[str, Any]:
    """Where and how this run was taken."""
    from repro.streams import typedcols

    numpy = "absent"
    if typedcols.numpy_available():
        import numpy as np

        numpy = np.__version__
    elif os.environ.get("REPRO_NO_NUMPY"):
        numpy = "disabled (REPRO_NO_NUMPY)"
    git = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
        capture_output=True, text=True,
    ) if (ROOT / ".git").exists() else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": git.stdout.strip() if git and git.returncode == 0 else "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "comparable": not args.quick,
    }


def report(outcome: runner.Outcome, args: argparse.Namespace) -> None:
    """Print the run for people, then the result line for the driver."""
    section = "per_layer" if outcome.traced else "end_to_end"
    units = spec.units(section)
    print("environment: " + json.dumps(environment(args)))
    if args.quick:
        print("QUICK: tiny inputs; these numbers are not comparable with any other run")
    print(
        f"{outcome.workload}: {outcome.n_in} tuples in, {outcome.n_out} out, "
        f"{outcome.passes} passes, {'traced' if outcome.traced else 'untraced'}"
    )
    for name, value in outcome.metrics.items():
        print(f"  {name:<32}{value:>16.6g} {units[name]}")
    for note in outcome.notes:
        print("  " + note)
    print(f"  fail_share {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} tuples)")
    for problem in outcome.problems:
        print("  FAIL " + problem)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))


# -- a sweep of runs, each in its own interpreter -----------------------------------


def spawn_run(
    workload: str, seed: int, seconds: float, trace: int, quick: bool = False
) -> "dict[str, Any] | None":
    """One run in a fresh interpreter; echoes its report and returns the
    parsed result line (``None`` when the run died without one)."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def sweep(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = (0, 1) if args.trace is None else (args.trace,)
    began = time.perf_counter()
    bad: list[str] = []
    for name in names:
        for trace in traces:
            result = spawn_run(name, args.seed, args.seconds, trace, args.quick)
            if result is None or not result["correct"]:
                bad.append(f"{name} --trace {trace}")
    print(f"{len(names) * len(traces)} runs in {time.perf_counter() - began:.0f} s")
    for run in bad:
        print("FAILED " + run)
    return 1 if bad else 0
