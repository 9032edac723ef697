"""``python3 -m bench.repeat``: is the benchmark steady on this tree?

Runs every workload's untraced run twice, in two full rounds so the
pairs are minutes apart, and fails unless every end-to-end metric on
every workload agrees within its ``BENCHMARK.json`` bound. Prints both
values and their spread (distance over mean) for each pair.
"""

from __future__ import annotations

import sys

from bench import spec
from bench.cli import spawn_run

SEED = 3


def main() -> int:
    manifest = spec.manifest()
    seconds = float(manifest["run_seconds"])
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    rounds = [
        {name: spawn_run(name, SEED, seconds, 0) for name in spec.WORKLOADS}
        for _ in range(2)
    ]
    misses = 0
    print(
        f"{'workload':<20}{'metric':<14}{'first':>14}{'second':>14}"
        f"{'spread':>9}{'bound':>7}"
    )
    for name in spec.WORKLOADS:
        first, second = rounds[0][name], rounds[1][name]
        if not (first and second and first["correct"] and second["correct"]):
            print(f"{name:<20}a run failed or was incorrect")
            misses += 1
            continue
        for metric, bound in bounds.items():
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            spread = abs(a - b) / ((a + b) / 2)
            miss = spread > bound
            misses += miss
            print(
                f"{name:<20}{metric:<14}{a:>14.6g}{b:>14.6g}{spread:>9.3f}"
                f"{bound:>7.2f}{'  MISS' if miss else ''}"
            )
    print(f"{misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
