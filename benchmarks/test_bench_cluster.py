"""Cluster scale-out soak: subprocess workers, tuples/second.

Times the full multi-process path — feeder subprocess, router process
(consistent-hash forwarding, credit flow), N worker processes (each a
full gateway + streaming session), egress merge — on the
``shelf_chain`` scenario, whose deep Point chain makes per-tuple
pipeline cost visible against per-tuple routing cost.

Each case records sustained throughput in the CI benchmark artifact via
``extra_info["tuples_per_sec"]``; the 4-worker case also records the
speed-up over the 1-worker run from the same session. Wall-clock
scale-out needs real cores: ``extra_info["cpus"]`` is recorded so a
reviewer can read a flat ratio on a 1-CPU runner for what it is. The
ratio is reported, not gated: a scale-out gate needs a workload with
real worker processes in the repo benchmark (ROADMAP item 5).
"""

from __future__ import annotations

import os

from repro.net.cluster import run_cluster_processes

#: Scenario duration: ~2k frames over the wire, seconds per soak run.
SOAK_DURATION = 30.0

_RATES: dict[int, float] = {}


def _soak(n_workers: int) -> dict:
    result = run_cluster_processes(
        "shelf_chain", n_workers, duration=SOAK_DURATION, slack=0.0
    )
    assert result["summary"]["output_tuples"] > 0
    return result


def _record(benchmark, n_workers: int) -> None:
    # The benchmark mean times the whole soak including worker process
    # spawns; the recorded rate uses the feed-to-summary window that
    # ``run_cluster_processes`` measures, which is the scale-out signal.
    result = benchmark(lambda: _soak(n_workers))
    rate = result["tuples_per_sec"]
    _RATES[n_workers] = rate
    benchmark.extra_info["n_tuples"] = result["summary"]["router"][
        "data_frames"
    ]
    benchmark.extra_info["tuples_per_sec"] = round(rate)
    benchmark.extra_info["cpus"] = os.cpu_count() or 1
    benchmark.extra_info["workers"] = n_workers
    if n_workers > 1 and 1 in _RATES:
        benchmark.extra_info["speedup_vs_1_worker"] = round(
            rate / _RATES[1], 2
        )


def test_cluster_soak_1_worker(benchmark):
    """Baseline: the full cluster path with a single worker process."""
    _record(benchmark, 1)


def test_cluster_soak_4_workers(benchmark):
    """Scale-out: the same recording fanned across 4 worker processes."""
    _record(benchmark, 4)
