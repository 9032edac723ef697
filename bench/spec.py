"""Workload definitions and the ``BENCHMARK.json`` manifest.

``BENCHMARK.json`` owns every *name*, unit, direction, bound and the
one-line reason each workload exists; this module owns what a name
*runs*: tier, scenario, sizes and network settings. The self-test
(``bench/test_bench.py``) pins the two against each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from bench import ROOT


@dataclass(frozen=True)
class Workload:
    """What one named workload runs.

    Attributes:
        tier: ``mem`` (``ESPProcessor.run``), ``gw`` (one gateway and a
            feeder on loopback) or ``cluster`` (router + 2 workers).
        scenario: Input generator and pipeline: ``shelf``, ``redwood``,
            ``home`` or ``chain`` (see :mod:`bench.inputs`).
        duration: Scenario length in sensor seconds (``None``: the
            scenario's own default).
        quick_duration: The ``--quick`` size (non-comparable smoke runs).
        slack: Reorder slack, sensor seconds.
        delayed: Feed through ``DelayModel(0.375, 1.5, rng=seed)`` so
            arrivals are out of order up to the slack cap.
        rate: Open-loop replay speed (sensor seconds per wall second);
            ``None`` is closed loop: credit-gated, full tilt.
        checkpoint_interval: Router checkpoint cadence in forwarded
            frames per link; ``None`` is checkpoints off.
        pinned: ``(input tuples, output tuples)`` for seed 3 at full
            size — a drifted generator or pipeline fails the run.
    """

    tier: str
    scenario: str
    duration: "float | None"
    quick_duration: "float | None"
    pinned: tuple[int, int]
    slack: float = 0.0
    delayed: bool = False
    rate: "float | None" = None
    checkpoint_interval: "int | None" = None


#: Sizes are set so a pass is about a second here (2 cores): the driver
#: gives each run ``run_seconds`` and a median wants five or more passes.
WORKLOADS: dict[str, Workload] = {
    "shelf_mem": Workload("mem", "shelf", 700.0, 20.0, (48930, 86932)),
    "redwood_mem": Workload("mem", "redwood", None, 4320.0, (13235, 15339)),
    "home_mem": Workload("mem", "home", 3000.0, 60.0, (22354, 3464)),
    "chain_mem": Workload("mem", "chain", 700.0, 20.0, (48930, 48930)),
    "shelf_gw": Workload(
        "gw", "shelf", 300.0, 12.0, (21062, 37306), slack=1.5, delayed=True
    ),
    "shelf_gw_paced": Workload(
        "gw", "shelf", 700.0, 100.0, (48930, 86932), rate=100.0
    ),
    "shelf_cluster": Workload("cluster", "shelf", 120.0, 12.0, (8517, 14929)),
    "shelf_cluster_ckpt": Workload(
        "cluster", "shelf", 120.0, 12.0, (8517, 14929),
        checkpoint_interval=300,
    ),
}

#: Workers behind the router on the cluster tier.
CLUSTER_WORKERS = 2
#: Per-source credit window: the ``repro serve`` / ``repro cluster`` default.
QUEUE_BOUND = 64
#: The feeder delay model of ``shelf_gw``: mean and cap, sensor seconds.
DELAY_MEAN, DELAY_CAP = 0.375, 1.5


def manifest() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    """Metric name → unit for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in manifest()[section]}
