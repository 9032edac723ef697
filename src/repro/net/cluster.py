"""Cluster assembly: egress merge, service entry points, process runner.

This module is the glue above :mod:`repro.net.router` and
:mod:`repro.net.worker`:

- :func:`merge_epochs` — the egress merger. Each worker epoch is recast
  as a masked :class:`~repro.streams.shard.ShardResult` (its per-tick
  output, zeroed outside the epoch's tick span) and the lot goes
  through the *existing* deterministic time-axis merge,
  :func:`repro.streams.shard.merge_outputs`. Cluster output is thereby
  byte-identical to a single-node run for any worker count and any
  rebalance history.
- :func:`serve_cluster` — the ``repro cluster`` service loop, the
  cluster-shaped sibling of :func:`repro.net.service.serve_scenario`.
- :func:`run_cluster_processes` — spawn real ``repro worker`` /
  ``repro cluster`` / ``repro feed`` subprocesses and time the run;
  shared by the scale-out benchmark and the bench snapshot harness.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from typing import Any, Callable

from repro.streams.shard import ShardResult, merge_outputs
from repro.streams.telemetry import TelemetryCollector
from repro.streams.tuples import StreamTuple


def merge_epochs(
    epochs: "list[dict[str, Any]]",
    n_ticks: int,
    shard_key: str,
) -> list[StreamTuple]:
    """Merge per-worker, per-epoch tick outputs into one cluster output.

    Args:
        epochs: Epoch records as accumulated by
            :class:`~repro.net.router.ClusterRouter`: each has
            ``start``/``end`` (the half-open tick-index span the epoch
            owns) and ``results`` mapping worker label to a dict with a
            ``per_tick`` mapping of tick index → emitted tuples.
        n_ticks: Total punctuation ticks in the run's schedule.
        shard_key: The scenario's partitioning field; the merge's
            stable-sort key, exactly as in a sharded batch run.

    Every tick index lies in exactly one epoch's span, and within an
    epoch tuples sharing a shard-key value live on exactly one worker,
    so the stable sort reproduces the sequential pipeline's
    interleaving — the same argument as
    :func:`repro.streams.shard.merge_outputs`.
    """
    masked: list[ShardResult] = []
    for record in epochs:
        start = int(record["start"])
        end = min(int(record["end"]), n_ticks)
        for label in sorted(record["results"]):
            worker_ticks = record["results"][label]["per_tick"]
            per_tick: list[list[StreamTuple]] = [
                [] for _ in range(n_ticks)
            ]
            for index in range(start, end):
                bucket = worker_ticks.get(index)
                if bucket:
                    per_tick[index] = list(bucket)
            masked.append(ShardResult(per_tick, {}))
    return merge_outputs(
        masked, order_key=lambda item: str(item.get(shard_key))
    )


async def serve_cluster(
    name: str,
    workers: "list[tuple[str, str, int]]",
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slack: float = 1.5,
    queue_bound: int = 64,
    duration: "float | None" = None,
    seed: "int | None" = None,
    telemetry: "TelemetryCollector | None" = None,
    ready: "Callable[[str, int], None] | None" = None,
    ops_port: "int | None" = None,
    ops_ready: "Callable[[str, int], None] | None" = None,
    ops_linger: float = 0.0,
    checkpoint_interval: "int | None" = None,
    supervisor: Any = None,
) -> dict[str, Any]:
    """Run one scenario through a worker ring; returns the summary.

    Binds the feeder-facing router, joins the given ``(label, host,
    port)`` workers as epoch 0, waits until every expected source said
    bye and all results are merged, then closes.

    Args:
        ready: Called with the router's bound ``(host, port)`` once it
            accepts feeders — how a caller learns an ephemeral port.
        ops_port: When set, also serve ``/metrics``, ``/healthz``,
            ``/readyz`` and ``/snapshot`` for the router (with the
            cluster-wide telemetry rollup) on this port.
        ops_linger: Keep the ops endpoint up this many seconds after
            the run completes. Cluster spans commit at epoch close, a
            moment before a zero-linger endpoint disappears — the
            grace period lets a scraper take one final ``/metrics``
            scrape that includes them.
        checkpoint_interval: Forwarded to the router — checkpoint each
            worker's state every this many forwarded frames; ``None``
            disables checkpointing (recovery falls back to full
            replay).
        supervisor: Optional :class:`repro.net.recovery.WorkerSupervisor`
            used to respawn dead workers before failing over.
    """
    from repro.net.ops import ops_plane
    from repro.net.router import ClusterRouter
    from repro.net.service import build_bundle

    bundle = build_bundle(name, duration, seed)
    router = ClusterRouter(
        bundle,
        slack=slack,
        queue_bound=queue_bound,
        telemetry=telemetry,
        checkpoint_interval=checkpoint_interval,
        supervisor=supervisor,
    )
    async with ops_plane(
        router, host, ops_port, telemetry, ops_ready
    ) as ops_address:
        try:
            bound_host, bound_port = await router.start(host, port)
            await router.connect_workers(workers)
            if ready is not None:
                ready(bound_host, bound_port)
            await router.run_until_complete()
            output = router.result()
        finally:
            await router.close()
            if ops_address is not None and ops_linger > 0:
                await asyncio.sleep(ops_linger)
    return {
        "scenario": name,
        "address": f"{bound_host}:{bound_port}",
        "ops_address": ops_address,
        "workers": [label for label, _host, _port in workers],
        "epochs": router.epochs(),
        "output_tuples": len(output),
        "router": router.stats(),
    }


# -- subprocess orchestration --------------------------------------------------


def _repro_env() -> dict[str, str]:
    """Subprocess environment with ``repro`` importable via PYTHONPATH."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


def _await_listening(process: subprocess.Popen, what: str) -> tuple[str, int]:
    """Read a child's stderr until its ``listening on host:port`` line."""
    assert process.stderr is not None
    lines: list[str] = []
    while True:
        line = process.stderr.readline()
        if not line:
            raise RuntimeError(
                f"{what} exited before announcing its address; stderr:\n"
                + "".join(lines)
            )
        lines.append(line)
        text = line.strip()
        if text.startswith("listening on "):
            host, _, port = text.removeprefix("listening on ").partition(":")
            return host, int(port)


def _drain_stderr(process: subprocess.Popen) -> None:
    """Keep a child's stderr pipe from filling (fire-and-forget)."""
    import threading

    def pump() -> None:
        assert process.stderr is not None
        while process.stderr.readline():
            pass

    threading.Thread(target=pump, daemon=True).start()


def run_cluster_processes(
    scenario: str,
    n_workers: int,
    *,
    duration: "float | None" = None,
    seed: "int | None" = None,
    slack: float = 1.5,
    queue_bound: int = 64,
    timeout: float = 300.0,
) -> dict[str, Any]:
    """Run one scenario through real worker/router/feeder processes.

    Spawns ``n_workers`` ``repro worker`` processes and one ``repro
    cluster`` router on ephemeral loopback ports, replays the
    scenario's recording with ``repro feed``, and waits for the
    router's summary. Returns::

        {"summary": <router summary dict>, "elapsed": <feed-to-summary
         wall seconds>, "tuples_per_sec": <forwarded data frames /
         elapsed>, "workers": n_workers}

    Raises on any child's non-zero exit; always reaps every child.
    """
    import json

    env = _repro_env()
    common = ["--duration", str(duration)] if duration is not None else []
    if seed is not None:
        common += ["--seed", str(seed)]
    children: list[subprocess.Popen] = []
    try:
        worker_args: list[str] = []
        for index in range(n_workers):
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    scenario,
                    "--port",
                    "0",
                    "--label",
                    f"w{index}",
                    "--max-epochs",
                    "1",
                    "--slack",
                    str(slack),
                    "--queue-bound",
                    str(queue_bound),
                    *common,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            children.append(process)
            host, port = _await_listening(process, f"worker w{index}")
            _drain_stderr(process)
            worker_args += ["--worker", f"w{index}={host}:{port}"]
        router = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "cluster",
                scenario,
                "--port",
                "0",
                *worker_args,
                "--slack",
                str(slack),
                "--queue-bound",
                str(queue_bound),
                *common,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        children.append(router)
        host, port = _await_listening(router, "router")
        _drain_stderr(router)
        started = time.monotonic()
        feed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "feed",
                scenario,
                "--host",
                host,
                "--port",
                str(port),
                *common,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if feed.returncode != 0:
            raise RuntimeError(f"feeder failed:\n{feed.stderr}")
        stdout, _ = router.communicate(timeout=timeout)
        elapsed = time.monotonic() - started
        if router.returncode != 0:
            raise RuntimeError(f"router exited {router.returncode}")
        summary = json.loads(stdout)
        for process in children[:-1]:
            process.wait(timeout=timeout)
        frames = int(summary["router"]["data_frames"])
        return {
            "summary": summary,
            "elapsed": elapsed,
            "tuples_per_sec": frames / elapsed if elapsed > 0 else 0.0,
            "workers": n_workers,
        }
    finally:
        for process in children:
            if process.poll() is None:
                process.kill()
                process.wait()
