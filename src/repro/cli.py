"""Command-line interface: run the reproduction's experiments.

Usage::

    python -m repro list                 # available experiments
    python -m repro run all [--fast]     # everything + summary report
    python -m repro run fig5             # one artifact
    python -m repro paper                # show the paper's reference values
    python -m repro serve shelf          # ingestion gateway for a scenario
    python -m repro feed shelf           # replay the scenario into it
    python -m repro worker shelf         # one cluster worker process
    python -m repro cluster shelf \
        --worker w0=127.0.0.1:7107       # route feeders across workers
    python -m repro top                  # live console for a running serve
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable


def _fig3(fast: bool) -> dict:
    from repro.experiments.rfid import figure3
    from repro.scenarios import ShelfScenario

    result = figure3(ShelfScenario(duration=200.0 if fast else 700.0))
    return {
        "errors": result["errors"],
        "raw_alert_rate_per_sec": result["raw_alert_rate_per_sec"],
        "cleaned_alert_rate_per_sec": result["cleaned_alert_rate_per_sec"],
    }


def _fig5(fast: bool) -> dict:
    from repro.experiments.rfid import figure5
    from repro.scenarios import ShelfScenario

    return figure5(ShelfScenario(duration=200.0 if fast else 700.0))


def _fig6(fast: bool) -> dict:
    from repro.experiments.rfid import figure6
    from repro.scenarios import ShelfScenario

    sizes = (0.5, 2.0, 5.0, 15.0, 30.0) if fast else None
    scenario = ShelfScenario(duration=200.0 if fast else 700.0)
    sweep = figure6(scenario, sizes) if sizes else figure6(scenario)
    return {f"{size:g}s": error for size, error in sweep.items()}


def _fig7(fast: bool) -> dict:
    from repro.experiments.intel_lab import figure7
    from repro.scenarios import IntelLabScenario

    scenario = IntelLabScenario(duration=(1.0 if fast else 2.0) * 86400.0)
    result = figure7(scenario)
    return {
        key: value
        for key, value in result.items()
        if key not in ("raw", "average", "esp")
    }


def _sec52(fast: bool) -> dict:
    from repro.experiments.redwood import section52
    from repro.scenarios import RedwoodScenario

    scenario = (
        RedwoodScenario(duration=86400.0, n_groups=8)
        if fast
        else RedwoodScenario()
    )
    return section52(scenario)


def _fig9(fast: bool) -> dict:
    from repro.experiments.office import figure9
    from repro.scenarios import OfficeScenario

    result = figure9(OfficeScenario(duration=300.0 if fast else 600.0))
    return {"accuracy": result["accuracy"], "confusion": result["confusion"]}


def _actuation(fast: bool) -> dict:
    from repro.experiments.actuation import actuation_comparison

    result = actuation_comparison(granules=150 if fast else 400)
    return {"yield": result["yield"], "energy": result["energy"]}


def _model_based(fast: bool) -> dict:
    from repro.experiments.model_based import model_based_comparison

    result = model_based_comparison(
        duration=(1.0 if fast else 2.0) * 86400.0,
        failure_onset=(0.3 if fast else 0.5) * 86400.0,
    )
    return {
        key: value
        for key, value in result.items()
        if key not in ("raw", "cleaned")
    }


EXPERIMENTS: dict[str, tuple[str, Callable[[bool], dict]]] = {
    "fig3": ("Figure 3 — RFID shelf cleaning progression (4)", _fig3),
    "fig5": ("Figure 5 — pipeline configuration ablation (4.2.1)", _fig5),
    "fig6": ("Figure 6 — temporal granule sweep (4.3.2)", _fig6),
    "fig7": ("Figure 7 — fail-dirty outlier detection (5.1)", _fig7),
    "sec52": ("Section 5.2 — redwood epoch yield table", _sec52),
    "fig9": ("Figure 9 — digital-home person detector (6)", _fig9),
    "actuation": ("Extension — receptor actuation (5.3.1)", _actuation),
    "model": ("Extension — BBQ-style model cleaning (6.3.1)", _model_based),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _fn) in EXPERIMENTS.items():
        print(f"  {name:{width}s}  {description}")
    return 0


def _cmd_paper(_args: argparse.Namespace) -> int:
    from repro.experiments.runner import PAPER_VALUES

    print(json.dumps(PAPER_VALUES, indent=2, default=str))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instrument = args.stats or args.trace_out is not None
    if not instrument:
        return _run_experiment(args)
    # Experiments drive ESPProcessor.run internally; the process-wide
    # default collector is how --stats/--trace-out reach those calls
    # (the same route --shards/--backend take below).
    from repro.streams.telemetry import (
        InMemoryCollector,
        format_table,
        set_default_telemetry,
    )

    collector = InMemoryCollector()
    previous = set_default_telemetry(collector)
    try:
        status = _run_experiment(args)
    finally:
        set_default_telemetry(previous)
    if status != 0:
        return status
    snapshot = collector.snapshot()
    if args.stats:
        from repro.core.pipeline import stage_rollups
        from repro.streams.typedcols import storage_stats

        print(
            format_table(
                snapshot,
                rollups=stage_rollups(snapshot),
                storage=storage_stats(),
            ),
            file=sys.stderr,
        )
    if args.trace_out is not None:
        from repro.streams.traceio import write_trace_events

        count = write_trace_events(snapshot["events"], args.trace_out)
        print(
            f"wrote {count} trace events to {args.trace_out}",
            file=sys.stderr,
        )
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    if args.shards is not None or args.backend is not None:
        # Every experiment drives ESPProcessor.run internally; the
        # process-wide execution default is how the flags reach them.
        from repro.streams.shard import set_default_execution

        set_default_execution(shards=args.shards, backend=args.backend)
    if args.experiment == "all":
        from repro.experiments.runner import format_report, run_all

        print(format_report(run_all(fast=args.fast)))
        return 0
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"try: {', '.join(['all', *EXPERIMENTS])}",
            file=sys.stderr,
        )
        return 2
    _description, fn = EXPERIMENTS[args.experiment]
    result = fn(args.fast)
    print(json.dumps(result, indent=2, default=_jsonable))
    if args.dump:
        written = _dump_series(args.experiment, args.fast, args.dump)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _dump_series(experiment: str, fast: bool, directory: str) -> list:
    """Write the figure's plottable series as CSV files.

    Covers the trace-style artifacts (fig3, fig6, fig7, fig9); scalar
    tables are already fully contained in the JSON output.
    """
    import csv
    from pathlib import Path

    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def dump(name: str, header: list, rows) -> None:
        path = base / f"{experiment}_{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    if experiment == "fig3":
        from repro.experiments.rfid import figure3
        from repro.scenarios import ShelfScenario

        result = figure3(ShelfScenario(duration=200.0 if fast else 700.0))
        ticks = result["ticks"]
        for trace_name, series in result["traces"].items():
            rows = zip(ticks, series["shelf0"], series["shelf1"])
            dump(trace_name, ["time_s", "shelf0", "shelf1"], rows)
    elif experiment == "fig6":
        sweep = _fig6(fast)
        dump(
            "sweep",
            ["granule_s", "avg_relative_error"],
            [(size.rstrip("s"), error) for size, error in sweep.items()],
        )
    elif experiment == "fig7":
        from repro.experiments.intel_lab import figure7
        from repro.scenarios import IntelLabScenario

        scenario = IntelLabScenario(
            duration=(1.0 if fast else 2.0) * 86400.0
        )
        result = figure7(scenario)
        for mote_id, (times, temps) in result["raw"].items():
            dump(mote_id, ["time_s", "temp_c"], zip(times, temps))
        for name in ("average", "esp"):
            times, temps = result[name]
            dump(name, ["time_s", "temp_c"], zip(times, temps))
    elif experiment == "fig9":
        from repro.experiments.office import figure9
        from repro.scenarios import OfficeScenario

        result = figure9(OfficeScenario(duration=300.0 if fast else 600.0))
        dump(
            "occupancy",
            ["time_s", "truth", "detected"],
            zip(
                result["ticks"],
                result["truth"].astype(int),
                result["detected"].astype(int),
            ),
        )
        for mote_id, (times, values) in result["sound"].items():
            dump(mote_id, ["time_s", "noise"], zip(times, values))
    return written


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.service import serve_scenario

    instrument = (
        args.stats
        or args.trace_out is not None
        or args.span_out is not None
        or args.ops_port is not None
    )
    collector = None
    if instrument:
        from repro.streams.telemetry import InMemoryCollector

        collector = InMemoryCollector()

    def ready(host: str, port: int) -> None:
        print(f"listening on {host}:{port}", file=sys.stderr)

    def ops_ready(host: str, port: int) -> None:
        print(f"ops endpoint on http://{host}:{port}", file=sys.stderr)

    summary = asyncio.run(
        serve_scenario(
            args.scenario,
            args.host,
            args.port,
            slack=args.slack,
            policy=args.policy,
            queue_bound=args.queue_bound,
            duration=args.duration,
            seed=args.seed,
            liveness_timeout=args.liveness_timeout,
            liveness_interval=(
                args.liveness_timeout / 2.0
                if args.liveness_timeout is not None
                else None
            ),
            telemetry=collector,
            ready=ready,
            ops_port=args.ops_port,
            ops_ready=ops_ready,
        )
    )
    if collector is not None:
        snapshot = collector.snapshot()
        if args.stats:
            from repro.core.pipeline import stage_rollups
            from repro.streams.telemetry import format_table
            from repro.streams.typedcols import storage_stats

            print(
                format_table(
                    snapshot,
                    rollups=stage_rollups(snapshot),
                    storage=storage_stats(),
                ),
                file=sys.stderr,
            )
        if args.trace_out is not None:
            from repro.streams.traceio import write_trace_events

            count = write_trace_events(snapshot["events"], args.trace_out)
            print(
                f"wrote {count} trace events to {args.trace_out}",
                file=sys.stderr,
            )
        if args.span_out is not None:
            from repro.streams.traceio import write_trace_events

            count = write_trace_events(snapshot["span_log"], args.span_out)
            print(
                f"wrote {count} span records to {args.span_out}",
                file=sys.stderr,
            )
    print(json.dumps(summary, indent=2, default=_jsonable))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.worker import serve_worker

    collector = None
    if args.ops_port is not None:
        from repro.streams.telemetry import InMemoryCollector

        collector = InMemoryCollector()

    def ready(host: str, port: int) -> None:
        print(f"listening on {host}:{port}", file=sys.stderr)

    def ops_ready(host: str, port: int) -> None:
        print(f"ops endpoint on http://{host}:{port}", file=sys.stderr)

    try:
        summary = asyncio.run(
            serve_worker(
                args.scenario,
                args.host,
                args.port,
                slack=args.slack,
                queue_bound=args.queue_bound,
                duration=args.duration,
                seed=args.seed,
                label=args.label,
                max_epochs=args.max_epochs,
                telemetry=collector,
                ready=ready,
                ops_port=args.ops_port,
                ops_ready=ops_ready,
            )
        )
    except KeyboardInterrupt:
        return 130
    print(json.dumps(summary, indent=2, default=_jsonable))
    return 0


def _parse_worker_spec(text: str) -> tuple[str, str, int]:
    """Parse a ``label=host:port`` worker argument."""
    label, eq, address = text.partition("=")
    host, colon, port = address.rpartition(":")
    if not eq or not colon or not label or not host:
        raise argparse.ArgumentTypeError(
            f"expected label=host:port, got {text!r}"
        )
    try:
        return label, host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid port in {text!r}"
        ) from None


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.cluster import serve_cluster

    collector = None
    if args.stats or args.ops_port is not None or args.span_out is not None:
        from repro.streams.telemetry import InMemoryCollector

        collector = InMemoryCollector()

    def ready(host: str, port: int) -> None:
        print(f"listening on {host}:{port}", file=sys.stderr)

    def ops_ready(host: str, port: int) -> None:
        print(f"ops endpoint on http://{host}:{port}", file=sys.stderr)

    summary = asyncio.run(
        serve_cluster(
            args.scenario,
            args.worker,
            args.host,
            args.port,
            slack=args.slack,
            queue_bound=args.queue_bound,
            duration=args.duration,
            seed=args.seed,
            telemetry=collector,
            ready=ready,
            ops_port=args.ops_port,
            ops_ready=ops_ready,
            ops_linger=args.ops_linger,
            checkpoint_interval=args.checkpoint_interval,
        )
    )
    if collector is not None:
        snapshot = collector.snapshot()
        if args.stats:
            from repro.core.pipeline import stage_rollups
            from repro.streams.telemetry import format_table

            print(
                format_table(
                    snapshot, rollups=stage_rollups(snapshot)
                ),
                file=sys.stderr,
            )
        if args.span_out is not None:
            from repro.streams.traceio import write_trace_events

            count = write_trace_events(snapshot["span_log"], args.span_out)
            print(
                f"wrote {count} span records to {args.span_out}",
                file=sys.stderr,
            )
    print(json.dumps(summary, indent=2, default=_jsonable))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.faults import chaos_run

    report = asyncio.run(
        chaos_run(
            args.scenario,
            n_workers=args.workers,
            duration=args.duration,
            seed=args.seed,
            fault=args.fault,
            fraction=args.fraction,
            checkpoint_interval=args.checkpoint_interval,
        )
    )
    print(json.dumps(report, indent=2, default=_jsonable))
    # CI-friendly: a run that survived the fault but diverged from the
    # single-node reference is a failure, not a warning.
    return 0 if report["identical"] else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    from repro.net.ops import format_top

    base = f"http://{args.host}:{args.port}"
    previous = None
    elapsed = None
    last_poll = None
    remaining = args.iterations
    while True:
        try:
            with urllib.request.urlopen(
                f"{base}/snapshot", timeout=5.0
            ) as response:
                document = json.loads(response.read().decode("utf-8"))
        except (OSError, ValueError) as error:
            print(f"ops endpoint {base} unreachable: {error}", file=sys.stderr)
            return 1
        now = time.monotonic()
        if last_poll is not None:
            elapsed = now - last_poll
        last_poll = now
        frame = format_top(document, previous, elapsed)
        if args.clear and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(frame, end="", flush=True)
        previous = document
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        time.sleep(args.interval)


def _cmd_feed(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.service import feed_scenario

    report = asyncio.run(
        feed_scenario(
            args.scenario,
            args.host,
            args.port,
            duration=args.duration,
            seed=args.seed,
            mean_delay=args.mean_delay,
            max_delay=args.max_delay,
            loss_yield=args.loss_yield,
            burst=args.burst,
            rate=args.rate,
            delay_seed=args.delay_seed,
        )
    )
    print(json.dumps(report, indent=2, default=_jsonable))
    return 0


def _jsonable(value):
    try:
        import numpy as np

        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return str(value)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the ESP reproduction's experiments.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    commands.add_parser("paper", help="print the paper's reference values")
    run = commands.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment name, or 'all'")
    run.add_argument(
        "--fast",
        action="store_true",
        help="reduced-scale run for a quick look",
    )
    run.add_argument(
        "--dump",
        metavar="DIR",
        help="also write the figure's plottable series as CSVs into DIR",
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        metavar="N",
        help="partition pipeline execution into N shards (default 1)",
    )
    run.add_argument(
        "--backend",
        choices=("serial", "processes"),
        help="shard execution backend (default serial)",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print a per-operator telemetry table to stderr after the run",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the run's telemetry trace events to PATH as JSONL",
    )

    serve = commands.add_parser(
        "serve", help="run the ingestion gateway for a scenario pipeline"
    )
    serve.add_argument(
        "scenario", help="scenario name (see repro.net.service.SCENARIOS)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7007, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--slack",
        type=float,
        default=1.5,
        help="reorder slack in simulation seconds (cover the feeder's "
        "max delay)",
    )
    serve.add_argument(
        "--policy",
        choices=("block", "drop-oldest", "drop-newest"),
        default="block",
        help="ingress overload policy",
    )
    serve.add_argument(
        "--queue-bound",
        type=_positive_int,
        default=64,
        help="per-source ingress queue capacity",
    )
    serve.add_argument(
        "--duration", type=float, help="scenario duration override, seconds"
    )
    serve.add_argument("--seed", type=int, help="scenario seed override")
    serve.add_argument(
        "--liveness-timeout",
        type=float,
        help="evict sources silent for this many wall seconds",
    )
    serve.add_argument(
        "--ops-port",
        type=int,
        metavar="PORT",
        help="also serve /metrics, /healthz, /readyz and /snapshot on "
        "this port (0 = ephemeral; off by default)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print a per-operator telemetry table to stderr after the run",
    )
    serve.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the run's telemetry trace events to PATH as JSONL",
    )
    serve.add_argument(
        "--span-out",
        metavar="PATH",
        help="write the run's ingest span records to PATH as JSONL",
    )

    feed = commands.add_parser(
        "feed", help="replay a scenario's recording into a gateway"
    )
    feed.add_argument(
        "scenario", help="scenario name (must match the server's)"
    )
    feed.add_argument("--host", default="127.0.0.1", help="gateway host")
    feed.add_argument("--port", type=int, default=7007, help="gateway port")
    feed.add_argument(
        "--duration", type=float, help="scenario duration override, seconds"
    )
    feed.add_argument("--seed", type=int, help="scenario seed override")
    feed.add_argument(
        "--mean-delay",
        type=float,
        default=0.0,
        help="mean simulated network delay, seconds (0 = none)",
    )
    feed.add_argument(
        "--max-delay",
        type=float,
        help="delay cap, seconds (default 4x the mean)",
    )
    feed.add_argument(
        "--loss-yield",
        type=float,
        help="bursty-loss channel long-run delivery fraction (e.g. 0.8)",
    )
    feed.add_argument(
        "--burst",
        type=float,
        default=8.0,
        help="mean loss-burst length, in readings",
    )
    feed.add_argument(
        "--rate",
        type=float,
        help="replay speed as a multiple of simulation time "
        "(default: as fast as the gateway accepts)",
    )
    feed.add_argument(
        "--delay-seed",
        type=int,
        default=0,
        help="RNG seed for the delay/loss models",
    )

    worker = commands.add_parser(
        "worker", help="run one cluster worker behind a router"
    )
    worker.add_argument(
        "scenario", help="scenario name (must match the router's)"
    )
    worker.add_argument("--host", default="127.0.0.1", help="bind address")
    worker.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    worker.add_argument(
        "--label",
        default="worker",
        help="worker label for telemetry (the router's hello overrides it)",
    )
    worker.add_argument(
        "--slack",
        type=float,
        default=1.5,
        help="reorder slack in simulation seconds (match the router's)",
    )
    worker.add_argument(
        "--queue-bound",
        type=_positive_int,
        default=64,
        help="per-source ingress queue capacity",
    )
    worker.add_argument(
        "--duration", type=float, help="scenario duration override, seconds"
    )
    worker.add_argument("--seed", type=int, help="scenario seed override")
    worker.add_argument(
        "--max-epochs",
        type=_positive_int,
        metavar="N",
        help="exit after completing N epochs (default: run until killed)",
    )
    worker.add_argument(
        "--ops-port",
        type=int,
        metavar="PORT",
        help="serve this worker's /metrics, /healthz, /readyz and "
        "/snapshot on this port (0 = ephemeral; off by default)",
    )

    cluster = commands.add_parser(
        "cluster", help="route a scenario's feeders across worker processes"
    )
    cluster.add_argument(
        "scenario", help="scenario name (must match the workers')"
    )
    cluster.add_argument(
        "--worker",
        action="append",
        required=True,
        type=_parse_worker_spec,
        metavar="LABEL=HOST:PORT",
        help="a worker to join at epoch 0 (repeat per worker)",
    )
    cluster.add_argument("--host", default="127.0.0.1", help="bind address")
    cluster.add_argument(
        "--port", type=int, default=7007, help="bind port (0 = ephemeral)"
    )
    cluster.add_argument(
        "--slack",
        type=float,
        default=1.5,
        help="reorder slack in simulation seconds (cover the feeder's "
        "max delay; also the rebalance boundary watermark)",
    )
    cluster.add_argument(
        "--queue-bound",
        type=_positive_int,
        default=64,
        help="per-source credit window, feeder-facing and per worker link",
    )
    cluster.add_argument(
        "--duration", type=float, help="scenario duration override, seconds"
    )
    cluster.add_argument("--seed", type=int, help="scenario seed override")
    cluster.add_argument(
        "--ops-port",
        type=int,
        metavar="PORT",
        help="serve the router's ops plane (cluster-wide telemetry "
        "rollup) on this port (0 = ephemeral; off by default)",
    )
    cluster.add_argument(
        "--ops-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the ops endpoint up this many seconds after the "
        "run completes, so a scraper can take one final /metrics "
        "scrape that includes the committed cluster spans "
        "(default: 0)",
    )
    cluster.add_argument(
        "--stats",
        action="store_true",
        help="print the cluster-wide telemetry rollup to stderr after "
        "the run",
    )
    cluster.add_argument(
        "--span-out",
        metavar="PATH",
        help="write the merged cluster span records (per-hop phase "
        "durations, one record per delivered tuple) to PATH as JSONL; "
        "implies tracing",
    )
    cluster.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        metavar="READINGS",
        help="ask each worker for a state checkpoint every READINGS "
        "forwarded readings (off by default; enables bounded-state "
        "recovery instead of full-history replay)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run one scripted fault against an in-process cluster and "
        "differentially check the output against the single-node run",
    )
    chaos.add_argument("scenario", help="scenario name")
    chaos.add_argument(
        "--fault",
        choices=("kill", "reset", "truncate", "slow", "none"),
        default="kill",
        help="fault to inject against worker w0 (default: kill)",
    )
    chaos.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="cluster size (default: 2)",
    )
    chaos.add_argument(
        "--fraction",
        type=float,
        default=0.4,
        help="position of the fault trigger within the recording's "
        "reading count (default: 0.4)",
    )
    chaos.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=24,
        metavar="READINGS",
        help="worker checkpoint cadence in forwarded readings "
        "(default: 24)",
    )
    chaos.add_argument(
        "--duration", type=float, help="scenario duration override, seconds"
    )
    chaos.add_argument("--seed", type=int, help="scenario seed override")

    top = commands.add_parser(
        "top", help="live console for a gateway's ops endpoint"
    )
    top.add_argument("--host", default="127.0.0.1", help="ops endpoint host")
    top.add_argument(
        "--port", type=int, default=7008, help="ops endpoint port"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls",
    )
    top.add_argument(
        "--iterations",
        type=_positive_int,
        metavar="N",
        help="render N frames then exit (default: run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        dest="clear",
        action="store_false",
        help="append frames instead of clearing the screen",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "paper": _cmd_paper,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "feed": _cmd_feed,
        "worker": _cmd_worker,
        "cluster": _cmd_cluster,
        "chaos": _cmd_chaos,
        "top": _cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
