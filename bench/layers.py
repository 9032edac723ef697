"""Per-layer rows of one traced run, measured from outside the program.

Three sources, all reachable through ``repro``'s public surface:

- **bench-side timers** around calls into a layer (the session probe,
  ``router.result()``);
- **isolated replays** of the workload's own tuples through one layer
  at a time (codec, ingress queue, reorder buffer, column encoder,
  hash ring, checkpoint codec);
- **the program's collectors**, handed in through its ``telemetry=``
  arguments: ``stage_rollups`` busy time, the ``ingest.*`` spans and
  the seven cluster phases.

``*_us`` rows are µs per *input tuple of the workload*, so busy rows add
up against ``1e6 / tuples_per_s``; ``*_wait_us`` rows are the mean of
the program's own span for that phase. A row the workload's tier does
not execute reads 0. Times are reference time (:mod:`bench.calibrate`):
a replay is its CPU time scaled by the host speed during that replay;
the program's own clock readings (collector busy time, spans) are wall
time scaled by the host speed during the traced pass.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Callable

from repro.core.pipeline import classify_node, stage_rollups
from repro.net import protocol
from repro.net.overload import BoundedIngressQueue
from repro.net.recovery import decode_state, encode_state
from repro.net.ring import HashRing
from repro.net.worker import RESULT_CHUNK
from repro.streams import typedcols
from repro.streams.columnar import ColumnBatch
from repro.streams.fjord import MODES
from repro.streams.reorder import ReorderBuffer
from repro.streams.tuples import StreamTuple

from bench.calibrate import HostSpeed, cpu_clock
from bench.inputs import Inputs
from bench.probe import SpanLog, clock_ns
from bench.spec import CLUSTER_WORKERS, QUEUE_BOUND, Workload
from bench.tiers import PassResult, arrival_schedule, delay_model, mem_pass

#: Rows per batch in the isolated column-encode replay: the order of a
#: punctuation batch on the coarse-tick chain, where encoding matters.
ENCODE_BATCH = 1024
#: Bytes per ``FrameDecoder.feed`` call: an asyncio stream read's worth.
READ_CHUNK = 1 << 16

_STAGES = (
    "ingest", "point", "smooth", "merge", "arbitrate", "virtualize",
    "union", "output",
)


def layer_rows(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    traced: PassResult,
    reference: list[StreamTuple],
    spans: SpanLog,
    host: HostSpeed,
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer row for one traced pass.

    Returns ``(rows, mismatches)``: rows by metric name (only the ones
    this tier executes; the caller zero-fills the rest) and the names
    of execution modes whose output differed from ``reference``.
    """
    n = inputs.n_tuples
    replay = _Replays(spans, spans.add("replays", clock_ns(), clock_ns()), host)
    rows: dict[str, float] = {}
    rows.update(_stage_rows(traced.snapshot, n, traced.speed))
    mode_rows, mismatches = _mode_rows(inputs, reference, replay)
    rows.update(mode_rows)
    rows["fjord.ticks"] = _tick_count(traced.snapshot)
    rows["columnar.encode_us"] = replay.time(
        "replay.columnar.encode", lambda: _encode_columns(inputs)
    )[1] / n / 1e3
    if workload.tier != "mem":
        rows.update(_wire_rows(workload, inputs, seed, traced, replay))
        if workload.tier == "cluster":
            rows.update(_cluster_rows(workload, inputs, traced, replay))
        named = attribution(workload, rows, len(traced.output) / n)
        rows["gateway.residual_us"] = (
            traced.reference_s * 1e6 / n - sum(named.values())
        )
    spans.finish(replay.parent, clock_ns())
    return rows, mismatches


def attribution(
    workload: Workload, rows: dict[str, float], out_per_in: float
) -> dict[str, float]:
    """Busy µs per input tuple the named layers of a wire tier account
    for; what is left of the pass's wall is ``gateway.residual_us``
    (event loop, sockets, credit accounting — reported, never hidden).

    A data frame is encoded once and decoded once per hop (feeder →
    gateway; feeder → router → worker on the cluster, whose results
    come back as result frames and go through the egress merge).
    """
    hops = 2 if workload.tier == "cluster" else 1
    return {
        "protocol": (
            rows["protocol.encode_us"] + hops * rows["protocol.decode_us"]
            + rows.get("protocol.result_us", 0.0) * out_per_in
        ),
        "reorder": rows["reorder.push_us"] + rows["overload.offer_take_us"],
        "session": rows["fjord.session_busy_us"],
        "router": (
            rows.get("ring.owner_us", 0.0) + rows.get("router.forward_us", 0.0)
            + rows.get("cluster.merge_us", 0.0) * out_per_in
        ),
    }


class _Replays:
    """Times isolated replays: a bench-side span each, reference time out."""

    def __init__(self, spans: SpanLog, parent: int, host: HostSpeed) -> None:
        self.spans = spans
        self.parent = parent
        self.host = host

    def time(self, name: str, work: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``work`` under span ``name``; returns its result and the
        reference ns it took."""
        start, cpu_start = clock_ns(), cpu_clock()
        result = work()
        end, cpu_s = clock_ns(), cpu_clock() - cpu_start
        self.spans.add(name, start, end, self.parent)
        return result, cpu_s * 1e9 * self.host.speed(start / 1e9, end / 1e9)


# -- the program's collectors ---------------------------------------------------


def _stage_rows(snapshot: dict[str, Any], n: int, speed: float) -> dict[str, float]:
    rollup = stage_rollups(snapshot)
    rows = {
        f"stage.{stage}_us": (
            rollup.get(stage, {}).get("busy_ns", 0) * speed / n / 1e3
        )
        for stage in _STAGES
    }
    # The rollup folds each Smooth operator's rename MapOp into the
    # stage; fan-out is the windowed operators' own out / in.
    smooth = [
        entry for name, entry in snapshot.get("operators", {}).items()
        if classify_node(name) == "smooth" and not name.endswith(":rename")
    ]
    tuples_in = sum(entry["tuples_in"] for entry in smooth)
    rows["stage.smooth_fanout"] = (
        sum(entry["tuples_out"] for entry in smooth) / tuples_in
        if tuples_in else 0.0
    )
    return rows


def _tick_count(snapshot: dict[str, Any]) -> float:
    counters = snapshot.get("counters", {})
    # One session on mem/gw ("ticks"); one per worker on the cluster
    # ("w0.ticks", ...), each sweeping the whole schedule.
    ticks = [v for k, v in counters.items() if k == "ticks" or k.endswith(".ticks")]
    return float(max(ticks, default=0))


def _span_mean_us(traced: PassResult, name: str) -> float:
    """Mean µs of the program's span ``name``, over every worker label."""
    count = total = 0
    for key, entry in traced.snapshot.get("spans", {}).items():
        if key == name or key.endswith(":" + name):
            count += entry["count"]
            total += entry["total_ns"]
    return total * traced.speed / count / 1e3 if count else 0.0


# -- one in-memory pass per execution mode ----------------------------------------


def _mode_rows(
    inputs: Inputs, reference: list[StreamTuple], replay: _Replays
) -> tuple[dict[str, float], list[str]]:
    rows: dict[str, float] = {}
    mismatches: list[str] = []
    for mode in MODES:
        if mode == "fused":
            typedcols.reset_storage_stats()
        result, _ns = replay.time(
            f"replay.fjord.{mode}", lambda: mem_pass(inputs, mode)
        )
        result.speed = replay.host.speed(*result.window)
        rows[f"fjord.{mode}_us"] = result.reference_s * 1e6 / inputs.n_tuples
        if result.output != reference:
            mismatches.append(mode)
    cells = typedcols.storage_stats()
    typed, listed = cells.get("typed_cells", 0), cells.get("list_cells", 0)
    rows["columnar.typed_share"] = typed / (typed + listed) if typed + listed else 0.0
    return rows, mismatches


def _encode_columns(inputs: Inputs) -> None:
    for items in inputs.streams.values():
        for offset in range(0, len(items), ENCODE_BATCH):
            ColumnBatch.from_tuples(items[offset:offset + ENCODE_BATCH]).columns


# -- the wire tiers ---------------------------------------------------------------


def _wire_rows(
    workload: Workload, inputs: Inputs, seed: int, traced: PassResult,
    replay: _Replays,
) -> dict[str, float]:
    n = inputs.n_tuples
    schedule = arrival_schedule(inputs, delay_model(workload, seed))
    rows: dict[str, float] = {}

    frames, encode_ns = replay.time(
        "replay.protocol.encode",
        lambda: [
            protocol.encode_frame(protocol.data_frame(name, seq, arrival, item))
            for arrival, name, seq, item in schedule
        ],
    )
    wire = b"".join(frames)
    rows["protocol.encode_us"] = encode_ns / n / 1e3
    rows["protocol.bytes_per_tuple"] = len(wire) / n
    rows["protocol.decode_us"] = replay.time(
        "replay.protocol.decode", lambda: _decode_data(wire)
    )[1] / n / 1e3

    rows["overload.offer_take_us"] = replay.time(
        "replay.overload", lambda: _offer_take(schedule)
    )[1] / n / 1e3
    held, reorder_ns = replay.time(
        "replay.reorder", lambda: _reorder(schedule, workload.slack)
    )
    rows["reorder.push_us"] = reorder_ns / n / 1e3
    rows["reorder.max_held"] = float(held)

    report = traced.feeder
    rows["feeder.blocked_waits"] = float(report["blocked_waits"])
    rows["feeder.credit_frames"] = float(report["credit_frames"])
    rows["feeder.pacing_stalls"] = float(report["pacing_stalls"])
    rows["fjord.session_busy_us"] = (
        traced.session_busy_ns * traced.speed / n / 1e3
    )
    rows["fjord.session_wait_us"] = _span_mean_us(traced, "ingest.session")
    rows["fjord.sweep_us"] = _span_mean_us(traced, "ingest.sweep")
    if workload.tier == "gw":
        sources = traced.stats["sources"].values()
        rows["overload.dropped"] = float(sum(s["dropped_overload"] for s in sources))
        rows["reorder.late_dropped"] = float(sum(s["dropped_late"] for s in sources))
        rows["gateway.queue_wait_us"] = _span_mean_us(traced, "ingest.queue")
        rows["gateway.reorder_wait_us"] = _span_mean_us(traced, "ingest.reorder")
    return rows


def _decode_data(wire: bytes) -> None:
    decoder = protocol.FrameDecoder()
    for offset in range(0, len(wire), READ_CHUNK):
        for frame in decoder.feed(wire[offset:offset + READ_CHUNK]):
            protocol.record_to_tuple(frame["record"])


def _offer_take(schedule: list[tuple]) -> None:
    queue = BoundedIngressQueue(QUEUE_BOUND, "block")
    for entry in schedule:
        queue.offer(entry)
        if len(queue) == QUEUE_BOUND:
            while len(queue):
                queue.take()
    while len(queue):
        queue.take()


def _reorder(schedule: list[tuple], slack: float) -> int:
    """Push the arrival schedule through per-source buffers; returns the
    most tuples any one buffer held."""
    buffers: dict[str, ReorderBuffer] = {}
    held = 0
    for arrival, name, seq, item in schedule:
        buffer = buffers.get(name)
        if buffer is None:
            buffer = buffers[name] = ReorderBuffer(slack)
        buffer.push(arrival, item, sequence=seq)
        if len(buffer) > held:
            held = len(buffer)
    for buffer in buffers.values():
        buffer.flush()
    return held


# -- the cluster tier -------------------------------------------------------------


def _cluster_rows(
    workload: Workload, inputs: Inputs, traced: PassResult, replay: _Replays
) -> dict[str, float]:
    n, m = inputs.n_tuples, len(traced.output)
    snapshot = traced.snapshot
    rows: dict[str, float] = {}

    rows["protocol.result_us"] = replay.time(
        "replay.protocol.result", lambda: _result_frames(traced.output)
    )[1] / m / 1e3

    key_of = inputs.processor().shard_key_fn(inputs.shard_key)
    keys = [
        str(key_of(name, item))
        for name, items in inputs.streams.items() for item in items
    ]
    ring = HashRing([f"w{index}" for index in range(CLUSTER_WORKERS)])
    rows["ring.owner_us"] = replay.time(
        "replay.ring", lambda: [ring.owner(key) for key in keys]
    )[1] / n / 1e3
    routed = [
        entry["count"] for key, entry in snapshot.get("spans", {}).items()
        if key.endswith(":router.queue")
    ]
    rows["ring.skew"] = max(routed) / sum(routed) if routed else 0.0

    for row, span in (
        ("router.queue_wait_us", "router.queue"),
        ("router.forward_us", "router.forward"),
        ("router.wire_transit_us", "wire.transit"),
        ("worker.queue_wait_us", "worker.queue"),
        ("worker.reorder_wait_us", "worker.reorder"),
        ("worker.session_wait_us", "worker.session"),
        ("cluster.merge_egress_wait_us", "merge.egress"),
    ):
        rows[row] = _span_mean_us(traced, span)
    rows["router.retained_frames"] = float(traced.stats["retained_frames"])
    rows["cluster.merge_us"] = traced.merge_s * traced.speed * 1e6 / m
    e2e = [
        entry["e2e_ns"] for entry in snapshot.get("span_log", [])
        if entry.get("kind") == "cluster_span"
    ]
    rows["cluster.e2e_p50_us"] = median(e2e) * traced.speed / 1e3 if e2e else 0.0

    acked = traced.stats["recovery"]["checkpoints_acked"]
    rows["recovery.checkpoints_acked"] = float(acked)
    if workload.checkpoint_interval is not None:
        rows.update(_checkpoint_rows(inputs, replay))
    return rows


def _result_frames(output: list[StreamTuple]) -> None:
    decoder = protocol.FrameDecoder()
    for tick, offset in enumerate(range(0, len(output), RESULT_CHUNK)):
        records = [
            protocol.tuple_to_record(item)
            for item in output[offset:offset + RESULT_CHUNK]
        ]
        wire = protocol.encode_frame(protocol.result(0, tick, records))
        for frame in decoder.feed(wire):
            for record in frame["records"]:
                protocol.record_to_tuple(record)


def _checkpoint_rows(inputs: Inputs, replay: _Replays) -> dict[str, float]:
    """Checkpoint codec cost on a worker-mode session at the midpoint."""
    midpoint = inputs.until / 2
    session = inputs.processor().open_session(
        until=inputs.until, tick=inputs.tick, mode="fused"
    )
    for arrival, name, _seq, item in arrival_schedule(inputs):
        if arrival > midpoint:
            break
        session.push(name, item)
    session.advance(midpoint)
    state = session.checkpoint()
    (blob, size), encode_ns = replay.time(
        "replay.recovery.encode", lambda: encode_state(state)
    )
    decode_ns = replay.time(
        "replay.recovery.decode", lambda: decode_state(blob)
    )[1] if blob is not None else 0
    session.close()
    return {
        "recovery.checkpoint_encode_ms": encode_ns / 1e6,
        "recovery.checkpoint_decode_ms": decode_ns / 1e6,
        "recovery.checkpoint_bytes": float(size),
    }
