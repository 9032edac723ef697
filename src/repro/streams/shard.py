"""Sharded, batch-pipelined execution of Fjord dataflows.

The ESP pipeline is embarrassingly parallel across shard keys: once a
stream is partitioned on a key that the pipeline's stateful operators
group by (the spatial granule for Merge pipelines, the tag id for
Arbitrate pipelines), each partition cleans independently — Bleach-style
stream partitioning [Tian et al. 2016].

This module runs N independent :class:`~repro.streams.fjord.Fjord`
sub-pipelines — one per shard of the key space — over the same
punctuation ticks, via a pluggable backend:

- ``serial`` — shards run one after another in-process; the
  deterministic reference implementation.
- ``processes`` — forked worker processes, each sending its finished
  shard result back to the parent in one message (operators are
  CPU-bound pure Python, so this is the backend that actually buys
  parallel speed-up).

**Determinism guarantee.** Backends differ only in *where* shards run;
every shard's computation is a pure function of its input slice, and the
merger reassembles the output on the time axis: per punctuation tick,
the shards' emissions are concatenated in shard order and stable-sorted
by the shard key. The result is therefore bit-for-bit identical across
backends and shard counts. It is additionally bit-for-bit identical to
single-threaded Fjord execution whenever the sequential pipeline's
per-tick emission order is itself key-sorted — which holds for every
terminal ESP stage in this codebase (Arbitrate and the Merge operators
emit in sorted key order, and the windowed group-bys emit in
component-wise sorted key order). The differential harness in
``tests/test_shard_equivalence.py`` pins this equivalence.

**Correctness precondition.** Sharding is only sound when no stateful
operator needs to see tuples from two different shard keys (e.g. a
``HAVING`` clause comparing groups across keys); partition on the key
your pipeline's widest stateful operator groups by.
"""

from __future__ import annotations

import traceback
import zlib
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import OperatorError
from repro.streams.fjord import Fjord
from repro.streams.operators import SinkOp
from repro.streams.telemetry import (
    NULL_COLLECTOR,
    TelemetryCollector,
    default_telemetry,
    resolve_telemetry,
)
from repro.streams.tuples import StreamTuple

#: Supported execution backends, in increasing order of parallelism.
BACKENDS = ("serial", "processes")

#: A shard builder: given its slice of every source, wire a fresh
#: pipeline and return the Fjord plus the sink carrying its output.
ShardBuilder = Callable[
    [Mapping[str, "list[StreamTuple]"]], "tuple[Fjord, SinkOp]"
]

# -- execution defaults (wired from the CLI's --shards/--backend) --------------

_DEFAULT_EXECUTION: dict[str, Any] = {
    "shards": 1,
    "backend": "serial",
}


def set_default_execution(
    shards: int | None = None,
    backend: str | None = None,
) -> None:
    """Set process-wide defaults used when a run() omits execution options.

    The CLI's ``--shards``/``--backend`` flags call this so that every
    experiment's internal :meth:`ESPProcessor.run` picks them up
    without each experiment threading the options through.
    """
    if shards is not None:
        _DEFAULT_EXECUTION["shards"] = _check_shards(shards)
    if backend is not None:
        _DEFAULT_EXECUTION["backend"] = _check_backend(backend)


def default_execution() -> tuple[int, str]:
    """The current process-wide (shards, backend) defaults."""
    return _DEFAULT_EXECUTION["shards"], _DEFAULT_EXECUTION["backend"]


def _reject_execution(option: str, value: Any, message: str) -> OperatorError:
    """The error for a rejected execution option, for the caller to raise.

    Also records the rejection as a ``validation_error`` trace event
    on the process-wide default collector, so post-mortem trace logs
    show rejected CLI/API execution options alongside the run.
    """
    default_telemetry().event(
        "validation_error", option=option, value=str(value)
    )
    return OperatorError(message)


def _check_shards(shards: Any) -> int:
    count = int(shards)
    if count < 1:
        raise _reject_execution(
            "shards", shards, f"shards must be >= 1, got {shards}"
        )
    return count


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise _reject_execution(
            "backend",
            backend,
            f"unknown backend {backend!r}; expected one of {BACKENDS}",
        )
    return backend


def resolve_execution(
    shards: int | None, backend: str | None
) -> tuple[int, str]:
    """Fill unset execution options from the process-wide defaults."""
    default_shards, default_backend = default_execution()
    return (
        default_shards if shards is None else _check_shards(shards),
        default_backend if backend is None else _check_backend(backend),
    )


# -- partitioning --------------------------------------------------------------


def shard_of(key: Any, shards: int) -> int:
    """Deterministically map a shard key to a shard index.

    Uses CRC-32 of the key's string form rather than :func:`hash` so the
    assignment is stable across processes and interpreter runs (Python
    string hashing is salted per process).
    """
    return zlib.crc32(str(key).encode("utf-8")) % shards


def partition_sources(
    sources: Mapping[str, Sequence[StreamTuple]],
    key: "str | Callable[[str, StreamTuple], Any]",
    shards: int,
) -> list[dict[str, list[StreamTuple]]]:
    """Split every source's tuples into per-shard slices.

    Args:
        sources: Source name → timestamp-sorted tuples.
        key: Shard key — a field name read off each tuple, or a callable
            ``key(source_name, tuple)`` (e.g. a registry lookup that maps
            a device's whole stream to its spatial granule).
        shards: Number of shards.

    Returns:
        One mapping per shard. Every shard mapping contains *every*
        source name (possibly with an empty slice) so builders can wire
        the same graph regardless of which keys landed where; slices
        preserve the source's tuple order.
    """
    if shards < 1:
        raise OperatorError(f"shards must be >= 1, got {shards}")
    key_fn = (
        key
        if callable(key)
        else (lambda source, item, _field=key: item.get(_field))
    )
    out: list[dict[str, list[StreamTuple]]] = [
        {name: [] for name in sources} for _ in range(shards)
    ]
    for name, items in sources.items():
        slices = [out[index][name] for index in range(shards)]
        for item in items:
            slices[shard_of(key_fn(name, item), shards)].append(item)
    return out


# -- per-shard execution -------------------------------------------------------


class ShardResult:
    """One shard's run: per-tick output, flow counters, telemetry.

    ``telemetry`` is the shard collector's snapshot dict (see
    :func:`repro.streams.telemetry.empty_snapshot`), or ``None`` when
    the run was uninstrumented. Snapshots are plain data, so they cross
    the worker-process pipe unchanged.
    """

    __slots__ = ("per_tick", "stats", "telemetry")

    def __init__(
        self,
        per_tick: list[list[StreamTuple]],
        stats: dict[str, tuple[int, int]],
        telemetry: "dict[str, Any] | None" = None,
    ):
        self.per_tick = per_tick
        self.stats = stats
        self.telemetry = telemetry


def _run_shard(
    build: Callable[[], "tuple[Fjord, SinkOp]"],
    ticks: Sequence[float],
    telemetry: TelemetryCollector = NULL_COLLECTOR,
) -> ShardResult:
    """Build and run one shard, attributing sink output to its tick.

    Each shard gets a *fresh* collector (``telemetry.spawn()``) so that
    concurrent shards never contend on shared accumulators; the parent
    absorbs the per-shard snapshots afterwards, in shard order.
    """
    child = telemetry.spawn() if telemetry.enabled else NULL_COLLECTOR
    fjord, sink = build()
    per_tick: list[list[StreamTuple]] = []
    mark = 0
    for _now in fjord.run_stepped(ticks, telemetry=child):
        results = sink.results
        per_tick.append(results[mark:])
        mark = len(results)
    return ShardResult(
        per_tick,
        fjord.stats(),
        child.snapshot() if child.enabled else None,
    )


def _run_serial(builders, ticks, telemetry) -> list[ShardResult]:
    return [_run_shard(build, ticks, telemetry) for build in builders]


def _process_worker(connection, build, ticks, telemetry) -> None:
    """Forked worker: run one shard, send the finished result back.

    Transport protocol (one message): ``("done", (per_tick, stats,
    telemetry_snapshot))`` — or ``("error", formatted_traceback)``.
    """
    try:
        result = _run_shard(build, ticks, telemetry)
        connection.send(
            ("done", (result.per_tick, result.stats, result.telemetry))
        )
    except BaseException:
        try:
            connection.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        connection.close()


def _run_processes(builders, ticks, telemetry) -> list[ShardResult]:
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise OperatorError(
            "the 'processes' backend needs the fork start method, which "
            "this platform does not provide; pipelines hold unpicklable "
            "operator closures, so use backend='serial'"
        )
    context = multiprocessing.get_context("fork")
    workers = []
    for build in builders:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_process_worker,
            args=(sender, build, ticks, telemetry),
        )
        process.start()
        sender.close()
        workers.append((process, receiver))
    results: list[ShardResult] = []
    failure: str | None = None
    for process, receiver in workers:
        try:
            kind, payload = receiver.recv()
            if kind == "done":
                results.append(ShardResult(*payload))
            else:  # "error"
                failure = failure or payload
        except EOFError:
            failure = failure or (
                "shard worker exited without reporting a result"
            )
        finally:
            receiver.close()
    for process, _receiver in workers:
        process.join()
    if failure is not None:
        raise OperatorError(f"shard worker failed:\n{failure}")
    return results


def run_shard_jobs(
    builders: Sequence[Callable[[], "tuple[Fjord, SinkOp]"]],
    ticks: Sequence[float],
    backend: str = "serial",
    telemetry: TelemetryCollector | None = None,
) -> list[ShardResult]:
    """Run pre-partitioned shard builders on the chosen backend.

    The low-level entry point: callers that partition their own inputs
    (e.g. :class:`~repro.core.pipeline.ESPProcessor`) construct one
    zero-argument builder per shard and merge the results themselves
    with :func:`merge_outputs` / :func:`merge_stats`.

    When telemetry is enabled, every shard runs under a freshly spawned
    collector and the per-shard snapshots are absorbed back into
    ``telemetry`` *in shard order* — on every backend — so the merged
    metrics are deterministic and their tuple totals equal a sequential
    run's (the same argument as :func:`merge_stats`).
    """
    collector = resolve_telemetry(telemetry)
    _check_backend(backend)
    ticks = list(ticks)
    if backend == "processes":
        results = _run_processes(builders, ticks, collector)
    else:
        results = _run_serial(builders, ticks, collector)
    if collector.enabled:
        for index, result in enumerate(results):
            if result.telemetry is not None:
                collector.absorb(result.telemetry, shard=index)
    return results


# -- merging -------------------------------------------------------------------


def merge_outputs(
    results: Sequence[ShardResult],
    order_key: Callable[[StreamTuple], Any],
) -> list[StreamTuple]:
    """Deterministically merge shard outputs on the time axis.

    Per tick: concatenate the shards' emissions in shard order, then
    stable-sort by ``order_key``. Tuples sharing an ``order_key`` value
    live in a single shard (it is the shard key), so the stable sort
    preserves their pipeline emission order while fixing the cross-shard
    interleaving — the same interleaving a key-sorted sequential pipeline
    produces.
    """
    n_ticks = max((len(result.per_tick) for result in results), default=0)
    out: list[StreamTuple] = []
    for tick_index in range(n_ticks):
        bucket: list[StreamTuple] = []
        for result in results:
            if tick_index < len(result.per_tick):
                bucket.extend(result.per_tick[tick_index])
        bucket.sort(key=order_key)
        out.extend(bucket)
    return out


def merge_stats(
    results: Sequence[ShardResult],
) -> dict[str, tuple[int, int]]:
    """Sum per-node flow counters across shards.

    Shards run structurally identical graphs over disjoint key slices,
    so the per-node sums equal the sequential pipeline's counters.
    """
    totals: dict[str, tuple[int, int]] = {}
    for result in results:
        for name, (tuples_in, tuples_out) in result.stats.items():
            seen_in, seen_out = totals.get(name, (0, 0))
            totals[name] = (seen_in + tuples_in, seen_out + tuples_out)
    return totals


# -- the high-level engine -----------------------------------------------------


class ShardedRun:
    """The result of one :func:`run_sharded` execution.

    Attributes:
        output: The merged output stream (see the module docstring's
            determinism guarantee).
        stats: Per-node flow counters, summed across shards.
        shards: Shard count the run used.
        backend: Backend the run used.
        tuples_per_shard: Source tuples assigned to each shard — the
            skew diagnostic (an empty shard costs only its punctuation
            sweeps).
    """

    def __init__(
        self,
        output: list[StreamTuple],
        stats: dict[str, tuple[int, int]],
        shards: int,
        backend: str,
        tuples_per_shard: list[int],
    ):
        self.output = output
        self.stats = stats
        self.shards = shards
        self.backend = backend
        self.tuples_per_shard = tuples_per_shard

    def __repr__(self):
        return (
            f"ShardedRun({len(self.output)} tuples, shards={self.shards}, "
            f"backend={self.backend!r}, per_shard={self.tuples_per_shard})"
        )


def run_sharded(
    sources: Mapping[str, Sequence[StreamTuple]],
    build: ShardBuilder,
    ticks: Iterable[float],
    key: "str | Callable[[str, StreamTuple], Any]" = "spatial_granule",
    shards: int = 2,
    backend: str = "serial",
    order_key: Callable[[StreamTuple], Any] | None = None,
    telemetry: TelemetryCollector | None = None,
) -> ShardedRun:
    """Partition, execute and merge one sharded dataflow run.

    Args:
        sources: Source name → timestamp-sorted tuples (fully recorded;
            sharding replays each slice through a fresh pipeline).
        build: Called once per shard with that shard's source slices;
            must wire a *fresh* Fjord (operators are stateful) and return
            ``(fjord, sink)``.
        ticks: Punctuation times, shared by every shard.
        key: Shard key — field name or ``key(source_name, tuple)``. A
            callable that stands for a field says so in a ``shard_key``
            attribute (as :meth:`ESPProcessor.shard_key_fn`'s do); the
            ``shard_partition`` event records the name, or ``None``.
        shards: Number of independent sub-pipelines.
        backend: One of :data:`BACKENDS`.
        order_key: Override for the merge order; defaults to the string
            form of the shard key read off each output tuple.
        telemetry: Instrumentation sink; ``None`` uses the process-wide
            default. The partition and the final merge are recorded as
            ``shard_partition`` / ``shard_merge`` trace events, and
            per-shard collector snapshots are absorbed in shard order.

    Returns:
        A :class:`ShardedRun`.
    """
    collector = resolve_telemetry(telemetry)
    shard_sources = partition_sources(sources, key, shards)
    if order_key is None:
        if callable(key):
            raise OperatorError(
                "a callable shard key needs an explicit order_key for the "
                "merge (output tuples have no source name to apply it to)"
            )
        order_key = lambda item, _field=key: str(item.get(_field))  # noqa: E731
    tuples_per_shard = [
        sum(len(items) for items in slices.values())
        for slices in shard_sources
    ]
    if collector.enabled:
        collector.event(
            "shard_partition",
            shards=shards,
            backend=backend,
            shard_key=(
                key if isinstance(key, str) else getattr(key, "shard_key", None)
            ),
            per_shard=tuples_per_shard,
        )
    builders = [
        (lambda slices=slices: build(slices)) for slices in shard_sources
    ]
    results = run_shard_jobs(
        builders,
        list(ticks),
        backend=backend,
        telemetry=collector,
    )
    output = merge_outputs(results, order_key)
    if collector.enabled:
        collector.event("shard_merge", shards=shards, tuples=len(output))
    return ShardedRun(
        output=output,
        stats=merge_stats(results),
        shards=shards,
        backend=backend,
        tuples_per_shard=tuples_per_shard,
    )
