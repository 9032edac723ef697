"""Runtime telemetry: per-operator metrics, gauges and trace events.

Production stream cleaners instrument every processing step; this module
is that layer for the ESP engine. It answers, for any run, the questions
the end-result metrics (detection accuracy, epoch yield) cannot: where
did the time go, where do tuples pile up, which stage collapses the data
volume, and what did the engine *do* (in event order) while doing it.

Three design rules keep the instrumentation honest:

- **Zero-dependency and low-overhead.** The pluggable
  :class:`TelemetryCollector` base class is itself the no-op default;
  the executor consults a single ``enabled`` flag and performs no clock
  reads, allocations or method calls on the uninstrumented hot path.
  The overhead budget (≤ 5 % on the sharding benchmark's throughput) is
  pinned by ``benchmarks/test_bench_telemetry.py``.
- **Integer arithmetic everywhere.** Busy time is accumulated in
  nanoseconds (``time.perf_counter_ns``) and histograms hold integer
  bucket counts, so merging per-shard snapshots is *associative* —
  float summation order can never make two merge trees disagree. The
  property harness in ``tests/test_telemetry.py`` pins associativity.
- **Deterministic trace events.** Events carry simulation time, node
  names and tuple counts — never wall-clock readings — so a recorded
  event log is a pure function of the input data and can be pinned as a
  golden artifact (``tests/golden/rfid_shelf_trace_events.jsonl``).
  Wall-clock durations live only in the histograms and busy counters.

**Kernel independence.** The executor accounts every drain by the
lengths of its input run and output batch, and a run is the same
maximal same-port run whichever of an operator's two kernels (row or
column, see :data:`repro.streams.fjord.COLUMN_MIN_ROWS`) it is handed
to — so per-operator tuple totals, batch counts, batch-size histograms,
punctuation counts and trace events do not depend on the choice; only
wall-clock busy-ns does. Node names are the built names everywhere,
single-node and cluster. The columnar-accounting test in
``tests/test_telemetry.py`` pins this exactness.

Snapshots are plain JSON-friendly dicts (see :func:`empty_snapshot` for
the schema), which is also what crosses the process boundary from forked
shard workers back to the parent's collector.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ReproError

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Histogram",
    "InMemoryCollector",
    "IngestTrace",
    "LATENCY_BUCKETS_NS",
    "NULL_COLLECTOR",
    "SPAN_PHASES",
    "TelemetryCollector",
    "default_telemetry",
    "empty_snapshot",
    "format_table",
    "merge_snapshots",
    "resolve_telemetry",
    "set_default_telemetry",
]

#: Fixed latency bucket upper edges, in nanoseconds: 1-2-5 decades from
#: 1 µs to 10 s. Fixed (rather than adaptive) edges are what make
#: per-shard histogram merges exact — every collector bins identically.
LATENCY_BUCKETS_NS: tuple[int, ...] = tuple(
    mantissa * 10**exponent
    for exponent in range(3, 10)  # 1 µs .. 10 s
    for mantissa in (1, 2, 5)
)

#: Fixed batch-size bucket upper edges: powers of two up to 64 Ki tuples.
BATCH_SIZE_BUCKETS: tuple[int, ...] = tuple(2**i for i in range(17))


class Histogram:
    """A fixed-bucket histogram with exact, associative merges.

    Bucket ``i`` counts values ``v`` with ``edges[i-1] < v <= edges[i]``
    (the first bucket has no lower bound); one extra overflow bucket
    counts values above the last edge. Only integer counts are stored,
    so merging histograms with identical edges is exact.

    Args:
        edges: Ascending bucket upper edges.
        counts: Optional pre-existing counts (``len(edges) + 1`` entries,
            the last being the overflow bucket).
    """

    __slots__ = ("edges", "counts", "total")

    def __init__(
        self,
        edges: Sequence[int],
        counts: Sequence[int] | None = None,
    ):
        self.edges = tuple(edges)
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ReproError(f"histogram edges must ascend: {edges}")
        if counts is None:
            self.counts = [0] * (len(self.edges) + 1)
        else:
            if len(counts) != len(self.edges) + 1:
                raise ReproError(
                    f"expected {len(self.edges) + 1} counts "
                    f"(one per bucket plus overflow), got {len(counts)}"
                )
            self.counts = [int(c) for c in counts]
        self.total = sum(self.counts)

    def record(self, value: float) -> None:
        """Count one observation."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s counts into this histogram (same edges only)."""
        if other.edges != self.edges:
            raise ReproError(
                "cannot merge histograms with different bucket edges"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total

    def percentile(self, fraction: float) -> float:
        """Upper edge of the bucket containing the given quantile.

        Returns 0 for an empty histogram and ``inf`` when the quantile
        falls in the overflow bucket — a sentinel loud enough that an
        undersized last edge cannot be mistaken for a measurement.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ReproError(f"fraction must be in [0, 1], got {fraction}")
        if self.total == 0:
            return 0.0
        rank = fraction * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if index == len(self.edges):
                    return float("inf")
                return float(self.edges[index])
        return float("inf")  # pragma: no cover - loop always returns

    def __repr__(self) -> str:
        return f"Histogram(total={self.total}, buckets={len(self.counts)})"


# -- ingest-to-emit span correlation ------------------------------------------

#: The contiguous wall-clock phases an ingested tuple passes through on
#: its way from wire arrival to cleaned emission. Phases share their
#: boundary instants, so per-phase durations sum *exactly* (integer
#: nanoseconds) to the end-to-end figure.
SPAN_PHASES: tuple[str, ...] = ("queue", "reorder", "session", "sweep")


class IngestTrace:
    """Correlation state for one ingested tuple's wire-to-emit journey.

    Created by the ingestion gateway when it parses a data frame (the
    *ingest* instant), stamped at every later phase boundary, and
    finalized by the Fjord session once the punctuation sweep that
    consumed the tuple completes. The four phases are contiguous:

    - ``queue``:   frame parsed → taken from the bounded ingress queue
    - ``reorder``: taken → released by the reorder buffer in order
    - ``session``: released/pushed → injected at its punctuation tick
    - ``sweep``:   injected → the tick's sweep (and thus every emission
      it produced) completed

    All stamps are monotonic :func:`clock_ns` readings; only durations
    ever leave this object, and they land in span histograms and the
    span log — never in the deterministic trace-event stream.
    """

    __slots__ = (
        "ingest_id", "source", "sim_ts",
        "t_ingest", "t_queued", "t_released", "t_injected",
        "ctx",
    )

    def __init__(self, ingest_id: int, source: str, sim_ts: float):
        self.ingest_id = ingest_id
        self.source = source
        self.sim_ts = sim_ts
        self.t_ingest = time.perf_counter_ns()
        self.t_queued = self.t_ingest
        self.t_released = self.t_ingest
        self.t_injected = self.t_ingest
        #: Cluster trace context: the positional ``[id, recv, acq, fwd,
        #: replayed]`` cells a tracing router stamped beside the
        #: forwarded row (``None`` off-cluster). When set, the owning
        #: session hands the finished trace to its ``span_sink`` so the
        #: hop record can ship back upstream.
        self.ctx: "list[int] | None" = None


# -- snapshot schema -----------------------------------------------------------


def empty_snapshot() -> dict[str, Any]:
    """The identity element of :func:`merge_snapshots`.

    Schema::

        {
          "operators": {name: {
              "tuples_in", "tuples_out", "batches", "punctuations",
              "busy_ns",                    # ints, summed on merge
              "latency_ns", "batch_sizes",  # histogram counts, summed
              "max_queue_depth",            # int, max'ed on merge
          }},
          "sources": {name: {
              "tuples",                     # int, summed
              "max_watermark_lag",          # float seconds, max'ed
          }},
          "counters": {"ticks", "runs", "shards_merged"},  # ints, summed
          "events": [ {"seq", "kind", ...}, ... ],         # concatenated
          "spans": {name: {
              "count", "total_ns",          # ints, summed on merge
              "latency_ns",                 # histogram counts, summed
          }},
          "span_log": [ {"seq", "kind": "span", ...}, ... ],  # concat
        }
    """
    return {
        "operators": {},
        "sources": {},
        "counters": {},
        "events": [],
        "spans": {},
        "span_log": [],
    }


def _empty_operator_entry() -> dict[str, Any]:
    return {
        "tuples_in": 0,
        "tuples_out": 0,
        "batches": 0,
        "punctuations": 0,
        "busy_ns": 0,
        "latency_ns": [0] * (len(LATENCY_BUCKETS_NS) + 1),
        "batch_sizes": [0] * (len(BATCH_SIZE_BUCKETS) + 1),
        "max_queue_depth": 0,
    }


def _empty_source_entry() -> dict[str, Any]:
    return {"tuples": 0, "max_watermark_lag": 0.0}


def _empty_span_entry() -> dict[str, Any]:
    return {
        "count": 0,
        "total_ns": 0,
        "latency_ns": [0] * (len(LATENCY_BUCKETS_NS) + 1),
    }


def _entry(section: dict[str, Any], name: str, make) -> dict[str, Any]:
    """``section[name]``, created with ``make()`` on first use."""
    entry = section.get(name)
    if entry is None:
        entry = section[name] = make()
    return entry


_SUMMED_OP_FIELDS = (
    "tuples_in", "tuples_out", "batches", "punctuations", "busy_ns",
)


def _add_counts(target: list[int], counts: Sequence[int]) -> None:
    for index, count in enumerate(counts):
        target[index] += count


def _merge_into(
    out: dict[str, Any],
    snapshot: Mapping[str, Any],
    shard: int | None = None,
    node: str | None = None,
) -> None:
    """Fold ``snapshot`` into ``out`` in place, section by section.

    The one merge: :func:`merge_snapshots` folds onto a fresh
    :func:`empty_snapshot`, :meth:`InMemoryCollector.absorb` onto the
    collector's live state. Counters and histogram buckets are summed,
    gauges (queue depth, watermark lag) are max'ed, and the event and
    span logs are appended (as copies) with ``seq`` continuing ``out``'s
    numbering. ``shard`` / ``node`` apply the tagging
    :meth:`InMemoryCollector.absorb` documents.
    """
    dotted, coloned = ("", "") if node is None else (f"{node}.", f"{node}:")
    for name, entry in snapshot.get("operators", {}).items():
        target = _entry(out["operators"], name, _empty_operator_entry)
        for field in _SUMMED_OP_FIELDS:
            target[field] += entry[field]
        _add_counts(target["latency_ns"], entry["latency_ns"])
        _add_counts(target["batch_sizes"], entry["batch_sizes"])
        if entry["max_queue_depth"] > target["max_queue_depth"]:
            target["max_queue_depth"] = entry["max_queue_depth"]
    for name, entry in snapshot.get("sources", {}).items():
        target = _entry(out["sources"], coloned + name, _empty_source_entry)
        target["tuples"] += entry["tuples"]
        if entry["max_watermark_lag"] > target["max_watermark_lag"]:
            target["max_watermark_lag"] = entry["max_watermark_lag"]
    counters = out["counters"]
    for key, value in snapshot.get("counters", {}).items():
        counters[dotted + key] = counters.get(dotted + key, 0) + value
    for name, entry in snapshot.get("spans", {}).items():
        target = _entry(out["spans"], coloned + name, _empty_span_entry)
        target["count"] += entry["count"]
        target["total_ns"] += entry["total_ns"]
        _add_counts(target["latency_ns"], entry["latency_ns"])
    span_tags = {} if node is None else {"node": node}
    event_tags = span_tags if shard is None else {"shard": shard, **span_tags}
    for log, tags in (("events", event_tags), ("span_log", span_tags)):
        records = out[log]
        for record in snapshot.get(log, []):
            record = {**record, **tags}
            record["seq"] = len(records)
            records.append(record)


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict[str, Any]:
    """Merge collector snapshots into one (associative, pure).

    Counters and histogram buckets are summed, gauges (queue depth,
    watermark lag) are max'ed, and event lists are concatenated in
    argument order and re-sequenced. Because every summed quantity is an
    integer, any merge tree over the same snapshots yields the identical
    result — the property the sharded engine's deterministic aggregation
    relies on.
    """
    out = empty_snapshot()
    for snapshot in snapshots:
        _merge_into(out, snapshot)
    return out


# -- collectors ----------------------------------------------------------------


class TelemetryCollector:
    """Pluggable instrumentation sink; this base class is the no-op.

    The executor calls these hooks on every batch drain, punctuation
    sweep and tick boundary — but only after checking :attr:`enabled`,
    so the base class's empty bodies are never on the hot path. Custom
    collectors (exporters to a metrics daemon, samplers, ring buffers)
    subclass this and set ``enabled = True``.
    """

    #: When False the executor skips clock reads and sampling entirely.
    enabled: bool = False

    def record_batch(
        self, name: str, n_in: int, n_out: int, elapsed_ns: int
    ) -> None:
        """One ``on_batch`` call on operator ``name`` finished."""

    def record_punctuation(
        self, name: str, n_out: int, elapsed_ns: int
    ) -> None:
        """One ``on_time`` call on operator ``name`` finished."""

    def sample_queue_depth(self, name: str, depth: int) -> None:
        """Pending-input depth of ``name`` observed at a tick boundary."""

    def sample_watermark(self, source: str, lag: float) -> None:
        """Source's watermark lag (tick time minus newest injected
        timestamp) observed at a tick boundary."""

    def count_source(self, source: str, n: int = 1) -> None:
        """``n`` tuples were injected from ``source``."""

    def count_tick(self) -> None:
        """One punctuation sweep completed."""

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to the free-form counter ``key``.

        Free-form counters land in the snapshot's ``"counters"`` mapping
        next to the executor's built-ins (``ticks``, ...) and merge by
        summation like everything else there. Subsystems outside the
        executor (the ingestion gateway's drop accounting, for example)
        use namespaced keys such as ``net.<source>.dropped``.
        """

    def event(self, kind: str, **fields: Any) -> None:
        """Append a structured trace event (deterministic fields only)."""

    def record_span(self, name: str, duration_ns: int) -> None:
        """One wall-clock span of ``duration_ns`` completed under
        ``name`` (e.g. ``ingest.queue``). Spans aggregate into per-name
        latency histograms plus exact count/total accumulators, so
        per-phase totals sum to the end-to-end total by construction."""

    def span(self, **fields: Any) -> None:
        """Append one entry to the span log.

        Span-log entries carry wall-clock durations, so they live in a
        channel separate from the deterministic trace events; writers
        stamp them ``kind="span"`` (or ``"span_dropped"`` for tuples
        shed before emission) for JSONL interchange via
        :mod:`repro.streams.traceio`.
        """

    def spawn(self) -> "TelemetryCollector":
        """A fresh same-kind collector for an isolated unit of work
        (one shard); its snapshot is later passed to :meth:`absorb`."""
        return self

    def absorb(
        self,
        snapshot: Mapping[str, Any],
        shard: int | None = None,
        node: str | None = None,
    ) -> None:
        """Merge a spawned collector's snapshot back into this one.

        ``shard`` tags the snapshot's events with a shard index (the
        batch engine); ``node`` prefixes its counters, sources and span
        names with a worker label (the cluster rollup) so per-worker
        accounting stays distinguishable after the merge while operator
        metrics still aggregate into one cluster-wide stage rollup.
        """

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of everything collected (see
        :func:`empty_snapshot` for the schema)."""
        return empty_snapshot()


#: The shared no-op collector (stateless, so one instance serves all).
NULL_COLLECTOR = TelemetryCollector()


class InMemoryCollector(TelemetryCollector):
    """The standard collector: accumulates everything in memory.

    One instance may span several runs (the CLI reuses one collector
    across an experiment's internal ``ESPProcessor.run`` calls); use
    :meth:`snapshot` to read the accumulated state at any point.

    The live state *is* a snapshot-schema dict (see
    :func:`empty_snapshot`): the record hooks bump its entries,
    :meth:`absorb` merges into it in place and :meth:`snapshot` copies
    it — there is no second representation to convert to or from.
    """

    enabled = True

    def __init__(self) -> None:
        self._state = empty_snapshot()

    # -- executor hooks --------------------------------------------------------

    def _op(self, name: str) -> dict[str, Any]:
        return _entry(self._state["operators"], name, _empty_operator_entry)

    def record_batch(
        self, name: str, n_in: int, n_out: int, elapsed_ns: int
    ) -> None:
        entry = self._op(name)
        entry["tuples_in"] += n_in
        entry["tuples_out"] += n_out
        entry["batches"] += 1
        entry["busy_ns"] += elapsed_ns
        entry["latency_ns"][bisect_left(LATENCY_BUCKETS_NS, elapsed_ns)] += 1
        entry["batch_sizes"][bisect_left(BATCH_SIZE_BUCKETS, n_in)] += 1

    def record_punctuation(
        self, name: str, n_out: int, elapsed_ns: int
    ) -> None:
        entry = self._op(name)
        entry["tuples_out"] += n_out
        entry["punctuations"] += 1
        entry["busy_ns"] += elapsed_ns
        entry["latency_ns"][bisect_left(LATENCY_BUCKETS_NS, elapsed_ns)] += 1

    def sample_queue_depth(self, name: str, depth: int) -> None:
        entry = self._op(name)
        if depth > entry["max_queue_depth"]:
            entry["max_queue_depth"] = depth

    def _source(self, source: str) -> dict[str, Any]:
        return _entry(self._state["sources"], source, _empty_source_entry)

    def sample_watermark(self, source: str, lag: float) -> None:
        entry = self._source(source)
        if lag > entry["max_watermark_lag"]:
            entry["max_watermark_lag"] = lag

    def count_source(self, source: str, n: int = 1) -> None:
        self._source(source)["tuples"] += n

    def count_tick(self) -> None:
        self.count("ticks")

    def count(self, key: str, n: int = 1) -> None:
        counters = self._state["counters"]
        counters[key] = counters.get(key, 0) + n

    def event(self, kind: str, **fields: Any) -> None:
        events = self._state["events"]
        events.append({"seq": len(events), "kind": kind, **fields})

    def record_span(self, name: str, duration_ns: int) -> None:
        entry = _entry(self._state["spans"], name, _empty_span_entry)
        entry["count"] += 1
        entry["total_ns"] += duration_ns
        entry["latency_ns"][bisect_left(LATENCY_BUCKETS_NS, duration_ns)] += 1

    def span(self, **fields: Any) -> None:
        span_log = self._state["span_log"]
        record = {"seq": len(span_log), **fields}
        record.setdefault("kind", "span")
        span_log.append(record)

    # -- aggregation -----------------------------------------------------------

    def spawn(self) -> "InMemoryCollector":
        return InMemoryCollector()

    def absorb(
        self,
        snapshot: Mapping[str, Any],
        shard: int | None = None,
        node: str | None = None,
    ) -> None:
        """Merge a shard's snapshot in place, tagging its events with
        the shard.

        Shards are absorbed in shard order by the engine, so the merged
        event log — like everything else here — depends only on the data
        and the shard count, never on the backend. The result equals
        :func:`merge_snapshots` of this collector's snapshot and the
        tagged one, without copying what was already collected.

        ``node`` labels a cluster worker's snapshot: counters become
        ``<node>.<key>``, source entries and span names ``<node>:<name>``
        (so one rollup shows every worker's gateway accounting and span
        histograms side by side — the ops plane renders the prefix as a
        ``worker`` label), events and span-log entries gain a ``node``
        field, and operator metrics merge unprefixed — the cluster-wide
        stage rollup.
        """
        _merge_into(self._state, snapshot, shard, node)

    def snapshot(self) -> dict[str, Any]:
        return merge_snapshots(self._state)


# -- timing helper -------------------------------------------------------------

#: Monotonic nanosecond clock used by the executor's timed sections.
clock_ns = time.perf_counter_ns


# -- process-wide default ------------------------------------------------------

_DEFAULT: TelemetryCollector = NULL_COLLECTOR


def set_default_telemetry(
    collector: TelemetryCollector | None,
) -> TelemetryCollector:
    """Install the process-wide default collector; returns the previous.

    The CLI's ``--stats``/``--trace-out`` flags install an
    :class:`InMemoryCollector` here so that every experiment's internal
    ``ESPProcessor.run`` reports into it without each experiment
    threading a collector through. Pass ``None`` to restore the no-op.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = NULL_COLLECTOR if collector is None else collector
    return previous


def default_telemetry() -> TelemetryCollector:
    """The current process-wide default collector."""
    return _DEFAULT


def resolve_telemetry(
    collector: TelemetryCollector | None,
) -> TelemetryCollector:
    """An explicit collector, or the process-wide default when None."""
    return _DEFAULT if collector is None else collector


# -- presentation --------------------------------------------------------------


def _format_row(columns: Iterable[Any], widths: Sequence[int]) -> str:
    cells = []
    for index, (column, width) in enumerate(zip(columns, widths)):
        text = str(column)
        cells.append(text.ljust(width) if index == 0 else text.rjust(width))
    return "  ".join(cells).rstrip()


def _percentile_us(counts: Sequence[int], fraction: float) -> str:
    hist = Histogram(LATENCY_BUCKETS_NS, counts)
    value = hist.percentile(fraction)
    if value == 0.0:
        return "-"
    if value == float("inf"):
        return ">10s"
    return f"{value / 1e3:g}"


def format_table(
    snapshot: Mapping[str, Any],
    rollups: Mapping[str, Mapping[str, Any]] | None = None,
    storage: Mapping[str, int] | None = None,
) -> str:
    """Render a snapshot as the ``--stats`` end-of-run table.

    One row per operator (sorted by busy time, busiest first) with the
    tuple/batch counters, busy milliseconds, p50/p95 per-call latency
    (µs, upper bucket edges) and the max pending-queue depth; then the
    source watermark gauges; then, when given, per-stage rollups and
    the typed-column storage decisions
    (:func:`repro.streams.typedcols.storage_stats`).

    ``storage`` rides on the rendered table only: the snapshot itself
    must stay free of storage counters, because snapshots and trace
    events are pinned byte-identical across both kernels and across
    the numpy/no-numpy CI legs — typed storage is an
    environment-dependent detail that may never leak into them.
    """
    lines: list[str] = []
    header = (
        "operator", "tuples_in", "tuples_out", "batches",
        "busy_ms", "p50_us", "p95_us", "max_queue",
    )
    operators = snapshot.get("operators", {})
    rows = []
    for name, entry in sorted(
        operators.items(), key=lambda kv: (-kv[1]["busy_ns"], kv[0])
    ):
        rows.append((
            name,
            entry["tuples_in"],
            entry["tuples_out"],
            entry["batches"],
            f"{entry['busy_ns'] / 1e6:.2f}",
            _percentile_us(entry["latency_ns"], 0.50),
            _percentile_us(entry["latency_ns"], 0.95),
            entry["max_queue_depth"],
        ))
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows))
        if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines.append(_format_row(header, widths))
    lines.append(_format_row(("-" * w for w in widths), widths))
    for row in rows:
        lines.append(_format_row(row, widths))
    sources = snapshot.get("sources", {})
    if sources:
        lines.append("")
        lines.append("source            tuples  max_watermark_lag_s")
        for name, entry in sorted(sources.items()):
            lines.append(
                f"{name:<16s}  {entry['tuples']:>6d}"
                f"  {entry['max_watermark_lag']:>19.3f}"
            )
    spans = snapshot.get("spans", {})
    if spans:
        lines.append("")
        lines.append(
            "span                count    total_ms  p50_us  p95_us"
        )
        for name, entry in sorted(spans.items()):
            lines.append(
                f"{name:<18s}  {entry['count']:>5d}"
                f"  {entry['total_ns'] / 1e6:>10.2f}"
                f"  {_percentile_us(entry['latency_ns'], 0.50):>6s}"
                f"  {_percentile_us(entry['latency_ns'], 0.95):>6s}"
            )
    if rollups:
        lines.append("")
        lines.append(
            "stage        tuples_in  tuples_out  batches     busy_ms"
        )
        for stage, entry in rollups.items():
            lines.append(
                f"{stage:<11s}  {entry['tuples_in']:>9d}"
                f"  {entry['tuples_out']:>10d}  {entry['batches']:>7d}"
                f"  {entry['busy_ns'] / 1e6:>10.2f}"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("")
        lines.append(
            "counters: " + "  ".join(
                f"{key}={value}" for key, value in sorted(counters.items())
            )
        )
    if storage:
        lines.append("")
        lines.append(
            "typed columns: " + "  ".join(
                f"{key}={value}" for key, value in sorted(storage.items())
            )
        )
    return "\n".join(lines)
