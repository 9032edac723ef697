"""Fjord-style pipelined executor.

A :class:`Fjord` wires sources, operators and sinks into a DAG and pushes
tuples plus time punctuations through it in topological order, following
the execution style of the Fjord architecture the paper builds on [22]:

- data tuples flow downstream as soon as they are produced (no batching
  across operators);
- at each punctuation time ``t``, nodes are visited in topological order,
  so a downstream operator sees everything its upstreams emitted *at* ``t``
  before its own windows slide — this is what lets Arbitrate consume
  Smooth's time-``t`` output within the same instant, as the paper's
  pipeline diagram (Figure 4) requires.

The executor is deliberately single-threaded and deterministic: the
reproduction's experiments must be bit-for-bit repeatable. Parallelism
lives one level up, in :mod:`repro.streams.shard`, which runs several
independent Fjords (one per shard of the key space) and merges their
outputs deterministically — see that module for the determinism
guarantee.

Tuples are moved between operators in batches: the list a kernel returns
is queued whole at each consumer, and a node's pending input is drained
with one :meth:`~repro.streams.operators.Operator.on_batch` call per run
of same-port entries rather than one Python call per tuple, which is
where most of the executor's time used to go.

There is one execution path. Operators whose work is per-column (a
filter with a mask predicate, a map with a columnar function, union,
chains of those) also carry a column kernel, and the drain picks per
run — from whether the node has one and how long the run is, see
:data:`COLUMN_MIN_ROWS` — which of the two kernels to call. A long run
at such a node is coalesced into a
:class:`~repro.streams.columnar.ColumnBatch`, whose homogeneous numeric
columns are numpy-backed when available (:mod:`repro.streams.typedcols`);
the batch flows on as it is through further column kernels and becomes
rows once, at its first row-only consumer. Both kernels of an operator
emit the same tuples, so the choice (and the column storage class) is
invisible in the output.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import OperatorError
from repro.streams.columnar import ColumnBatch, coalesce, flatten
from repro.streams.operators import Operator, SinkOp
from repro.streams.telemetry import (
    NULL_COLLECTOR,
    IngestTrace,
    TelemetryCollector,
    clock_ns,
    resolve_telemetry,
)
from repro.streams.tuples import StreamTuple

#: The values the deprecated ``mode`` keyword still accepts. They used
#: to select among three executors; they now select nothing (see
#: :func:`_check_mode`) and go away with the keyword.
MODES = ("row", "columnar", "fused")

#: Rows a run needs before a node's column kernel is worth an encode.
#: The drain hands a run to the column kernel iff the node has one and
#: the run is a single ColumnBatch already or at least this long.
#: Run lengths at nodes that have a kernel, one bench pass each:
#:
#: ===========  =======  ===================  =================
#: workload     runs     rows p50 / p99 / max  rows in runs >= 64
#: ===========  =======  ===================  =================
#: shelf_mem     31,499   12 /  32 /  34      0.000
#: redwood_mem   68,638    1 /  15 /  16      0.000
#: home_mem      95,824    1 /   6 /   6      0.000
#: chain_mem      4,914  140 / 161 / 169      1.000
#: ===========  =======  ===================  =================
#:
#: Not fragile: 32 reads within 2 % of 64 on ``shelf_mem``, 8 costs it
#: 12-14 %, and every ``chain_mem`` run is far above either.
#: Read at call time, so tests may patch it.
COLUMN_MIN_ROWS = 64


def _check_mode(mode: "str | None") -> None:
    """Reject a ``mode`` that is neither ``None`` nor one of :data:`MODES`.

    All that is left of the ``mode`` keyword: the entry points that
    still accept it validate it here and otherwise ignore it.
    """
    if mode is not None and mode not in MODES:
        raise OperatorError(
            f"unknown execution mode {mode!r}; expected one of {MODES}"
        )


def _row_count(payloads: Iterable[object]) -> int:
    """Tuples in a run of pending payloads (a list or batch counts by
    its length)."""
    rows = 0
    for payload in payloads:
        rows += 1 if isinstance(payload, StreamTuple) else len(payload)  # type: ignore[arg-type]
    return rows


class _Node:
    """Internal DAG node: an operator plus its downstream edges."""

    __slots__ = ("name", "op", "kernel", "downstream", "pending",
                 "tuples_in", "tuples_out", "passive")

    def __init__(self, name: str, op: Operator):
        self.name = name
        self.op = op
        #: the operator's column kernel, or None for a row-only node
        self.kernel = op.column_kernel()
        #: (target node name, port on target)
        self.downstream: list[tuple[str, int]] = []
        #: input delivered but not yet processed, as (payload, port);
        #: a payload is a single tuple (source injection) or whatever an
        #: upstream kernel returned, whole: a list of tuples (``on_batch``
        #: and ``on_time`` output) or a ColumnBatch (column-kernel
        #: output). Payloads are shared with sibling consumers and
        #: never mutated.
        self.pending: list[
            tuple["StreamTuple | list[StreamTuple] | ColumnBatch", int]
        ] = []
        #: observability counters, updated during run()
        self.tuples_in = 0
        self.tuples_out = 0
        #: a passive node inherits the base no-op ``on_time``: it can
        #: never emit on punctuation, so sweeps skip it entirely while
        #: its input queue is empty (any ``on_time`` override — even one
        #: that happens to return [] — disables the skip)
        self.passive = type(op).on_time is Operator.on_time


class Fjord:
    """A pipelined dataflow of stream operators.

    Typical usage::

        fjord = Fjord()
        fjord.add_source("rfid0", reader0_tuples)
        fjord.add_operator("smooth0", smooth_op, inputs=["rfid0"])
        sink = fjord.add_sink("out", inputs=["smooth0"])
        fjord.run(ticks=clock.ticks(until=700.0))
        results = sink.results

    Sources are iterables of :class:`StreamTuple` sorted by timestamp;
    multiple sources are merged on the time axis. ``inputs`` entries may be
    plain node names (delivered on port 0) or ``(name, port)`` pairs for
    multi-input operators such as joins.
    """

    def __init__(self):
        self._nodes: dict[str, _Node] = {}
        self._sources: dict[str, Iterable[StreamTuple]] = {}
        self._source_edges: dict[str, list[tuple[str, int]]] = {}
        self._order: list[str] | None = None

    # -- graph construction ----------------------------------------------------

    def add_source(self, name: str, items: Iterable[StreamTuple]) -> None:
        """Register a named source of timestamp-sorted tuples."""
        self._check_fresh_name(name)
        self._sources[name] = items
        self._source_edges[name] = []
        self._order = None

    def add_operator(
        self,
        name: str,
        op: Operator,
        inputs: Sequence["str | tuple[str, int]"],
    ) -> Operator:
        """Add an operator node fed by the named ``inputs``.

        Returns the operator for convenient chaining.
        """
        self._check_fresh_name(name)
        node = _Node(name, op)
        self._nodes[name] = node
        for entry in inputs:
            upstream, port = self._normalize_input(entry)
            self._connect(upstream, name, port)
        self._order = None
        return op

    def add_sink(
        self,
        name: str,
        inputs: Sequence["str | tuple[str, int]"],
        callback=None,
    ) -> SinkOp:
        """Add a collecting sink; returns it so callers can read results."""
        sink = SinkOp(callback=callback)
        self.add_operator(name, sink, inputs)
        return sink

    def _check_fresh_name(self, name: str) -> None:
        if name in self._nodes or name in self._sources:
            raise OperatorError(f"duplicate node name {name!r}")

    @staticmethod
    def _normalize_input(entry: "str | tuple[str, int]") -> tuple[str, int]:
        if isinstance(entry, str):
            return entry, 0
        upstream, port = entry
        return upstream, int(port)

    def _connect(self, upstream: str, downstream: str, port: int) -> None:
        if upstream in self._sources:
            self._source_edges[upstream].append((downstream, port))
        elif upstream in self._nodes:
            self._nodes[upstream].downstream.append((downstream, port))
        else:
            raise OperatorError(f"unknown upstream node {upstream!r}")

    # -- observability --------------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, int]]:
        """Per-node flow counters: name → (tuples in, tuples out).

        Populated by :meth:`run`; zero before execution. Useful for
        spotting where a deployment's data volume collapses (Point-stage
        early elimination, §3.2) or silently explodes (a join gone
        quadratic).
        """
        return {
            name: (node.tuples_in, node.tuples_out)
            for name, node in self._nodes.items()
        }

    def describe(self) -> str:
        """A human-readable wiring description of the dataflow.

        One line per node in execution order, showing its operator type,
        upstream sources and flow counters (after a run).
        """
        upstream: dict[str, list[str]] = {name: [] for name in self._nodes}
        for source, edges in self._source_edges.items():
            for target, _port in edges:
                upstream[target].append(f"source:{source}")
        for name, node in self._nodes.items():
            for target, _port in node.downstream:
                upstream[target].append(name)
        lines = ["dataflow:"]
        for name in self._topological_order():
            node = self._nodes[name]
            feeds = ", ".join(sorted(upstream[name])) or "(none)"
            lines.append(
                f"  {name} [{type(node.op).__name__}] <- {feeds}"
                f"  ({node.tuples_in} in / {node.tuples_out} out)"
            )
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------------

    def _topological_order(self) -> list[str]:
        """Topologically sort operator nodes (Kahn's algorithm).

        Ready nodes are visited in lexicographic name order (a heap, not a
        FIFO), so the order — and therefore the interleaving of same-tick
        emissions from parallel per-granule chains — depends only on the
        node names, never on graph construction order. The sharded
        executor's deterministic merge relies on this.
        """
        if self._order is not None:
            return self._order
        indegree = {name: 0 for name in self._nodes}
        for node in self._nodes.values():
            for target, _port in node.downstream:
                indegree[target] += 1
        ready = [name for name, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for target, _port in self._nodes[name].downstream:
                indegree[target] -= 1
                if indegree[target] == 0:
                    heapq.heappush(ready, target)
        if len(order) != len(self._nodes):
            cyclic = sorted(set(self._nodes) - set(order))
            raise OperatorError(f"operator graph has a cycle involving {cyclic}")
        self._order = order
        return order

    def _checked(
        self,
        name: str,
        items: Iterable[StreamTuple],
        collector: TelemetryCollector = NULL_COLLECTOR,
    ) -> Iterator[StreamTuple]:
        """Yield a source's tuples, rejecting timestamp regressions.

        The executor's injection loop and every windowed operator assume
        sources are sorted by timestamp; a violation used to be silently
        accepted and produced quietly wrong windows downstream. The
        rejection is recorded as a ``source_out_of_order`` trace event
        before the raise, so post-mortem trace logs carry the failure.
        """
        last: float | None = None
        for item in items:
            if last is not None and item.timestamp < last - 1e-9:
                collector.event(
                    "source_out_of_order",
                    source=name,
                    timestamp=item.timestamp,
                    previous=last,
                )
                raise OperatorError(
                    f"source {name!r} is out of order: timestamp "
                    f"{item.timestamp:g} arrived after {last:g}"
                )
            last = item.timestamp
            yield item

    def _merged_source(
        self, collector: TelemetryCollector = NULL_COLLECTOR
    ) -> Iterator[tuple[StreamTuple, str]]:
        """Merge all sources into one timestamp-ordered iterator.

        Equal timestamps across sources tie-break on the source *name* —
        a pure function of the data, never of consumption history — so
        that restricting every source to a subset (as sharded execution
        does) cannot reorder the surviving tuples. Within one source,
        arrival order is preserved (at most one heap entry per source).
        """
        heap: list[tuple[float, str, StreamTuple]] = []
        iterators = {
            name: self._checked(name, items, collector)
            for name, items in self._sources.items()
        }
        for name in sorted(iterators):
            first = next(iterators[name], None)
            if first is not None:
                heapq.heappush(heap, (first.timestamp, name, first))
        while heap:
            _ts, name, item = heapq.heappop(heap)
            yield item, name
            nxt = next(iterators[name], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt.timestamp, name, nxt))

    def _deliver(self, item: StreamTuple, target: str, port: int) -> None:
        """Queue one injected source tuple (the inject loops' hand-off)."""
        self._nodes[target].pending.append((item, port))

    def _emit(
        self,
        node: _Node,
        out: "list[StreamTuple] | ColumnBatch",
    ) -> None:
        """Hand a kernel's non-empty output, whole, to every consumer."""
        nodes = self._nodes
        for target, tport in node.downstream:
            nodes[target].pending.append((out, tport))

    def _drain_node(
        self,
        node: _Node,
        collector: TelemetryCollector = NULL_COLLECTOR,
        now: float = 0.0,
    ) -> None:
        """Process a node's pending input, fanning outputs downstream.

        Pending input is consumed in maximal runs of same-port entries
        (payload boundaries don't matter, only ports), one kernel call
        per run, and which kernel is the one decision made per run,
        from what the drain can see. The common run — a single list
        payload, short or bound for a row-only node — is handed to
        :meth:`on_batch` as it is. At a node with a column kernel, a
        run that is one :class:`ColumnBatch` already goes to the kernel
        as it is (so a batch flows through consecutive column kernels
        untouched), and any other run of at least
        :data:`COLUMN_MIN_ROWS` rows is coalesced into a batch for it.
        Every other run is flattened into one list for :meth:`on_batch`,
        which is where a batch becomes rows again. Either way the
        kernel's output is delivered whole, one pending entry per
        downstream edge (see the borrowing rule on
        :meth:`Operator.on_batch`).

        Output order does not depend on where the runs fall because
        ``on_batch`` is chunking-invariant (see
        :meth:`Operator.on_batch`) and column kernels emit exactly the
        row kernels' tuples. Flow counters account each run by its
        length, so the counters — and, when telemetry is enabled, the
        collector's batch-size histograms and ``batch_drain`` events —
        do not depend on which kernel ran; only the wall-clock busy-ns
        can.
        """
        enabled = collector.enabled
        on_batch = node.op.on_batch
        column_kernel = node.kernel
        nodes = self._nodes
        downstream = node.downstream
        while node.pending:
            entries, node.pending = node.pending, []
            start = 0
            count = len(entries)
            while start < count:
                payload, port = entries[start]
                stop = start + 1
                while stop < count and entries[stop][1] == port:
                    stop += 1
                kernel: Callable[..., "list[StreamTuple] | ColumnBatch"] = on_batch
                run: "list[StreamTuple] | ColumnBatch"
                single = stop - start == 1
                if (
                    single
                    and type(payload) is list
                    and (column_kernel is None or len(payload) < COLUMN_MIN_ROWS)
                ):
                    run = payload
                elif (
                    single
                    and column_kernel is not None
                    and isinstance(payload, ColumnBatch)
                ):
                    run, kernel = payload, column_kernel
                else:
                    payloads = [entry[0] for entry in entries[start:stop]]
                    # Every payload holds a row, so a run of enough
                    # entries (source tuples, mostly) needs no count.
                    if column_kernel is not None and (
                        len(payloads) >= COLUMN_MIN_ROWS
                        or _row_count(payloads) >= COLUMN_MIN_ROWS
                    ):
                        run, kernel = coalesce(payloads), column_kernel
                    else:
                        run = flatten(payloads)
                n_in = len(run)
                node.tuples_in += n_in
                if enabled:
                    began = clock_ns()
                    out = kernel(run, port)
                    collector.record_batch(
                        node.name, n_in, len(out), clock_ns() - began
                    )
                    collector.event(
                        "batch_drain",
                        node=node.name,
                        t=now,
                        n_in=n_in,
                        n_out=len(out),
                    )
                else:
                    out = kernel(run, port)
                n_out = len(out)
                if n_out:
                    node.tuples_out += n_out
                    for target, tport in downstream:  # _emit, inlined
                        nodes[target].pending.append((out, tport))
                start = stop

    def run(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: "str | None" = None,
    ) -> None:
        """Execute the dataflow over the given punctuation times.

        All source tuples with timestamp ``<= tick`` are injected before
        that tick's punctuation sweep. Source tuples later than the final
        tick are not delivered.

        Args:
            ticks: Punctuation times, ascending.
            telemetry: Instrumentation sink (see
                :mod:`repro.streams.telemetry`); ``None`` uses the
                process-wide default, which is a no-op unless installed.
            mode: Deprecated and ignored: there is one execution path.
                Still validated (``None`` or one of :data:`MODES`);
                the keyword goes away with :data:`MODES`.

        Raises:
            OperatorError: If a source yields out-of-order timestamps,
                or ``mode`` is unknown.
        """
        for _now in self.run_stepped(ticks, telemetry=telemetry, mode=mode):
            pass

    def open_session(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: "str | None" = None,
    ) -> "FjordSession":
        """Open an incremental-push execution session over ``ticks``.

        Where :meth:`run` pulls whole source iterables, a session is fed
        tuple-by-tuple from outside (a network gateway, a live device
        poller) via :meth:`FjordSession.push` and advances punctuation
        time only as far as the caller's watermark allows — see
        :class:`FjordSession` for the exact equivalence guarantee with
        the pull-based run.

        Sources must already be registered (with empty feeds, typically)
        so their edges exist; pushes are routed by source name. ``mode``
        is deprecated and ignored, as on :meth:`run`.
        """
        _check_mode(mode)
        return FjordSession(self, ticks, resolve_telemetry(telemetry))

    def run_stepped(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: "str | None" = None,
    ) -> Iterator[float]:
        """Like :meth:`run`, but yield after each punctuation sweep.

        Yields the punctuation time just processed, with every emission
        for that instant already delivered to the sinks — callers can
        observe (or tag) per-tick output incrementally, which is how the
        sharded executor attributes each shard's output to its tick.

        When telemetry is enabled, every ``on_batch``/``on_time`` call is
        timed into per-operator histograms, and tick boundaries sample
        each node's pending-queue depth (the backpressure gauge) plus
        each source's watermark lag (tick time minus the newest injected
        timestamp). The no-op collector skips all of it behind one flag
        check per call site. ``mode`` is deprecated and ignored, as on
        :meth:`run`.
        """
        _check_mode(mode)
        collector = resolve_telemetry(telemetry)
        enabled = collector.enabled
        order = self._topological_order()
        if enabled:
            self._emit_run_start(order, collector)
        feed = self._merged_source(collector)
        lookahead: tuple[StreamTuple, str] | None = next(feed, None)
        newest: dict[str, float] = {}  # per-source newest injected stamp
        tick_count = 0
        for now in ticks:
            # 1. Inject all due source tuples.
            while lookahead is not None and lookahead[0].timestamp <= now + 1e-9:
                item, source = lookahead
                for target, port in self._source_edges[source]:
                    self._deliver(item, target, port)
                if enabled:
                    collector.count_source(source)
                    newest[source] = item.timestamp
                lookahead = next(feed, None)
            if enabled:
                self._sample_tick(order, now, newest, collector)
            self._sweep(order, now, collector, enabled)
            tick_count += 1
            yield now
        if enabled:
            self._emit_run_stop(order, tick_count, collector)

    # -- shared run/session machinery -------------------------------------------

    def _checkpoint_nodes(self) -> dict[str, dict]:
        """Per node, in execution order: the operator's data state (via
        :meth:`~repro.streams.operators.Operator.checkpoint`), its flow
        counters and any pending input — live references."""
        nodes: dict[str, dict] = {}
        for name in self._topological_order():
            node = self._nodes[name]
            nodes[name] = {
                "state": node.op.checkpoint(),
                "tuples_in": node.tuples_in,
                "tuples_out": node.tuples_out,
                "pending": list(node.pending),
            }
        return nodes

    def _restore_nodes(self, nodes: Mapping[str, Mapping]) -> None:
        """Install a :meth:`_checkpoint_nodes` snapshot.

        Raises:
            OperatorError: When the snapshot references a node this
                dataflow does not have (a configuration mismatch — the
                pipelines are not identical).
        """
        for name, entry in nodes.items():
            node = self._nodes.get(name)
            if node is None:
                raise OperatorError(
                    f"checkpoint names unknown node {name!r}; the restored "
                    f"pipeline does not match the one checkpointed"
                )
            node.op.restore(entry["state"])
            node.tuples_in = entry["tuples_in"]
            node.tuples_out = entry["tuples_out"]
            node.pending[:] = entry["pending"]

    def _emit_run_start(
        self, order: Sequence[str], collector: TelemetryCollector
    ) -> None:
        collector.event(
            "run_start", nodes=len(order), sources=len(self._sources)
        )
        for name in order:
            collector.event(
                "operator_start",
                node=name,
                op=type(self._nodes[name].op).__name__,
            )

    def _emit_run_stop(
        self,
        order: Sequence[str],
        tick_count: int,
        collector: TelemetryCollector,
    ) -> None:
        for name in order:
            node = self._nodes[name]
            collector.event(
                "operator_stop",
                node=name,
                tuples_in=node.tuples_in,
                tuples_out=node.tuples_out,
            )
        collector.event("run_end", ticks=tick_count)

    def _sample_tick(
        self,
        order: Sequence[str],
        now: float,
        newest: Mapping[str, float],
        collector: TelemetryCollector,
    ) -> None:
        """Tick-boundary gauge sampling (watermark lag, queue depths)."""
        for source, stamp in newest.items():
            collector.sample_watermark(source, now - stamp)
        for name in order:
            pending = self._nodes[name].pending
            if pending:
                # Tuples waiting, not entries, so the gauge does not
                # depend on how upstream output was packaged.
                collector.sample_queue_depth(
                    name, _row_count(payload for payload, _port in pending)
                )

    def _sweep(
        self,
        order: Sequence[str],
        now: float,
        collector: TelemetryCollector,
        enabled: bool,
    ) -> None:
        """One punctuation sweep at time ``now`` over already-injected input.

        Nodes are visited in topological order: drain pending inputs,
        then slide windows; emissions feed later nodes within the same
        sweep. A final drain pass catches anything a terminal node's
        user callback injected (topological order makes it a no-op
        otherwise). Punctuation output is delivered as the list
        ``on_time`` returned — the drain flattens or coalesces mixed
        pending payloads.
        """
        drain = self._drain_node
        if not enabled:
            # Fast path: a passive node (base no-op ``on_time``) with an
            # empty queue contributes nothing to this sweep — skip it
            # without touching its operator. Output is byte-identical to
            # the full walk because the skipped calls were provably
            # no-ops; on graphs dominated by stateless stages this turns
            # the per-tick cost from O(nodes) into O(active nodes).
            for name in order:
                node = self._nodes[name]
                if node.pending:
                    drain(node, collector, now)
                if node.passive:
                    continue
                out = node.op.on_time(now)
                if out:
                    node.tuples_out += len(out)
                    self._emit(node, out)
            for name in order:
                node = self._nodes[name]
                if node.pending:
                    drain(node, collector, now)
            return
        for name in order:
            node = self._nodes[name]
            drain(node, collector, now)
            began = clock_ns()
            out = node.op.on_time(now)
            collector.record_punctuation(
                name, len(out), clock_ns() - began
            )
            if out:
                node.tuples_out += len(out)
                self._emit(node, out)
        for name in order:
            drain(self._nodes[name], collector, now)
        collector.count_tick()


def sweep_end(
    ticks: Sequence[float], watermark: float, start: int = 0
) -> int:
    """Index of the first tick at or after ``start`` that ``watermark``
    does not yet allow sweeping (``len(ticks)`` when it allows all).

    The sweep rule, defined once: a tick is swept only when it lies
    *strictly* below the watermark, with 2 ns of float tolerance —
    ``tick + 2e-9 < watermark``. :meth:`FjordSession.advance`, the
    cluster worker's per-tick ledger and the router's epoch boundary
    must all agree on it exactly, or a cluster epoch would own a
    different tick set than the session swept. Scans forward from
    ``start`` because callers sit at a cursor and a watermark rarely
    clears more than a tick or two past it.
    """
    end = start
    count = len(ticks)
    while end < count and ticks[end] + 2e-9 < watermark:
        end += 1
    return end


class FjordSession:
    """Incremental-push execution of a Fjord dataflow.

    The pull-based :meth:`Fjord.run` owns its input: it merges whole
    source iterables and injects each tuple at the first punctuation
    tick at or after its timestamp. A session inverts that control so a
    live ingress (the :mod:`repro.net` gateway) can *push* tuples as
    they arrive off the wire and advance punctuation time only once its
    reorder buffers promise no earlier tuple can still show up.

    **Equivalence guarantee.** If (a) every tuple is pushed before the
    session sweeps the first tick at or after its timestamp, (b) pushes
    per source are timestamp-ordered, and (c) equal-timestamp pushes
    follow original stream order, then the session's sink output is
    *identical* — tuple for tuple, in order — to ``Fjord.run`` over the
    same data, because injection order (timestamp, then source name,
    then per-source push order) and the per-tick sweep are shared with
    the pull path. Condition (a) is what :meth:`advance`'s watermark
    contract enforces; a violation raises :class:`OperatorError` rather
    than silently producing drifted windows.

    Created by :meth:`Fjord.open_session`; drive it with
    :meth:`push` / :meth:`advance`, then :meth:`close`.
    """

    def __init__(
        self,
        fjord: Fjord,
        ticks: Iterable[float],
        collector: TelemetryCollector,
    ):
        self._fjord = fjord
        self._collector = collector
        self._enabled = collector.enabled
        self._order = fjord._topological_order()
        self._ticks = [float(t) for t in ticks]
        if any(a > b for a, b in zip(self._ticks, self._ticks[1:])):
            raise OperatorError("session ticks must be ascending")
        self._cursor = 0  # index of the next tick to sweep
        self._heap: list[tuple[float, str, int, StreamTuple]] = []
        self._push_seq = 0
        self._last: dict[str, float] = {}  # per-source newest pushed stamp
        self._newest: dict[str, float] = {}  # per-source newest injected
        #: push_seq → IngestTrace for pushes carrying span correlation.
        self._traces: dict[int, IngestTrace] = {}
        #: Optional ``sink(trace, done_ns)`` called for every finished
        #: trace that carries a cluster context (``trace.ctx``). A
        #: cluster worker's tick ledger hangs its hop-record capture
        #: here; the attribute is runtime wiring, deliberately outside
        #: :meth:`checkpoint` state.
        self.span_sink: "Callable[[IngestTrace, int], None] | None" = None
        self._closed = False
        if self._enabled:
            fjord._emit_run_start(self._order, collector)

    @property
    def safe_time(self) -> float:
        """The last punctuation time swept (``-inf`` before the first).

        Everything at or before this instant has already been processed;
        a push with a timestamp at or below it can no longer be injected
        faithfully and is rejected.
        """
        if self._cursor == 0:
            return float("-inf")
        return self._ticks[self._cursor - 1]

    @property
    def pending(self) -> int:
        """Tuples pushed but not yet injected into the dataflow."""
        return len(self._heap)

    @property
    def ticks(self) -> tuple[float, ...]:
        """The full punctuation schedule this session sweeps."""
        return tuple(self._ticks)

    def push(
        self,
        source: str,
        item: StreamTuple,
        trace: "IngestTrace | None" = None,
    ) -> None:
        """Queue one tuple from ``source`` for injection.

        Args:
            source: The registered source name the tuple belongs to.
            item: The tuple itself.
            trace: Optional span-correlation state (see
                :class:`~repro.streams.telemetry.IngestTrace`). When
                given, the session stamps the injection instant and —
                once the sweep that consumed the tuple completes —
                records the ``session``/``sweep`` phase spans, the
                end-to-end span, and one span-log entry on its
                collector. ``None`` (the uninstrumented default) costs
                a single ``is None`` check.

        Raises:
            OperatorError: If the session is closed, the source is
                unknown, the source's pushes regress in timestamp, or
                the tuple lands at or behind :attr:`safe_time` (it
                arrived after its punctuation tick was already swept —
                the condition a reorder buffer with adequate slack is
                there to prevent).
        """
        if self._closed:
            raise OperatorError("push on a closed FjordSession")
        if source not in self._fjord._source_edges:
            raise OperatorError(f"unknown session source {source!r}")
        last = self._last.get(source)
        if last is not None and item.timestamp < last - 1e-9:
            self._collector.event(
                "source_out_of_order",
                source=source,
                timestamp=item.timestamp,
                previous=last,
            )
            raise OperatorError(
                f"session source {source!r} is out of order: timestamp "
                f"{item.timestamp:g} arrived after {last:g}"
            )
        if item.timestamp <= self.safe_time + 1e-9:
            self._collector.event(
                "session_late_push",
                source=source,
                timestamp=item.timestamp,
                safe_time=self.safe_time,
            )
            raise OperatorError(
                f"tuple from {source!r} at t={item.timestamp:g} arrived "
                f"behind the session's punctuation cursor "
                f"(safe_time={self.safe_time:g}); increase the ingress "
                f"reorder slack"
            )
        heapq.heappush(
            self._heap, (item.timestamp, source, self._push_seq, item)
        )
        if trace is not None:
            self._traces[self._push_seq] = trace
        self._push_seq += 1
        if last is None or item.timestamp > last:
            self._last[source] = item.timestamp

    def advance(self, watermark: float) -> list[float]:
        """Sweep every remaining tick strictly below ``watermark``.

        The caller promises that no future :meth:`push` will carry a
        timestamp more than 1 ns below ``watermark`` (the reorder
        buffers' :attr:`~repro.streams.reorder.ReorderBuffer.watermark`
        is exactly that promise); the extra nanosecond of guard margin
        here absorbs it. Returns the punctuation times swept, in order.
        Monotonicity is not required — a stale watermark simply sweeps
        nothing.
        """
        if self._closed:
            raise OperatorError("advance on a closed FjordSession")
        swept: list[float] = []
        end = sweep_end(self._ticks, watermark, self._cursor)
        while self._cursor < end:
            swept.append(self._step())
        return swept

    def _step(self) -> float:
        """Inject due tuples and sweep the next tick; returns its time."""
        now = self._ticks[self._cursor]
        fjord = self._fjord
        enabled = self._enabled
        heap = self._heap
        traces = self._traces
        injected: "list[IngestTrace] | None" = None
        while heap and heap[0][0] <= now + 1e-9:
            _ts, source, seq, item = heapq.heappop(heap)
            for target, port in fjord._source_edges[source]:
                fjord._deliver(item, target, port)
            if enabled:
                self._collector.count_source(source)
                self._newest[source] = item.timestamp
            if traces:
                trace = traces.pop(seq, None)
                if trace is not None:
                    trace.t_injected = clock_ns()
                    if injected is None:
                        injected = []
                    injected.append(trace)
        if enabled:
            fjord._sample_tick(self._order, now, self._newest, self._collector)
        fjord._sweep(self._order, now, self._collector, enabled)
        if injected is not None:
            self._finish_spans(injected, now)
        self._cursor += 1
        return now

    def _finish_spans(self, injected: "list[IngestTrace]", now: float) -> None:
        """Close the spans of every tuple this sweep consumed.

        Every emission a tuple contributed at its tick happened inside
        the sweep that just returned, so its ingest-to-emit journey is
        complete. The four phase durations share boundary stamps and
        therefore sum to the end-to-end duration exactly — the
        accounting invariant the span tests pin.
        """
        collector = self._collector
        sink = self.span_sink
        done = clock_ns()
        for trace in injected:
            if sink is not None and trace.ctx is not None:
                sink(trace, done)
            queue_ns = trace.t_queued - trace.t_ingest
            reorder_ns = trace.t_released - trace.t_queued
            session_ns = trace.t_injected - trace.t_released
            sweep_ns = done - trace.t_injected
            collector.record_span("ingest.queue", queue_ns)
            collector.record_span("ingest.reorder", reorder_ns)
            collector.record_span("ingest.session", session_ns)
            collector.record_span("ingest.sweep", sweep_ns)
            collector.record_span("ingest.e2e", done - trace.t_ingest)
            collector.span(
                ingest_id=trace.ingest_id,
                source=trace.source,
                sim_ts=trace.sim_ts,
                tick=now,
                queue_ns=queue_ns,
                reorder_ns=reorder_ns,
                session_ns=session_ns,
                sweep_ns=sweep_ns,
                e2e_ns=done - trace.t_ingest,
            )

    def checkpoint(self) -> dict:
        """Snapshot the session's execution state for later :meth:`restore`.

        Captures the punctuation cursor, the not-yet-injected tuple heap,
        per-source ordering stamps, span-correlation traces, and — per
        DAG node — the operator's data state (via
        :meth:`~repro.streams.operators.Operator.checkpoint`), its flow
        counters and any pending input. Everything returned is live
        references: serialize synchronously, before the next push or
        advance. Configuration (the graph, ticks, lambdas) is *not*
        captured — restore targets a freshly built identical pipeline.
        """
        return {
            "cursor": self._cursor,
            "heap": list(self._heap),
            "push_seq": self._push_seq,
            "last": dict(self._last),
            "newest": dict(self._newest),
            "traces": dict(self._traces),
            "nodes": self._fjord._checkpoint_nodes(),
        }

    def restore(self, state: Mapping) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh session.

        Must be called before any push or advance, on a session built
        from the same pipeline with the same tick schedule; execution
        then continues exactly where the snapshot was taken.

        Raises:
            OperatorError: When the snapshot references a node this
                session's dataflow does not have (a configuration
                mismatch — the pipelines are not identical).
        """
        if self._closed:
            raise OperatorError("restore on a closed FjordSession")
        if self._cursor or self._heap or self._push_seq:
            raise OperatorError("restore needs a fresh session")
        self._fjord._restore_nodes(state["nodes"])
        self._cursor = int(state["cursor"])
        # A copy of a valid heap list is itself a valid heap: no heapify.
        self._heap = list(state["heap"])
        self._push_seq = int(state["push_seq"])
        self._last = dict(state["last"])
        self._newest = dict(state["newest"])
        self._traces = dict(state["traces"])

    def close(self) -> None:
        """Sweep all remaining ticks and end the session.

        Call after the last push (end of stream): at that point every
        buffered tuple's tick can safely fire. Idempotent.
        """
        if self._closed:
            return
        while self._cursor < len(self._ticks):
            self._step()
        if self._enabled:
            self._fjord._emit_run_stop(
                self._order, self._cursor, self._collector
            )
        self._closed = True
