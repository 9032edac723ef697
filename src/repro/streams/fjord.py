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

In ``columnar``/``fused`` mode the same drain coalesces each run into a
:class:`~repro.streams.columnar.ColumnBatch`, whose homogeneous numeric
columns are numpy-backed when available (:mod:`repro.streams.typedcols`).
The executor is agnostic to the storage class: typed and list columns
flow through the same nodes, and every mode (and both storage classes)
produces bit-identical output — mode is a pure performance knob.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import OperatorError
from repro.streams.columnar import ColumnBatch, coalesce, flatten
from repro.streams.operators import FilterOp, MapOp, Operator, SinkOp, UnionOp
from repro.streams.telemetry import (
    NULL_COLLECTOR,
    IngestTrace,
    TelemetryCollector,
    clock_ns,
    resolve_telemetry,
)
from repro.streams.tuples import StreamTuple

#: Execution modes accepted by :meth:`Fjord.run` and friends. ``row``
#: is the original per-tuple-object path; ``columnar`` drains pending
#: input through :meth:`Operator.on_column_batch` column kernels;
#: ``fused`` additionally collapses linear runs of stateless operators
#: into single fused kernels (see :meth:`Fjord.fuse`). All three
#: produce bit-identical sink output — the differential suite in
#: ``tests/test_columnar_equivalence.py`` pins it.
MODES = ("row", "columnar", "fused")


def _check_mode(mode: str) -> str:
    """Return ``mode`` if it is one of :data:`MODES`, else raise.

    The one place a mode string is validated: the executor's entry
    points and :mod:`repro.streams.shard`'s option resolution both call
    it.
    """
    if mode not in MODES:
        raise OperatorError(
            f"unknown execution mode {mode!r}; expected one of {MODES}"
        )
    return mode


class _Node:
    """Internal DAG node: an operator plus its downstream edges."""

    __slots__ = ("name", "op", "downstream", "pending", "tuples_in",
                 "tuples_out", "passive")

    def __init__(self, name: str, op: Operator):
        self.name = name
        self.op = op
        #: (target node name, port on target)
        self.downstream: list[tuple[str, int]] = []
        #: input delivered but not yet processed, as (payload, port);
        #: a payload is a single tuple (source injection) or whatever an
        #: upstream kernel returned, whole: a list of tuples (row-mode
        #: ``on_batch`` output, ``on_time`` output in every mode) or a
        #: ColumnBatch (columnar-mode output). List payloads are shared
        #: with sibling consumers and never mutated.
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


class FusedStatelessOp(Operator):
    """Several stateless operators collapsed into one DAG node.

    Produced by :meth:`Fjord.fuse`: a linear run of filter/map/union
    nodes becomes one node that applies the constituent kernels back to
    back without the executor's per-node delivery, queueing and
    accounting between them. Per-stage flow counters are kept so
    :meth:`Fjord.stats` can report the constituent nodes exactly as an
    unfused run would.

    Unlike :class:`~repro.streams.operators.ChainOp` this is an
    executor-internal artifact: stages keep their original node names
    for accounting, and only stateless (punctuation-free) operators are
    ever fused, so ``on_time`` is trivially empty.
    """

    #: The fused stages themselves are stateless by construction; the
    #: per-stage flow counters are the only data state to checkpoint
    #: (so restored stats match an uninterrupted run exactly).
    STATE_ATTRS = ("stage_counts",)

    def __init__(self, stages: Sequence[tuple[str, Operator]]):
        self.stages = list(stages)
        #: node name → [tuples_in, tuples_out], matching what the
        #: unfused executor's per-node counters would have recorded
        self.stage_counts: dict[str, list[int]] = {
            name: [0, 0] for name, _ in self.stages
        }

    def on_tuple(self, item: StreamTuple, port: int = 0) -> list[StreamTuple]:
        return self.on_batch([item], port)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        pending: Sequence[StreamTuple] = items
        for name, op in self.stages:
            counts = self.stage_counts[name]
            counts[0] += len(pending)
            if not pending:
                return []
            pending = op.on_batch(pending, port)
            counts[1] += len(pending)
            port = 0  # only the first stage sees the original port
        return pending if isinstance(pending, list) else list(pending)

    def on_column_batch(self, batch: ColumnBatch, port: int = 0) -> ColumnBatch:
        pending = batch
        for name, op in self.stages:
            counts = self.stage_counts[name]
            n = len(pending)
            counts[0] += n
            if not n:
                return pending
            pending = op.on_column_batch(pending, port)
            counts[1] += len(pending)
            port = 0  # only the first stage sees the original port
        return pending


#: Operator types safe to fuse: stateless, single-output-per-input-run,
#: and punctuation-free. Windowed operators hold cross-call state keyed
#: to their own node identity and must stay unfused.
_FUSABLE_TYPES = (FilterOp, MapOp, UnionOp, FusedStatelessOp)


def _fusable(op: Operator) -> bool:
    return isinstance(op, _FUSABLE_TYPES)


def _stages_of(name: str, op: Operator) -> list[tuple[str, Operator]]:
    if isinstance(op, FusedStatelessOp):
        return op.stages
    return [(name, op)]


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
        self._fused = False

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

        After :meth:`fuse`, fused nodes are expanded back into their
        constituent stages (per-stage counters are tracked inside
        :class:`FusedStatelessOp`), so the mapping is keyed by the same
        node names — with the same counts — as an unfused run.
        """
        out: dict[str, tuple[int, int]] = {}
        for name, node in self._nodes.items():
            op = node.op
            if isinstance(op, FusedStatelessOp):
                for stage_name, counts in op.stage_counts.items():
                    out[stage_name] = (counts[0], counts[1])
            else:
                out[name] = (node.tuples_in, node.tuples_out)
        return out

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

    def fuse(self) -> int:
        """Collapse linear runs of stateless operators into fused kernels.

        A node is absorbed into its successor when (a) both operators
        are stateless (filter/map/union or already fused), (b) the node
        has exactly one downstream edge, on port 0, and (c) the
        successor has exactly one inbound edge overall (so no other
        producer interleaves with the fused stream). The pass repeats
        to a fixed point, so chains of any length collapse into one
        node.

        **Order preservation.** Fusion renames nodes (the fused node
        keeps the *tail* node's name), which could perturb the
        lexicographic-Kahn execution order and thereby the interleaving
        of same-tick emissions at downstream merge points. To keep
        fused output bit-identical, the pre-fusion topological order is
        computed first and the post-fusion order is that same order
        restricted to surviving nodes — a valid topological order of
        the fused graph (contracting a single-in/single-out edge cannot
        invert any precedence), with every surviving node in its
        original relative position.

        Idempotent; returns the number of nodes eliminated. Fusion is
        sticky: it rewrites the graph in place, and later row-mode runs
        execute the fused graph (still bit-identically).
        """
        if self._fused:
            return 0
        original_order = list(self._topological_order())
        eliminated = 0
        changed = True
        while changed:
            changed = False
            for name in list(self._nodes):
                node = self._nodes.get(name)
                if node is None or len(node.downstream) != 1:
                    continue
                target, port = node.downstream[0]
                if port != 0 or target == name:
                    continue
                tnode = self._nodes[target]
                if not (_fusable(node.op) and _fusable(tnode.op)):
                    continue
                inbound = sum(
                    1
                    for other in self._nodes.values()
                    for t, _p in other.downstream
                    if t == target
                )
                inbound += sum(
                    1
                    for edges in self._source_edges.values()
                    for t, _p in edges
                    if t == target
                )
                if inbound != 1:
                    continue
                tnode.op = FusedStatelessOp(
                    _stages_of(name, node.op) + _stages_of(target, tnode.op)
                )
                for other in self._nodes.values():
                    other.downstream = [
                        (target if t == name else t, p)
                        for t, p in other.downstream
                    ]
                for edges in self._source_edges.values():
                    edges[:] = [
                        (target if t == name else t, p) for t, p in edges
                    ]
                del self._nodes[name]
                eliminated += 1
                changed = True
        self._order = [n for n in original_order if n in self._nodes]
        self._fused = True
        return eliminated

    def _resolve_mode(self, mode: "str | None") -> bool:
        """Validate ``mode``, apply fusion if asked; True if columnar."""
        mode = _check_mode("row" if mode is None else mode)
        if mode == "fused":
            self.fuse()
        return mode != "row"

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
        columnar: bool = False,
    ) -> None:
        """Process a node's pending input, fanning outputs downstream.

        Pending input is consumed in maximal runs of same-port entries
        (payload boundaries don't matter, only ports), one kernel call
        per run. Row execution flattens the run's payloads into one
        list for :meth:`on_batch` — the common run, a single list
        payload, is handed over as it is; ``columnar`` coalesces the
        run into one :class:`ColumnBatch` for :meth:`on_column_batch`.
        Those two points are the only difference between the modes,
        decided per run, never per tuple; either way the kernel's
        output is delivered whole, one pending entry per downstream
        edge (see the borrowing rule on :meth:`Operator.on_batch`).

        Output order is identical to tuple-at-a-time delivery because
        ``on_batch`` concatenates per-tuple outputs in input order and
        column kernels emit exactly the row kernels' tuples. Flow
        counters account each run by its length, so batched,
        tuple-at-a-time and columnar delivery produce identical
        counters by construction; when telemetry is enabled the same
        run lengths feed the collector's batch-size histograms and
        ``batch_drain`` events — only the wall-clock busy-ns can differ
        between modes.
        """
        enabled = collector.enabled
        kernel: Callable[..., "list[StreamTuple] | ColumnBatch"] = (
            node.op.on_column_batch if columnar else node.op.on_batch
        )
        while node.pending:
            entries, node.pending = node.pending, []
            start = 0
            count = len(entries)
            while start < count:
                payload, port = entries[start]
                stop = start + 1
                while stop < count and entries[stop][1] == port:
                    stop += 1
                run: "list[StreamTuple] | ColumnBatch"
                if stop - start == 1 and type(payload) is list and not columnar:
                    run = payload
                else:
                    payloads = [entry[0] for entry in entries[start:stop]]
                    run = coalesce(payloads) if columnar else flatten(payloads)
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
                    self._emit(node, out)
                start = stop

    def run(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: str = "row",
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
            mode: Execution mode, one of :data:`MODES`. ``columnar``
                and ``fused`` run the column-kernel fast path and
                produce bit-identical sink output to ``row``.

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
        mode: str = "row",
    ) -> "FjordSession":
        """Open an incremental-push execution session over ``ticks``.

        Where :meth:`run` pulls whole source iterables, a session is fed
        tuple-by-tuple from outside (a network gateway, a live device
        poller) via :meth:`FjordSession.push` and advances punctuation
        time only as far as the caller's watermark allows — see
        :class:`FjordSession` for the exact equivalence guarantee with
        the pull-based run.

        Sources must already be registered (with empty feeds, typically)
        so their edges exist; pushes are routed by source name.
        """
        columnar = self._resolve_mode(mode)
        return FjordSession(
            self, ticks, resolve_telemetry(telemetry), columnar=columnar
        )

    def run_stepped(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: str = "row",
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
        check per call site.
        """
        collector = resolve_telemetry(telemetry)
        enabled = collector.enabled
        columnar = self._resolve_mode(mode)
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
            self._sweep(order, now, collector, enabled, columnar)
            tick_count += 1
            yield now
        if enabled:
            self._emit_run_stop(order, tick_count, collector)

    # -- shared run/session machinery -------------------------------------------

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
                # Tuples waiting, not entries: a list or batch payload
                # counts by its length, so the gauge means the same in
                # every mode.
                collector.sample_queue_depth(
                    name,
                    sum(
                        1 if isinstance(payload, StreamTuple) else len(payload)
                        for payload, _port in pending
                    ),
                )

    def _sweep(
        self,
        order: Sequence[str],
        now: float,
        collector: TelemetryCollector,
        enabled: bool,
        columnar: bool = False,
    ) -> None:
        """One punctuation sweep at time ``now`` over already-injected input.

        Nodes are visited in topological order: drain pending inputs,
        then slide windows; emissions feed later nodes within the same
        sweep. A final drain pass catches anything a terminal node's
        user callback injected (topological order makes it a no-op
        otherwise). Punctuation output is delivered as the list
        ``on_time`` returned in every mode — the drain flattens or
        coalesces mixed pending payloads.
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
                    drain(node, collector, now, columnar)
                if node.passive:
                    continue
                out = node.op.on_time(now)
                if out:
                    node.tuples_out += len(out)
                    self._emit(node, out)
            for name in order:
                node = self._nodes[name]
                if node.pending:
                    drain(node, collector, now, columnar)
            return
        for name in order:
            node = self._nodes[name]
            drain(node, collector, now, columnar)
            began = clock_ns()
            out = node.op.on_time(now)
            collector.record_punctuation(
                name, len(out), clock_ns() - began
            )
            if out:
                node.tuples_out += len(out)
                self._emit(node, out)
        for name in order:
            drain(self._nodes[name], collector, now, columnar)
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
        columnar: bool = False,
    ):
        self._fjord = fjord
        self._collector = collector
        self._enabled = collector.enabled
        self._columnar = columnar
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
        fjord._sweep(
            self._order, now, self._collector, enabled, self._columnar
        )
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
        nodes: dict[str, dict] = {}
        for name in self._order:
            node = self._fjord._nodes[name]
            nodes[name] = {
                "state": node.op.checkpoint(),
                "tuples_in": node.tuples_in,
                "tuples_out": node.tuples_out,
                "pending": list(node.pending),
            }
        return {
            "cursor": self._cursor,
            "heap": list(self._heap),
            "push_seq": self._push_seq,
            "last": dict(self._last),
            "newest": dict(self._newest),
            "traces": dict(self._traces),
            "nodes": nodes,
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
        for name, entry in state["nodes"].items():
            node = self._fjord._nodes.get(name)
            if node is None:
                raise OperatorError(
                    f"checkpoint names unknown node {name!r}; the restored "
                    f"pipeline does not match the one checkpointed"
                )
            node.op.restore(entry["state"])
            node.tuples_in = entry["tuples_in"]
            node.tuples_out = entry["tuples_out"]
            node.pending[:] = entry["pending"]
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
