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
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import attrgetter, itemgetter, lt, sub
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

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
#: shelf_mem     10,498    9 /  25 /  25      0.000
#: redwood_mem   14,244    1 /  16 /  16      0.000
#: home_mem      29,466    1 /   3 /   4      0.000
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
        #: a payload is a list (a source's run, ``on_batch`` and
        #: ``on_time`` output), a ColumnBatch (column-kernel output) or a
        #: single tuple (a sink callback's). Payloads are shared with
        #: sibling consumers and never mutated.
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
                    for target, tport in downstream:
                        nodes[target].pending.append((out, tport))
                start = stop

    def run(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: "str | None" = None,
    ) -> None:
        """Execute the dataflow over the given punctuation times: all
        source tuples with timestamp ``<= tick`` are injected before that
        tick's sweep; tuples later than the final tick are not delivered.

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
        """Open a :class:`FjordSession` over ``ticks``, fed from outside
        (a network gateway, a live poller) instead of by the registered
        sources' items. Sources must still be registered (with empty
        feeds, typically) so their edges exist. ``mode`` is deprecated and
        ignored, as on :meth:`run`.
        """
        _check_mode(mode)
        return FjordSession(self, ticks, resolve_telemetry(telemetry))

    def run_stepped(
        self,
        ticks: Iterable[float],
        telemetry: TelemetryCollector | None = None,
        mode: "str | None" = None,
    ) -> Iterator[float]:
        """Like :meth:`run`, but yield each punctuation time once its
        sweep has delivered every emission for that instant to the sinks
        (how the sharded executor attributes output to ticks).

        This is a :class:`FjordSession` with the registered sources as
        its queued input — the live path with a recording as its feed.
        When telemetry is enabled, every ``on_batch``/``on_time`` call is
        timed into per-operator histograms, and tick boundaries sample
        each node's pending-queue depth plus each source's watermark lag
        (tick time minus the newest injected timestamp); the no-op
        collector skips all of it behind one flag check per call site.
        """
        session = self.open_session(ticks, telemetry, mode)
        session._replay(self._sources)
        for _now in session.ticks:
            yield session._step()
        session.close()

    # -- machinery a session (and a compiled query's plan) drives ----------------

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
        otherwise). Punctuation output is delivered, whole, as the list
        ``on_time`` returned — the drain flattens or coalesces mixed
        pending payloads.
        """
        drain = self._drain_node
        nodes = self._nodes
        if not enabled:
            # Fast path: a passive node (base no-op ``on_time``) with an
            # empty queue contributes nothing to this sweep — skip it
            # without touching its operator. Output is byte-identical to
            # the full walk because the skipped calls were provably
            # no-ops; on graphs dominated by stateless stages this turns
            # the per-tick cost from O(nodes) into O(active nodes).
            for name in order:
                node = nodes[name]
                if node.pending:
                    drain(node, collector, now)
                if node.passive:
                    continue
                out = node.op.on_time(now)
                if out:
                    node.tuples_out += len(out)
                    for target, tport in node.downstream:
                        nodes[target].pending.append((out, tport))
            for name in order:
                node = nodes[name]
                if node.pending:
                    drain(node, collector, now)
            return
        for name in order:
            node = nodes[name]
            drain(node, collector, now)
            began = clock_ns()
            out = node.op.on_time(now)
            collector.record_punctuation(
                name, len(out), clock_ns() - began
            )
            if out:
                node.tuples_out += len(out)
                for target, tport in node.downstream:
                    nodes[target].pending.append((out, tport))
        for name in order:
            drain(nodes[name], collector, now)
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

    A live ingress (the :mod:`repro.net` gateway) pushes tuples per
    source as runs (:meth:`push_run`) and advances punctuation only as
    far as its reorder buffers allow. At each tick every source's due
    prefix is injected whole; a node fed by several sources (or ports)
    gets their runs merged head by head on ``(timestamp, source name)``,
    push order kept within a source — a pure function of the data, so
    sharding cannot reorder the survivors. :meth:`Fjord.run` is this
    session with the registered sources as its queued input.

    **Equivalence guarantee.** If (a) every tuple is pushed before the
    session sweeps the first tick at or after its timestamp, (b) pushes
    per source are timestamp-ordered, and (c) equal-timestamp pushes
    follow original stream order, then the sink output is *identical*,
    tuple for tuple, to ``Fjord.run`` over the same data, however the
    pushes were cut into runs. :meth:`advance`'s watermark contract
    enforces (a): a violation raises :class:`OperatorError`.
    """

    def __init__(
        self, fjord: Fjord, ticks: Iterable[float], collector: TelemetryCollector
    ):
        self._fjord = fjord
        self._collector = collector
        self._enabled = collector.enabled
        self._order = fjord._topological_order()
        self._ticks = [float(t) for t in ticks]
        if any(a > b for a, b in zip(self._ticks, self._ticks[1:])):
            raise OperatorError("session ticks must be ascending")
        self._cursor = 0  # index of the next tick to sweep
        #: Per source, in name order: the merge's tie-break order.
        self._queues = {name: _SourceQueue(name) for name in sorted(fjord._sources)}
        edges = fjord._source_edges
        fan_in = Counter(target for out in edges.values() for target, _port in out)
        for name, queue in self._queues.items():
            ports: dict[str, list[int]] = {}
            for target, port in edges[name]:
                ports.setdefault(target, []).append(port)
            for target, target_ports in ports.items():
                if fan_in[target] == 1:
                    queue.direct.append((fjord._nodes[target], target_ports[0]))
                else:
                    queue.shared.append((target, tuple(target_ports)))
        self._newest: dict[str, float] = {}  # per-source newest injected
        #: Optional ``sink(trace, done_ns)`` for every finished trace with
        #: a cluster context (``trace.ctx``): a worker's tick ledger hangs
        #: its hop records here. Runtime wiring, not :meth:`checkpoint` state.
        self.span_sink: "Callable[[IngestTrace, int], None] | None" = None
        self._closed = False
        if self._enabled:
            collector.event(
                "run_start", nodes=len(self._order), sources=len(fjord._sources)
            )
            for name in self._order:
                op = type(fjord._nodes[name].op).__name__
                collector.event("operator_start", node=name, op=op)

    @property
    def safe_time(self) -> float:
        """The last punctuation time swept (``-inf`` before the first):
        a push at or below it can no longer be injected faithfully."""
        if self._cursor == 0:
            return float("-inf")
        return self._ticks[self._cursor - 1]

    @property
    def pending(self) -> int:
        """Tuples pushed but not yet injected into the dataflow."""
        return sum(len(q.items) - q.head for q in self._queues.values())

    @property
    def ticks(self) -> tuple[float, ...]:
        """The full punctuation schedule this session sweeps."""
        return tuple(self._ticks)

    def push(
        self, source: str, item: StreamTuple, trace: "IngestTrace | None" = None
    ) -> None:
        """Queue one tuple from ``source``: :meth:`push_run` of one."""
        self.push_run(source, (item,), None if trace is None else (trace,))

    def push_run(
        self,
        source: str,
        items: Sequence[StreamTuple],
        traces: "Sequence[IngestTrace | None] | None" = None,
    ) -> None:
        """Queue a run of tuples from ``source``, in order, for injection.

        Every tuple is checked; a failing run queues nothing. ``traces``
        holds one :class:`~repro.streams.telemetry.IngestTrace` or
        ``None`` per tuple: a traced tuple's injection is stamped and its
        spans are recorded once the sweep that consumed it completes.

        Raises:
            OperatorError: If the session is closed, the source is
                unknown, ``traces`` does not match ``items``, a tuple is
                more than 1 ns older than this source's newest push, or
                one lands at or behind :attr:`safe_time` (its tick was
                swept: a reorder buffer's slack is there to prevent it).
        """
        if self._closed:
            raise OperatorError("push on a closed FjordSession")
        queue = self._queues.get(source)
        if queue is None:
            raise OperatorError(f"unknown session source {source!r}")
        if traces is not None and len(traces) != len(items):
            raise OperatorError(
                f"push_run got {len(traces)} traces for {len(items)} tuples"
            )
        floor = self.safe_time + 1e-9
        last = queue.last
        marks: list[float] = []
        for item in items:
            stamp = item.timestamp
            if stamp < last - 1e-9:
                self._reject(
                    "source_out_of_order",
                    f"session source {source!r} is out of order: timestamp "
                    f"{stamp:g} arrived after {last:g}",
                    source=source, timestamp=stamp, previous=last,
                )
            if stamp <= floor:
                self._reject(
                    "session_late_push",
                    f"tuple from {source!r} at t={stamp:g} arrived behind the "
                    f"session's punctuation cursor (safe_time="
                    f"{self.safe_time:g}); increase the ingress reorder slack",
                    source=source, timestamp=stamp, safe_time=self.safe_time,
                )
            if stamp > last:
                last = stamp
            marks.append(last)
        if marks:
            queue.enqueue(items, marks, traces)
            queue.last = last

    def _reject(self, kind: str, message: str, **fields: object) -> NoReturn:
        """Record the failure as a trace event for post-mortems; raise."""
        self._collector.event(kind, **fields)
        raise OperatorError(message)

    def _replay(self, sources: Mapping[str, Iterable[StreamTuple]]) -> None:
        """Queue recordings: a list whole, any other iterable pulled
        lazily as its ticks come due. A reading more than 1 ns older than
        the newest before it raises when its predecessor is injected,
        before that tick's sweep, so whatever was swept stands."""
        for name, items in sources.items():
            queue = self._queues[name]
            if not isinstance(items, list):
                queue.pull = iter(items)
                continue
            marks = list(map(_stamp, items))
            if sorted(marks) != marks:  # a sorted list is its own marks
                stamps, marks = marks, list(accumulate(marks, max))
                late = map(lt, islice(stamps, 1, None), map(sub, marks, repeat(1e-9)))
                queue.bad = next(compress(count(1), late), None)
            queue.enqueue(items, marks, None)

    def advance(self, watermark: float) -> list[float]:
        """Sweep every remaining tick strictly below ``watermark``;
        returns the times swept, in order (none for a stale watermark).
        The caller promises no later push is more than 1 ns below it (a
        :attr:`~repro.streams.reorder.ReorderBuffer.watermark` is that
        promise); the extra nanosecond of guard margin absorbs it."""
        if self._closed:
            raise OperatorError("advance on a closed FjordSession")
        swept: list[float] = []
        end = sweep_end(self._ticks, watermark, self._cursor)
        while self._cursor < end:
            swept.append(self._step())
        return swept

    def _step(self) -> float:
        """Inject every source's due prefix and sweep the next tick (the
        one injection routine, pushed or replayed); returns its time."""
        now = self._ticks[self._cursor]
        bound = now + 1e-9
        fjord, collector, enabled = self._fjord, self._collector, self._enabled
        shared: "dict[str, list] | None" = None
        injected: "list[IngestTrace] | None" = None
        for queue in self._queues.values():
            if queue.pull is not None:
                queue.pull_due(bound)
            end = bisect_right(queue.marks, bound, queue.head)
            if end == queue.head:
                continue
            bad = queue.bad
            if bad is not None and end >= bad:
                stamp, previous = queue.items[bad].timestamp, queue.marks[bad - 1]
                self._reject(
                    "source_out_of_order", f"source {queue.name!r} is out of "
                    f"order: timestamp {stamp:g} arrived after {previous:g}",
                    source=queue.name, timestamp=stamp, previous=previous,
                )
            run, marks, traces = queue.take(end)
            for node, port in queue.direct:
                node.pending.append((run, port))
            for target, ports in queue.shared:
                shared = shared or {}
                shared.setdefault(target, []).append((run, marks, ports))
            if enabled:
                collector.count_source(queue.name, len(run))
                self._newest[queue.name] = run[-1].timestamp
            if traces is not None:
                stamp = clock_ns()
                for trace in filter(None, traces):
                    trace.t_injected = stamp
                    injected = injected or []
                    injected.append(trace)
        for target, parts in (shared or {}).items():
            _merge_runs(fjord._nodes[target].pending, parts)
        if enabled:
            fjord._sample_tick(self._order, now, self._newest, collector)
        fjord._sweep(self._order, now, collector, enabled)
        if injected is not None:
            self._finish_spans(injected, now)
        self._cursor += 1
        return now

    def _finish_spans(self, injected: "list[IngestTrace]", now: float) -> None:
        """Close the spans of every tuple this sweep consumed: all it
        contributed at its tick happened inside the sweep that just
        returned. The four phases share boundary stamps, so they sum to
        the end-to-end duration exactly (the invariant span tests pin)."""
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
                ingest_id=trace.ingest_id, source=trace.source,
                sim_ts=trace.sim_ts, tick=now, queue_ns=queue_ns,
                reorder_ns=reorder_ns, session_ns=session_ns,
                sweep_ns=sweep_ns, e2e_ns=done - trace.t_ingest,
            )

    def checkpoint(self) -> dict:
        """Snapshot the cursor, each source's queued run and its traces,
        per-source ordering stamps and, per node, the operator's state,
        flow counters and pending input, for :meth:`restore` into a freshly
        built identical pipeline. Live references: serialize before the
        next push or advance."""
        queues = self._queues.items()
        return {
            "cursor": self._cursor,
            "queued": {n: q.items[q.head:] for n, q in queues if q.head < len(q.items)},
            "traces": {n: q.traces[q.head:] for n, q in queues if q.traces},
            "last": {n: q.last for n, q in queues if q.last > float("-inf")},
            "newest": dict(self._newest),
            "nodes": self._fjord._checkpoint_nodes(),
        }

    def restore(self, state: Mapping) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh session,
        built from the same pipeline with the same ticks; execution then
        continues exactly where the snapshot was taken.

        Raises:
            OperatorError: When the session is not fresh, or the
                snapshot names a node this dataflow does not have (the
                pipelines are not identical).
        """
        if self._closed:
            raise OperatorError("restore on a closed FjordSession")
        if self._cursor or any(q.last > float("-inf") for q in self._queues.values()):
            raise OperatorError("restore needs a fresh session")
        self._fjord._restore_nodes(state["nodes"])
        self._cursor = int(state["cursor"])
        for name, items in state["queued"].items():
            # A queued tuple is newer than every one injected before it,
            # so running maxima over the queued tuples alone are its marks.
            marks = list(accumulate(map(_stamp, items), max))
            self._queues[name].enqueue(items, marks, state["traces"].get(name))
        for name, last in state["last"].items():
            self._queues[name].last = last
        self._newest = dict(state["newest"])

    def close(self) -> None:
        """Sweep all remaining ticks and end the session; call after the
        last push (end of stream). Idempotent."""
        if self._closed:
            return
        while self._cursor < len(self._ticks):
            self._step()
        if self._enabled:
            for name in self._order:
                node = self._fjord._nodes[name]
                self._collector.event(
                    "operator_stop", node=name,
                    tuples_in=node.tuples_in, tuples_out=node.tuples_out,
                )
            self._collector.event("run_end", ticks=self._cursor)
        self._closed = True


_stamp = attrgetter("timestamp")


class _SourceQueue:
    """One session source's queued tuples: ``items[head:]`` wait.

    ``marks[i]`` is the newest timestamp among ``items[:i + 1]`` and all
    queued before, so one bisect finds a tick's due prefix even where a
    tuple sits inside the 1 ns tolerance below an earlier one. A
    recording may set ``bad`` (its first tuple more than 1 ns older than
    the newest before it) and ``pull`` (the iterator it is pulled from).
    """

    __slots__ = (
        "name", "items", "marks", "traces", "head", "last", "bad", "pull",
        "direct", "shared",
    )

    def __init__(self, name: str):
        self.name = name
        self.items: list[StreamTuple] = []
        self.marks: list[float] = []
        self.traces: "list[IngestTrace | None] | None" = None
        self.head = 0
        self.last = float("-inf")  # newest timestamp ever queued
        self.bad: "int | None" = None
        self.pull: "Iterator[StreamTuple] | None" = None
        self.direct: list[tuple[_Node, int]] = []  # nodes only it feeds
        #: (node name, ports in edge order) for nodes others feed too
        self.shared: list[tuple[str, tuple[int, ...]]] = []

    def enqueue(
        self,
        items: Sequence[StreamTuple],
        marks: list[float],
        traces: "Sequence[IngestTrace | None] | None",
    ) -> None:
        if traces is not None and self.traces is None:
            self.traces = [None] * len(self.items)
        if self.traces is not None:
            self.traces += [None] * len(items) if traces is None else traces
        self.items += items
        self.marks += marks

    def take(self, end: int) -> "tuple[list, list[float], list | None]":
        """Remove and return ``items[head:end]``, marks and traces."""
        head, items, marks, traces = self.head, self.items, self.marks, self.traces
        taken = items[head:end], marks[head:end], traces and traces[head:end]
        if end == len(items):
            self.items, self.marks, self.traces, self.head = [], [], None, 0
        elif 2 * end >= len(items):
            # Drop the consumed part: a queue that never empties must not grow.
            del items[:end], marks[:end]
            if traces is not None:
                del traces[:end]
            if self.bad is not None:
                self.bad -= end
            self.head = 0
        else:
            self.head = end
        return taken

    def pull_due(self, bound: float) -> None:
        """Pull a lazily replayed recording until its newest queued
        tuple lies past ``bound``, it ends, or it goes out of order."""
        items, marks = self.items, self.marks
        while self.pull is not None and (
            self.head == len(items) or items[-1].timestamp <= bound
        ):
            item = next(self.pull, None)
            if item is None:
                self.pull = None
                break
            if item.timestamp < self.last - 1e-9:
                self.bad, self.pull = len(items), None
            self.last = max(self.last, item.timestamp)
            items.append(item)
            marks.append(self.last)


def _merge_runs(
    pending: list,
    parts: "list[tuple[list[StreamTuple], list[float], tuple[int, ...]]]",
) -> None:
    """Queue at ``pending`` one tick's ``(run, marks, ports)`` from a
    node's feeding sources, in source-name order.

    Merging the runs head by head on ``(timestamp, source name)`` is a
    stable sort of their concatenation by mark. Each tuple goes to its
    source's ports in edge order, as consecutive same-port entries.
    """
    run, _marks, ports = parts[0]
    if len(parts) == 1 and len(ports) == 1:
        pending.append((run, ports[0]))
    elif len(ports) == 1 and all(part[2] == ports for part in parts):
        pairs = chain.from_iterable(zip(m, r) for r, m, _p in parts)
        merged = sorted(pairs, key=itemgetter(0))
        pending.append((list(map(itemgetter(1), merged)), ports[0]))
    else:
        triples = chain.from_iterable(zip(m, r, repeat(p)) for r, m, p in parts)
        port: "int | None" = None
        for _mark, item, item_ports in sorted(triples, key=itemgetter(0)):
            for item_port in item_ports:
                if item_port != port:
                    port, rows = item_port, []
                    pending.append((rows, port))
                rows.append(item)
