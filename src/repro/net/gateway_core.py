"""The ingestion gateway's state machine: every ingest decision, no I/O.

:class:`GatewayCore` owns the per-source state: a bounded ingress queue
(:mod:`repro.net.overload`; ``block`` backpressures the sender through
credit frames, the drop policies shed with exact accounting), a
:class:`~repro.streams.reorder.ReorderBuffer`, liveness, the owning
connection, the final and evicted flags and the span-trace pairing. It
imports no ``asyncio``; the liveness clock is injected. Its *events*
are method calls — a peer's ``hello`` (or a worker epoch's
:meth:`~GatewayCore.attach`), a frame, a peer's end, a drain, a liveness
check at ``now`` — and its output is frames written into each
connection's :class:`~repro.net.protocol.Outbox`, which
:meth:`~GatewayCore.flush` hands to the asyncio shell
(:mod:`repro.net.shell`) that only moves bytes.

**Served.** A reading that meets a full ``block``-policy queue (a peer
writing past its credits) stays in the core with the rest of its block,
and the connection's later frames queue behind it: the connection is
not *served* until a drain makes room. A drain serves what waited,
draining again as often as that takes.

**Time.** *Simulation* time rides on the wire; *wall* time exists only
for liveness. A tick is swept only once every non-final source's
reorder watermark has passed it — the promise that makes network-fed
output byte-identical to the in-memory run. A source's watermark rises
on its arrivals (newest arrival less the slack) and on the ``low`` a
reading declares ("every later reading of this source carries a
timestamp ≥ ``low``", applied right after the reading's own tuple by
:meth:`~repro.streams.reorder.ReorderBuffer.promise`), so a tick is
swept in the drain that took its last reading; a source that sends
under its own promise loses those readings to ``dropped_late``, alone.

**The worker role.** Built with a :class:`WorkerRole`, the same core
serves one cluster worker epoch over a :class:`TickLedger`: ``drain``
finalises every routed source, ``checkpoint`` drains, writes the
unreported ticks, snapshots and acks in one step, and completion writes
the remaining ticks and ``result_end``. An epoch routed no source is the
same core with none; it ends at its ``drain``. :func:`open_epoch`
checks the frames that open an epoch and builds (and, resumed, restores)
its core.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.overload import BLOCKED, BoundedIngressQueue, OVERLOAD_POLICIES
from repro.net.protocol import Outbox
from repro.net.recovery import decode_state, encode_state
from repro.streams.fjord import sweep_end
from repro.streams.reorder import ReorderBuffer
from repro.streams.telemetry import (
    IngestTrace,
    TelemetryCollector,
    clock_ns,
    resolve_telemetry,
)
from repro.streams.tuples import StreamTuple

#: Rows (and hop records) after which a ``result_block`` frame is
#: sealed; keeps frames far below the 1 MiB payload cap whatever the row
#: width (a wider frame still splits, as
#: :func:`~repro.net.protocol.encode_result_block` says).
RESULT_CHUNK = 256


def check_hello(
    frame: dict,
    expected: Sequence[str],
    role: str,
    count: Callable[[str], None],
) -> "tuple[list[str], int]":
    """The one feeder-facing handshake check, shared by the gateway and
    the router (``role``, for the refusal text and the ``<role>.
    version_mismatch`` / ``<role>.bad_hello`` counters bumped through
    ``count``): a supported integer version and a non-empty list of
    ``expected`` sources. Returns ``(sources, version)``, or raises the
    refusal as a ``ProtocolError``."""
    if frame.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {frame.get('type')!r}")
    version = frame.get("version")
    if type(version) is not int or version not in protocol.SUPPORTED_VERSIONS:
        count(f"{role}.version_mismatch")
        raise ProtocolError(
            f"protocol version {version!r} unsupported; this {role} "
            f"speaks {sorted(protocol.SUPPORTED_VERSIONS)}"
        )
    try:
        names = protocol.source_names(frame)
        unknown = [n for n in names if n not in expected]
        if unknown or not names:
            raise ProtocolError(
                f"unknown sources {unknown!r}; expected a non-empty "
                f"subset of {list(expected)!r}"
            )
    except ProtocolError:
        count(f"{role}.bad_hello")
        raise
    return names, version


class SourceState:
    """Everything the core tracks about one receptor id."""

    __slots__ = (
        "name", "queue", "reorder", "last_seen", "owner",
        "final_requested", "final", "evicted", "traces", "run",
        "run_traces",
    )

    def __init__(
        self,
        name: str,
        queue: BoundedIngressQueue,
        reorder: ReorderBuffer,
        last_seen: float,
    ):
        self.name = name
        self.queue = queue
        self.reorder = reorder
        self.last_seen = last_seen
        self.owner: "Conn | None" = None
        self.final_requested = False
        self.final = False
        self.evicted = False
        #: id(item) → IngestTrace for tuples inside the reorder buffer
        #: (which releases the *same* objects it stores).
        self.traces: dict[int, IngestTrace] = {}
        #: What the buffer released in this drain pass, pushed as one
        #: run at its end, with a parallel trace list once one had any.
        self.run: list[StreamTuple] = []
        self.run_traces: "list[IngestTrace | None] | None" = None


class Conn:
    """One peer connection as the core sees it."""

    __slots__ = ("states", "version", "out", "inbox", "held", "closing")

    def __init__(self) -> None:
        #: The sources this connection's handshake claimed.
        self.states: dict[str, SourceState] = {}
        self.version = 0
        self.out = Outbox()
        #: Frames waiting behind a stalled block.
        self.inbox: deque = deque()
        #: ``(rows, (state, entry))``: a block stalled at ``entry``.
        self.held: "tuple[Iterator[tuple], tuple] | None" = None
        #: ``""`` or the refusal, once the connection is to close.
        self.closing: "str | None" = None

    def served(self) -> bool:
        """Nothing of its input waits: the shell may read the next burst."""
        return self.closing is not None or (
            not self.inbox and self.held is None
        )


class WorkerRole(NamedTuple):
    """A core serving one cluster epoch: ``epoch`` and ``label`` stamp
    its results; ``rollup``, the worker's collector, absorbs its
    telemetry snapshot."""

    epoch: int
    label: str
    rollup: TelemetryCollector


class GatewayCore:
    """The gateway's decisions (see the module docstring).

    ``session`` is the pipeline session fed (in the worker role a
    :class:`TickLedger`, or ``None`` for an epoch routed no source); if
    it raises, the core fails closed: every owning connection gets an
    ``error`` frame, later input is ignored, later ``hello`` frames are
    refused, and :attr:`failure` holds the error. ``worker`` is the role
    of a cluster worker epoch; the rest are
    :class:`~repro.net.gateway.IngestGateway`'s arguments.
    """

    def __init__(
        self,
        session: Any,
        sources: "Iterable[str] | None" = None,
        *,
        slack: float = 0.0,
        policy: str = "block",
        queue_bound: int = 64,
        telemetry: "TelemetryCollector | None" = None,
        clock: Callable[[], float] = time.monotonic,
        liveness_timeout: "float | None" = None,
        worker: "WorkerRole | None" = None,
    ):
        if policy not in OVERLOAD_POLICIES:
            raise NetError(
                f"unknown overload policy {policy!r}; "
                f"expected one of {OVERLOAD_POLICIES}"
            )
        self.session = session
        self.expected = tuple(
            sorted(sources) if sources is not None else session.receptor_ids
        )
        if not self.expected and worker is None:
            raise NetError("gateway needs at least one expected source")
        self.slack = float(slack)
        self.policy = policy
        self.queue_bound = int(queue_bound)
        self.liveness_timeout = liveness_timeout
        self.collector = resolve_telemetry(telemetry)
        self.clock = clock
        self.worker = worker
        self.states: dict[str, SourceState] = {}
        self.conns: list[Conn] = []
        self.ever_connected = False
        #: Every source final and drained (worker role: results written).
        self.complete = False
        #: What the session raised, once it has.
        self.failure: "Exception | None" = None
        self._ingest_seq = 0

    # -- connection events -------------------------------------------------

    def opened(self) -> Conn:
        """A peer connected; its events name the returned connection."""
        conn = Conn()
        self.conns.append(conn)
        return conn

    def hello(self, conn: Conn, frame: dict) -> None:
        """A feeder's opening ``hello``: ack it with the initial credits
        and the peer's (accepted) version, or refuse it and close."""
        try:
            names, version = check_hello(
                frame, self.expected, "gateway", self._count
            )
            if self.failure is not None:
                raise ProtocolError(f"pipeline session failed: {self.failure!r}")
            for name in names:
                state = self.states.get(name)
                if state is not None and state.owner is not None:
                    raise ProtocolError(
                        f"source {name!r} is already connected"
                    )
        except ProtocolError as error:
            self._close(conn, str(error))
            return
        conn.version = version
        conn.out.add(protocol.hello_ack(self._adopt(conn, names), version))

    def attach(self, sources: Iterable[str]) -> Conn:
        """A worker epoch's one connection, owning ``sources``, acked
        with their credits (the router opened with this build's version,
        so readings come as blocks); restored states are kept."""
        conn = self.opened()
        conn.version = protocol.PROTOCOL_VERSION
        conn.out.add(protocol.hello_ack(self._adopt(conn, sources)))
        return conn

    def frame(self, conn: Conn, frame: dict) -> None:
        """A frame from ``conn``, served in order behind what waits (a
        worker epoch whose results are written ignores the rest)."""
        if conn.closing is None and self.failure is None and not (
            self.complete and self.worker is not None
        ):
            conn.inbox.append(frame)
            self._serve(conn)

    def end(self, conn: Conn, reason: str = "") -> None:
        """EOF, a reset or (``reason``) undecodable bytes: what ``conn``
        sent before is served, then it closes. Its sources stay open:
        the feeder may reconnect, or liveness eviction ends them."""
        if not conn.served():
            self.drain()
        if conn.closing is None:
            self._close(conn, reason)

    def _adopt(
        self, conn: "Conn | None", names: Iterable[str]
    ) -> "dict[str, int] | None":
        """Create or claim each named source's state for ``conn``
        (``None``: a restore, before anyone owns them); existing state is
        kept. Returns the initial credits (``None`` unless the policy is
        ``block``): only a queue's room, so in flight plus queued never
        exceeds the bound."""
        now = self.clock()
        credits: "dict[str, int] | None" = (
            {} if self.policy == "block" else None
        )
        for name in names:
            state = self.states.get(name)
            if state is None:
                state = self.states[name] = SourceState(
                    name,
                    BoundedIngressQueue(
                        self.queue_bound, self.policy, label=name,
                        telemetry=self.collector,
                    ),
                    ReorderBuffer(self.slack),
                    now,
                )
            state.owner = conn
            state.last_seen = now
            if conn is not None:
                conn.states[name] = state
            if credits is not None:
                credits[name] = self.queue_bound - len(state.queue)
        self.ever_connected = True
        return credits

    def _serve(self, conn: Conn) -> None:
        """Serve ``conn``'s input in order until a full queue stalls it
        or nothing is left; a malformed frame closes it."""
        try:
            while conn.closing is None and self.failure is None:
                if conn.held is not None:
                    rows, blocked = conn.held
                    conn.held = None
                    self._take_rows(conn, rows, blocked)
                    if conn.held is not None:
                        return
                elif conn.inbox:
                    self._take(conn, conn.inbox.popleft())
                else:
                    return
        except ProtocolError as error:
            self._close(conn, str(error))

    def _take(self, conn: Conn, frame: dict) -> None:
        rows = protocol.frame_rows(frame, conn.version)
        if rows is not None:
            self._take_rows(conn, iter(rows))
            return
        kind = frame.get("type")
        states = conn.states
        if kind == "heartbeat":
            now = self.clock()
            for name in protocol.source_names(frame) or states:
                if name in states:
                    states[name].last_seen = now
        elif kind == "bye":
            source = protocol.source_name(frame)
            if source not in states:
                raise ProtocolError(
                    f"bye for source {source!r} not owned by this connection"
                )
            states[source].final_requested = True
            conn.out.add(protocol.bye_ack(source))
        elif kind == "drain" and self.worker is not None:
            # The rebalance equivalent of a bye for every routed source.
            for state in self.states.values():
                if not state.final:
                    state.final_requested = True
            if not self.expected:
                self._finish()
        elif (
            kind == "checkpoint" and self.worker is not None
            and self.session is not None
        ):
            self._checkpoint(conn, int(frame.get("id", -1)))
        else:
            raise ProtocolError(f"unexpected frame type {kind!r}")

    def _take_rows(
        self,
        conn: Conn,
        rows: "Iterator[tuple]",
        blocked: "tuple[SourceState, tuple] | None" = None,
    ) -> None:
        """Queue a ``block``'s rows (or a ``data`` frame's one), each
        offered on its own; one a full ``block``-policy queue refuses is
        held, with the rest of ``rows``, until a drain.

        Raises:
            ProtocolError: A malformed row, or one for a source this
                connection does not own; the rows ahead of it are queued.
        """
        if blocked is not None:
            state, entry = blocked
            if state.queue.offer(entry) == BLOCKED:
                conn.held = (rows, blocked)
                return
        states = conn.states
        now = self.clock()
        tracing = self.collector.enabled
        for source, seq, arrival, low, item, ctx in rows:
            state = states.get(source)
            if state is None:
                raise ProtocolError(
                    f"reading for source {source!r} not declared "
                    f"in this connection's hello"
                )
            state.last_seen = now
            trace = None
            if tracing or ctx is not None:
                self._ingest_seq += 1
                # Under a cluster hop context (stamped by a tracing
                # router) t_ingest doubles as the worker-clock receive
                # stamp for the wire.transit span.
                trace = IngestTrace(self._ingest_seq, source, item.timestamp)
                trace.ctx = ctx
            # The promise rides behind its tuple: an overload policy that
            # sheds the entry sheds the promise with it.
            entry = (seq, arrival, item, trace, low)
            if state.queue.offer(entry) == BLOCKED:
                conn.held = (rows, (state, entry))
                return

    def _close(self, conn: Conn, reason: str) -> None:
        conn.closing = reason
        conn.inbox.clear()
        conn.held = None
        for state in conn.states.values():
            if state.owner is conn:
                state.owner = None

    def flush(self) -> "Iterator[tuple[Conn, bytes, bool]]":
        """Every connection's pending bytes as ``(conn, data, close)``,
        a burst (:data:`~repro.net.protocol.BURST_BYTES`) at a time; a
        closing connection's last ``data`` is its refusal, if any."""
        for conn in list(self.conns):
            for data in conn.out.bursts():
                yield conn, data, False
            if conn.closing is not None:
                self.conns.remove(conn)
                refusal = b""
                if conn.closing:
                    refusal = protocol.encode_frame(
                        protocol.error_frame(conn.closing)
                    )
                yield conn, refusal, True

    # -- draining into the pipeline ------------------------------------------

    def drain(self) -> None:
        """Drain every queue into the session, and serve what waited for
        room, draining again until nothing waits; then check whether the
        run is complete."""
        while self.failure is None:
            self._drain_pass()
            waiting = [conn for conn in self.conns if conn.held is not None]
            if not waiting:
                break
            for conn in waiting:
                self._serve(conn)
        self._check_complete()

    def _drain_pass(self) -> None:
        """Per source, take every queued entry through the reorder buffer
        and push what it released as one run; advance punctuation; grant
        credits. If the session raises, fail closed."""
        granted: dict[str, int] = {}
        try:
            for name in sorted(self.states):
                state = self.states[name]
                taken = 0
                while len(state.queue):
                    seq, arrival, item, trace, low = state.queue.take()
                    if trace is not None:
                        trace.t_queued = clock_ns()
                    self._inject(state, arrival, item, seq, trace)
                    if low is not None:
                        self._release(state, state.reorder.promise(low))
                    taken += 1
                if taken:
                    granted[name] = taken
                if state.final_requested and not state.final:
                    self._release(state, state.reorder.flush())
                    state.traces.clear()
                    state.final = True
                if state.run:
                    run, state.run = state.run, []
                    traces, state.run_traces = state.run_traces, None
                    self.session.push_run(name, run, traces)
            self._advance()
        except Exception as error:
            self._fail(error)
            return
        if self.policy != "block":
            return
        for name, amount in granted.items():
            owner = self.states[name].owner
            if owner is None or owner.closing is not None:
                continue  # gone; a reconnect re-grants from room
            owner.out.add(protocol.credit_frame(name, amount))
            if self.collector.enabled:
                self.collector.count(f"gateway.{name}.credits_granted", amount)

    def _inject(
        self,
        state: SourceState,
        arrival: float,
        item: StreamTuple,
        seq: int,
        trace: "IngestTrace | None" = None,
    ) -> None:
        if trace is not None:
            state.traces[id(item)] = trace
            dropped_before = state.reorder.dropped
        self._release(state, state.reorder.push(arrival, item, sequence=seq))
        if trace is not None and state.reorder.dropped > dropped_before:
            # Only the currently-pushed item can be late-dropped, so the
            # counter diff pins the victim: retire its trace unemitted.
            late = state.traces.pop(id(item), None)
            if late is not None:
                self._count(f"gateway.{state.name}.late_dropped")
                self.collector.span(
                    kind="span_dropped", ingest_id=late.ingest_id,
                    source=late.source, sim_ts=late.sim_ts,
                    queue_ns=late.t_queued - late.t_ingest,
                    dropped_ns=clock_ns() - late.t_queued,
                )

    def _release(
        self, state: SourceState, released: "list[StreamTuple]"
    ) -> None:
        """Add what the reorder buffer just released to the source's
        run, stamping each traced tuple's release instant."""
        traces = state.traces
        if not traces:
            state.run += released
            if state.run_traces is not None:
                state.run_traces += [None] * len(released)
            return
        for item in released:
            trace = traces.pop(id(item), None)
            if trace is not None:
                trace.t_released = clock_ns()
                if state.run_traces is None:
                    state.run_traces = [None] * len(state.run)
            if state.run_traces is not None:
                state.run_traces.append(trace)
            state.run.append(item)

    def _advance(self) -> None:
        watermark = float("inf")
        for name in self.expected:
            state = self.states.get(name)
            if state is None:
                return  # a source has never connected: hold punctuation
            if state.final:
                continue
            watermark = min(watermark, state.reorder.watermark)
        if self.session is None:
            return
        self.session.advance(watermark)
        if self.collector.enabled:
            safe = self.session.safe_time
            for name, state in self.states.items():
                mark = state.reorder.watermark
                if mark == float("-inf") or mark == float("inf"):
                    continue
                lag = max(0.0, mark - max(safe, 0.0))
                self.collector.sample_watermark(f"gateway:{name}", lag)

    def _fail(self, error: Exception) -> None:
        """Fail closed: the session raised, so no credit will ever be
        granted again. Tell every owning connection why (a worker's is
        closed too), drop what waits, and ignore later input."""
        self.failure = error
        reason = f"pipeline session failed: {error!r}"
        for conn in self.conns:
            conn.inbox.clear()
            conn.held = None
            if conn.closing is not None:
                continue
            if self.worker is not None:
                self._close(conn, reason)
            elif any(state.owner is conn for state in conn.states.values()):
                conn.out.add(protocol.error_frame(reason))

    def _check_complete(self) -> None:
        # An epoch routed no source finishes at its drain frame instead.
        if self.complete or self.failure or not self.ever_connected:
            return
        states = [self.states.get(name) for name in self.expected]
        if states and all(
            state and state.final and not len(state.queue) for state in states
        ):
            self._finish()

    def _finish(self) -> None:
        if self.complete:
            return
        if self.worker is not None:
            self._write_results()
            if self.failure is not None:
                return
            # The output is written and the epoch only waits for the
            # router's hang-up now: the pipeline's memory goes at once.
            self.session = None
        self.complete = True

    # -- the worker role ------------------------------------------------------

    def _checkpoint(self, conn: Conn, checkpoint_id: int) -> None:
        """The router's ``checkpoint`` in one step: drain, write the
        unreported ticks (the router then holds ``[0, reported)``, the
        cut the snapshot names), snapshot ledger and sources, ack."""
        assert self.worker is not None
        ledger = self.session
        self._drain_pass()
        if self.failure is not None:
            return
        write_ticks(conn.out, self.worker.epoch, ledger)
        blob, size = encode_state(
            {"ledger": ledger.checkpoint(), "gateway": self.checkpoint()}
        )
        if blob is None:
            self._count("worker.checkpoint_oversized")
            conn.out.add(protocol.checkpoint_ack(
                checkpoint_id, self.worker.epoch, ledger.reported, None,
                ok=False,
                reason=f"state blob is {size} bytes, beyond the frame "
                       f"budget; previous checkpoint stays authoritative",
            ))
            return
        self._count("worker.checkpoints_taken")
        conn.out.add(protocol.checkpoint_ack(
            checkpoint_id, self.worker.epoch, ledger.reported, blob
        ))

    def _write_results(self) -> None:
        """Close the session; write the ticks left, then ``result_end``
        with the accounting and the telemetry snapshot (which the
        worker's rollup absorbs too)."""
        role = self.worker
        assert role is not None
        conn = next((c for c in self.conns if c.closing is None), None)
        if conn is None:
            return  # the router hung up: the epoch is discarded
        ledger = self.session
        ticks, snapshot = 0, None
        if ledger is not None:
            try:
                ledger.close()
            except Exception as error:
                self._fail(error)
                return
            write_ticks(conn.out, role.epoch, ledger)
            ticks = len(ledger.per_tick)
            if self.collector.enabled:
                snapshot = self.collector.snapshot()
                role.rollup.absorb(snapshot)
        end = protocol.result_end(
            role.epoch, role.label, ticks, self.stats(), snapshot
        )
        try:
            conn.out.add(end)
        except ProtocolError:
            if snapshot is None:
                raise
            # The snapshot pushed result_end past the frame limit. The
            # event and span logs are what grow with run length, so they
            # go; the bounded rest still reaches the router, with the
            # loss counted in both rollups.
            key = "worker.telemetry_logs_dropped"
            dropped = len(snapshot["events"]) + len(snapshot["span_log"])
            role.rollup.count(key, dropped)
            end["telemetry"] = {
                **snapshot,
                "counters": {**snapshot["counters"], key: dropped},
                "events": [],
                "span_log": [],
            }
            conn.out.add(end)

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot per-source ingress state for a later :meth:`restore`,
        right after a drain pass (the queues are empty then): the reorder
        buffers, their traces paired positionally (identity keys do not
        survive serialization), the flags and the ingest sequence."""
        sources: dict[str, Any] = {}
        for name in sorted(self.states):
            state = self.states[name]
            reorder = state.reorder.checkpoint()
            sources[name] = {
                "reorder": reorder,
                "traces": [
                    state.traces.get(id(item))
                    for _ts, _seq, item in reorder["heap"]
                ],
                "final_requested": state.final_requested,
                "final": state.final,
                "evicted": state.evicted,
            }
        return {"sources": sources, "ingest_seq": self._ingest_seq}

    def restore(self, state: dict[str, Any]) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh core,
        before any data, re-pairing traces with the restored tuples."""
        for name in state["sources"]:
            if name not in self.expected:
                raise NetError(
                    f"checkpoint names unexpected source {name!r}; this "
                    f"gateway expects {list(self.expected)!r}"
                )
        self._adopt(None, state["sources"])
        for name, entry in state["sources"].items():
            source = self.states[name]
            source.reorder.restore(entry["reorder"])
            source.final_requested = bool(entry["final_requested"])
            source.final = bool(entry["final"])
            source.evicted = bool(entry["evicted"])
            source.traces = {
                id(item): trace
                for (_ts, _seq, item), trace in zip(
                    entry["reorder"]["heap"], entry["traces"]
                )
                if trace is not None
            }
        self._ingest_seq = int(state["ingest_seq"])

    # -- liveness -------------------------------------------------------------

    def check_liveness(self, now: "float | None" = None) -> list[str]:
        """Evict (finalize, counted on ``gateway.<source>.evicted``) the
        sources silent past ``liveness_timeout`` at ``now`` (default: the
        clock), then drain; returns the names evicted."""
        if self.liveness_timeout is None:
            return []
        now = self.clock() if now is None else now
        evicted: list[str] = []
        for name, state in self.states.items():
            if state.final or state.final_requested:
                continue
            if now - state.last_seen > self.liveness_timeout:
                state.final_requested = True
                state.evicted = True
                self._count(f"gateway.{name}.evicted")
                if self.collector.enabled:
                    self.collector.event(
                        "net_evicted", source=name,
                        silent_for=now - state.last_seen,
                    )
                evicted.append(name)
        if evicted:
            self.drain()
        return evicted

    # -- accounting -----------------------------------------------------------

    def _count(self, key: str) -> None:
        if self.collector.enabled:
            self.collector.count(key)

    def stats(self) -> dict[str, Any]:
        """Per-source ingestion accounting (plain data, JSON-friendly)."""
        sources = {}
        for name in sorted(self.states):
            state = self.states[name]
            sources[name] = {
                "offered": state.queue.offered,
                "delivered": state.queue.delivered,
                "dropped_overload": state.queue.dropped,
                "blocked": state.queue.blocked,
                "depth": len(state.queue),
                "max_depth": state.queue.max_depth,
                "dropped_late": state.reorder.dropped,
                "released": state.reorder.released,
                "final": state.final,
                "evicted": state.evicted,
            }
        return {
            "policy": self.policy,
            "queue_bound": self.queue_bound,
            "slack": self.slack,
            "sources": sources,
        }


def open_epoch(
    frames: Sequence[dict],
    expected: Sequence[str],
    open_session: Callable[..., Any],
    *,
    label: str,
    slack: float,
    queue_bound: int,
    rollup: TelemetryCollector,
) -> "tuple[GatewayCore, Conn] | None":
    """A cluster worker's epoch opening, no I/O. ``frames`` are those the
    router has opened the connection with so far: ``worker_hello``,
    ``route`` and, when the route asks, ``resume``. Once all have come,
    returns the epoch's core — over a fresh session from
    ``open_session(telemetry=…)``, restored when resumed; over none when
    routed no source — and its connection; ``None`` while one is due.
    ``expected`` are the sources this worker serves, ``label`` its
    default label, ``rollup`` its collector (counting
    ``worker.version_mismatch`` and ``worker.resumed_from_checkpoint``).

    Raises:
        ProtocolError: The refusal the router is to be told.
    """
    hello = _expect(frames[0], "worker_hello")
    if hello.get("version") != protocol.PROTOCOL_VERSION:
        # Router and workers are one deployment: the router sends this
        # build's frames (blocks included), so a worker cannot fall back
        # the way the feeder path does.
        if rollup.enabled:
            rollup.count("worker.version_mismatch")
        raise ProtocolError(
            f"cluster dialect requires protocol {protocol.PROTOCOL_VERSION}, "
            f"got {hello.get('version')!r}"
        )
    if len(frames) < 2:
        return None
    route = _expect(frames[1], "route")
    sources = sorted(route.get("sources") or [])
    unknown = [name for name in sources if name not in expected]
    if unknown:
        raise ProtocolError(
            f"unroutable sources {unknown!r}; this worker serves "
            f"{list(expected)!r}"
        )
    epoch = int(route.get("epoch", 0))
    state = None
    if route.get("resume"):
        if len(frames) < 3:
            return None
        resume = _expect(frames[2], "resume")
        if int(resume.get("epoch", -1)) != epoch:
            raise ProtocolError(
                f"resume epoch {resume.get('epoch')!r} does not match "
                f"route epoch {epoch}"
            )
        state = resume.get("state")
    ledger = collector = None
    if sources:
        collector = rollup.spawn()
        ledger = TickLedger(open_session(telemetry=collector))
    core = GatewayCore(
        ledger, sources, slack=slack, policy="block",
        queue_bound=queue_bound, telemetry=collector,
        worker=WorkerRole(epoch, str(hello.get("worker") or label), rollup),
    )
    if ledger is not None and state is not None:
        # Restore into the freshly built identical pipeline before any
        # data: configuration never crosses the wire, only the
        # operators' data state does.
        decoded = decode_state(state)
        ledger.restore(decoded["ledger"])
        core.restore(decoded["gateway"])
        if rollup.enabled:
            rollup.count("worker.resumed_from_checkpoint")
    return core, core.attach(sources)


def _expect(frame: dict, kind: str) -> dict:
    if frame.get("type") != kind:
        raise ProtocolError(f"expected {kind}, got {frame.get('type')!r}")
    return frame


class TickLedger:
    """Session wrapper attributing emissions to punctuation ticks.

    The egress merge needs each worker's output *per punctuation tick*
    (:func:`repro.streams.shard.merge_outputs`), but a session's
    ``advance`` may sweep many ticks in one call. The ledger presents the
    session surface the core drives but performs every multi-tick sweep
    as single-tick sweeps under the Fjord session's own condition
    (:func:`repro.streams.fjord.sweep_end`), taking the sink's output
    after each into :attr:`per_tick`: the same output, attributable, and
    a sink that holds nothing between ticks, so a checkpoint never
    carries output the router already has.
    """

    def __init__(self, session: Any) -> None:
        self._session = session
        self._ticks: tuple[float, ...] = tuple(session.ticks)
        #: Output attributed to each swept tick, in tick order.
        self.per_tick: list[list[StreamTuple]] = []
        #: Hop-span records per swept tick, parallel to :attr:`per_tick`
        #: (filled only when the router stamped trace contexts).
        self.spans_per_tick: list[list[list]] = []
        #: Ticks already written to the router (:func:`write_ticks`).
        self.reported = 0
        self._closing: list[list] = []
        session.span_sink = self._capture_span

    def __getattr__(self, name: str) -> Any:
        # receptor_ids, safe_time, push, push_run: the session's own.
        return getattr(self._session, name)

    def advance(self, watermark: float) -> list[float]:
        swept: list[float] = []
        start = len(self.per_tick)
        end = sweep_end(self._ticks, watermark, start)
        for tick in self._ticks[start:end]:
            # A watermark just past this tick's tolerance and below the
            # next tick's: the session sweeps exactly this one.
            swept.extend(self._session.advance(tick + 3e-9))
            self.per_tick.append(self._session.take_emitted())
            self.spans_per_tick.append(self._closing)
            self._closing = []
        return swept

    def _capture_span(self, trace: Any, done: int) -> None:
        """Session callback: one cluster-traced tuple finished its sweep.
        Its hop record — the router's trace context and the worker-clock
        stamps, raw integer ns, positional (layout on
        :func:`repro.net.protocol.encode_result_block`) — goes back with
        this tick's results; the router computes the phases on arrival.
        """
        ingest_id, recv, acq, fwd, replayed = trace.ctx
        self._closing.append([
            ingest_id,
            trace.source,
            trace.sim_ts,
            recv,
            acq,
            fwd,
            trace.t_ingest,
            trace.t_queued,
            trace.t_released,
            done,
            replayed,
        ])

    def close(self) -> Any:
        self.advance(float("inf"))
        return self._session.close()

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the ledger (and its session) for later :meth:`restore`:
        operator state plus unreported output, not run length — the
        router holds the reported ticks, and the sink is empty."""
        return {
            "session": self._session.checkpoint(),
            "ticks": len(self.per_tick),
            "reported": self.reported,
            "pending": [list(bucket) for bucket in
                        self.per_tick[self.reported:]],
            "pending_spans": [list(bucket) for bucket in
                              self.spans_per_tick[self.reported:]],
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh ledger.
        Reported ticks come back as empty placeholders (the router's
        store holds them), so indexing continues where it left off."""
        if self.per_tick or self.reported:
            raise NetError("restore needs a fresh TickLedger")
        self._session.restore(state["session"])
        self.reported = int(state["reported"])
        self.per_tick = [[] for _ in range(self.reported)]
        self.per_tick.extend(list(bucket) for bucket in state["pending"])
        self.spans_per_tick = [[] for _ in range(self.reported)]
        self.spans_per_tick.extend(
            list(bucket) for bucket in state["pending_spans"]
        )
        if len(self.per_tick) != int(state["ticks"]):
            raise NetError(
                f"checkpoint ledger inconsistent: {len(self.per_tick)} "
                f"ticks rebuilt, {state['ticks']} captured"
            )


def write_ticks(out: Outbox, epoch: int, ledger: TickLedger) -> int:
    """Write the ledger's unreported ticks into ``out`` as
    ``result_block`` frames; returns how many ticks that was.

    Many ticks share a frame, sealed at :data:`RESULT_CHUNK` rows; the
    shell writes them a burst at a time (a write per frame cost ≈ 1 MB
    more peak memory in the two-worker shelf cluster benchmark on a
    2-vCPU host). Advances ``ledger.reported``: a checkpoint writes its
    delta, completion what is left.
    """
    start = ledger.reported
    for ticks in _sealed_ticks(ledger, start):
        out.write(protocol.encode_result_block(epoch, ticks))
    ledger.reported = len(ledger.per_tick)
    return ledger.reported - start


def _sealed_ticks(
    ledger: TickLedger, start: int
) -> "Iterator[list[tuple]]":
    """The ledger's ticks from ``start`` on as the ``(index, items,
    spans)`` lists of successive frames, each sealed at
    :data:`RESULT_CHUNK` rows or hop records (cut in lockstep; a tick
    with neither is not listed)."""
    sealed: list[tuple] = []
    fill = 0
    for index in range(start, len(ledger.per_tick)):
        bucket = ledger.per_tick[index]
        spans = ledger.spans_per_tick[index]
        size = max(len(bucket), len(spans))
        offset = 0
        while offset < size:
            take = min(RESULT_CHUNK - fill, size - offset)
            end = offset + take
            sealed.append((index, bucket[offset:end], spans[offset:end]))
            fill += take
            offset = end
            if fill == RESULT_CHUNK:
                yield sealed
                sealed = []
                fill = 0
    if sealed:
        yield sealed
