"""The ingestion gateway: a TCP front door for a streaming pipeline.

:class:`IngestGateway` is the network boundary the paper leaves
implicit: an asyncio server that accepts receptor connections speaking
the :mod:`repro.net.protocol` wire format and feeds their readings into
a live :class:`~repro.core.pipeline.ESPStreamSession`. Per source it
maintains:

- a :class:`~repro.net.overload.BoundedIngressQueue` (pluggable
  overload policy — ``block`` propagates backpressure to the sender via
  credit frames; the drop policies shed with exact accounting);
- a :class:`~repro.streams.reorder.ReorderBuffer` with configurable
  slack, restoring timestamp order from network-delayed arrivals;
- liveness state (last frame seen, wall clock) so stale receptors can
  be evicted rather than stalling punctuation forever.

**Time.** Two independent axes, never mixed: *simulation* time rides on
the wire (readings carry the arrival stamps the feeder's delay model
produced; ordering, slack and punctuation all live here), while *wall*
time exists only for liveness (an injectable ``clock`` so tests never
sleep). Punctuation advances by the watermark rule: a tick is swept
only once every non-final source's reorder-buffer watermark has passed
it, which is exactly the promise that makes the network-fed output
byte-identical to the in-memory batch run. A source's watermark rises
on its arrivals (newest arrival less the slack) and on the low
watermark the source itself declares: a reading's optional ``low``
("every later reading of this source carries a timestamp ≥ ``low``" —
a ``block`` row's cell, a ``data`` frame's key)
is applied to the source's buffer right after the reading's own tuple
(:meth:`~repro.streams.reorder.ReorderBuffer.promise`), so a tick is
swept in the drain that took its last reading instead of waiting for
the next poll to arrive. A source that declares nothing holds
punctuation exactly as before; one that sends under its own promise
loses those readings to the lateness rule (``dropped_late``), alone.

**Lifecycle.** ``await start()`` → feeders connect, stream, and say
``bye`` per source (or go silent and get evicted via
:meth:`check_liveness`) → ``await run_until_drained()`` resolves once
every expected source is final and drained → ``await close()`` flushes
and returns the completed :class:`~repro.core.pipeline.ESPRun`.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, AsyncIterator, Awaitable, Callable, Iterable, Sequence

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.overload import BLOCKED, BoundedIngressQueue, OVERLOAD_POLICIES
from repro.net.protocol import FrameReader, read_frame, write_frame
from repro.streams.reorder import ReorderBuffer
from repro.streams.telemetry import (
    IngestTrace,
    TelemetryCollector,
    clock_ns,
    resolve_telemetry,
)
from repro.streams.tuples import StreamTuple


class _SourceState:
    """Everything the gateway tracks about one receptor id."""

    __slots__ = (
        "name", "queue", "reorder", "last_seen", "owner",
        "final_requested", "final", "evicted", "space", "traces",
        "run", "run_traces",
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
        self.owner: "asyncio.StreamWriter | None" = None
        self.final_requested = False
        self.final = False
        self.evicted = False
        self.space = asyncio.Event()
        #: id(item) → IngestTrace for tuples currently inside the
        #: reorder buffer. The buffer stores and releases the *same*
        #: objects, so object identity is the correlation key — no
        #: ReorderBuffer API change needed.
        self.traces: dict[int, IngestTrace] = {}
        #: What the reorder buffer released during the current drain
        #: pass, pushed into the session as one run at its end; the
        #: parallel trace list exists once a released tuple had one.
        self.run: list[StreamTuple] = []
        self.run_traces: "list[IngestTrace | None] | None" = None


def check_hello(
    frame: dict,
    expected: Sequence[str],
    role: str,
    count: Callable[[str], None],
) -> "tuple[list[str], int]":
    """Validate a feeder's opening ``hello``.

    The one feeder-facing handshake check, shared by the standalone
    gateway and the cluster router (``role`` names which, for the
    refusal text and the ``<role>.version_mismatch`` /
    ``<role>.bad_hello`` counters bumped through ``count``). Accepts a
    ``hello`` whose version is an integer in
    :data:`~repro.net.protocol.SUPPORTED_VERSIONS` and whose sources
    are a list of strings, a non-empty subset of ``expected``; returns
    ``(sources, version)``, or raises the refusal as a ``ProtocolError``.
    """
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


class IngestGateway:
    """Serve a streaming pipeline session over TCP.

    Args:
        session: The push-mode pipeline run to feed — anything with the
            :class:`~repro.core.pipeline.ESPStreamSession` surface
            (``receptor_ids``, ``push_run``, ``advance``, ``safe_time``,
            ``close``). If it raises, the gateway fails closed: every
            connected feeder gets an ``error`` frame naming the failure,
            new connections are refused with it, and
            :meth:`run_until_drained` and :meth:`close` re-raise it.
        sources: Receptor ids the gateway expects; defaults to the
            session's. Completion requires every one of them to finish
            (clean ``bye`` or liveness eviction).
        slack: Reorder slack, simulation seconds. Size it at or above
            the feeder's maximum network delay for zero late drops.
        policy: Overload policy for every per-source ingress queue
            (see :mod:`repro.net.overload`).
        queue_bound: Per-source ingress queue capacity.
        telemetry: Collector for depth/drop/lag metrics; defaults to
            the process-wide default.
        clock: Wall-clock source for liveness, ``time.monotonic`` by
            default. Injectable so tests control time.
        liveness_timeout: Seconds of silence after which a source is
            eviction-eligible; ``None`` disables eviction.
        liveness_interval: Period of the background eviction sweep.
            ``None`` (default) starts no background task — callers
            drive :meth:`check_liveness` explicitly (how the tests
            stay sleep-free).
        throttle: Optional awaitable hook invoked before each item is
            drained — a test affordance for making the pipeline slower
            than the feeder without wall-clock sleeps.
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
        liveness_interval: "float | None" = None,
        throttle: "Callable[[], Awaitable[None]] | None" = None,
    ):
        if policy not in OVERLOAD_POLICIES:
            raise NetError(
                f"unknown overload policy {policy!r}; "
                f"expected one of {OVERLOAD_POLICIES}"
            )
        self._session = session
        self._expected = tuple(
            sorted(sources) if sources is not None else session.receptor_ids
        )
        if not self._expected:
            raise NetError("gateway needs at least one expected source")
        self.slack = float(slack)
        self.policy = policy
        self.queue_bound = int(queue_bound)
        self.liveness_timeout = liveness_timeout
        self._liveness_interval = liveness_interval
        self._collector = resolve_telemetry(telemetry)
        self._clock = clock
        self._throttle = throttle
        self._states: dict[str, _SourceState] = {}
        self._server: "asyncio.base_events.Server | None" = None
        self._drainer: "asyncio.Task | None" = None
        self._watchdog: "asyncio.Task | None" = None
        self._work = asyncio.Event()
        self._drain_lock = asyncio.Lock()
        self._complete = asyncio.Event()
        #: What the session raised inside a drain, once it has.
        self._failure: "Exception | None" = None
        self._ever_connected = False
        self._closed = False
        self._started = False
        self._ingest_seq = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        ``port=0`` picks a free ephemeral port (how the loopback tests
        avoid collisions).
        """
        if self._server is not None:
            raise NetError("gateway already started")
        self._server = await asyncio.start_server(self._handle, host, port)
        self._started = True
        self._drainer = asyncio.ensure_future(self._drain_loop())
        if self.liveness_timeout is not None and self._liveness_interval:
            self._watchdog = asyncio.ensure_future(self._watch_loop())
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def run_until_drained(self) -> None:
        """Resolve once every expected source is final and drained.

        Raises:
            Exception: Whatever the session raised inside a drain.
        """
        await self._complete.wait()
        if self._failure is not None:
            raise self._failure

    async def close(self) -> Any:
        """Stop serving, flush, and return the session's completed run.

        Idempotent; safe to call before every source finished (whatever
        arrived is flushed through the pipeline's remaining ticks).

        Raises:
            Exception: Whatever the session raised inside a drain — after
                the server is closed; nothing is flushed then.
        """
        if self._closed:
            if self._failure is not None:
                raise self._failure
            return self._session.close()
        self._closed = True
        for task in (self._drainer, self._watchdog):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._failure is not None:
            raise self._failure
        await self._drain_once()  # leftovers enqueued since the last pass
        return self._session.close()

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        owned: list[_SourceState] = []
        try:
            opened = await self._handshake(reader, writer)
            if opened is None:
                return
            owned, version = opened
            await self._serve_frames(reader, writer, owned, version)
        except ProtocolError as error:
            await protocol.bail(writer, str(error))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; liveness eviction covers the fallout
        finally:
            for state in owned:
                if state.owner is writer:
                    state.owner = None
            writer.close()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "tuple[list[_SourceState], int] | None":
        frame = await read_frame(reader)
        if frame is None:
            return None
        try:
            hello = check_hello(frame, self._expected, "gateway", self._count)
        except ProtocolError as error:
            await protocol.bail(writer, str(error))
            return None
        if self._failure is not None:
            await protocol.bail(writer, self._failure_reason())
            return None
        names, version = hello
        for name in names:
            state = self._states.get(name)
            if state is not None and state.owner is not None:
                await protocol.bail(
                    writer, f"source {name!r} is already connected"
                )
                return None
        owned, credits = self._adopt(names, writer)
        # Echo the client's (accepted) version so a v1 feeder keeps
        # seeing the dialect it asked for.
        await write_frame(writer, protocol.hello_ack(credits, version))
        return owned, version

    def _adopt(
        self,
        names: Iterable[str],
        writer: "asyncio.StreamWriter | None",
    ) -> "tuple[list[_SourceState], dict[str, int] | None]":
        """Create or claim the per-source state for ``names``.

        The one place a :class:`_SourceState` comes to exist: a feeder
        connection's handshake, the router-fed :meth:`attach`, and a
        pre-data :meth:`restore` (``writer=None`` — nobody owns the
        sources yet). Existing state (a reconnecting source, or one a
        restore installed) is kept, not rebuilt.

        Returns:
            ``(owned, credits)`` — the states in ``names`` order and
            the initial credit grant (``None`` unless the policy is
            ``block``). A reconnecting source's queue may still hold
            items; only the remaining room is granted, so in-flight +
            queued can never exceed the bound.
        """
        now = self._clock()
        owned: list[_SourceState] = []
        for name in names:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = _SourceState(
                    name,
                    BoundedIngressQueue(
                        self.queue_bound, self.policy, label=name,
                        telemetry=self._collector,
                    ),
                    ReorderBuffer(self.slack),
                    now,
                )
            state.owner = writer
            state.last_seen = now
            owned.append(state)
        self._ever_connected = True
        credits = None
        if self.policy == "block":
            credits = {
                state.name: self.queue_bound - len(state.queue)
                for state in owned
            }
        return owned, credits

    async def _serve_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        owned: list[_SourceState],
        version: int,
    ) -> None:
        states = {state.name: state for state in owned}
        frames = FrameReader(reader)
        while True:
            frame = await frames.read_frame()
            if frame is None:
                # EOF without bye: the source stays open — the feeder
                # may reconnect, or liveness eviction will finish it.
                return
            kind = frame.get("type")
            rows = protocol.frame_rows(frame, version)
            if rows is not None:
                await self._take_rows(states, rows)
            elif kind == "heartbeat":
                now = self._clock()
                for name in protocol.source_names(frame) or states:
                    if name in states:
                        states[name].last_seen = now
            elif kind == "bye":
                source = protocol.source_name(frame)
                state = states.get(source)
                if state is None:
                    raise ProtocolError(
                        f"bye for source {source!r} not owned "
                        f"by this connection"
                    )
                state.final_requested = True
                self._work.set()
                await write_frame(writer, protocol.bye_ack(state.name))
            elif not await self._handle_extra(frame, writer, states):
                raise ProtocolError(f"unexpected frame type {kind!r}")

    async def _take_rows(
        self, states: dict[str, _SourceState], rows: Iterable[tuple]
    ) -> None:
        """Queue readings as they came off the wire — the rows of a
        ``block`` frame, or a ``data`` frame as the one row it spells
        (entries as :func:`repro.net.protocol.block_rows` yields them).

        Raises:
            ProtocolError: A malformed row, or one for a source this
                connection's hello did not declare; the rows ahead of
                it are queued.
        """
        now = self._clock()
        tracing = self._collector.enabled
        try:
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
                    # router) t_ingest doubles as the worker-clock
                    # receive stamp for the wire.transit span.
                    trace = IngestTrace(
                        self._ingest_seq, source, item.timestamp
                    )
                    trace.ctx = ctx
                # The promise rides behind its tuple: an overload policy
                # that sheds the entry sheds the promise with it.
                entry = (seq, arrival, item, trace, low)
                if state.queue.offer(entry) == BLOCKED:
                    await self._wait_for_room(state, entry)
        finally:
            self._work.set()

    async def _handle_extra(
        self,
        frame: dict[str, Any],
        writer: asyncio.StreamWriter,
        states: dict[str, _SourceState],
    ) -> bool:
        """Dialect hook: handle a non-core frame; ``True`` if consumed.

        The base gateway speaks only the feeder dialect; the cluster
        worker (:mod:`repro.net.worker`) overrides this to accept the
        router's ``drain`` frame without forking the serve loop.
        """
        return False

    async def _wait_for_room(self, state: _SourceState, entry: tuple) -> None:
        """Queue ``entry`` once the drain has made room for it.

        Queue full under the block policy (a well-behaved sender never
        gets here — credits stop it first). Stalling this read loop is
        the enforcement: TCP backpressure reaches a sender that ignores
        credits. Once the session has failed, nothing drains: the entry
        is dropped and the read loop goes on.
        """
        while self._failure is None:
            state.space.clear()
            self._work.set()
            await state.space.wait()
            if state.queue.offer(entry) != BLOCKED:
                return

    # -- draining into the pipeline ------------------------------------------

    async def _drain_loop(self) -> None:
        try:
            while True:
                await self._work.wait()
                self._work.clear()
                await self._drain_once()
                self._check_complete()
        except Exception as error:
            await self._fail(error)

    async def _fail(self, error: Exception) -> None:
        """Fail closed: the session raised, so no credit will ever be
        granted again. Tell every connected feeder why, wake every read
        loop waiting for room, and let :meth:`run_until_drained` raise."""
        self._failure = error
        reason = self._failure_reason()
        owners = {
            id(state.owner): state.owner
            for state in self._states.values() if state.owner is not None
        }
        for state in self._states.values():
            state.space.set()
        for writer in owners.values():
            await protocol.bail(writer, reason)
        self._complete.set()

    def _failure_reason(self) -> str:
        return f"pipeline session failed: {self._failure!r}"

    async def _drain_once(self) -> None:
        async with self._drain_lock:
            await self._drain_once_locked()

    @contextlib.asynccontextmanager
    async def quiesced(self) -> AsyncIterator[None]:
        """Drain every queued arrival into the session, then hold drains.

        While the context is held, the background drain loop is blocked,
        the ingress queues are empty and the session has processed
        everything received so far — the quiescent point at which
        :meth:`checkpoint` (and the session's own checkpoint) captures a
        consistent cut of the stream.
        """
        async with self._drain_lock:
            await self._drain_once_locked()
            yield

    async def _drain_once_locked(self) -> None:
        """One drain pass: per source, take every queued entry through
        the reorder buffer and push what it released into the session
        as one run; then advance punctuation and grant credits."""
        granted: dict[str, int] = {}
        for name in sorted(self._states):
            state = self._states[name]
            taken = 0
            while len(state.queue):
                if self._throttle is not None:
                    await self._throttle()
                seq, arrival, item, trace, low = state.queue.take()
                state.space.set()
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
                self._session.push_run(name, run, traces)
        self._advance()
        if self.policy == "block":
            await self._grant_credits(granted)

    def _inject(
        self,
        state: _SourceState,
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
                self._collector.span(
                    kind="span_dropped", ingest_id=late.ingest_id,
                    source=late.source, sim_ts=late.sim_ts,
                    queue_ns=late.t_queued - late.t_ingest,
                    dropped_ns=clock_ns() - late.t_queued,
                )

    def _release(
        self, state: _SourceState, released: "list[StreamTuple]"
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
        for name in self._expected:
            state = self._states.get(name)
            if state is None:
                return  # a source has never connected: hold punctuation
            if state.final:
                continue
            watermark = min(watermark, state.reorder.watermark)
        self._session.advance(watermark)
        if self._collector.enabled:
            safe = self._session.safe_time
            for name, state in self._states.items():
                mark = state.reorder.watermark
                if mark == float("-inf") or mark == float("inf"):
                    continue
                lag = max(0.0, mark - max(safe, 0.0))
                self._collector.sample_watermark(f"gateway:{name}", lag)

    async def _grant_credits(self, granted: dict[str, int]) -> None:
        for name, amount in granted.items():
            state = self._states[name]
            writer = state.owner
            if writer is None:
                continue
            try:
                await write_frame(
                    writer, protocol.credit_frame(name, amount)
                )
                if self._collector.enabled:
                    self._collector.count(
                        f"gateway.{name}.credits_granted", amount
                    )
            except (ConnectionError, RuntimeError):
                pass  # connection died; reconnect re-grants from room

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot per-source ingress state for later :meth:`restore`.

        Call only inside :meth:`quiesced`: the queues are empty then, so
        the snapshot is the reorder buffers (with their span-correlation
        traces re-paired positionally — trace dicts are keyed by object
        identity, which does not survive serialization) plus the
        per-source final/eviction flags and the ingest sequence.
        """
        sources: dict[str, Any] = {}
        for name in sorted(self._states):
            state = self._states[name]
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
        """Install a :meth:`checkpoint` snapshot into this fresh gateway.

        Call before serving any data. The restored heap entries are the
        deserialized tuple objects themselves, so identity-keyed trace
        pairing is rebuilt against them positionally.
        """
        for name in state["sources"]:
            if name not in self._expected:
                raise NetError(
                    f"checkpoint names unexpected source {name!r}; this "
                    f"gateway expects {list(self._expected)!r}"
                )
        owned, _credits = self._adopt(state["sources"], None)
        for source in owned:
            entry = state["sources"][source.name]
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
        self._work.set()

    # -- liveness -------------------------------------------------------------

    def check_liveness(self, now: "float | None" = None) -> list[str]:
        """Evict sources silent for longer than ``liveness_timeout``.

        Args:
            now: Wall-clock reading; defaults to the gateway's clock.

        Returns:
            The names evicted by this sweep. Eviction finalizes the
            source — its buffered readings are flushed through the
            pipeline and punctuation stops waiting on it — and is
            counted on ``gateway.<source>.evicted``.
        """
        if self.liveness_timeout is None:
            return []
        now = self._clock() if now is None else now
        evicted: list[str] = []
        for name, state in self._states.items():
            if state.final or state.final_requested:
                continue
            if now - state.last_seen > self.liveness_timeout:
                state.final_requested = True
                state.evicted = True
                self._count(f"gateway.{name}.evicted")
                if self._collector.enabled:
                    self._collector.event(
                        "net_evicted", source=name,
                        silent_for=now - state.last_seen,
                    )
                evicted.append(name)
        if evicted:
            self._work.set()
        return evicted

    async def _watch_loop(self) -> None:
        while True:
            await asyncio.sleep(self._liveness_interval)
            self.check_liveness()

    # -- accounting -----------------------------------------------------------

    def _count(self, key: str) -> None:
        if self._collector.enabled:
            self._collector.count(key)

    def _check_complete(self) -> None:
        if not self._ever_connected:
            return
        for name in self._expected:
            state = self._states.get(name)
            if state is None or not state.final or len(state.queue):
                return
        self._complete.set()

    def readiness(self) -> dict[str, Any]:
        """Readiness verdict for the ops plane's ``/readyz``.

        Ready means: the gateway is started, at least one receptor has
        connected, every expected source has been seen, and no ingress
        queue is sitting at its bound (overload). Each failed condition
        contributes one human-readable reason.
        """
        reasons: list[str] = []
        if not self._started:
            reasons.append("gateway not started")
        if not self._ever_connected:
            reasons.append("no receptor has connected yet")
        else:
            missing = [
                name for name in self._expected
                if name not in self._states
            ]
            if missing:
                reasons.append(f"sources never connected: {missing}")
        for name in sorted(self._states):
            state = self._states[name]
            if not state.final and len(state.queue) >= state.queue.bound:
                reasons.append(f"ingress queue {name!r} at bound (overload)")
        return {"ready": not reasons, "reasons": reasons}

    def stats(self) -> dict[str, Any]:
        """Per-source ingestion accounting (plain data, JSON-friendly)."""
        sources = {}
        for name in sorted(self._states):
            state = self._states[name]
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
