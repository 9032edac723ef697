"""The cluster worker: one pipeline process behind the router.

A :class:`ClusterWorker` serves epochs. Each epoch is one TCP
connection from the router (:mod:`repro.net.router`) speaking the
cluster dialect: ``worker_hello`` + ``route`` open the
epoch, then the ordinary data-plane frames (``block`` / ``heartbeat`` /
``bye``, credit backpressure included) flow exactly as they would into
a standalone gateway — the worker literally wraps today's
:class:`~repro.net.gateway.IngestGateway` over a fresh
:class:`~repro.core.pipeline.ESPStreamSession`. When every routed
source is final (clean byes, or the router's ``drain`` during a
rebalance), the worker streams its cleaned output back as
``result_block`` frames — many ticks of positional rows per frame — and
a closing ``result_end``.

**Per-tick attribution.** The egress merge needs each worker's output
*per punctuation tick* (the unit :func:`repro.streams.shard.merge_outputs`
merges on), but a session's ``advance`` may sweep many ticks in one
call. :class:`TickLedger` wraps the session and re-issues the sweep one
tick at a time, taking the sink's output after each — same sweeps, same
output, now attributable, and the session's sink holds nothing between
ticks, so a checkpoint never carries output the router already has.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.gateway import IngestGateway
from repro.net.ops import ops_plane
from repro.net.protocol import (
    BURST_BYTES,
    FrameReader,
    read_frame,
    write_frame,
)
from repro.net.service import ScenarioBundle, build_bundle
from repro.streams.fjord import sweep_end
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple

#: Rows (and hop records) after which a ``result_block`` frame is
#: sealed; keeps frames far below the 1 MiB payload cap whatever the row
#: width (a wider frame still splits, as
#: :func:`~repro.net.protocol.encode_result_block` says).
RESULT_CHUNK = 256


class TickLedger:
    """Session wrapper attributing emissions to punctuation ticks.

    Presents the :class:`~repro.core.pipeline.ESPStreamSession` surface
    the gateway drives (``receptor_ids`` / ``push_run`` / ``advance`` /
    ``safe_time`` / ``close``) but performs every multi-tick sweep as a
    sequence of single-tick sweeps, taking the sink's output after
    each one into :attr:`per_tick`. The sweep *condition* is the Fjord
    session's own (:func:`repro.streams.fjord.sweep_end`), so the swept
    set (and therefore the output) is byte-identical to driving the
    session directly.
    """

    def __init__(self, session: Any) -> None:
        self._session = session
        self._ticks: tuple[float, ...] = tuple(session.ticks)
        #: Output attributed to each swept tick, in tick order.
        self.per_tick: list[list[StreamTuple]] = []
        #: Completed hop-span records attributed to each swept tick —
        #: strictly parallel to :attr:`per_tick`. Populated only when
        #: the router stamped a trace context on the rows it forwarded;
        #: each record is the positional array documented on
        #: :func:`repro.net.protocol.encode_result_block`.
        self.spans_per_tick: list[list[list]] = []
        #: Ticks whose results have already been shipped to the router
        #: (see :func:`ship_ticks`) — result shipping is incremental so
        #: a checkpoint's ack covers exactly the results the router
        #: holds, and the final drain ships only the delta.
        self.reported = 0
        self._closing: list[list] = []
        session.span_sink = self._capture_span

    @property
    def receptor_ids(self) -> tuple[str, ...]:
        return self._session.receptor_ids

    @property
    def safe_time(self) -> float:
        return self._session.safe_time

    @property
    def ticks(self) -> tuple[float, ...]:
        return self._ticks

    def push(self, receptor_id: str, item: StreamTuple, trace: Any = None):
        return self._session.push(receptor_id, item, trace=trace)

    def push_run(
        self, receptor_id: str, items: Sequence[StreamTuple], traces: Any = None
    ):
        return self._session.push_run(receptor_id, items, traces)

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

        Flattens the router's trace context plus the worker-clock
        stamps into the positional hop record that ships back with this
        tick's results (layout documented on
        :func:`repro.net.protocol.encode_result_block`). Raw integer-ns stamps
        travel, not durations — the router computes phases at arrival,
        when it can add its own merge stamp — and the positional form
        keeps the per-tuple wire and capture cost inside the traced
        cluster's overhead budget.
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
        """Snapshot the ledger (and its session) for later :meth:`restore`.

        Tick buckets already shipped to the router are *not* captured —
        the router snapshots its received copy at ack time — and the
        session's sink is empty (:meth:`advance` takes each tick's
        output out of it), so the blob is bounded by operator state
        plus unreported output, not run length. Capture inside the
        gateway's quiesced window, after shipping, and serialize
        synchronously.
        """
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

        Reported ticks come back as empty placeholder buckets (their
        contents live in the router's checkpoint store) and the
        session's sink comes back empty, as it was captured; indexing
        continues exactly where the snapshot left off.
        """
        if self.per_tick or self.reported:
            raise NetError("restore needs a fresh TickLedger")
        self._session.restore(state["session"])
        self.reported = int(state["reported"])
        self.per_tick = [[] for _ in range(self.reported)]
        self.per_tick.extend(list(bucket) for bucket in state["pending"])
        pending_spans = state.get("pending_spans")
        if pending_spans is None:
            pending_spans = [[] for _ in state["pending"]]
        self.spans_per_tick = [[] for _ in range(self.reported)]
        self.spans_per_tick.extend(list(bucket) for bucket in pending_spans)
        if len(self.per_tick) != int(state["ticks"]):
            raise NetError(
                f"checkpoint ledger inconsistent: {len(self.per_tick)} "
                f"ticks rebuilt, {state['ticks']} captured"
            )


async def ship_ticks(
    writer: asyncio.StreamWriter, epoch: int, ledger: TickLedger
) -> int:
    """Ship the ledger's not-yet-reported tick buckets as
    ``result_block`` frames; returns how many ticks were shipped.

    Many ticks share a frame, which is sealed at :data:`RESULT_CHUNK`
    rows (a tick may continue in the next), and the frames of one call
    reach the socket a burst at a time: one write per
    :data:`~repro.net.protocol.BURST_BYTES`, as a ``FrameWriter``
    writes (a write per frame cost ≈ 1 MB more peak memory in the
    two-worker shelf cluster benchmark on a 2-vCPU host). Advances
    ``ledger.reported`` so shipping is incremental: mid-epoch
    checkpoints ship their delta, and the final drain ships only what
    no checkpoint already delivered.
    """
    start = ledger.reported
    burst: list[bytes] = []
    size = 0
    for ticks in _sealed_ticks(ledger, start):
        data = protocol.encode_result_block(epoch, ticks)
        burst.append(data)
        size += len(data)
        if size > BURST_BYTES:
            writer.write(b"".join(burst))
            burst.clear()
            size = 0
            await writer.drain()
    if burst:
        writer.write(b"".join(burst))
    await writer.drain()
    ledger.reported = len(ledger.per_tick)
    return ledger.reported - start


def _sealed_ticks(
    ledger: TickLedger, start: int
) -> "Iterator[list[tuple]]":
    """The ledger's ticks from ``start`` on, as the ``(index, items,
    spans)`` lists of successive frames, each sealed at
    :data:`RESULT_CHUNK` rows or hop records.

    Rows and hop records of a tick are cut in lockstep; a tick whose
    tuples were all filtered away still ships its spans, and a tick
    with neither is not listed.
    """
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


class WorkerGateway(IngestGateway):
    """An :class:`IngestGateway` fed by the router over one connection.

    Differences from the standalone gateway: it never binds a listener —
    the :class:`ClusterWorker` accepts the connection, performs the
    ``worker_hello``/``route`` handshake, and hands the remaining byte
    stream to :meth:`attach`; it accepts the router's ``drain``
    frame, which finalizes every routed source at once (the rebalance
    equivalent of a bye for each); and it answers the router's
    ``checkpoint`` frame with a quiesced state snapshot
    (:mod:`repro.net.recovery`).

    Args:
        epoch: The epoch this gateway serves (stamped on
            ``result_block`` and ``checkpoint_ack`` frames).
        label: This worker's label for the epoch.
    """

    def __init__(
        self, session: Any, sources: "Iterable[str] | None" = None,
        *, epoch: int = 0, label: str = "worker", **kwargs: Any,
    ):
        super().__init__(session, sources, **kwargs)
        self.epoch = int(epoch)
        self.label = label

    async def attach(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        sources: Iterable[str],
    ) -> None:
        """Register ``sources`` on this connection and serve its frames.

        Sends the ``hello_ack`` (with initial credits) the router
        expects in place of the feeder-dialect handshake, then runs the
        ordinary serve loop until EOF. The caller runs this as a task
        alongside :meth:`run_until_drained`. Source states that a
        pre-attach :meth:`restore` installed are kept, not rebuilt.
        """
        owned, credits = self._adopt(sources, writer)
        self._started = True
        await write_frame(writer, protocol.hello_ack(credits))
        self._drainer = asyncio.ensure_future(self._drain_loop())
        try:
            # The router opened with this build's version (_open_epoch
            # accepts no other), so its readings arrive as blocks.
            await self._serve_frames(
                reader, writer, owned, protocol.PROTOCOL_VERSION
            )
        finally:
            for state in owned:
                if state.owner is writer:
                    state.owner = None

    @property
    def completed(self) -> bool:
        """Whether every routed source is final and drained."""
        return self._complete.is_set()

    async def _handle_extra(self, frame, writer, states) -> bool:
        kind = frame.get("type")
        if kind == "drain":
            for state in self._states.values():
                if not state.final:
                    state.final_requested = True
            self._work.set()
            return True
        if kind == "checkpoint":
            await self._handle_checkpoint(int(frame.get("id", -1)), writer)
            return True
        return False

    async def _handle_checkpoint(
        self, checkpoint_id: int, writer: asyncio.StreamWriter
    ) -> None:
        from repro.net.recovery import encode_state

        ledger = self._session
        async with self.quiesced():
            # Ship newly swept ticks first: the router's received
            # per-tick buckets then cover exactly [0, reported) — the
            # same cut the snapshot's `reported` counter names — so its
            # ack-time copy plus post-resume deltas is complete and
            # duplicate-free.
            await ship_ticks(writer, self.epoch, ledger)
            state = {
                "ledger": ledger.checkpoint(),
                "gateway": self.checkpoint(),
            }
        blob, size = encode_state(state)
        if blob is None:
            self._count("worker.checkpoint_oversized")
            await write_frame(writer, protocol.checkpoint_ack(
                checkpoint_id, self.epoch, ledger.reported, None, ok=False,
                reason=f"state blob is {size} bytes, beyond the frame "
                       f"budget; previous checkpoint stays authoritative",
            ))
            return
        self._count("worker.checkpoints_taken")
        await write_frame(writer, protocol.checkpoint_ack(
            checkpoint_id, self.epoch, ledger.reported, blob
        ))


class ClusterWorker:
    """Serve a scenario's pipeline as one worker of a cluster.

    Args:
        scenario: Scenario name (see :data:`repro.net.service.SCENARIOS`)
            or a prebuilt :class:`~repro.net.service.ScenarioBundle`.
        duration: Scenario duration override (must match the router's).
        seed: Scenario seed override (must match the router's).
        slack: Reorder slack for the epoch gateways.
        queue_bound: Per-source ingress queue capacity.
        telemetry: The worker's rollup collector; each epoch runs on a
            spawned child whose snapshot is both absorbed here (for the
            worker's own ops plane) and shipped to the router inside
            ``result_end`` (for the cluster-wide rollup).
        label: Default worker label; the router's ``worker_hello``
            overrides it per epoch.
    """

    def __init__(
        self,
        scenario: "str | ScenarioBundle",
        *,
        duration: "float | None" = None,
        seed: "int | None" = None,
        slack: float = 0.0,
        queue_bound: int = 64,
        telemetry: "TelemetryCollector | None" = None,
        label: str = "worker",
    ):
        if isinstance(scenario, ScenarioBundle):
            self._bundle = scenario
        else:
            self._bundle = build_bundle(scenario, duration, seed)
        self.slack = float(slack)
        self.queue_bound = int(queue_bound)
        self.label = label
        self._collector = resolve_telemetry(telemetry)
        self._expected = tuple(sorted(self._bundle.streams))
        self._server: "asyncio.base_events.Server | None" = None
        self._current: "WorkerGateway | None" = None
        self._epochs_served = 0
        self._epoch_done = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()

    @property
    def epochs_served(self) -> int:
        """Epochs brought to completion (results shipped)."""
        return self._epochs_served

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and accept router connections; returns ``(host, port)``."""
        if self._server is not None:
            raise NetError("worker already started")
        self._server = await asyncio.start_server(self._accept, host, port)
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def wait_epochs(self, n: int) -> None:
        """Resolve once at least ``n`` epochs have completed."""
        while self._epochs_served < n:
            self._epoch_done.clear()
            await self._epoch_done.wait()

    async def close(self) -> None:
        """Stop accepting and cancel any in-flight epoch handlers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # -- per-connection epoch lifecycle ---------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            if await self._serve_epoch(reader, writer):
                # Results are shipped. Hang up second, not first: the
                # router may still have a frame in flight to us (the
                # drain of an epoch that finished on its own, a relayed
                # heartbeat), and data landing on a closed socket makes
                # the kernel answer RST — which discards whatever of a
                # large result_end has not left this host yet. So read
                # (and ignore) until the router closes the link.
                try:
                    while await reader.read(1 << 16):
                        pass
                except ConnectionError:
                    pass  # a broken tail changes nothing now
                self._epochs_served += 1
                self._epoch_done.set()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # router vanished; the next epoch gets a fresh connection
        except asyncio.CancelledError:
            # close() killed us mid-epoch (e.g. a scripted chaos kill);
            # end the handler quietly — the partial epoch is discarded.
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()

    async def _serve_epoch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one epoch; ``True`` once its results are shipped."""
        opened = await self._open_epoch(reader, writer)
        if opened is None:
            return False
        epoch, label, sources, resume = opened
        if not sources:
            return await self._serve_idle_epoch(reader, writer, epoch, label)
        collector = self._collector.spawn()
        session = self._bundle.processor.open_session(
            until=self._bundle.until,
            tick=self._bundle.tick,
            telemetry=collector,
        )
        ledger = TickLedger(session)
        gateway = WorkerGateway(
            ledger,
            sources,
            epoch=epoch,
            label=label,
            slack=self.slack,
            policy="block",
            queue_bound=self.queue_bound,
            telemetry=collector,
        )
        if resume is not None and resume.get("state") is not None:
            # Restore into the freshly built identical pipeline before
            # any data: configuration never crosses the wire, only the
            # operators' data state does.
            from repro.net.recovery import decode_state

            state = decode_state(resume["state"])
            ledger.restore(state["ledger"])
            gateway.restore(state["gateway"])
            if self._collector.enabled:
                self._collector.count("worker.resumed_from_checkpoint")
        self._current = gateway
        serve = asyncio.ensure_future(gateway.attach(reader, writer, sources))
        drained = asyncio.ensure_future(gateway.run_until_drained())
        try:
            await asyncio.wait(
                [serve, drained], return_when=asyncio.FIRST_COMPLETED
            )
            if not gateway.completed:
                # Connection died before the epoch finished: the epoch's
                # partial state is discarded — the router's retained
                # history makes the next epoch whole again.
                return False
            await gateway.close()
            await self._ship_results(
                writer, epoch, label, ledger, gateway, collector
            )
            return True
        finally:
            for task in (serve, drained):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            if self._current is gateway:
                self._current = None
            await gateway.close()

    async def _open_epoch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "tuple[int, str, list[str], dict | None] | None":
        hello = await read_frame(reader)
        if hello is None:
            return None
        if hello.get("type") != "worker_hello":
            await protocol.bail(
                writer, f"expected worker_hello, got {hello.get('type')!r}"
            )
            return None
        version = hello.get("version")
        if version != protocol.PROTOCOL_VERSION:
            # Router and workers are one deployment: the router sends
            # this build's frames (blocks included), so a worker cannot
            # fall back the way the feeder path does.
            if self._collector.enabled:
                self._collector.count("worker.version_mismatch")
            await protocol.bail(
                writer,
                f"cluster dialect requires protocol "
                f"{protocol.PROTOCOL_VERSION}, got {version!r}",
            )
            return None
        label = str(hello.get("worker") or self.label)
        route = await read_frame(reader)
        if route is None:
            return None
        if route.get("type") != "route":
            await protocol.bail(
                writer, f"expected route, got {route.get('type')!r}"
            )
            return None
        sources = sorted(route.get("sources") or [])
        unknown = [name for name in sources if name not in self._expected]
        if unknown:
            await protocol.bail(
                writer,
                f"unroutable sources {unknown!r}; this worker serves "
                f"{list(self._expected)!r}",
            )
            return None
        epoch = int(route.get("epoch", 0))
        resume = None
        if route.get("resume"):
            resume = await read_frame(reader)
            if resume is None:
                return None
            if resume.get("type") != "resume":
                await protocol.bail(
                    writer, f"expected resume, got {resume.get('type')!r}"
                )
                return None
            if int(resume.get("epoch", -1)) != epoch:
                await protocol.bail(
                    writer,
                    f"resume epoch {resume.get('epoch')!r} does not match "
                    f"route epoch {epoch}",
                )
                return None
        return epoch, label, sources, resume

    async def _serve_idle_epoch(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        epoch: int,
        label: str,
    ) -> bool:
        # No sources this epoch (more workers than shard keys): ack,
        # then wait for the drain that closes the epoch.
        await write_frame(writer, protocol.hello_ack({}))
        frames = FrameReader(reader)
        while True:
            frame = await frames.read_frame()
            if frame is None:
                return False
            if frame.get("type") == "drain":
                await write_frame(
                    writer,
                    protocol.result_end(epoch, label, 0, self._empty_stats()),
                )
                return True
            if frame.get("type") not in ("heartbeat",):
                await protocol.bail(
                    writer,
                    f"unexpected frame {frame.get('type')!r} on an idle "
                    f"epoch",
                )
                return False

    async def _ship_results(
        self,
        writer: asyncio.StreamWriter,
        epoch: int,
        label: str,
        ledger: TickLedger,
        gateway: WorkerGateway,
        collector: TelemetryCollector,
    ) -> None:
        # Only ticks no mid-epoch checkpoint already delivered: the
        # router holds [0, reported) from checkpoint-time shipping.
        await ship_ticks(writer, epoch, ledger)
        snapshot = None
        if collector.enabled:
            snapshot = collector.snapshot()
            # The worker's own rollup accumulates its epochs (what this
            # worker's /metrics shows); the router labels the same
            # snapshot with the worker name for the cluster-wide view.
            self._collector.absorb(snapshot)
        end = protocol.result_end(
            epoch, label, len(ledger.per_tick), gateway.stats(), snapshot
        )
        try:
            await write_frame(writer, end)
        except ProtocolError:
            if snapshot is None:
                raise
            # The epoch snapshot pushed result_end past the frame limit
            # (nothing was written: encoding fails before the write).
            # The event and span logs are what grow with run length, so
            # they are what goes; operators, sources, counters and span
            # histograms — the bounded part — still reach the router,
            # with the loss counted in both rollups.
            key = "worker.telemetry_logs_dropped"
            dropped = len(snapshot["events"]) + len(snapshot["span_log"])
            self._collector.count(key, dropped)
            end["telemetry"] = {
                **snapshot,
                "counters": {**snapshot["counters"], key: dropped},
                "events": [],
                "span_log": [],
            }
            await write_frame(writer, end)

    def _empty_stats(self) -> dict[str, Any]:
        return {
            "policy": "block",
            "queue_bound": self.queue_bound,
            "slack": self.slack,
            "sources": {},
        }

    # -- ops plane -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Current-epoch gateway accounting plus worker identity."""
        gateway = self._current
        stats = gateway.stats() if gateway is not None else self._empty_stats()
        stats["worker"] = self.label
        stats["epochs_served"] = self._epochs_served
        return stats

    def readiness(self) -> dict[str, Any]:
        """Ready once the worker is listening for router connections."""
        reasons: list[str] = []
        if self._server is None:
            reasons.append("worker not started")
        return {"ready": not reasons, "reasons": reasons}


async def serve_worker(
    name: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slack: float = 1.5,
    queue_bound: int = 64,
    duration: "float | None" = None,
    seed: "int | None" = None,
    label: str = "worker",
    max_epochs: "int | None" = None,
    telemetry: "TelemetryCollector | None" = None,
    ready: "Callable[[str, int], None] | None" = None,
    ops_port: "int | None" = None,
    ops_ready: "Callable[[str, int], None] | None" = None,
) -> dict[str, Any]:
    """Run one cluster worker; returns its summary when it stops.

    Args:
        max_epochs: Exit after completing this many epochs; ``None``
            serves until cancelled (the CLI maps Ctrl-C onto a clean
            close).
        ready: Called with the bound address once accepting.
        ops_port: When set, serve the worker's own ops plane
            (``/metrics``, ``/healthz``, ``/readyz``, ``/snapshot``).
    """
    worker = ClusterWorker(
        name,
        duration=duration,
        seed=seed,
        slack=slack,
        queue_bound=queue_bound,
        telemetry=telemetry,
        label=label,
    )
    async with ops_plane(
        worker, host, ops_port, telemetry, ops_ready
    ) as ops_address:
        try:
            bound_host, bound_port = await worker.start(host, port)
            if ready is not None:
                ready(bound_host, bound_port)
            if max_epochs is None:
                await asyncio.Event().wait()  # serve until cancelled
            else:
                await worker.wait_epochs(max_epochs)
        except asyncio.CancelledError:
            pass
        finally:
            await worker.close()
    return {
        "scenario": worker._bundle.name,
        "address": f"{bound_host}:{bound_port}",
        "ops_address": ops_address,
        "label": label,
        "epochs_served": worker.epochs_served,
        "worker": worker.stats(),
    }
