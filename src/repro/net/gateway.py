"""The ingestion gateway: a TCP front door for a streaming pipeline.

:class:`IngestGateway` is the network boundary the paper leaves
implicit: an asyncio server that accepts receptor connections speaking
the :mod:`repro.net.protocol` wire format and feeds their readings into
a live :class:`~repro.core.pipeline.ESPStreamSession`. Every decision is
the synchronous :class:`~repro.net.gateway_core.GatewayCore`'s; this
module is its shell and only moves bytes (:class:`~repro.net.shell.
Shell`): per connection, every frame one socket read completes, then
one drain, then the frames the core wrote.

**Lifecycle.** ``await start()`` → feeders connect, stream, and say
``bye`` per source (or go silent and get evicted via
:meth:`~IngestGateway.check_liveness`) → ``await run_until_drained()``
→ ``await close()`` flushes and returns the completed
:class:`~repro.core.pipeline.ESPRun`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Iterable

from repro.errors import NetError, ProtocolError
from repro.net.gateway_core import GatewayCore
from repro.net.protocol import read_frame
from repro.net.shell import Shell
from repro.streams.telemetry import TelemetryCollector


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
    ):
        self.core = GatewayCore(
            session, sources, slack=slack, policy=policy,
            queue_bound=queue_bound, telemetry=telemetry, clock=clock,
            liveness_timeout=liveness_timeout,
        )
        self.slack = self.core.slack
        self.policy = policy
        self.queue_bound = self.core.queue_bound
        self.liveness_timeout = liveness_timeout
        self._liveness_interval = liveness_interval
        self._shell = Shell(self.core)
        self._server: "asyncio.base_events.Server | None" = None
        self._watchdog: "asyncio.Task | None" = None
        self._closed = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (``port=0`` picks a free ephemeral port)."""
        if self._server is not None:
            raise NetError("gateway already started")
        self._server = await asyncio.start_server(self._handle, host, port)
        self._started = True
        if self.liveness_timeout is not None and self._liveness_interval:
            self._watchdog = asyncio.ensure_future(self._watch_loop())
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def run_until_drained(self) -> None:
        """Resolve once every expected source is final and drained;
        raises whatever the session raised inside a drain."""
        core = self.core
        await self._shell.until(
            lambda: core.complete or core.failure is not None
        )
        if core.failure is not None:
            raise core.failure

    async def close(self) -> Any:
        """Stop serving, flush, and return the session's completed run.
        Idempotent, and safe before every source finished (what arrived
        is flushed through the remaining ticks). Raises, once the server
        is closed, whatever the session raised inside a drain."""
        core = self.core
        if not self._closed:
            self._closed = True
            if self._watchdog is not None:
                self._watchdog.cancel()
                try:
                    await self._watchdog
                except asyncio.CancelledError:
                    pass
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            if core.failure is None:
                core.drain()  # leftovers enqueued since the last pass
                self._shell.flush()
        if core.failure is not None:
            raise core.failure
        return core.session.close()

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        core = self.core
        conn = core.opened()
        self._shell.writers[conn] = writer
        reason = ""
        try:
            hello = await read_frame(reader)
            if hello is not None:
                core.hello(conn, hello)
                self._shell.flush()
                if conn.closing is None:
                    # EOF without bye: the sources stay open.
                    await self._shell.read(
                        reader, lambda frame: core.frame(conn, frame),
                        burst_end=core.drain,
                    )
        except ProtocolError as error:
            reason = str(error)
        except ConnectionError:
            pass  # peer vanished; liveness eviction covers the fallout
        finally:
            core.end(conn, reason)
            self._shell.flush()
            writer.close()

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot per-source ingress state for a later :meth:`restore`
        (:meth:`~repro.net.gateway_core.GatewayCore.checkpoint`)."""
        return self.core.checkpoint()

    def restore(self, state: dict[str, Any]) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh gateway,
        before serving any data."""
        self.core.restore(state)
        self.core.drain()
        self._shell.flush()

    # -- liveness -------------------------------------------------------------

    def check_liveness(self, now: "float | None" = None) -> list[str]:
        """Evict sources silent for longer than ``liveness_timeout`` at
        ``now`` (default: the gateway's clock); returns their names.
        Eviction finalizes a source — its buffered readings are flushed
        through the pipeline and punctuation stops waiting on it — and
        is counted on ``gateway.<source>.evicted``."""
        evicted = self.core.check_liveness(now)
        self._shell.flush()
        return evicted

    async def _watch_loop(self) -> None:
        while True:
            await asyncio.sleep(self._liveness_interval)
            self.check_liveness()

    # -- accounting -----------------------------------------------------------

    def readiness(self) -> dict[str, Any]:
        """Readiness verdict for the ops plane's ``/readyz``: started, a
        receptor connected, every expected source seen, and no ingress
        queue at its bound (overload); one reason per failed condition."""
        core = self.core
        reasons: list[str] = []
        if not self._started:
            reasons.append("gateway not started")
        if not core.ever_connected:
            reasons.append("no receptor has connected yet")
        else:
            missing = [
                name for name in core.expected if name not in core.states
            ]
            if missing:
                reasons.append(f"sources never connected: {missing}")
        for name in sorted(core.states):
            state = core.states[name]
            if not state.final and len(state.queue) >= state.queue.bound:
                reasons.append(f"ingress queue {name!r} at bound (overload)")
        return {"ready": not reasons, "reasons": reasons}

    def stats(self) -> dict[str, Any]:
        """Per-source ingestion accounting (plain data, JSON-friendly)."""
        return self.core.stats()
