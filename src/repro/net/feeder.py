"""Replay a recorded scenario over the wire, network warts included.

:class:`ReplayFeeder` is the client half of the ingestion loop: it takes
a scenario recording (receptor id → sense-time readings), pushes it
through the :mod:`repro.receptors.network` impairment models — bursty
loss via a Gilbert–Elliott channel, delivery delay via the truncated
exponential — and streams the surviving readings to an
:class:`~repro.net.gateway.IngestGateway` in *arrival* order, each
reading stamped with its simulated arrival time and per-source sequence
number, a burst of readings to a ``block`` frame. Every decision —
credits, pacing, ``bye``, frame checks, at-least-once replay after a
lost connection — is the synchronous :class:`~repro.net.feeder_core.
FeederCore`'s; this module is its shell (:class:`~repro.net.shell.
Shell`) and only connects, sleeps (backoff, pacing, heartbeats) and
moves bytes. ``sleep`` and ``clock`` are injectable, so the test suite
replays instantly with a fake clock.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.errors import FrameTruncated, NetError
from repro.net.feeder_core import DONE, FULL, GATEWAY, FeederCore, Paced
from repro.net.shell import Shell
from repro.streams.telemetry import TelemetryCollector
from repro.streams.tuples import StreamTuple


class ReplayFeeder:
    """Stream a recording to a gateway with simulated network effects.

    Args:
        host: Gateway host.
        port: Gateway port.
        streams: Receptor id → readings in sense-time order (a scenario
            ``recorded_streams()`` mapping).
        delay_model: Optional ``sample() -> float`` delay source
            (:class:`~repro.receptors.network.DelayModel`); without one
            readings "arrive" at their own timestamps.
        channel: Optional ``deliver() -> bool`` loss process
            (:class:`~repro.receptors.network.GilbertElliottChannel`);
            lost readings are counted per source, their sequence
            numbers consumed (gaps on the wire are normal).
        rate: Replay speed as a multiple of simulation time — ``2.0``
            replays a 60 s trace in ~30 s of wall time. ``None``
            (default) replays as fast as the gateway accepts.
        heartbeat_interval: Wall seconds between heartbeat frames;
            ``None`` sends none (loopback replays don't idle).
        max_attempts: Failed sessions in a row after which :meth:`run`
            raises; a refused connect counts, and only a ``credit`` or
            ``bye_ack`` from the gateway ends a row.
        backoff_base: First reconnection delay, seconds; doubles per
            consecutive failure.
        backoff_cap: Upper bound on the pre-jitter reconnection delay.
        backoff_jitter: Uniform multiplicative jitter fraction — the
            actual delay is ``delay * (1 + jitter * U[0, 1))``, so a
            fleet of feeders knocked over by one gateway restart does
            not reconnect in lockstep. ``0.0`` (default) keeps the
            delay exactly reproducible without a seed.
        backoff_seed: Seed for the jitter draws (deterministic tests).
        sleep: Injectable ``async sleep(seconds)``; defaults to
            :func:`asyncio.sleep`.
        clock: Injectable wall clock for pacing; defaults to
            :func:`time.monotonic`.
        telemetry: Collector mirroring the replay accounting onto
            ``feeder.*`` counters (``feeder.<source>.sent`` /
            ``.lost``, ``feeder.reconnects``, ``feeder.blocked_waits``,
            ``feeder.credit_frames`` — frames, each granting one or
            more credits — and ``feeder.pacing_stalls``); defaults to
            the process-wide default (usually a no-op).
    """

    def __init__(
        self,
        host: str,
        port: int,
        streams: Mapping[str, Sequence[StreamTuple]],
        *,
        delay_model: Any = None,
        channel: Any = None,
        rate: "float | None" = None,
        heartbeat_interval: "float | None" = None,
        max_attempts: int = 6,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        backoff_jitter: float = 0.0,
        backoff_seed: int = 0,
        sleep: "Callable[[float], Awaitable[None]] | None" = None,
        clock: "Callable[[], float] | None" = None,
        telemetry: "TelemetryCollector | None" = None,
    ):
        if backoff_jitter < 0:
            raise NetError(
                f"backoff_jitter must be >= 0, got {backoff_jitter}"
            )
        self.core = FeederCore(
            streams, delay_model=delay_model, channel=channel, rate=rate,
            max_attempts=max_attempts,
            clock=clock if clock is not None else time.monotonic,
            telemetry=telemetry,
        )
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.backoff_jitter = float(backoff_jitter)
        self._backoff_random = random.Random(backoff_seed)
        #: The most recent reconnection delay actually slept, seconds.
        self.last_backoff = 0.0
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._shell = Shell(self.core)

    def __getattr__(self, name: str) -> Any:
        # streams, rate, max_attempts and the replay accounting (sent,
        # lost, reconnects, …): the core's.
        return getattr(self.__dict__["core"], name)

    async def run(self) -> dict[str, Any]:
        """Replay the whole recording; returns the delivery report.

        Raises:
            NetError: After ``max_attempts`` consecutive failed
                sessions, or when the gateway rejects the handshake or
                sends an ``error`` frame.
            ProtocolError: A gateway frame the feeder cannot act on.
        """
        core = self.core
        core.plan()
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except OSError:
                connected = False
            else:
                connected = True
                try:
                    await self._session(reader, writer)
                    return self.report()
                except (OSError, FrameTruncated):
                    pass
            if not core.retry(connected):
                raise NetError(
                    f"gateway {self.host}:{self.port} unreachable "
                    f"after {core.attempts} attempts"
                )
            await self._sleep(self._backoff(core.attempts))

    def _backoff(self, attempts: int) -> float:
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempts - 1))
        delay *= 1.0 + self.backoff_jitter * self._backoff_random.random()
        self.last_backoff = delay
        return delay

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, to the last ``bye_ack``; raises what ended it
        early."""
        core, shell = self.core, self._shell
        core.open()
        shell.writers[GATEWAY] = writer
        tasks = [asyncio.ensure_future(self._read(reader))]
        if self.heartbeat_interval is not None:
            tasks.append(asyncio.ensure_future(self._heartbeats()))
        try:
            while True:
                stop = core.send()
                shell.flush()
                if stop is DONE:
                    return
                if stop is FULL:
                    await writer.drain()
                elif type(stop) is Paced:
                    await self._sleep(stop.pause)
                else:
                    await shell.until(core.ready)
        finally:
            for task in tasks:
                task.cancel()
            # A merely-requested cancel could hand the next session's
            # core a frame of this connection.
            await asyncio.gather(*tasks, return_exceptions=True)
            del shell.writers[GATEWAY]
            writer.close()

    async def _read(self, reader: asyncio.StreamReader) -> None:
        error: "Exception | None" = None
        try:
            await self._shell.read(reader, self.core.frame)
        except Exception as failure:  # send() raises it in the session
            error = failure
        self.core.ended(error)
        self._shell.flush()

    async def _heartbeats(self) -> None:
        assert self.heartbeat_interval is not None
        while True:
            await self._sleep(self.heartbeat_interval)
            self.core.heartbeat()
            self._shell.flush()

    def report(self) -> dict[str, Any]:
        """Delivery accounting for the replay so far."""
        return {
            **self.core.report(),
            "reconnect_backoff_ms": round(self.last_backoff * 1000, 3),
        }
