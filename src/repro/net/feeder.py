"""Replay a recorded scenario over the wire, network warts included.

:class:`ReplayFeeder` is the client half of the ingestion loop: it takes
a scenario recording (receptor id → sense-time readings), pushes it
through the :mod:`repro.receptors.network` impairment models — bursty
loss via a Gilbert–Elliott channel, delivery delay via the truncated
exponential — and streams the surviving readings to an
:class:`~repro.net.gateway.IngestGateway` in *arrival* order, each
reading stamped with its simulated arrival time and per-source sequence
number (the gateway's reorder buffers use both to reconstruct the
original stream, ties included).

Robustness mirrors a field data-collection agent: exponential-backoff
reconnection when the gateway drops mid-stream (at-least-once: a
connection that ends before every ``bye`` is acknowledged is in doubt
as a whole, so the next one replays the recording from the start),
credit-gated sending under the gateway's ``block`` policy, optional
heartbeats, and a clean per-source ``bye`` handshake.

Readings leave in bursts, and a burst is one ``block`` frame: the send
loop appends rows to the connection's
:class:`~repro.net.protocol.FrameWriter`, which seals them into a frame
and hands the socket one write whenever the loop is about to suspend —
a pacing sleep, a wait for credits, the end of the recording — so a
paced feeder never sleeps on an unsent reading and a blocked one has
nothing pending. Credits, sequence numbers and the pacing clock stay
per reading.
The event-loop primitives (``sleep``, ``clock``) are injectable so the
test suite replays instantly with a fake clock — no real sleeps.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.errors import FrameTruncated, NetError
from repro.net import protocol
from repro.net.protocol import (
    FrameReader,
    FrameWriter,
    read_frame,
    write_frame,
)
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
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
        max_attempts: Consecutive failed connection attempts tolerated
            before :meth:`run` raises.
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
        if not streams:
            raise NetError("feeder needs at least one source stream")
        if rate is not None and rate <= 0:
            raise NetError(f"rate must be positive, got {rate}")
        if max_attempts < 1:
            raise NetError(f"max_attempts must be >= 1, got {max_attempts}")
        self.host = host
        self.port = port
        self.streams = {name: list(items) for name, items in streams.items()}
        self.delay_model = delay_model
        self.channel = channel
        self.rate = rate
        self.heartbeat_interval = heartbeat_interval
        if backoff_jitter < 0:
            raise NetError(
                f"backoff_jitter must be >= 0, got {backoff_jitter}"
            )
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.backoff_jitter = float(backoff_jitter)
        self._backoff_random = random.Random(backoff_seed)
        #: The most recent reconnection delay actually slept, seconds.
        self.last_backoff = 0.0
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._clock = clock if clock is not None else time.monotonic
        self._collector = resolve_telemetry(telemetry)
        # accounting (attributes are the source of truth; the collector
        # mirrors every increment onto feeder.* counters)
        self.sent = {name: 0 for name in self.streams}
        self.lost = {name: 0 for name in self.streams}
        self.reconnects = 0
        self.blocked_waits = 0
        self.credit_frames = 0
        self.credits_received = {name: 0 for name in self.streams}
        self.pacing_stalls = 0
        # per-connection shared state (sender ⇄ read loop)
        self._credits: "dict[str, int] | None" = None
        self._credit_event = asyncio.Event()
        self._acked: set[str] = set()
        self._dead = False
        self._error: "str | None" = None

    # -- schedule -------------------------------------------------------------

    def _build_schedule(self) -> list[tuple[float, str, int, StreamTuple]]:
        """Apply loss and delay; return arrivals sorted for replay.

        The sort key ``(arrival, source, seq)`` makes the wire order a
        pure function of the impairment draws — reruns with the same
        seeds replay byte-identically.
        """
        schedule: list[tuple[float, str, int, StreamTuple]] = []
        for name in sorted(self.streams):
            for seq, item in enumerate(self.streams[name]):
                if self.channel is not None and not self.channel.deliver():
                    self.lost[name] += 1
                    self._count(f"feeder.{name}.lost")
                    continue
                delay = (
                    float(self.delay_model.sample())
                    if self.delay_model is not None
                    else 0.0
                )
                schedule.append((item.timestamp + delay, name, seq, item))
        schedule.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        return schedule

    @staticmethod
    def _low_marks(
        schedule: list[tuple[float, str, int, StreamTuple]],
    ) -> "list[float | None]":
        """The promise each schedule entry's row declares.

        The schedule is fixed before the first send, so what a live
        receptor can only bound (``timestamp + sample_period``) is
        exact here: after a reading, the lowest timestamp its source
        can still send is the least among that source's later entries.
        One reverse pass finds it. A row declares it only where that
        tells the gateway something new — its own timestamp lies
        strictly below every later one, which is exactly where the
        bound rises — and never on a source's last reading (``None``):
        the ``bye`` says that.
        """
        lows: "list[float | None]" = [None] * len(schedule)
        least: dict[str, float] = {}
        for index in range(len(schedule) - 1, -1, -1):
            _arrival, source, _seq, item = schedule[index]
            later = least.get(source)
            if later is None or item.timestamp < later:
                lows[index] = later
                least[source] = item.timestamp
        return lows

    # -- the replay loop ------------------------------------------------------

    async def run(self) -> dict[str, Any]:
        """Replay the whole recording; returns the delivery report.

        Raises:
            NetError: After ``max_attempts`` consecutive connection
                failures, or when the gateway rejects the handshake.
        """
        schedule = self._build_schedule()
        lows = self._low_marks(schedule)
        attempts = 0
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except OSError:
                attempts += 1
                if attempts >= self.max_attempts:
                    raise NetError(
                        f"gateway {self.host}:{self.port} unreachable "
                        f"after {attempts} attempts"
                    ) from None
                await self._sleep(self._backoff(attempts))
                continue
            attempts = 0
            tasks: list[asyncio.Task] = []
            try:
                await self._handshake(reader, writer)
                out = FrameWriter(writer)
                tasks.append(asyncio.ensure_future(self._read_loop(reader)))
                if self.heartbeat_interval is not None:
                    tasks.append(
                        asyncio.ensure_future(self._heartbeat_loop(out))
                    )
                await self._send_from(out, schedule, lows)
                await self._finish(out)
                return self.report()
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                FrameTruncated,
            ):
                self.reconnects += 1
                self._count("feeder.reconnects")
            finally:
                for task in tasks:
                    task.cancel()
                # Wait the cancellations out before touching shared
                # state: a merely-requested cancel lets the old read
                # loop's ``finally`` run a cycle later and re-poison
                # ``_dead`` under the next connection.
                await asyncio.gather(*tasks, return_exceptions=True)
                writer.close()
                self._credits = None
                self._dead = False

    def _backoff(self, attempts: int) -> float:
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempts - 1))
        delay *= 1.0 + self.backoff_jitter * self._backoff_random.random()
        self.last_backoff = delay
        return delay

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await write_frame(writer, protocol.hello(self.streams))
        ack = await read_frame(reader)
        if ack is None:
            raise ConnectionResetError("gateway closed during handshake")
        if ack.get("type") == "error":
            raise NetError(f"gateway rejected session: {ack.get('reason')}")
        if ack.get("type") != "hello_ack":
            raise NetError(f"expected hello_ack, got {ack.get('type')!r}")
        if ack.get("version") != protocol.PROTOCOL_VERSION:
            # Readings leave as block frames, which older dialects lack.
            raise NetError(
                f"gateway acknowledged protocol version "
                f"{ack.get('version')!r}; this feeder speaks "
                f"{protocol.PROTOCOL_VERSION} only"
            )
        credits = ack.get("credits")
        self._credits = dict(credits) if credits is not None else None
        self._acked = set()
        self._error = None

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        frames = FrameReader(reader)
        try:
            while True:
                frame = await frames.read_frame()
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "credit":
                    source = frame.get("source")
                    granted = int(frame.get("credits", 0))
                    self.credit_frames += 1
                    self.credits_received[source] = (
                        self.credits_received.get(source, 0) + granted
                    )
                    self._count("feeder.credit_frames")
                    if self._credits is not None:
                        self._credits[source] = (
                            self._credits.get(source, 0) + granted
                        )
                    self._credit_event.set()
                elif kind == "bye_ack":
                    self._acked.add(frame.get("source"))
                    self._credit_event.set()
                elif kind == "error":
                    self._error = str(frame.get("reason"))
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            FrameTruncated,
            NetError,
        ):
            pass
        finally:
            self._dead = True
            self._credit_event.set()

    async def _heartbeat_loop(self, out: FrameWriter) -> None:
        while True:
            await self._sleep(self.heartbeat_interval)
            out.add(protocol.heartbeat(self.streams))
            await out.drain()

    async def _send_from(
        self,
        out: FrameWriter,
        schedule: list[tuple[float, str, int, StreamTuple]],
        lows: "list[float | None]",
    ) -> None:
        """Send the whole schedule, a burst at a time: ``out`` is
        flushed before every sleep and credit wait, and on return.
        ``lows`` is the schedule's :meth:`_low_marks`."""
        wall_start = self._clock()
        sim_start = schedule[0][0] if schedule else 0.0
        credits = self._credits
        for (arrival, source, seq, item), low in zip(schedule, lows):
            if self.rate is not None:
                target = wall_start + (arrival - sim_start) / self.rate
                pause = target - self._clock()
                if pause > 0:
                    self.pacing_stalls += 1
                    self._count("feeder.pacing_stalls")
                    out.flush()
                    await self._sleep(pause)
            if credits is not None:
                if credits.get(source, 0) > 0:
                    credits[source] -= 1  # _acquire_credit, without a wait
                else:
                    await self._acquire_credit(source, out)
            out.add_row(source, seq, arrival, low, item)
            self.sent[source] += 1
            self._count(f"feeder.{source}.sent")
            if out.full:
                await out.drain()
        out.flush()

    async def _acquire_credit(self, source: str, out: FrameWriter) -> None:
        """Take one of ``source``'s credits, waiting for a grant while
        it has none."""
        assert self._credits is not None
        while self._credits.get(source, 0) <= 0:
            if self._dead:
                if self._error is not None:
                    raise NetError(f"gateway error: {self._error}")
                raise ConnectionResetError("gateway closed mid-stream")
            self.blocked_waits += 1
            self._count("feeder.blocked_waits")
            self._credit_event.clear()
            # The credits being waited for answer rows still pending.
            out.flush()
            await self._credit_event.wait()
        self._credits[source] -= 1

    async def _finish(self, out: FrameWriter) -> None:
        """Send per-source byes and wait for every acknowledgement."""
        for name in sorted(self.streams):
            if name not in self._acked:
                out.add(protocol.bye(name))
        out.flush()
        while not set(self.streams) <= self._acked:
            if self._dead:
                if self._error is not None:
                    raise NetError(f"gateway error: {self._error}")
                raise ConnectionResetError("gateway closed before bye_ack")
            self._credit_event.clear()
            await self._credit_event.wait()

    def _count(self, key: str) -> None:
        if self._collector.enabled:
            self._collector.count(key)

    def report(self) -> dict[str, Any]:
        """Delivery accounting for the replay so far."""
        return {
            "sent": dict(self.sent),
            "lost": dict(self.lost),
            "reconnects": self.reconnects,
            "blocked_waits": self.blocked_waits,
            "credit_frames": self.credit_frames,
            "credits_received": dict(self.credits_received),
            "pacing_stalls": self.pacing_stalls,
            "reconnect_backoff_ms": round(self.last_backoff * 1000, 3),
        }
