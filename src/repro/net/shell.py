"""The asyncio half every sans-I/O core shares: it only moves bytes.

A :class:`Shell` wraps one router, gateway or feeder core: its
:meth:`~Shell.read` loop hands the core every frame one socket read
completes, then flushes — wakes whoever waits on the core's state and
writes what the core's ``flush`` returns — before it reads again. It
holds no core state across an ``await``."""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.errors import NetError
from repro.net import protocol


class Shell:
    """Byte-moving for ``core``; :attr:`writers` maps its peers."""

    def __init__(self, core: Any) -> None:
        self.core = core
        self.writers: dict[Any, asyncio.StreamWriter] = {}
        self._waiters: list[tuple[Callable[[], bool], asyncio.Future]] = []

    def flush(self) -> None:
        """Wake whoever waits, and write what the core has pending."""
        for predicate, future in self._waiters:
            if not future.done() and predicate():
                future.set_result(None)
        for peer, data, close in self.core.flush():
            writer = self.writers.get(peer)
            if writer is None:
                continue
            if data:
                writer.write(data)
            if close:
                del self.writers[peer]
                writer.close()

    async def until(self, predicate: Callable[[], bool]) -> None:
        """Resolve once ``predicate()`` holds at a flush."""
        if predicate():
            return
        future = asyncio.get_running_loop().create_future()
        waiter = (predicate, future)
        self._waiters.append(waiter)
        try:
            await future
        finally:
            self._waiters.remove(waiter)

    async def read(
        self,
        reader: asyncio.StreamReader,
        event: Callable[[dict], Any],
        ready: Callable[[], bool] = lambda: True,
        burst_end: "Callable[[], None] | None" = None,
    ) -> None:
        """Hand ``event`` every frame one socket read completes, then
        flush, and read on once ``ready()``: a peer the core has not
        caught up with meets TCP backpressure, not an unbounded queue.
        ``burst_end`` (a gateway core's drain) runs before the flush."""
        decoder = protocol.FrameDecoder()
        while data := await reader.read(protocol.BURST_BYTES):
            for frame in decoder.frames(data):
                event(frame)
            if burst_end is not None:
                burst_end()
            self.flush()
            await self.until(ready)
        decoder.eof()

    def close(self, reason: str) -> None:
        """Close every writer and fail every waiter with ``reason``."""
        for writer in self.writers.values():
            writer.close()
        self.writers.clear()
        for _predicate, future in self._waiters:
            if not future.done():
                future.set_exception(NetError(reason))
