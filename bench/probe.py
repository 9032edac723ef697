"""Bench-side instrumentation: spans and timing proxies, outside the program.

Nothing here changes ``repro``. The proxies stand where the program
already accepts "anything with this surface" (the gateway's session,
the bundle's processor, the feeder's ``clock``/``sleep``) and time the
calls that cross that boundary.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any

from repro.streams.telemetry import InMemoryCollector

clock_ns = time.perf_counter_ns


class LeanCollector(InMemoryCollector):
    """A worker's collector without the per-tuple span log and the
    event log: operator counters and span histograms only.

    A cluster worker ships its whole snapshot to the router inside one
    ``result_end`` frame; with ``InMemoryCollector``'s logs that frame
    passes the 1 MiB cap at about 4k tuples (a 120 s shelf epoch makes
    2 MB) and the worker is lost. The budget rows need none of the logs.
    """

    def event(self, kind: str, **fields: Any) -> None:
        pass

    def span(self, **fields: Any) -> None:
        pass

    def spawn(self) -> "LeanCollector":
        return LeanCollector()


class SpanLog:
    """In-memory spans of one traced pass, written out at exit.

    A span is ``(id, name, start_ns, end_ns, parent id, extra)``; every
    span of a pass hangs, directly or not, off the pass's root span.
    """

    def __init__(self, workload: str, pass_index: int) -> None:
        self.workload = workload
        self.pass_index = pass_index
        self._spans: list[tuple] = []

    def add(
        self, name: str, start_ns: int, end_ns: int,
        parent: "int | None" = None, **extra: Any,
    ) -> int:
        """Record a finished span; returns its id (for children)."""
        self._spans.append(
            (len(self._spans), name, start_ns, end_ns, parent, extra)
        )
        return len(self._spans) - 1

    def reserve(self, name: str, start_ns: int) -> int:
        """Open a parent span now so children can point at it; close it
        with :meth:`finish`."""
        return self.add(name, start_ns, start_ns)

    def finish(self, span_id: int, end_ns: int) -> None:
        ident, name, start, _end, parent, extra = self._spans[span_id]
        self._spans[span_id] = (ident, name, start, end_ns, parent, extra)

    def __len__(self) -> int:
        return len(self._spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for ident, name, start, end, parent, extra in self._spans:
                out.write(json.dumps({
                    "id": ident, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent,
                    "workload": self.workload, "pass": self.pass_index,
                    **extra,
                }) + "\n")


class SessionProbe:
    """Times the ``ESPStreamSession`` surface a gateway or ledger drives.

    Always records, per punctuation tick, the instant the ``advance`` /
    ``close`` call that swept it returned (``swept_at``, the far end of
    the paced workload's latency). With ``spans`` it also accumulates
    busy time in ``push`` / ``advance`` / ``close`` and logs one span
    per ``advance`` and one per run of consecutive pushes; without, a
    push goes straight to the session untimed.
    """

    def __init__(
        self, session: Any, spans: "SpanLog | None" = None,
        parent: "int | None" = None,
    ) -> None:
        self._session = session
        self._spans = spans
        self._parent = parent
        self.swept_at: list[float] = []
        self.busy_ns = 0
        self._push_run: "list[int] | None" = None  # [start, end, count, busy]
        if spans is None:
            self.push = session.push

    def __getattr__(self, name: str) -> Any:
        # receptor_ids, safe_time, ticks, emitted, checkpoint, restore
        return getattr(self._session, name)

    @property
    def span_sink(self):
        return self._session.span_sink

    @span_sink.setter
    def span_sink(self, sink) -> None:
        self._session.span_sink = sink

    def push(self, receptor_id: str, item: Any, trace: Any = None) -> None:
        start = clock_ns()
        self._session.push(receptor_id, item, trace=trace)
        end = clock_ns()
        self.busy_ns += end - start
        run = self._push_run
        if run is None:
            self._push_run = [start, end, 1, end - start]
        else:
            run[1] = end
            run[2] += 1
            run[3] += end - start

    def _flush_pushes(self) -> None:
        run, self._push_run = self._push_run, None
        if run is not None:
            self._spans.add(
                "session.push", run[0], run[1], self._parent,
                count=run[2], busy_ns=run[3],
            )

    def advance(self, watermark: float) -> list[float]:
        if self._spans is None:
            swept = self._session.advance(watermark)
        else:
            self._flush_pushes()
            start = clock_ns()
            swept = self._session.advance(watermark)
            end = clock_ns()
            self.busy_ns += end - start
            if swept:
                self._spans.add(
                    "session.advance", start, end, self._parent,
                    count=len(swept),
                )
        if swept:
            self.swept_at.extend([time.perf_counter()] * len(swept))
        return swept

    def close(self) -> Any:
        start = clock_ns()
        run = self._session.close()
        end = clock_ns()
        remaining = len(self._session.ticks) - len(self.swept_at)
        if remaining:  # first close: it swept whatever was left
            self.swept_at.extend([time.perf_counter()] * remaining)
            if self._spans is not None:
                self._flush_pushes()
                self.busy_ns += end - start
                self._spans.add(
                    "session.close", start, end, self._parent,
                    count=remaining,
                )
        return run


class ProcessorProbe:
    """A bundle ``processor`` whose sessions come back wrapped in
    :class:`SessionProbe` — how the cluster workers' sessions, opened
    inside ``ClusterWorker``, are timed from outside."""

    def __init__(
        self, processor: Any, spans: SpanLog, parent: "int | None" = None
    ) -> None:
        self._processor = processor
        self._spans = spans
        self._parent = parent
        self.sessions: list[SessionProbe] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._processor, name)

    def open_session(self, **kwargs: Any) -> SessionProbe:
        probe = SessionProbe(
            self._processor.open_session(**kwargs), self._spans, self._parent
        )
        self.sessions.append(probe)
        return probe


class PacedClock:
    """The feeder's injectable ``clock`` and ``sleep``, remembering when
    each frame left.

    A paced ``ReplayFeeder`` reads the clock once to anchor its
    schedule and once per frame to decide whether to sleep; a sleep's
    end replaces that frame's reading. So ``reads[0]`` is the schedule
    anchor and ``reads[i + 1]`` the instant frame ``i`` was released to
    the wire.
    """

    def __init__(self) -> None:
        self.reads: list[float] = []

    def clock(self) -> float:
        now = time.perf_counter()
        self.reads.append(now)
        return now

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)
        self.reads[-1] = time.perf_counter()
