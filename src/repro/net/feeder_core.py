"""The replay feeder's state machine: every replay decision, no I/O.

:class:`FeederCore` owns the schedule and its low marks, a session's
credits and pacing anchor, the :class:`~repro.net.protocol.Outbox` its
readings wait in as rows, the ``bye`` handshake, the checks on every
gateway frame, the reconnect accounting and the report. It imports no
``asyncio``; the pacing clock is injected. Its events are a new session
(:meth:`~FeederCore.open`), each gateway frame (the first must be the
``hello_ack``) and the link's end; :meth:`~FeederCore.send` writes
readings until one must wait and says why: :class:`Paced`,
:class:`Blocked` (until :meth:`~FeederCore.ready`), :data:`FULL` or
:data:`DONE`. Its shell writes what :meth:`~FeederCore.flush` returns
before it waits on any of them, so a paced feeder never sleeps on an
unsent reading and a blocked one has nothing pending.

A session that ends before every ``bye`` is acknowledged is in doubt as
a whole: the next replays the schedule from its start (at-least-once).
``max_attempts`` failed sessions with no ``credit`` or ``bye_ack``
between them end the replay. A gateway frame the feeder cannot act on
raises a :class:`~repro.errors.ProtocolError` before it changes any
state.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.protocol import Outbox
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple

#: One schedule entry: ``(arrival, source, seq, reading)``.
Entry = tuple[float, str, int, StreamTuple]

#: The one peer :meth:`FeederCore.flush` names.
GATEWAY = "gateway"

#: The outbox passed a burst: flush, and wait out the transport.
FULL = "full"

#: Every reading is sent and every ``bye`` acknowledged.
DONE = "done"


class Paced(NamedTuple):
    """The next reading is due in ``pause`` wall seconds; the next
    :meth:`FeederCore.send` writes it without reading the clock again."""

    pause: float


class Blocked(NamedTuple):
    """Waiting for a credit for ``source``, or (``None``) for the
    ``hello_ack`` or the ``bye_ack`` frames."""

    source: "str | None"


def low_marks(schedule: Sequence[Entry]) -> "list[float | None]":
    """The promise each schedule entry's row declares.

    The schedule is fixed before the first send, so what a live
    receptor can only bound (``timestamp + sample_period``) is exact
    here: after a reading, the lowest timestamp its source can still
    send is the least among that source's later entries. One reverse
    pass finds it. A row declares it only where that tells the gateway
    something new — its own timestamp lies strictly below every later
    one, which is exactly where the bound rises — and never on a
    source's last reading (``None``): the ``bye`` says that.
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


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


class FeederCore:
    """The feeder's decisions (see the module docstring); the arguments
    are :class:`~repro.net.feeder.ReplayFeeder`'s."""

    def __init__(
        self,
        streams: Mapping[str, Sequence[StreamTuple]],
        *,
        delay_model: Any = None,
        channel: Any = None,
        rate: "float | None" = None,
        max_attempts: int = 6,
        clock: Callable[[], float] = time.monotonic,
        telemetry: "TelemetryCollector | None" = None,
    ):
        if not streams:
            raise NetError("feeder needs at least one source stream")
        if rate is not None and rate <= 0:
            raise NetError(f"rate must be positive, got {rate}")
        if max_attempts < 1:
            raise NetError(f"max_attempts must be >= 1, got {max_attempts}")
        self.streams = {name: list(items) for name, items in streams.items()}
        self.sources = tuple(sorted(self.streams))
        self.delay_model = delay_model
        self.channel = channel
        self.rate = rate
        self.max_attempts = int(max_attempts)
        self.clock = clock
        self.collector = resolve_telemetry(telemetry)
        #: The schedule and its :func:`low_marks`, once :meth:`plan` ran.
        self.schedule: "list[Entry] | None" = None
        self.lows: "list[float | None]" = []
        # accounting (attributes are the source of truth; the collector
        # mirrors every increment onto feeder.* counters)
        self.sent = {name: 0 for name in self.streams}
        self.lost = {name: 0 for name in self.streams}
        self.reconnects = 0
        self.blocked_waits = 0
        self.credit_frames = 0
        self.credits_received = {name: 0 for name in self.streams}
        self.pacing_stalls = 0
        #: Failed sessions since the last credit or bye_ack.
        self.attempts = 0
        self._reset()

    def _reset(self) -> None:
        self.out = Outbox()
        self.accepted = False
        self.credits: "dict[str, int] | None" = None
        self.acked: set[str] = set()
        #: What ended the session, once something has.
        self.failure: "Exception | None" = None
        self._next = 0
        self._paced = -1
        self._anchor: "float | None" = None
        self._byed = False

    def plan(self) -> list[Entry]:
        """Apply loss and delay, once per replay; returns the schedule
        each of its sessions replays, sorted on ``(arrival, source,
        seq)`` so the wire order is a pure function of the impairment
        draws. Lost readings are counted and keep their sequence numbers
        (gaps on the wire)."""
        if self.schedule is not None:
            return self.schedule
        schedule: list[Entry] = []
        for name in self.sources:
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
        self.schedule = schedule
        self.lows = low_marks(schedule)
        return schedule

    # -- events -----------------------------------------------------------------

    def open(self) -> None:
        """A new session: the ``hello``, then the schedule from its start."""
        self.plan()
        self._reset()
        self.out.add(protocol.hello(self.sources))

    def frame(self, frame: dict) -> None:
        """A frame from the gateway.

        Raises:
            NetError: A refused handshake, or an ``error`` frame.
            ProtocolError: A ``hello_ack`` whose ``credits`` are not
                ``null`` or this feeder's sources mapped to
                non-negative ints, a ``credit`` of anything else, a
                ``credit`` or ``bye_ack`` for a source it does not feed.
        """
        kind = frame.get("type")
        if not self.accepted:
            self._accept(frame)
        elif kind == "credit":
            source = self._fed(frame)
            granted = frame.get("credits")
            if not _is_count(granted):
                raise ProtocolError(
                    f"credit of {granted!r:.40} for {source!r}; expected "
                    f"a non-negative integer"
                )
            self.attempts = 0
            self.credit_frames += 1
            self.credits_received[source] += granted
            self._count("feeder.credit_frames")
            if self.credits is not None:
                self.credits[source] = self.credits.get(source, 0) + granted
        elif kind == "bye_ack":
            self.acked.add(self._fed(frame))
            self.attempts = 0
        elif kind == "error":
            raise NetError(f"gateway error: {frame.get('reason')}")

    def _accept(self, ack: dict) -> None:
        kind = ack.get("type")
        if kind == "error":
            raise NetError(f"gateway rejected session: {ack.get('reason')}")
        if kind != "hello_ack":
            raise NetError(f"expected hello_ack, got {kind!r}")
        if ack.get("version") != protocol.PROTOCOL_VERSION:
            # Readings leave as block frames, which older dialects lack.
            raise NetError(
                f"gateway acknowledged protocol version "
                f"{ack.get('version')!r}; this feeder speaks "
                f"{protocol.PROTOCOL_VERSION} only"
            )
        credits = ack.get("credits")
        if credits is not None and not (
            isinstance(credits, dict) and all(
                name in self.streams and _is_count(count)
                for name, count in credits.items()
            )
        ):
            raise ProtocolError(
                f"hello_ack credits {credits!r:.80}; expected null or a "
                f"mapping of {list(self.sources)!r} to non-negative integers"
            )
        self.credits = dict(credits) if credits is not None else None
        self.accepted = True

    def _fed(self, frame: dict) -> str:
        source = frame.get("source")
        if type(source) is not str or source not in self.streams:
            raise ProtocolError(
                f"{frame.get('type')} for source {source!r:.40}; this "
                f"feeder feeds {list(self.sources)!r}"
            )
        return source

    def ended(self, error: "Exception | None" = None) -> None:
        """The link is gone: EOF (``None``), a reset, a torn frame or
        what :meth:`frame` raised. The first cause sticks."""
        if self.failure is None:
            phase = (
                "during handshake" if not self.accepted
                else "before bye_ack" if self._byed else "mid-stream"
            )
            self.failure = error or ConnectionResetError(
                f"gateway closed {phase}"
            )

    def heartbeat(self) -> None:
        self.out.add(protocol.heartbeat(self.sources))

    # -- sending ----------------------------------------------------------------

    def send(self) -> "Paced | Blocked | str":
        """Write readings in schedule order until one must wait, then the
        ``bye`` frames; returns why it stopped. A paced session reads
        the clock once for its anchor and once per reading.

        Raises:
            Exception: What ended the session (:attr:`failure`).
        """
        if self.failure is not None:
            raise self.failure
        if not self.accepted:
            return Blocked(None)
        schedule, lows, out = self.schedule, self.lows, self.out
        assert schedule is not None
        credits, sent, rate = self.credits, self.sent, self.rate
        counting = self.collector.enabled
        index, end = self._next, len(schedule)
        if rate is not None and self._anchor is None:
            self._anchor = self.clock()
        anchor = self._anchor
        first = schedule[0][0] if schedule else 0.0
        while index < end:
            arrival, source, seq, item = schedule[index]
            if rate is not None and self._paced < index:
                self._paced = index
                assert anchor is not None
                pause = anchor + (arrival - first) / rate - self.clock()
                if pause > 0:
                    self._next = index
                    self.pacing_stalls += 1
                    self._count("feeder.pacing_stalls")
                    return Paced(pause)
            if credits is not None:
                if credits.get(source, 0) <= 0:
                    self._next = index
                    self.blocked_waits += 1
                    self._count("feeder.blocked_waits")
                    return Blocked(source)
                credits[source] -= 1
            out.add_row(source, seq, arrival, lows[index], item)
            index += 1
            sent[source] += 1
            if counting:
                self.collector.count(f"feeder.{source}.sent")
            if out.full:
                self._next = index
                return FULL
        self._next = index
        if not self._byed:
            self._byed = True
            for name in self.sources:
                if name not in self.acked:
                    out.add(protocol.bye(name))
        if not self.acked.issuperset(self.sources):
            return Blocked(None)
        # The replay is over: its schedule goes before the gateway's own
        # drain and close (a later replay draws a new one).
        self.schedule, self.lows = None, []
        return DONE

    def ready(self) -> bool:
        """The gateway answered what :meth:`send`'s :class:`Blocked`
        waits for, or the session ended."""
        if self.failure is not None:
            return True
        if not self.accepted:
            return False
        if self._byed:
            return self.acked.issuperset(self.sources)
        if self.credits is None or self._next == len(self.schedule or ()):
            return True
        return self.credits.get(self.schedule[self._next][1], 0) > 0

    def flush(self) -> "Iterator[tuple[str, bytes, bool]]":
        """Pending frames as ``(GATEWAY, data, False)``, a burst each."""
        for data in self.out.bursts():
            yield GATEWAY, data, False

    def retry(self, connected: bool) -> bool:
        """A session failed (``connected``: its TCP connect succeeded);
        ``False`` once ``max_attempts`` have failed in a row."""
        if connected:
            self.reconnects += 1
            self._count("feeder.reconnects")
        self.attempts += 1
        return self.attempts < self.max_attempts

    # -- accounting -------------------------------------------------------------

    def _count(self, key: str) -> None:
        if self.collector.enabled:
            self.collector.count(key)

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
        }
