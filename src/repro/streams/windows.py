"""CQL-style window machinery.

A window turns an unbounded stream into a finite, time-varying relation.
This module implements the three window kinds used by the paper's queries:

- ``[Range By '5 sec']`` — a time-based sliding window
  (:class:`SlidingWindow`): at time *t* the window holds every tuple with
  timestamp in ``[t - range, t]``.
- ``[Range By 'NOW']`` — the degenerate zero-width window
  (:class:`NowWindow`): only tuples with timestamp exactly *t*.
- ``[Rows N]`` — a count-based window (:class:`RowWindow`) holding the most
  recent *N* tuples. The paper does not use row windows in its printed
  queries but CQL defines them and ESP operators may.

Windows are *passive* state containers: operators insert tuples and advance
time; the window evicts expired tuples and exposes its current contents.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.errors import WindowError
from repro.streams.time import Duration, parse_duration
from repro.streams.tuples import StreamTuple


class WindowSpec:
    """Declarative description of a window, as written in a query.

    Args:
        kind: ``"range"`` for time-based windows or ``"rows"`` for
            count-based windows.
        size: For ``range`` windows a :class:`Duration` (or anything
            :func:`parse_duration` accepts); for ``rows`` windows a positive
            integer row count.

    Example:
        >>> WindowSpec.range_by("5 sec").range_seconds
        5.0
        >>> WindowSpec.now().is_now
        True
    """

    __slots__ = ("kind", "_duration", "_rows")

    def __init__(self, kind: str, size: "Duration | str | float | int"):
        if kind not in ("range", "rows"):
            raise WindowError(f"unknown window kind {kind!r}")
        self.kind = kind
        self._duration: Duration | None = None
        self._rows: int | None = None
        if kind == "range":
            self._duration = parse_duration(size)
        else:
            rows = int(size)
            if rows <= 0:
                raise WindowError(f"row window size must be positive, got {size}")
            self._rows = rows

    @classmethod
    def range_by(cls, size: "Duration | str | float") -> "WindowSpec":
        """A ``[Range By ...]`` window spec."""
        return cls("range", size)

    @classmethod
    def now(cls) -> "WindowSpec":
        """The ``[Range By 'NOW']`` window spec."""
        return cls("range", Duration(0.0))

    @classmethod
    def rows(cls, count: int) -> "WindowSpec":
        """A ``[Rows N]`` window spec."""
        return cls("rows", count)

    @property
    def is_now(self) -> bool:
        """True when this is the zero-width NOW window."""
        return self.kind == "range" and self._duration is not None and self._duration.is_now

    @property
    def range_seconds(self) -> float:
        """Window width in seconds (range windows only)."""
        if self._duration is None:
            raise WindowError("row windows have no time range")
        return self._duration.seconds

    @property
    def row_count(self) -> int:
        """Window size in rows (row windows only)."""
        if self._rows is None:
            raise WindowError("range windows have no row count")
        return self._rows

    def make_window(self) -> "BaseWindow":
        """Instantiate the stateful window this spec describes."""
        if self.kind == "rows":
            return RowWindow(self.row_count)
        if self.is_now:
            return NowWindow()
        return SlidingWindow(self.range_seconds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self._duration == other._duration
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.kind, self._duration, self._rows))

    def __repr__(self) -> str:
        if self.kind == "rows":
            return f"WindowSpec(Rows {self._rows})"
        if self.is_now:
            return "WindowSpec(Range By NOW)"
        return f"WindowSpec(Range By {self._duration.seconds:g}s)"


class BaseWindow:
    """Common behaviour for stateful windows.

    Each kind implements :meth:`insert` and, if time evicts, :meth:`advance`.
    Insertion order must be non-decreasing in timestamp; the executor
    guarantees this.
    """

    def __init__(self):
        self._buffer: deque[StreamTuple] = deque()
        self._last_ts = float("-inf")

    def insert(self, item: StreamTuple) -> None:
        """Insert a tuple and evict what it expires.

        Raises:
            WindowError: For a timestamp more than ``1e-9`` older than
                the window's clock.
        """
        raise NotImplementedError

    def advance(self, now: float) -> int:
        """Move the window's clock to ``now``, evict what expired, and
        return the window's length."""
        if now > self._last_ts:
            self._last_ts = now
        return len(self._buffer)

    def contents(self) -> list[StreamTuple]:
        """Current window contents, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._buffer)


def _out_of_order(timestamp: float, last: float) -> WindowError:
    return WindowError(f"out-of-order insert: {timestamp} after {last}")


class SlidingWindow(BaseWindow):
    """Time-based sliding window over ``[now - range, now]``.

    At current time ``now`` the window contains every inserted tuple whose
    timestamp ``ts`` satisfies ``now - range <= ts <= now`` (CQL Range
    semantics, inclusive at both ends).

    Args:
        range_seconds: Window width in seconds; must be positive.

    Example:
        >>> w = SlidingWindow(5.0)
        >>> w.insert(StreamTuple(0.0, {"x": 1}))
        >>> w.insert(StreamTuple(3.0, {"x": 2}))
        >>> w.advance(5.0)
        2
        >>> [t["x"] for t in w]
        [1, 2]
        >>> w.advance(5.1)
        1
        >>> [t["x"] for t in w]
        [2]
    """

    def __init__(self, range_seconds: float):
        if range_seconds <= 0:
            raise WindowError(
                f"sliding window range must be positive, got {range_seconds}"
            )
        super().__init__()
        self.range_seconds = float(range_seconds)

    def insert(self, item: StreamTuple) -> None:
        timestamp = item.timestamp
        last = self._last_ts
        if timestamp < last - 1e-9:
            raise _out_of_order(timestamp, last)
        if timestamp > last:
            self._last_ts = last = timestamp
        buffer = self._buffer
        buffer.append(item)
        # The cutoff is at most ``last - 1e-9``, which the order check
        # put at or below ``timestamp``: the new tuple stays, so the
        # buffer never runs empty here.
        cutoff = last - self.range_seconds - 1e-9
        while buffer[0].timestamp < cutoff:
            buffer.popleft()

    def advance(self, now: float) -> int:
        # CQL Range semantics: at time t the window covers [t - range, t],
        # inclusive at both ends; evict only strictly older tuples.
        if now > self._last_ts:
            self._last_ts = now
        buffer = self._buffer
        cutoff = now - self.range_seconds - 1e-9
        while buffer and buffer[0].timestamp < cutoff:
            buffer.popleft()
        return len(buffer)


class NowWindow(SlidingWindow):
    """The zero-width ``[Range By 'NOW']`` window.

    Contains only tuples whose timestamp equals the current time. Used by
    the paper's Arbitrate (Query 3) and Virtualize (Query 6) queries to
    compare the streams' contents "at each time step".
    """

    #: A class attribute, so a NOW window's state is its buffer and clock.
    range_seconds = 0.0

    def __init__(self):
        BaseWindow.__init__(self)


class RowWindow(BaseWindow):
    """Count-based ``[Rows N]`` window holding the most recent N tuples.

    Time does not evict: :meth:`advance` only moves the clock.
    """

    def __init__(self, count: int):
        if count <= 0:
            raise WindowError(f"row window size must be positive, got {count}")
        super().__init__()
        self.count = int(count)

    def insert(self, item: StreamTuple) -> None:
        timestamp = item.timestamp
        last = self._last_ts
        if timestamp < last - 1e-9:
            raise _out_of_order(timestamp, last)
        if timestamp > last:
            self._last_ts = timestamp
        buffer = self._buffer
        buffer.append(item)
        while len(buffer) > self.count:
            buffer.popleft()
