"""Bounded out-of-order handling at the stream ingress.

The stream engine's window operators require timestamp-ordered input
(the usual punctuated-stream contract). Physical deployments violate it:
multi-hop collection networks deliver readings seconds-to-minutes late
and out of order. The standard fix — and what HiFi-class gateways do —
is a bounded **reorder buffer** between the receptors and the first
windowed operator: hold arrivals for a slack period, release them in
timestamp order, and count (rather than crash on) hopelessly late data.

:class:`ReorderBuffer` implements that gateway. Pair it with
:class:`repro.receptors.network.DelayModel` to simulate delayed
delivery, and size ``slack`` from the delay distribution: slack at least
the maximum network delay guarantees zero drops (a property the test
suite checks with hypothesis).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.errors import OperatorError
from repro.streams.tuples import StreamTuple


class ReorderBuffer:
    """Release out-of-order arrivals in timestamp order, bounded by slack.

    Args:
        slack: How long (in seconds of *arrival* time) a tuple may be
            held waiting for stragglers. A tuple is released once the
            newest arrival's time exceeds its timestamp by ``slack`` —
            or sooner, once the sender promises nothing older is coming
            (:meth:`promise`).

    Attributes:
        dropped: Tuples discarded because they arrived after their
            release horizon had already passed (late beyond slack, or
            under their sender's own promise), or behind the highest
            already-released timestamp.
        released: Count of tuples released in order.

    **Tie-breaking.** Tuples with equal timestamps release in ascending
    *sequence number*: the explicit ``sequence`` passed to :meth:`push`
    when the caller has one (the ingestion gateway forwards the sender's
    per-source sequence so duplicates come out in original stream
    order), or an internal arrival counter otherwise (equal-timestamp
    arrivals release in arrival order). Mixing explicit and implicit
    sequences in one buffer is undefined; pick one convention per
    buffer.

    **Lateness.** An arrival is dropped when its timestamp lies strictly
    below the highest released timestamp (the frontier), or more than
    1 ns below the current release horizon (``newest arrival time -
    slack``, or the sender's newest promise where that is higher). A
    tuple arriving *exactly at* the horizon is admitted and released
    immediately. The strict frontier comparison preserves the
    sorted-output guarantee downstream windows rely on; the toleranced
    horizon comparison keeps a delay equal to the slack from being
    dropped over float rounding, and makes :attr:`watermark` a promise
    a consumer can punctuate on.

    **Promises.** Slack only lets the horizon rise when a *later*
    reading arrives, so a buffer fed by a quiet source holds its
    consumer back however complete its data is. A sender that knows the
    lowest timestamp it can still send says so with :meth:`promise`,
    which moves the same horizon without an arrival: one horizon, one
    lateness rule, whichever of the two raised it last.

    Example:
        >>> buffer = ReorderBuffer(slack=2.0)
        >>> out = buffer.push(3.0, StreamTuple(1.0, {"v": 1}))
        >>> [t.timestamp for t in out]
        [1.0]
    """

    def __init__(self, slack: float):
        if slack < 0:
            raise OperatorError(f"slack must be >= 0, got {slack}")
        self.slack = float(slack)
        self.dropped = 0
        self.released = 0
        self._heap: list[tuple[float, int, StreamTuple]] = []
        self._sequence = 0
        self._frontier = float("-inf")  # highest released timestamp
        #: Newest arrival time - slack, or the newest promise (less its
        #: 2 ns guard), whichever is higher.
        self._horizon = float("-inf")

    @property
    def watermark(self) -> float:
        """Lower bound (within 1 ns) on every future release's timestamp.

        ``max(frontier, horizon)``: no tuple released after this call
        can carry a timestamp more than 1e-9 below the returned value —
        later arrivals under that bound are dropped, and buffered tuples
        are above it by construction. Arrivals and :meth:`promise` raise
        it; :meth:`flush` raises it to ``+inf``. Consumers that
        punctuate on time (the ingestion gateway's pipeline session)
        may safely process every instant more than 2 ns below it.
        """
        return max(self._frontier, self._horizon)

    def push(
        self,
        arrival_time: float,
        item: StreamTuple,
        sequence: int | None = None,
    ) -> list[StreamTuple]:
        """Accept one arrival; return any tuples now releasable.

        Arrival times must be non-decreasing (wall-clock order at the
        gateway); the *tuples'* timestamps may be arbitrary.

        Args:
            arrival_time: When the tuple reached the buffer.
            item: The tuple itself.
            sequence: Explicit equal-timestamp tie-break rank (see the
                class docstring); defaults to arrival order.
        """
        horizon = arrival_time - self.slack
        if horizon > self._horizon:
            self._horizon = horizon
        if (
            item.timestamp < self._frontier
            or item.timestamp < self._horizon - 1e-9
        ):
            # Hopelessly late: everything at-or-after it was released,
            # or its release horizon has already passed. The frontier
            # comparison is strict — admitting "just barely late"
            # tuples would emit them behind the frontier and break the
            # sorted-output guarantee downstream windows rely on. The
            # horizon comparison is toleranced so a delay exactly equal
            # to the slack survives float rounding. The arrival still
            # advanced the horizon, so buffered tuples it uncovered
            # must release *now* — holding them past a rising watermark
            # would hand the consumer tuples behind its punctuation.
            self.dropped += 1
            return self._release(self._horizon)
        if sequence is None:
            sequence = self._sequence
        heapq.heappush(self._heap, (item.timestamp, int(sequence), item))
        self._sequence += 1
        return self._release(self._horizon)

    def promise(self, low: float) -> list[StreamTuple]:
        """Accept the sender's word that every later arrival carries a
        timestamp of at least ``low``; return the tuples that makes
        releasable.

        Equivalent to a tuple-less arrival whose ``arrival_time - slack``
        is ``low`` less 2 ns: the horizon rises to there (never falls,
        so a repeated or replayed promise is a no-op), and everything
        the ordinary rules then allow follows. Buffered tuples strictly
        below ``low`` release; one *at* ``low`` stays, because its
        equal-timestamp, lower-sequence twins may still be in flight.
        :attr:`watermark` lets a consumer sweep exactly the instants
        strictly below ``low``. A sender that breaks its word loses what
        it sends under the promise to the lateness rule — counted in
        :attr:`dropped`, never released out of order.
        """
        horizon = low - 2e-9
        if horizon <= self._horizon:
            return []
        self._horizon = horizon
        return self._release(horizon)

    def checkpoint(self) -> dict:
        """Snapshot the buffer's state for later :meth:`restore`.

        The returned ``heap`` entries reference the buffered tuples
        themselves (no copies): serialize synchronously, before the next
        :meth:`push`.
        """
        return {
            "dropped": self.dropped,
            "released": self.released,
            "heap": list(self._heap),
            "sequence": self._sequence,
            "frontier": self._frontier,
            "horizon": self._horizon,
        }

    def restore(self, state: dict) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh buffer."""
        if self._heap or self.released or self.dropped:
            raise OperatorError("restore needs a fresh ReorderBuffer")
        self.dropped = int(state["dropped"])
        self.released = int(state["released"])
        # A copy of a valid heap list is itself a valid heap: no heapify.
        self._heap = list(state["heap"])
        self._sequence = int(state["sequence"])
        self._frontier = float(state["frontier"])
        self._horizon = float(state["horizon"])

    def flush(self) -> list[StreamTuple]:
        """Release everything still buffered (end of stream).

        Also raises the :attr:`watermark` to ``+inf``: a flushed buffer
        has promised its consumer there is nothing left, so any tuple
        pushed afterwards is late by definition and will be dropped.
        """
        self._horizon = float("inf")
        return self._release(float("inf"))

    def _release(self, horizon: float) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        while self._heap and self._heap[0][0] <= horizon + 1e-9:
            timestamp, _seq, item = heapq.heappop(self._heap)
            self._frontier = max(self._frontier, timestamp)
            self.released += 1
            out.append(item)
        return out

    def __len__(self) -> int:
        return len(self._heap)


def reorder_arrivals(
    arrivals: Iterable[tuple[float, StreamTuple]], slack: float
) -> tuple[list[StreamTuple], int]:
    """Reorder a whole arrival-ordered trace; returns (ordered, dropped).

    Args:
        arrivals: ``(arrival_time, tuple)`` pairs in arrival order.
        slack: Reorder slack (see :class:`ReorderBuffer`).

    Returns:
        The timestamp-ordered tuples ready for the stream engine, and
        the number of too-late tuples dropped.
    """
    buffer = ReorderBuffer(slack)
    ordered: list[StreamTuple] = []
    for arrival_time, item in arrivals:
        ordered.extend(buffer.push(arrival_time, item))
    ordered.extend(buffer.flush())
    return ordered, buffer.dropped


def delayed_arrivals(
    readings: Iterable[StreamTuple],
    delay_model,
) -> Iterator[tuple[float, StreamTuple]]:
    """Turn sense-time readings into network-delayed arrivals.

    Args:
        readings: Tuples in sense-time order.
        delay_model: Object with ``sample() -> float`` delay seconds
            (see :class:`repro.receptors.network.DelayModel`).

    Yields:
        ``(arrival_time, tuple)`` pairs sorted by arrival time.
    """
    stamped = [
        (item.timestamp + float(delay_model.sample()), item)
        for item in readings
    ]
    stamped.sort(key=lambda pair: pair[0])
    yield from stamped
