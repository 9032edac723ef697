"""The cluster router's state machine: every routing decision, no I/O.

:class:`RouterCore` owns all router state: the ring and membership, the
retained history, each worker link's credits, positions, checkpoint
cuts and result buckets, the feeder credits owed, the epochs, recovery
and span commit. It imports no ``asyncio``; the failure detector's
clock is injected. Its *events* are method calls (a feeder's ``hello``,
frame or end; a worker's frame; a link opened, failed or died; a
restart's result; a connect, rebalance or finish request; a deadline
check; :meth:`RouterCore.flush`); its *actions* come back as lists
(:class:`Send`, and those in :mod:`repro.net.router_epochs`). Frames and
rows are written into each peer's :class:`~repro.net.protocol.Outbox`
as decisions are taken, so wire order is decision order.

**One placement path.** A reading whose link has a credit in hand and
an empty backlog is written at once; otherwise it joins the link's
*backlog* and its feeder connection stalls (the core reads none of its
later input) until the reading is placed. Replays take the same path,
and ``bye`` and ``drain`` frames queue behind them. A feeder credit is
owed once its reading is placed or skipped (its link died; recovery
replays it), so unplaced readings stay within the credit window.

**Frozen.** Each membership change, recovery and the final close is a
*transition* (:mod:`repro.net.router_epochs`); while one runs or waits
its turn, feeder input waits. Requests queue behind it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.gateway_core import check_hello
from repro.net.protocol import Outbox
from repro.net.recovery import CheckpointStore, FailureDetector, WorkerCheckpoint
from repro.net import router_epochs as epochs
from repro.net.ring import HashRing
from repro.net.router_epochs import CloseLink, Link, RunDone
from repro.streams.telemetry import TelemetryCollector
from repro.streams.tuples import StreamTuple


class Send(NamedTuple):  # write ``data`` to a peer, then maybe close it
    peer: Any
    data: bytes
    close: bool = False


class Settled(NamedTuple):  # the request carrying ``ticket`` is done
    ticket: Any
    error: "Exception | None"


class Retained(NamedTuple):
    """One reading kept, decoded, for replay. ``ingest_id`` and
    ``recv`` (0 untraced) are kept across replays, so a re-run tuple's
    ``router.queue`` span absorbs the failover delay."""

    arrival: float
    seq: int
    source: str
    key: str
    low: "float | None"
    item: StreamTuple
    ingest_id: int
    recv: int


class Feeder:
    """One feeder connection as the core sees it."""

    __slots__ = (
        "names", "version", "out", "inbox", "rows", "recv", "stalled",
        "closing",
    )

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.version = 0
        self.out = Outbox()
        #: ``(frame, receive stamp)`` to serve; a ``None`` frame is the
        #: connection's end, the refusal (or ``""``) second.
        self.inbox: deque = deque()
        #: The rest of a block whose reading joined a backlog.
        self.rows: "Iterator[tuple] | None" = None
        self.recv = 0
        self.stalled = False
        #: ``""`` or the refusal, once the connection is to close.
        self.closing: "str | None" = None

    def served(self) -> bool:
        """Nothing of its input waits: the shell may read the next burst."""
        return self.closing is not None or (not self.inbox and self.rows is None)


class RouterCore:
    """The router's decisions (see the module docstring).

    ``key_fn(source, reading)`` is the shard key; a true ``source_level``
    attribute (:meth:`~repro.core.pipeline.ESPProcessor.shard_key_fn`
    sets it) places whole sources. ``ticks`` is the punctuation
    schedule and ``supervised`` whether a respawn can be asked for; the
    rest mirror :class:`~repro.net.router.ClusterRouter`'s arguments.
    """

    def __init__(
        self,
        sources: Iterable[str],
        key_fn: Callable[[str, Any], Any],
        ticks: Sequence[float],
        *,
        slack: float,
        queue_bound: int,
        collector: TelemetryCollector,
        clock: Callable[[], float],
        checkpoint_interval: "int | None",
        supervised: bool,
        suspect_after: float,
        dead_after: "float | None",
    ):
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise NetError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.expected = tuple(sorted(sources))
        if not self.expected:
            raise NetError("router needs at least one expected source")
        self.slack = float(slack)
        self.queue_bound = int(queue_bound)
        self.checkpoint_interval = checkpoint_interval
        self.ticks = ticks
        self._key_fn = key_fn
        self._source_level = bool(getattr(key_fn, "source_level", False))
        self.collector = collector
        self._tracing = collector.enabled
        self._trace_seq = 0
        self._supervised = supervised
        self.store = CheckpointStore()
        self.detector = FailureDetector(
            suspect_after=suspect_after, dead_after=dead_after, clock=clock
        )
        self._checkpoint_seq = 0
        self.links: dict[str, Link] = {}
        self._ring: "HashRing | None" = None
        self.epoch = -1
        self.epoch_start = 0
        self.epochs: list[dict[str, Any]] = []
        self.history: dict[str, list[Retained]] = {
            name: [] for name in self.expected
        }
        self.max_arrival: dict[str, float] = {}
        self.final: set[str] = set()
        #: Open feeder connections, each with its unserved input.
        self.feeders: list[Feeder] = []
        self._owners: dict[str, Feeder] = {}
        #: Source → feeder credits earned and not granted yet.
        self._owed: dict[str, int] = {}
        self.offered: dict[str, int] = {}
        self.data_frames = 0
        self.ever_connected = False
        #: Transitions waiting their turn: ``(ticket, generator)``.
        self._queue: deque = deque()
        self._step: "Iterator | None" = None
        self._ticket: Any = None
        self._wait: "Callable[[], bool] | None" = None
        self._restarted: dict[str, tuple] = {}
        self._finish_requested = False
        self._finish_queued = False
        self.finished = False
        self.fatal: "Exception | None" = None
        self._actions: list = []
        self.recovery = dict.fromkeys((
            "checkpoints_acked", "checkpoints_rejected", "resumes",
            "restarts", "failovers", "replayed_frames",
            "forwards_skipped_dead",
        ), 0)

    @property
    def frozen(self) -> bool:
        """Feeder input waits: no live epoch, or a transition pending."""
        return (
            self._step is not None or bool(self._queue) or not self.links
            or self.finished or self.fatal is not None
        )

    # -- requests ------------------------------------------------------------

    def connect(
        self, ticket: Any, membership: "dict[str, tuple[str, int]]"
    ) -> list:
        """Open epoch 0 over ``membership``; :class:`Settled` follows."""
        if self.epoch >= 0:
            raise NetError(
                "workers already connected; use add_worker/remove_worker"
            )
        self._queue.append((ticket, epochs.open_epoch(self, membership, 0)))
        return self._done()

    def rebalance(
        self,
        ticket: Any,
        add: "dict[str, tuple[str, int]] | None" = None,
        remove: "set[str] | None" = None,
    ) -> list:
        """Apply a membership delta through a full epoch handoff,
        resolved against the links when the transition starts (a
        recovery queued ahead of it may have failed the ring over)."""
        for label in add or ():
            if label in self.links:
                raise NetError(f"worker {label!r} already in the ring")
        for label in remove or ():
            if label not in self.links:
                raise NetError(f"worker {label!r} is not in the ring")
            if len(self.links) == 1:
                raise NetError("cannot remove the last worker")
        if self.epoch < 0:
            raise NetError("connect_workers must establish epoch 0 first")
        self._queue.append(
            (ticket, epochs.rebalance(self, add or {}, remove or set()))
        )
        return self._done()

    def finish(self) -> list:
        """Close the run once every source is final (:class:`RunDone`)."""
        self._finish_requested = True
        self._maybe_finish()
        return self._done()

    def check_workers(
        self, now: "float | None" = None
    ) -> "tuple[list[str], list]":
        """Deadline sweep: the labels newly declared dead, and actions."""
        died = self.detector.check(now)
        for label in died:
            link = self.links.get(label)
            if link is not None:
                self._lost(link, NetError(f"worker {label!r} went silent"))
        return died, self._done()

    # -- feeder events -------------------------------------------------------

    def feeder_opened(self) -> Feeder:
        self.feeders.append(Feeder())
        return self.feeders[-1]

    def feeder_hello(self, feeder: Feeder, frame: dict) -> list:
        """Accept or refuse a connection's opening ``hello``."""
        try:
            names, version = check_hello(frame, self.expected, "router", self._count)
            taken = [name for name in names if name in self._owners]
            if taken:
                raise ProtocolError(f"sources already connected: {taken!r}")
        except ProtocolError as error:
            feeder.closing = str(error)
            return self._done()
        feeder.names = set(names)
        feeder.version = version
        for name in names:
            self._owners[name] = feeder
        self.ever_connected = True
        feeder.out.add(protocol.hello_ack(
            {name: self.queue_bound for name in names}, version
        ))
        return self._done()

    def feeder_frame(self, feeder: Feeder, frame: dict) -> list:
        if feeder.closing is None:
            stamp = time.perf_counter_ns() if self._tracing else 0
            feeder.inbox.append((frame, stamp))
        return self._done()

    def feeder_closed(self, feeder: Feeder, reason: str = "") -> list:
        """EOF, a reset or (``reason``) undecodable bytes: the connection
        closes once what it sent before is served — at once, frozen or
        not, if nothing is left, so a reconnect finds its sources free."""
        if feeder.closing is None and feeder.served():
            self._close_feeder(feeder, reason)
        elif feeder.closing is None:
            feeder.inbox.append((None, reason))
        return self._done()

    def _serve(self, feeder: Feeder) -> None:
        """Serve ``feeder``'s input in order until it stalls, the core
        freezes, or nothing is left."""
        try:
            while not feeder.stalled and feeder.closing is None:
                if feeder.rows is None:
                    if not feeder.inbox:
                        return
                    frame, reason = feeder.inbox[0]
                    if frame is None:  # the end, once what came before is served
                        self._close_feeder(feeder, reason)
                        return
                if self.frozen:
                    return
                if feeder.rows is not None:
                    rows, feeder.rows = feeder.rows, None
                    self._route_rows(feeder, rows)
                else:
                    frame, feeder.recv = feeder.inbox.popleft()
                    self._take(feeder, frame)
        except ProtocolError as error:
            self._close_feeder(feeder, str(error))

    def _take(self, feeder: Feeder, frame: dict) -> None:
        rows = protocol.frame_rows(frame, feeder.version)
        if rows is not None:
            self._route_rows(feeder, rows)
            return
        kind = frame.get("type")
        if kind == "heartbeat":
            protocol.source_names(frame)  # what a worker refuses, we do
            for link in self.links.values():
                if not link.dead:
                    link.out.add(frame)
        elif kind == "bye":
            source = protocol.source_name(frame)
            if source not in feeder.names:
                raise ProtocolError(
                    f"bye for source {source!r} not owned by this connection"
                )
            if source not in self.final:
                self.final.add(source)
                for label in sorted(self.links):
                    link = self.links[label]
                    if source in link.sources and not link.dead:
                        self._enqueue(link, protocol.bye(source))
            # Credits first: a feeder stops reading at its last ack.
            self._grant_credits()
            feeder.out.add(protocol.bye_ack(source))
            self._maybe_finish()
        else:
            raise ProtocolError(f"unexpected frame type {kind!r}")

    def _route_rows(self, feeder: Feeder, rows: Iterable[tuple]) -> None:
        """Retain and place a ``block``'s rows (or a ``data`` frame's
        one), checked as the gateway behind us checks them. Each key's
        owner is looked up once per call; the first reading that joins a
        backlog stalls the feeder with the rest of the rows.

        Raises:
            ProtocolError: A malformed row, or one for a source the
                connection does not own or has byed; the rows ahead of
                it are retained and placed.
        """
        rows = iter(rows)
        names = feeder.names
        final = self.final
        history = self.history
        max_arrival = self.max_arrival
        key_fn = self._key_fn
        owner = self._ring.owner  # type: ignore[union-attr]
        links = self.links
        owners: dict[str, Link] = {}
        for source, seq, arrival, low, item, _trace in rows:
            if source not in names:
                raise ProtocolError(
                    f"reading for source {source!r} not declared "
                    f"in this connection's hello"
                )
            if source in final:
                raise ProtocolError(
                    f"reading for source {source!r} after its bye"
                )
            key = str(key_fn(source, item))
            ingest_id = 0
            if self._tracing:
                self._trace_seq += 1
                ingest_id = self._trace_seq
            retained = Retained(
                arrival, seq, source, key, low, item, ingest_id, feeder.recv
            )
            history[source].append(retained)
            if arrival > max_arrival.get(source, float("-inf")):
                max_arrival[source] = arrival
            link = owners.get(key)
            if link is None:
                link = owners[key] = links[owner(key)]
            credits = link.credits.get(source, 0)
            if credits > 0 and not link.backlog:
                link.credits[source] = credits - 1
                self._place(link, retained, False)
                self._earned(source)
            else:
                link.backlog.append((retained, feeder))
                feeder.stalled = True
                feeder.rows = rows
                return

    def _close_feeder(self, feeder: Feeder, reason: str) -> None:
        feeder.closing = reason
        feeder.inbox.clear()
        feeder.rows = None

    # -- placement -------------------------------------------------------------

    def _place(self, link: Link, frame: Retained, replayed: bool) -> None:
        """Write one reading, its worker credit taken, as the next row
        of ``link``'s pending block; ``positions`` moves with it, so a
        checkpoint frame's snapshot is the cut it seals."""
        link.positions[frame.source] = link.positions.get(frame.source, 0) + 1
        link.since_checkpoint += 1
        trace = None
        if self._tracing:
            trace = [
                frame.ingest_id, frame.recv, time.perf_counter_ns(),
                time.perf_counter_ns(), 1 if replayed else 0,
            ]
        link.out.add_row(
            frame.source, frame.seq, frame.arrival, frame.low, frame.item,
            trace,
        )
        self._maybe_checkpoint(link)

    def _pump(self, link: Link) -> None:
        """Write what ``link``'s backlog can: frames at once, readings
        while their worker credits last."""
        backlog = link.backlog
        credits = link.credits
        while backlog:
            entry = backlog[0]
            if type(entry) is dict:
                backlog.popleft()
                link.out.add(entry)
                continue
            frame, feeder = entry
            have = credits.get(frame.source, 0)
            if have <= 0:
                return
            credits[frame.source] = have - 1
            backlog.popleft()
            self._place(link, frame, feeder is None)
            if feeder is None:
                self._bump("replayed_frames")
            else:
                self._earned(frame.source)
                feeder.stalled = False

    def _enqueue(self, link: Link, frame: dict) -> None:
        """Queue ``frame`` behind ``link``'s backlog."""
        link.backlog.append(frame)
        self._pump(link)

    def _earned(self, source: str) -> None:
        """A reading was placed or skipped: its feeder credit is owed."""
        self.data_frames += 1
        self.offered[source] = self.offered.get(source, 0) + 1
        self._owed[source] = self._owed.get(source, 0) + 1

    def _grant_credits(self) -> None:
        """Queue the owed feeder credits on their connections."""
        for source, credits in self._owed.items():
            feeder = self._owners.get(source)
            if feeder is not None:  # else: gone; a reconnect re-grants
                feeder.out.add(protocol.credit_frame(source, credits))
        self._owed.clear()

    def flush(self) -> list:
        """The flush rule, before the shell waits on a socket: every
        link's frames, then the owed feeder credits (one ``credit`` frame
        per source) and every feeder's frames, so a credit never reaches
        the wire before the row that earned it."""
        sends = []
        for link in self.links.values():
            data = link.out.take()
            if data:
                sends.append(Send(link, data))
        self._grant_credits()
        for feeder in list(self.feeders):
            data = feeder.out.take()
            if feeder.closing is None:
                if data:
                    sends.append(Send(feeder, data))
                continue
            if feeder.closing:
                data += protocol.encode_frame(protocol.error_frame(feeder.closing))
            sends.append(Send(feeder, data, True))
            self.feeders.remove(feeder)
            for name in feeder.names:
                if self._owners.get(name) is feeder:
                    del self._owners[name]
        return sends

    # -- worker events ---------------------------------------------------------

    def link_opened(self, link: Link, ack: "dict | None") -> list:
        """``link`` is connected; ``ack`` is its first frame or ``None``."""
        if link.closed:
            self._actions.append(CloseLink(link))
        elif ack is None or ack.get("type") != "hello_ack":
            reason = (ack or {}).get("reason", "connection closed")
            if ack is not None and ack.get("type") != "error":
                reason = f"unexpected {ack.get('type')!r}"
            link.error = NetError(
                f"worker {link.label!r} rejected the epoch: {reason}"
            )
            self._close_link(link)
        else:
            link.credits = dict(ack.get("credits") or {})
            link.opened = True
            self.detector.register(link.label)
        return self._done()

    def link_failed(self, link: Link, error: Exception) -> list:
        link.error = error
        link.closed = True
        return self._done()

    def link_died(self, link: Link, error: "Exception | None" = None) -> list:
        self._lost(link, error or NetError(
            f"worker {link.label!r} closed before result_end"
        ))
        return self._done()

    def worker_frame(self, link: Link, frame: dict) -> list:
        if link.closed or link.dead or link.end is not None:
            return self._done()
        self.detector.seen(link.label)
        kind = frame.get("type")
        try:
            if kind == "credit":
                name = frame.get("source")
                link.credits[name] = (
                    link.credits.get(name, 0) + int(frame.get("credits", 0))
                )
                self._pump(link)
            elif kind == "bye_ack":
                link.acked.add(frame.get("source"))
            elif kind == "result_block":
                ticks = protocol.result_block_ticks(frame)  # all or none
                merge = time.perf_counter_ns() if "spans" in frame else 0
                for tick, items, spans in ticks:
                    link.per_tick.setdefault(tick, []).extend(items)
                    if spans:
                        hops = link.span_buckets.setdefault(tick, [])
                        for record in spans:
                            record.append(merge)
                            hops.append(record)
            elif kind == "checkpoint_ack":
                self._on_checkpoint_ack(link, frame)
            elif kind == "result_end":
                link.end = frame
            elif kind == "error":
                raise NetError(
                    f"worker {link.label!r}: {frame.get('reason')}"
                )
            else:
                raise ProtocolError(
                    f"unexpected frame {kind!r} from worker {link.label!r}"
                )
        except Exception as error:
            self._lost(link, error)
        return self._done()

    def restart_result(
        self,
        label: str,
        address: "tuple[str, int] | None",
        error: "Exception | None" = None,
    ) -> list:
        self._restarted[label] = (address, error)
        return self._done()

    def _lost(self, link: Link, error: Exception) -> None:
        """``link`` is dead: its backlog's live readings are skipped (they
        earn their credit; recovery replays them) and recovery queues,
        unless an epoch close already counts on the link."""
        if link.closed or link.dead or link.end is not None:
            return
        link.dead = True
        link.error = error
        for entry in link.backlog:
            if type(entry) is tuple and entry[1] is not None:
                frame, feeder = entry
                self._earned(frame.source)
                self._bump("forwards_skipped_dead")
                feeder.stalled = False
        link.backlog.clear()
        if self.finished or self.fatal is not None:
            return
        if self.links.get(link.label) is not link:
            return  # not installed yet, or superseded
        self.detector.mark_dead(link.label)
        if not link.draining:
            self._recover_later(link)

    def _recover_later(self, link: Link) -> None:
        if not link.recovering:
            link.recovering = True
            self._count("router.worker_lost")
            self._queue.append((None, epochs.recover(self, link)))

    def _on_checkpoint_ack(self, link: Link, frame: dict) -> None:
        checkpoint_id = int(frame.get("id", -1))
        positions = link.pending_checkpoints.pop(checkpoint_id, None)
        if positions is None:
            return  # unsolicited or superseded ack
        if not frame.get("ok", True):  # over budget: keep the older one
            self._bump("checkpoints_rejected")
            return
        self.store.record(link.label, WorkerCheckpoint(
            checkpoint_id, int(frame.get("epoch", self.epoch)),
            int(frame.get("ticks", 0)), frame.get("state"), positions,
            link.per_tick, sources=link.sources, spans=link.span_buckets,
        ))
        self._bump("checkpoints_acked")

    def _maybe_checkpoint(self, link: Link) -> None:
        """Request a checkpoint once the link's interval has elapsed; the
        positions snapshot is the exact cut its frame seals."""
        interval = self.checkpoint_interval
        if interval is None or link.dead or link.since_checkpoint < interval:
            return
        link.since_checkpoint = 0
        self._checkpoint_seq += 1
        link.pending_checkpoints[self._checkpoint_seq] = dict(link.positions)
        link.out.add(protocol.checkpoint(self._checkpoint_seq))

    # -- transitions -------------------------------------------------------------

    def _done(self) -> list:
        self._progress()
        actions, self._actions = self._actions, []
        return actions

    def _progress(self) -> None:
        """Run transitions as far as their waits allow; serve feeder
        input whenever nothing is frozen."""
        while True:
            if self._step is None:
                if self._queue:
                    self._ticket, self._step = self._queue.popleft()
                    self._wait = None
                    continue
                if self.frozen:
                    return
                for feeder in list(self.feeders):
                    self._serve(feeder)
                    if self.frozen:
                        break
                if not self._queue:
                    return
                continue
            if self._wait is not None and not self._wait():
                return
            try:
                self._wait = next(self._step)
            except StopIteration:
                self._settle(None)
            except Exception as error:
                self._settle(error)

    def _settle(self, error: "Exception | None") -> None:
        ticket = self._ticket
        self._step = self._ticket = self._wait = None
        if ticket is not None:
            self._actions.append(Settled(ticket, error))
        if error is not None and (ticket is None or not self.links):
            self._fail(error)

    def _fail(self, error: Exception) -> None:
        """Recovery itself failed: surface ``error`` and freeze for good."""
        if self.fatal is not None or self.finished:
            return
        self.fatal = error
        self._actions.append(RunDone(error))
        for ticket, _step in self._queue:
            if ticket is not None:
                self._actions.append(Settled(ticket, error))
        self._queue.clear()

    def _maybe_finish(self) -> None:
        if (
            self._finish_requested and not self._finish_queued
            and len(self.final) == len(self.expected)
        ):
            self._finish_queued = True
            self._queue.append((None, epochs.finish_run(self)))

    def _close_link(self, link: Link) -> None:
        if not link.closed:
            link.closed = True
            link.out.take()
            self._actions.append(CloseLink(link))

    # -- accounting ------------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.recovery[key] += n
        if self.collector.enabled:
            self.collector.count(f"router.recovery.{key}", n)

    def _count(self, key: str) -> None:
        if self.collector.enabled:
            self.collector.count(key)
