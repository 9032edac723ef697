"""The cluster front tier: route feeder streams onto a worker ring.

:class:`ClusterRouter` accepts ordinary feeder connections — the exact
versioned wire protocol a standalone gateway speaks, so every existing
feeder works unchanged — and forwards each reading to the worker
owning its *shard key* on a consistent-hash ring
(:class:`repro.net.ring.HashRing`). The shard key is the scenario's
batch-sharding key (:attr:`repro.net.service.ScenarioBundle.shard_key`),
so keys whose tuples must share stateful pipeline stages always land on
one worker. A reading arrives as a row of a feeder's ``block`` frame (or
as a v1/v2 feeder's ``data`` frame, its one-row spelling), is validated
and retained decoded, and leaves as a row of the owning link's next
block (:meth:`repro.net.protocol.FrameWriter.add_row`): an inbound burst
is re-blocked per link, never re-framed per reading.

**Bursts.** Whatever one socket read delivered is served as one burst:
forwarded readings join their link's ordered pending list
(:class:`~repro.net.protocol.FrameWriter`) and the feeder credits they
earn are added up per source, and both reach their sockets — one block
and one write per link, one ``credit`` frame per source — when the
serving task is about to suspend: no decoded frame left, a closed
rebalance gate, a worker with no credit in hand (``_flush``). Nothing
stays pending, and no credit stays owed, while another task runs.

**Epochs and rebalance.** Worker membership is versioned by *epoch*.
Every membership change (join or leave) runs the same handoff:

1. **Credit freeze** — the forwarding gate closes; feeder credits are
   only re-granted after a forward, so feeders stall within one credit
   window while in-flight forwards complete.
2. **Boundary** — the epoch boundary tick ``B`` is the first tick not
   strictly covered by the cluster watermark ``W = min over non-final
   sources of (newest arrival − slack)``. Every tuple timestamped
   inside a tick below ``B`` has provably reached its old owner (a
   frame still in flight has arrival ≥ newest seen, hence timestamp
   ≥ W under the same slack ≥ delay contract a single gateway needs).
3. **Drain** — each worker gets a ``drain`` frame: reorder-buffer
   flush, punctuation swept to the end, per-tick results shipped back.
   Only ticks in ``[epoch start, B)`` will be taken from this epoch.
4. **Remap + replay** — the ring is rebuilt over the new membership
   and the router replays its retained input history (every reading
   since the run began, per source in arrival order) to the new
   epoch's fresh sessions, followed by byes for already-final sources.
   Ticks from ``B`` on will be taken from the new epoch, whose workers
   have, by construction, each key's *complete* history.

No tuple is lost (the history replay is total) and none is duplicated
(each tick index is taken from exactly one epoch) — the egress merge
(:func:`repro.net.cluster.merge_epochs`) stays byte-identical to a
single-node run.

**Failure & recovery.** With ``checkpoint_interval`` set, the router
periodically asks each worker to snapshot its operator state
(``checkpoint``/``checkpoint_ack``, stored opaquely in a
:class:`~repro.net.recovery.CheckpointStore` together with the exact
per-source replay positions of the cut). When a worker link dies —
reset/EOF noticed by its read loop, a failed forward, or a deadline
sweep (:meth:`ClusterRouter.check_workers`) — the router freezes the
gate, quiesces in-flight forwards (blocked forwards to the dead link
abort and still return their feeder credit), and recovers in order of
preference: *resume* (reconnect to the same address, or a
:class:`~repro.net.recovery.WorkerSupervisor` respawn, shipping the
checkpoint blob plus only the post-checkpoint tail of readings), else
*failover* (close the epoch at a boundary clamped to what the dead
worker's checkpoint actually covered and redistribute its span across
the survivors). Checkpoint timing never changes output — snapshots are
pure, restores resume the identical computation — only how much tail
gets replayed; the differential fault suite pins this.

**One link lifecycle.** Epoch open, rebalance, resume and failover all
bring a worker link to life the same way: *open* (``_connect_link``) →
*seed from checkpoint* → *replay past the cut* (``_replay``) → *live*.
Every reading, replayed or live, goes out through ``_place`` (behind
``_forward``'s credit wait, or a credit already in hand), which is what
keeps the invariant the cut depends on: ``link.positions`` counts every
reading written on the link, replayed or live. Positions,
``checkpoint_interval``, ``data_frames`` and ``retained_frames`` all
count readings (the names date from one frame per reading); how rows
fall into blocks changes none of them.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Iterable

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.gateway import accept_hello
from repro.net.protocol import (
    FrameReader,
    FrameWriter,
    read_frame,
    write_frame,
)
from repro.net.recovery import (
    CheckpointStore,
    FailureDetector,
    WorkerCheckpoint,
    WorkerSupervisor,
)
from repro.net.ring import HashRing
from repro.net.service import ScenarioBundle
from repro.streams.fjord import sweep_end
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple

#: Shard keys that are a property of the *source* (device), not of the
#: individual reading — mirrors ESPProcessor's key-extractor rule. For
#: these the router can partition whole sources across workers; for
#: record-level keys every worker must accept every source.
SOURCE_LEVEL_KEYS = ("spatial_granule", "proximity_group")


class _LinkDead(Exception):
    """A forward aborted because its worker link is dead.

    Internal control flow only: the frame in question is already in the
    retained history, so recovery's replay delivers it — the forwarding
    path just skips it (and still returns the feeder's credit, which is
    what keeps a mid-flight worker loss from deadlocking the feeder).
    """


class _RetainedFrame:
    """One reading kept, decoded, for epoch replay."""

    __slots__ = (
        "arrival", "seq", "source", "key", "low", "item", "ingest_id",
        "recv",
    )

    def __init__(
        self,
        arrival: float,
        seq: int,
        source: str,
        key: str,
        low: "float | None",
        item: StreamTuple,
        ingest_id: int = 0,
        recv: int = 0,
    ):
        self.arrival = arrival
        self.seq = seq
        self.source = source
        self.key = key
        self.low = low
        self.item = item
        #: Cluster trace identity assigned at first receipt (0 when the
        #: router runs untraced). A replay re-stamps fresh forward
        #: timestamps but keeps the original id and receive instant, so
        #: a re-run tuple's ``router.queue`` span absorbs the failover
        #: delay — attributable via its ``replayed`` flag, not a
        #: mystery spike.
        self.ingest_id = ingest_id
        self.recv = recv


def _copy_buckets(buckets: "dict[int, list]") -> "dict[int, list]":
    """Tick → bucket mapping with every bucket list copied: a link's
    live buckets and a checkpoint's snapshot of them never alias."""
    return {tick: list(bucket) for tick, bucket in buckets.items()}


class _WorkerLink:
    """The router's live connection to one worker for one epoch."""

    def __init__(
        self,
        label: str,
        host: str,
        port: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.label = label
        self.host = host
        self.port = port
        self.reader = reader
        #: Every router→worker frame goes through this one ordered
        #: list, so wire order is the order of ``add`` calls.
        self.out = FrameWriter(writer)
        self.sources: tuple[str, ...] = ()
        self.credits: dict[str, int] = {}
        self.granted = asyncio.Condition()
        self.acked: set[str] = set()
        self.per_tick: dict[int, list[StreamTuple]] = {}
        #: Tick → positional hop-span records shipped back on
        #: ``result_block`` frames (layout on
        #: :func:`repro.net.protocol.encode_result_block`),
        #: each with its router-arrival instant (``merge``) appended as
        #: a twelfth element. Mirrored into checkpoints alongside
        #: :attr:`per_tick` and committed to the collector only at
        #: epoch close, for the ticks the epoch actually owns —
        #: exactly-once span accounting under the same ownership rule
        #: as the egress merge.
        self.span_buckets: dict[int, list[list]] = {}
        self.end: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self.task: "asyncio.Task | None" = None
        #: Set on any sign of link death; forwards abort (\ :class:`_LinkDead`)
        #: instead of blocking on credits a dead worker will never grant.
        self.dead = False
        #: A recovery task has been scheduled for this link already.
        self.recovering = False
        #: Source → readings forwarded on this link. Snapshotted when a
        #: ``checkpoint`` frame is sent (TCP FIFO makes that the exact cut)
        #: and seeded from the store on resume, it names the first
        #: reading of the post-checkpoint tail per source.
        self.positions: dict[str, int] = {}
        #: Readings since the last checkpoint request (scheduling).
        self.since_checkpoint = 0
        #: Checkpoint id → positions snapshot, awaiting the worker's ack.
        self.pending_checkpoints: dict[int, dict[str, int]] = {}
        # Router-wired callbacks (liveness, checkpoint acks, death).
        self.on_frame: "Callable[[str], None] | None" = None
        self.on_checkpoint_ack: (
            "Callable[[_WorkerLink, dict], None] | None"
        ) = None
        self.on_failure: "Callable[[_WorkerLink], None] | None" = None

    def take_credit(self, source: str) -> bool:
        """Take one worker credit for ``source`` if the live link has
        one in hand; ``False`` (nothing taken) otherwise."""
        if self.dead:
            return False
        credits = self.credits.get(source, 0)
        if credits <= 0:
            return False
        self.credits[source] = credits - 1
        return True

    async def acquire(
        self, source: str, before_wait: Callable[[], None]
    ) -> None:
        """Take one worker credit for ``source`` (block until granted).

        A credit in hand is taken on the spot (one event loop: the
        condition is for waiting). Otherwise the link's pending frames
        — what the awaited credits answer — are written and
        ``before_wait`` is called, then the task blocks.

        Raises:
            _LinkDead: When the link is (or while blocked becomes) dead.
        """
        if self.dead:
            raise _LinkDead(self.label)
        if self.take_credit(source):
            return
        self.out.flush()
        before_wait()
        async with self.granted:
            await self.granted.wait_for(
                lambda: self.dead or self.credits.get(source, 0) > 0
            )
            if self.dead:
                raise _LinkDead(self.label)
            self.credits[source] -= 1

    async def read_loop(self) -> None:
        """Consume worker→router frames: credits, acks, results."""
        frames = FrameReader(self.reader)
        try:
            while True:
                frame = await frames.read_frame()
                if frame is None:
                    break
                if self.on_frame is not None:
                    self.on_frame(self.label)
                kind = frame.get("type")
                if kind == "credit":
                    async with self.granted:
                        name = frame.get("source")
                        self.credits[name] = (
                            self.credits.get(name, 0)
                            + int(frame.get("credits", 0))
                        )
                        self.granted.notify_all()
                elif kind == "bye_ack":
                    self.acked.add(frame.get("source"))
                elif kind == "result_block":
                    # Decoded whole before any of it lands: a refused
                    # frame leaves the buckets as they were.
                    ticks = protocol.result_block_ticks(frame)
                    merge = time.perf_counter_ns() if "spans" in frame else 0
                    for tick, items, spans in ticks:
                        self.per_tick.setdefault(tick, []).extend(items)
                        if spans:
                            hops = self.span_buckets.setdefault(tick, [])
                            for record in spans:
                                record.append(merge)
                                hops.append(record)
                elif kind == "checkpoint_ack":
                    if self.on_checkpoint_ack is not None:
                        self.on_checkpoint_ack(self, frame)
                elif kind == "result_end":
                    if not self.end.done():
                        self.end.set_result(frame)
                    break
                elif kind == "error":
                    raise NetError(
                        f"worker {self.label!r}: {frame.get('reason')}"
                    )
                else:
                    raise ProtocolError(
                        f"unexpected frame {kind!r} from worker "
                        f"{self.label!r}"
                    )
        except Exception as error:  # surface to whoever awaits results
            if not self.end.done():
                self.end.set_exception(error)
            await self._died()
        else:
            if not self.end.done():
                self.end.set_exception(
                    NetError(
                        f"worker {self.label!r} closed before result_end"
                    )
                )
                await self._died()

    async def _died(self) -> None:
        """Mark dead, release blocked forwards, tell the router."""
        self.dead = True
        async with self.granted:
            self.granted.notify_all()
        if self.on_failure is not None:
            self.on_failure(self)

    async def close(self) -> None:
        self.dead = True
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):
                pass
        async with self.granted:
            self.granted.notify_all()
        self.out.close()
        if not self.end.done():
            # Nobody will resolve it now; keep await-ers from hanging.
            self.end.set_exception(NetError("worker link closed"))
        self.end.exception()  # retrieved: never "never awaited" noise


class ClusterRouter:
    """Front-tier server distributing feeder streams across workers.

    Args:
        bundle: The scenario being served; provides the expected
            sources, the shard key, and the punctuation schedule the
            epoch bookkeeping is expressed in.
        slack: Reorder slack, simulation seconds — the same contract as
            a single gateway: at or above the feeders' maximum delay.
            Used for worker gateways' buffers *and* the rebalance
            boundary watermark.
        queue_bound: Credit window per source, both feeder-facing and
            per worker connection.
        telemetry: Cluster-wide rollup collector; absorbs every worker
            epoch snapshot under its worker label. Also switches on
            cluster tracing: the router stamps a trace context beside
            every forwarded row, workers ship completed hop records
            back on ``result_block`` frames, and epoch close commits the
            per-worker span set (``router.queue`` … ``cluster.e2e``)
            plus one ``cluster_span`` log entry per delivered tuple.
        clock: Wall-clock source (injectable for tests).
        checkpoint_interval: Ask a worker for a state checkpoint every
            this many readings forwarded on its link; ``None``
            (default) disables checkpointing — recovery then always
            falls back to fresh sessions with full-history replay.
        supervisor: Optional :class:`~repro.net.recovery.WorkerSupervisor`
            used to respawn a dead worker before failing its span over
            to the survivors.
        suspect_after: Silence (worker→router frames) before a worker
            is reported ``suspect`` on the ops plane.
        dead_after: Silence before :meth:`check_workers` declares a
            worker dead and triggers recovery; ``None`` disables the
            deadline (link EOF/reset detection stays active).
    """

    def __init__(
        self,
        bundle: ScenarioBundle,
        *,
        slack: float = 0.0,
        queue_bound: int = 64,
        telemetry: "TelemetryCollector | None" = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint_interval: "int | None" = None,
        supervisor: "WorkerSupervisor | None" = None,
        suspect_after: float = 2.0,
        dead_after: "float | None" = None,
    ):
        self._bundle = bundle
        self.slack = float(slack)
        self.queue_bound = int(queue_bound)
        self._collector = resolve_telemetry(telemetry)
        self._clock = clock
        self._expected = tuple(sorted(bundle.streams))
        if not self._expected:
            raise NetError("router needs at least one expected source")
        self._key_fn = bundle.processor.shard_key_fn(bundle.shard_key)
        self._source_level = bundle.shard_key in SOURCE_LEVEL_KEYS
        self._ticks = bundle.processor.punctuation_ticks(
            bundle.until, bundle.tick
        )
        self._server: "asyncio.base_events.Server | None" = None
        self._links: dict[str, _WorkerLink] = {}
        self._ring: "HashRing | None" = None
        self._epoch = -1
        self._epoch_start = 0
        self._epochs: list[dict[str, Any]] = []
        self._history: dict[str, list[_RetainedFrame]] = {
            name: [] for name in self._expected
        }
        self._max_arrival: dict[str, float] = {}
        self._final: set[str] = set()
        #: Source → its feeder connection's writer.
        self._owners: dict[str, FrameWriter] = {}
        #: Source → feeder credits earned by forwarded (or skipped)
        #: frames and not granted yet; emptied by every :meth:`_flush`.
        self._owed: dict[str, int] = {}
        self._gate = asyncio.Event()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._rebalance = asyncio.Lock()
        self._all_final = asyncio.Event()
        self._finished = False
        self._started = False
        self._ever_connected = False
        self.data_frames = 0
        self._offered: dict[str, int] = {}
        self._frame_waiters: list[asyncio.Event] = []
        # -- cluster tracing --------------------------------------------------
        #: With an enabled collector the router stamps a trace context
        #: (five positional integers) beside every forwarded row.
        self._tracing = self._collector.enabled
        self._trace_seq = 0
        # -- fault tolerance --------------------------------------------------
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise NetError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.checkpoint_interval = checkpoint_interval
        self._supervisor = supervisor
        self._store = CheckpointStore()
        self._detector = FailureDetector(
            suspect_after=suspect_after, dead_after=dead_after, clock=clock
        )
        self._checkpoint_seq = 0
        self._fatal: "Exception | None" = None
        self._recovery_tasks: set[asyncio.Task] = set()
        self._recovery_waiters: list[asyncio.Event] = []
        #: Recovery accounting (also mirrored onto ``router.recovery.*``
        #: telemetry counters and surfaced in :meth:`stats`).
        self.recovery = {
            "checkpoints_acked": 0,
            "checkpoints_rejected": 0,
            "resumes": 0,
            "restarts": 0,
            "failovers": 0,
            "replayed_frames": 0,
            "forwards_skipped_dead": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the feeder-facing listener; returns ``(host, port)``.

        Feeders may connect immediately; their data stalls on the
        forwarding gate until :meth:`connect_workers` establishes
        epoch 0.
        """
        if self._server is not None:
            raise NetError("router already started")
        self._server = await asyncio.start_server(
            self._handle_feeder, host, port
        )
        self._started = True
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def connect_workers(
        self, workers: "list[tuple[str, str, int]]"
    ) -> None:
        """Establish epoch 0 over ``(label, host, port)`` workers."""
        if self._epoch >= 0:
            raise NetError(
                "workers already connected; use add_worker/remove_worker"
            )
        async with self._rebalance:
            await self._open_epoch(
                {label: (host, port) for label, host, port in workers}, 0
            )
            self._gate.set()

    async def add_worker(self, label: str, host: str, port: int) -> None:
        """Join ``label`` to the ring via a full epoch handoff."""
        if label in self._links:
            raise NetError(f"worker {label!r} already in the ring")
        await self._rebalance_to(add={label: (host, port)})

    async def remove_worker(self, label: str) -> None:
        """Retire ``label`` from the ring via a full epoch handoff."""
        if label not in self._links:
            raise NetError(f"worker {label!r} is not in the ring")
        if len(self._links) == 1:
            raise NetError("cannot remove the last worker")
        await self._rebalance_to(remove={label})

    async def run_until_complete(self) -> None:
        """Resolve once every source is final and all results are in.

        A worker lost during the final drain does not fail the run: its
        epoch is closed at the boundary its last checkpoint covers and
        the remaining tick span is re-run through a recovered epoch
        (respawn if a supervisor is configured, else the survivors).

        Raises:
            NetError: When recovery is impossible — every worker lost
                and none respawnable (also surfaced here if a
                background recovery hit that state mid-run).
        """
        await self._all_final.wait()
        while True:
            async with self._rebalance:
                if self._fatal is not None:
                    raise self._fatal
                if self._finished:
                    return
                await self._freeze()
                await self._failover(len(self._ticks))

    async def close(self) -> None:
        """Stop listening and tear down worker links."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._recovery_tasks):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for link in list(self._links.values()):
            await link.close()
        self._links = {}

    def result(self) -> list[StreamTuple]:
        """The merged, deterministic cluster output (after completion)."""
        from repro.net.cluster import merge_epochs

        if not self._finished:
            raise NetError("cluster run has not completed")
        return merge_epochs(
            self._epochs, len(self._ticks), self._bundle.shard_key
        )

    def epochs(self) -> list[dict[str, Any]]:
        """Per-epoch records: span, workers, stats (for summaries)."""
        return [
            {
                "epoch": record["epoch"],
                "start_tick": record["start"],
                "end_tick": record["end"],
                "workers": sorted(record["results"]),
            }
            for record in self._epochs
        ]

    # -- rebalance ----------------------------------------------------------

    async def _rebalance_to(
        self,
        *,
        add: "dict[str, tuple[str, int]] | None" = None,
        remove: "set[str] | None" = None,
    ) -> None:
        """Apply a membership delta through a full epoch handoff.

        The delta is resolved against ``self._links`` only *after* the
        rebalance lock is held: a concurrent recovery (a worker dying
        while this call waits its turn) may already have failed the
        ring over, and a membership snapshot taken at call time would
        resurrect the dead worker's stale address.
        """
        if self._epoch < 0:
            raise NetError("connect_workers must establish epoch 0 first")
        async with self._rebalance:
            if self._finished:
                raise NetError("cluster run already completed")
            membership = {
                link.label: (link.host, link.port)
                for link in self._links.values()
            }
            membership.update(add or {})
            for label in remove or ():
                membership.pop(label, None)
            await self._freeze()
            boundary, lost = await self._close_epoch(self._boundary())
            # A worker that died during the handoff cannot join the new
            # epoch at its old address; drop it from the request.
            membership = {
                label: address
                for label, address in membership.items()
                if label not in set(lost)
            }
            if not membership:
                raise NetError("every worker was lost during the handoff")
            await self._open_epoch(membership, boundary)
            self._gate.set()

    def _boundary(self) -> int:
        """First tick index the *next* epoch's output will be taken from."""
        watermark = float("inf")
        for name in self._expected:
            if name in self._final:
                continue
            seen = self._max_arrival.get(name)
            if seen is None:
                watermark = float("-inf")
                break
            watermark = min(watermark, seen - self.slack)
        # Ticks below the epoch start are already owned by closed
        # epochs, so the scan for the first unswept tick starts there.
        return sweep_end(self._ticks, watermark, self._epoch_start)

    async def _freeze(self) -> None:
        """Credit freeze: close the forwarding gate, then wait until
        every in-flight forward has completed or aborted."""
        self._gate.clear()
        if self._inflight:
            self._idle.clear()
            await self._idle.wait()

    async def _failover(self, target: int) -> None:
        """Close the epoch at (no later than) tick index ``target`` and
        re-run the rest on the survivors plus supervisor respawns.

        Caller holds the rebalance lock with the gate frozen. A close
        that covers the whole schedule once every source is final ends
        the run instead — there is nothing left to re-run.
        """
        membership = {
            label: (link.host, link.port)
            for label, link in self._links.items()
        }
        boundary, lost = await self._close_epoch(target)
        if boundary >= len(self._ticks) and len(self._final) == len(
            self._expected
        ):
            self._finished = True
            return
        survivors = await self._recovered_membership(membership, lost)
        await self._open_epoch(survivors, boundary)
        self._bump("failovers")

    async def _close_epoch(self, boundary: int) -> "tuple[int, list[str]]":
        """Drain and settle the current epoch at ``boundary``.

        A link that is dead (or dies during the drain) contributes its
        last *acked checkpoint* instead of a live result_end: the
        store's per-tick snapshot is complete through the ticks it
        reported then, so the boundary is clamped to that count (or to
        the epoch start when the worker never checkpointed — its whole
        span re-runs). Live per_tick on a dead link is never trusted:
        death mid-result-shipping can leave a partially filled bucket.

        Returns:
            ``(boundary, lost)`` — the possibly clamped boundary and
            the labels that could not produce a live drain.
        """
        results: dict[str, dict[str, Any]] = {}
        span_sources: dict[str, dict[int, list[dict]]] = {}
        lost: list[str] = []
        for label in sorted(self._links):
            link = self._links[label]
            if not link.dead:
                link.out.add(protocol.drain())
                link.out.flush()
        for label in sorted(self._links):
            link = self._links[label]
            end = None
            if not link.dead:
                try:
                    end = await link.end
                except Exception:
                    link.dead = True
            if end is not None:
                results[label] = {
                    "per_tick": link.per_tick,
                    "ticks": int(end.get("ticks", 0)),
                    "stats": end.get("stats") or {},
                }
                span_sources[label] = link.span_buckets
                snapshot = end.get("telemetry")
                if snapshot and self._collector.enabled:
                    self._collector.absorb(snapshot, node=label)
                continue
            lost.append(label)
            entry = self._store.latest(label)
            if entry is not None and entry.epoch == self._epoch:
                results[label] = {
                    "per_tick": _copy_buckets(entry.per_tick),
                    "ticks": entry.ticks,
                    "stats": {},
                }
                span_sources[label] = entry.spans
                boundary = min(boundary, entry.ticks)
            else:
                results[label] = {"per_tick": {}, "ticks": 0, "stats": {}}
                boundary = self._epoch_start
        boundary = min(max(boundary, self._epoch_start), len(self._ticks))
        # Commit span records under the same ownership rule as the
        # egress merge: only ticks inside [epoch start, boundary)
        # belong to this epoch, so every delivered tuple's cluster span
        # set is committed exactly once — re-runs of already-owned
        # ticks (full-history replay after a failover) are dropped
        # here, and a dead link's live buckets are never trusted past
        # its checkpoint (its ``span_sources`` entry *is* the
        # checkpoint's snapshot, mirroring ``per_tick``).
        if self._tracing:
            for label in sorted(span_sources):
                self._commit_spans(
                    label, span_sources[label], self._epoch_start, boundary
                )
        self._epochs.append(
            {
                "epoch": self._epoch,
                "start": self._epoch_start,
                "end": boundary,
                "results": results,
            }
        )
        for link in list(self._links.values()):
            self._detector.unregister(link.label)
            await link.close()
        self._links = {}
        self._epoch_start = boundary
        return boundary, lost

    #: The cluster hop phases in path order: ``(span name, span-log
    #: field, minuend index, subtrahend index)`` into the positional
    #: hop record (layout on
    #: :func:`repro.net.protocol.encode_result_block`; index 11 is the
    #: router-stamped ``merge`` arrival). Consecutive phases
    #: share their boundary stamps, so the integer-ns durations sum
    #: *exactly* to ``cluster.e2e`` — same-clock-domain phases are true
    #: durations; the two marked cross-domain (router clock → worker
    #: clock and back) additionally absorb any clock-origin skew.
    CLUSTER_PHASES = (
        ("router.queue", "router_queue_ns", 4, 3),
        ("router.forward", "router_forward_ns", 5, 4),
        ("wire.transit", "wire_transit_ns", 6, 5),    # cross clock domain
        ("worker.queue", "worker_queue_ns", 7, 6),
        ("worker.reorder", "worker_reorder_ns", 8, 7),
        ("worker.session", "worker_session_ns", 9, 8),
        ("merge.egress", "merge_egress_ns", 11, 9),   # cross clock domain
    )

    def _commit_spans(
        self,
        label: str,
        buckets: "dict[int, list[list]]",
        start: int,
        end: int,
    ) -> None:
        """Close the cluster span set for ``label``'s owned ticks: one
        span-log entry per tuple plus its eight per-hop histograms.

        Span names are recorded ``<label>:<name>`` — the same prefixing
        :meth:`~repro.streams.telemetry.InMemoryCollector.absorb` gives
        worker snapshots under ``node=`` — which the ops plane renders
        as a ``worker`` label on ``repro_span_latency_ns``. The loop is
        deliberately flat — names resolved once per worker, stamps by
        position — because it runs once per delivered tuple and counts
        against the traced cluster's overhead budget.
        """
        collector = self._collector
        record_span = collector.record_span
        phases = [
            (f"{label}:{name}", field, hi, lo)
            for name, field, hi, lo in self.CLUSTER_PHASES
        ]
        e2e_name = f"{label}:cluster.e2e"
        for tick in sorted(buckets):
            if not start <= tick < end:
                continue
            for hop in buckets[tick]:
                entry: dict[str, Any] = {
                    "kind": "cluster_span",
                    "ingest_id": hop[0],
                    "source": hop[1],
                    "sim_ts": hop[2],
                    "tick": tick,
                    "worker": label,
                    "replayed": bool(hop[10]),
                }
                for name, field, hi, lo in phases:
                    duration = hop[hi] - hop[lo]
                    record_span(name, duration)
                    entry[field] = duration
                e2e = hop[11] - hop[3]
                record_span(e2e_name, e2e)
                entry["e2e_ns"] = e2e
                collector.span(**entry)

    async def _open_epoch(
        self, membership: "dict[str, tuple[str, int]]", start_tick: int
    ) -> None:
        if not membership:
            raise NetError("cluster needs at least one worker")
        self._epoch += 1
        ring = HashRing(membership)
        self._ring = ring
        if self._source_level:
            assigned: dict[str, list[str]] = {
                label: [] for label in membership
            }
            for name in self._expected:
                key = str(self._key_fn(name, None))
                assigned[ring.owner(key)].append(name)
        else:
            assigned = {
                label: list(self._expected) for label in membership
            }
        links: dict[str, _WorkerLink] = {}
        try:
            for label in sorted(membership):
                sources = tuple(assigned[label])
                # A survivor whose assignment is unchanged from the
                # previous epoch sees an identical input stream, so its
                # last checkpoint resumes it here too: bounded state
                # plus the post-checkpoint tail instead of full replay.
                # Only meaningful under source-level sharding (under
                # record-level sharding a membership change moves keys
                # *within* every worker's stream).
                entry = None
                if self._source_level and self.checkpoint_interval:
                    entry = self._store.latest(label)
                    if entry is not None and not (
                        entry.epoch == self._epoch - 1
                        and tuple(entry.sources) == sources
                    ):
                        entry = None
                links[label] = await self._connect_link(
                    label,
                    membership[label],
                    sources,
                    start_tick,
                    entry,
                    resume=entry is not None,
                )
            self._links = links
            await self._replay(links)
        except Exception:
            for link in links.values():
                await link.close()
            self._links = {}
            raise

    async def _connect_link(
        self,
        label: str,
        address: "tuple[str, int]",
        sources: "tuple[str, ...]",
        start_tick: int,
        entry: "WorkerCheckpoint | None",
        *,
        resume: bool,
    ) -> _WorkerLink:
        """Open ``label``'s link for the current epoch — the only way a
        worker connection comes to exist.

        Every link goes through the same lifecycle: connect, handshake
        (``worker_hello`` + ``route``, plus a ``resume`` frame when
        ``resume`` is set — carrying ``entry``'s state blob, or
        ``null`` for "start fresh"), seed ``positions`` / ``per_tick``
        / ``span_buckets`` from ``entry``, wire the detector callbacks,
        start the read loop. The caller then replays the history past
        the seeded positions (:meth:`_replay`) before the link goes
        live.

        Raises:
            OSError, NetError: When the worker cannot be reached or
                rejects the epoch; the half-open link is closed first.
        """
        link = _WorkerLink(
            label, *address, *await asyncio.open_connection(*address)
        )
        link.sources = sources
        try:
            link.out.add(protocol.worker_hello(label))
            link.out.add(
                protocol.route(
                    self._epoch, start_tick, sources, resume=resume
                )
            )
            if entry is not None:
                link.out.add(
                    protocol.resume(
                        self._epoch,
                        entry.ticks,
                        entry.state,
                        entry.checkpoint_id,
                    )
                )
            elif resume:
                link.out.add(protocol.resume(self._epoch, 0, None))
            await link.out.drain()
            ack = await read_frame(link.reader)
            if ack is None or ack.get("type") != "hello_ack":
                reason = (
                    (ack or {}).get("reason", "connection closed")
                    if ack is None or ack.get("type") == "error"
                    else f"unexpected {ack.get('type')!r}"
                )
                raise NetError(
                    f"worker {label!r} rejected the epoch: {reason}"
                )
        except Exception:
            await link.close()
            raise
        link.credits = dict(ack.get("credits") or {})
        if entry is not None:
            link.positions = dict(entry.positions)
            link.per_tick = _copy_buckets(entry.per_tick)
            link.span_buckets = _copy_buckets(entry.spans)
        link.on_frame = self._detector.seen
        link.on_checkpoint_ack = self._on_checkpoint_ack
        link.on_failure = self._on_link_failure
        self._detector.register(label)
        link.task = asyncio.ensure_future(link.read_loop())
        return link

    async def _replay(self, links: "dict[str, _WorkerLink]") -> None:
        """Bring freshly opened ``links`` up to date with the retained
        history: every link of a new epoch, or the one link a recovery
        resumed into the current epoch.

        Links seeded from a checkpoint carry per-source positions from
        its cut: that many owned readings are already inside the
        snapshot and are skipped, not redelivered. A link that dies mid-replay
        is marked dead and skipped from there on — its owner (the
        scheduled recovery, or :meth:`_recover` checking the link it
        just opened) takes it from there.
        """
        skip = {label: dict(link.positions) for label, link in links.items()}
        retained = [
            frame
            for frames in self._history.values()
            for frame in frames
        ]
        retained.sort(key=lambda f: (f.arrival, f.source, f.seq))
        assert self._ring is not None
        for frame in retained:
            link = links.get(self._ring.owner(frame.key))
            if link is None:
                continue
            pending = skip[link.label]
            if pending.get(frame.source, 0) > 0:
                pending[frame.source] -= 1
                continue
            try:
                await self._forward(link, frame, replayed=True)
            except _LinkDead:
                continue
            except (ConnectionError, RuntimeError):
                self._on_link_failure(link)
                continue
            self._bump("replayed_frames")
            self._maybe_checkpoint(link)
        for name in sorted(self._final):
            self._forward_bye(name, links)
        for link in links.values():
            link.out.flush()

    async def _forward(
        self, link: _WorkerLink, frame: _RetainedFrame, replayed: bool
    ) -> None:
        """Take a worker credit for one retained reading (waiting for
        one if need be), then :meth:`_place` it on ``link`` — the only
        place a reading reaches a worker, live or replayed, other than
        :meth:`_route_rows` placing a reading whose credit was in hand.

        Raises:
            _LinkDead: The link is (or while blocked on a credit
                became) dead; nothing was written or counted.
            ConnectionError, RuntimeError: Draining an over-long burst
                found the connection gone.
        """
        await link.acquire(frame.source, self._flush)
        self._place(link, frame, replayed)
        if link.out.full:
            self._flush()
            await link.out.drain()

    def _place(
        self, link: _WorkerLink, frame: _RetainedFrame, replayed: bool
    ) -> None:
        """Write one retained reading, its worker credit taken, on
        ``link`` as the next row of its pending block.

        Invariant: ``link.positions`` counts every reading written on
        the link, replayed or live. The count moves in the same
        no-await window in which the row takes its place in the link's
        pending list — its place in wire order — so a concurrent
        checkpoint's positions snapshot is always consistent with wire
        order (the ``checkpoint`` frame seals the rows ahead of it).

        Traced, the row is stamped with fresh acquire/forward instants
        under its *original* ingest id and receive stamp (``fwd`` as
        the row joins the pending list: serialization and the wait for
        the burst's flush land in the cross-clock-domain
        ``wire.transit`` span, not ``router.forward``); a replay is
        flagged ``replayed`` — re-run tuples then close a second span
        record whose commit the epoch-ownership rule dedupes, and
        failover latency lands attributably in their ``router.queue``
        phase.
        """
        link.positions[frame.source] = (
            link.positions.get(frame.source, 0) + 1
        )
        link.since_checkpoint += 1
        trace = None
        if self._tracing:
            trace = [
                frame.ingest_id,
                frame.recv,
                time.perf_counter_ns(),
                time.perf_counter_ns(),
                1 if replayed else 0,
            ]
        link.out.add_row(
            frame.source, frame.seq, frame.arrival, frame.low, frame.item,
            trace,
        )

    def _flush(self) -> None:
        """The flush rule: a task calls this before it awaits anything
        that can suspend it.

        Every link's pending frames are written (one write each), then
        every owed feeder credit is granted, one ``credit`` frame per
        source. In that order, so a credit never reaches the wire
        before the frame that earned it, and both before the
        suspension, so a stalled worker or a frozen gate leaves the
        router owing only the frame it is blocked on.
        """
        for link in self._links.values():
            link.out.flush()
        self._grant_credits()
        for out in set(self._owners.values()):
            out.flush()

    def _grant_credits(self) -> None:
        """Queue the owed feeder credits on their connections."""
        for source, credits in self._owed.items():
            out = self._owners.get(source)
            if out is not None:  # else: gone; a reconnect re-grants
                out.add(protocol.credit_frame(source, credits))
        self._owed.clear()

    # -- fault tolerance -----------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.recovery[key] += n
        for event in self._recovery_waiters:
            event.set()
        if self._collector.enabled:
            self._collector.count(f"router.recovery.{key}", n)

    def _on_checkpoint_ack(self, link: _WorkerLink, frame: dict) -> None:
        checkpoint_id = int(frame.get("id", -1))
        positions = link.pending_checkpoints.pop(checkpoint_id, None)
        if positions is None:
            return  # unsolicited or superseded ack
        if not frame.get("ok", True):
            # Worker refused (state blob over budget); keep whatever
            # checkpoint we already hold — recovery replays more tail.
            self._bump("checkpoints_rejected")
            return
        self._store.record(
            link.label,
            WorkerCheckpoint(
                checkpoint_id,
                int(frame.get("epoch", self._epoch)),
                int(frame.get("ticks", 0)),
                frame.get("state"),
                positions,
                link.per_tick,
                sources=link.sources,
                spans=link.span_buckets,
            ),
        )
        self._bump("checkpoints_acked")

    def _maybe_checkpoint(self, link: _WorkerLink) -> None:
        """Request a checkpoint when the link's interval has elapsed."""
        if (
            self.checkpoint_interval is None
            or link.dead
            or link.since_checkpoint < self.checkpoint_interval
        ):
            return
        link.since_checkpoint = 0
        self._checkpoint_seq += 1
        checkpoint_id = self._checkpoint_seq
        # Snapshot as the frame takes its place in the link's wire
        # order (``add`` seals the rows forwarded so far into a block
        # ahead of it), in the same no-await window as the forwards'
        # increments: TCP FIFO then makes this the exact per-source cut
        # the worker's snapshot will reflect.
        link.pending_checkpoints[checkpoint_id] = dict(link.positions)
        link.out.add(protocol.checkpoint(checkpoint_id))

    def _on_link_failure(self, link: _WorkerLink) -> None:
        """Link-death signal (read loop, failed forward): start recovery."""
        link.dead = True
        if self._finished or self._fatal is not None:
            return
        if self._links.get(link.label) is not link:
            # An old epoch's link dying during teardown, or a resume
            # attempt dying before _recover installed it.
            return
        self._detector.mark_dead(link.label)
        self._schedule_recovery(link)

    def _schedule_recovery(self, link: _WorkerLink) -> None:
        if link.recovering:
            return
        link.recovering = True
        self._count("router.worker_lost")
        task = asyncio.ensure_future(self._recover(link))
        self._recovery_tasks.add(task)
        task.add_done_callback(self._recovery_tasks.discard)

    async def _recover(self, link: _WorkerLink) -> None:
        """Supervised recovery of one dead worker link.

        Preference order: resume at the same address (the worker
        process usually outlives a connection reset), resume into a
        supervisor respawn, failover onto the survivors. Runs under the
        rebalance lock with the gate frozen, so feeders stall within
        one credit window and epochs stay well-ordered.
        """
        async with link.granted:
            link.granted.notify_all()  # free forwards blocked on credits
        try:
            async with self._rebalance:
                if self._links.get(link.label) is not link:
                    return  # superseded by a rebalance/failover already
                if self._finished or self._fatal is not None:
                    return
                await self._freeze()
                await link.close()
                replacement = await self._resume(
                    link, (link.host, link.port)
                )
                if replacement is None and self._supervisor is not None:
                    self._detector.mark_restarting(link.label)
                    self._bump("restarts")
                    address = await self._supervisor.restart(link.label)
                    if address is not None:
                        replacement = await self._resume(link, address)
                if replacement is not None:
                    self._links[link.label] = replacement
                    self._bump("resumes")
                else:
                    # Close the epoch at a boundary the dead worker's
                    # checkpoint actually covers; the rest re-runs.
                    await self._failover(self._boundary())
                self._gate.set()
        except Exception as error:
            # Recovery itself failed (e.g. every worker lost, none
            # respawnable). Surface on run_until_complete; the gate
            # stays closed so no frames are forwarded into the wreck.
            self._fatal = error
            self._all_final.set()

    async def _resume(
        self, dead: _WorkerLink, address: "tuple[str, int]"
    ) -> "_WorkerLink | None":
        """Reopen ``dead``'s link into the current epoch at ``address``.

        Resumes from the label's last acked checkpoint of this epoch
        (from scratch when there is none) and replays the history past
        its cut. Returns the caught-up link for the caller to install,
        or ``None`` when the worker is unreachable, rejects the resume,
        or dies again mid-replay.
        """
        entry = self._store.latest(dead.label)
        if entry is not None and entry.epoch != self._epoch:
            entry = None  # stale snapshot from a closed epoch
        try:
            link = await self._connect_link(
                dead.label,
                address,
                dead.sources,
                self._epoch_start,
                entry,
                resume=True,
            )
        except (OSError, NetError):
            return None
        await self._replay({link.label: link})
        if link.dead:
            await link.close()
            return None
        return link

    async def _recovered_membership(
        self,
        membership: "dict[str, tuple[str, int]]",
        lost: "list[str] | set[str]",
    ) -> "dict[str, tuple[str, int]]":
        """Survivors plus supervisor respawns for the lost labels."""
        lost = set(lost)
        survivors = {
            label: address
            for label, address in membership.items()
            if label not in lost
        }
        if self._supervisor is not None:
            for label in sorted(lost):
                self._detector.mark_restarting(label)
                self._bump("restarts")
                address = await self._supervisor.restart(label)
                if address is not None:
                    survivors[label] = address
        if not survivors:
            raise NetError(
                "every worker is lost and none could be respawned"
            )
        return survivors

    def check_workers(self, now: "float | None" = None) -> list[str]:
        """Deadline sweep: declare silent workers dead, start recovery.

        Drive this from an ops/heartbeat cadence (it never runs on a
        hidden timer); returns the labels newly declared dead. Requires
        ``dead_after`` to be set — otherwise a no-op, since an idle
        stream is indistinguishable from a hung worker.
        """
        died = self._detector.check(now)
        for label in died:
            link = self._links.get(label)
            if link is not None and not link.recovering:
                link.dead = True
                self._schedule_recovery(link)
        return died

    async def wait_for_recovery(self, key: str, n: int = 1) -> None:
        """Resolve once ``self.recovery[key] >= n`` (test affordance)."""
        if key not in self.recovery:
            raise NetError(f"unknown recovery counter {key!r}")
        while self.recovery[key] < n:
            event = asyncio.Event()
            self._recovery_waiters.append(event)
            try:
                await event.wait()
            finally:
                self._recovery_waiters.remove(event)

    # -- feeder connections --------------------------------------------------

    async def _handle_feeder(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        owned: list[str] = []
        out = FrameWriter(writer)
        try:
            opened = await self._feeder_handshake(reader, writer, out)
            if opened is None:
                return
            owned, version = opened
            await self._serve_feeder(reader, out, owned, version)
        except ProtocolError as error:
            self._flush()  # what the burst had queued ahead of the error
            await protocol.bail(writer, str(error))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Nothing stays pending behind a serve loop that has ended.
            self._flush()
            for name in owned:
                if self._owners.get(name) is out:
                    del self._owners[name]
            out.close()

    async def _feeder_handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        out: FrameWriter,
    ) -> "tuple[list[str], int] | None":
        hello = await accept_hello(
            reader, writer, self._expected, "router", self._count
        )
        if hello is None:
            return None
        names, version = hello
        taken = [n for n in names if n in self._owners]
        if taken:
            await protocol.bail(
                writer, f"sources already connected: {taken!r}"
            )
            return None
        for name in names:
            self._owners[name] = out
        self._ever_connected = True
        # The router always runs credit (block-style) flow control
        # toward feeders: a credit is owed only once the reading has
        # been forwarded downstream, so worker backpressure reaches
        # feeders.
        credits = {name: self.queue_bound for name in names}
        await write_frame(writer, protocol.hello_ack(credits, version))
        return list(names), version

    async def _serve_feeder(
        self,
        reader: asyncio.StreamReader,
        out: FrameWriter,
        owned: list[str],
        version: int,
    ) -> None:
        """Serve one feeder connection, a burst at a time: every frame
        one socket read completed is served before the socket is
        awaited again, and :meth:`_flush` runs before each wait — the
        read itself, a closed gate, a worker out of credits."""
        names = set(owned)
        frames = FrameReader(reader, before_wait=self._flush)
        while True:
            frame = await frames.read_frame()
            if frame is None:
                return  # EOF; sources stay open for a reconnect
            kind = frame.get("type")
            rows = protocol.frame_rows(frame, version)
            if rows is not None:
                await self._route_rows(names, rows)
            elif kind == "heartbeat":
                # Checked here, as the gateway behind us would: a frame
                # the worker would refuse is refused to the feeder.
                protocol.source_names(frame)
                if self._gate.is_set():
                    for link in self._links.values():
                        if not link.dead:
                            link.out.add(frame)
            elif kind == "bye":
                source = protocol.source_name(frame)
                if source not in names:
                    raise ProtocolError(
                        f"bye for source {source!r} not owned by this "
                        f"connection"
                    )
                await self._pass_gate()
                self._inflight += 1
                self._idle.clear()
                try:
                    if source not in self._final:
                        self._final.add(source)
                        self._forward_bye(source, self._links)
                finally:
                    self._release_inflight()
                # Credits first: a feeder stops reading at its last ack.
                self._grant_credits()
                out.add(protocol.bye_ack(source))
                if len(self._final) == len(self._expected):
                    self._all_final.set()
            else:
                raise ProtocolError(f"unexpected frame type {kind!r}")

    async def _route_rows(self, names: set[str], rows: Iterable[tuple]) -> None:
        """Retain and forward readings as they came off the wire — the
        rows of a ``block`` frame, or a ``data`` frame as the one row
        it spells (entries as :func:`repro.net.protocol.block_rows`
        yields them, already checked as the gateway behind us checks
        them: a reading the worker would refuse is refused here, to
        the feeder).

        A block is routed in one pass. The gate is passed and the
        in-flight hold taken once, and the hold is let go around any
        gate wait (a freeze waits for the hold, so keeping it across
        the wait would deadlock). Each distinct key's owner is looked
        up once, in a table local to the call and rebuilt after a gate
        wait, because a rebalance swaps the ring. A worker credit in
        hand is taken without a suspension point; only a link with no
        credit left for the source, or a dead one, goes through
        :meth:`_forward`. What a reading counts stays per reading.

        Raises:
            ProtocolError: A malformed row, or one for a source this
                connection does not own or has byed; the rows ahead of
                it are retained and forwarded.
        """
        gate = self._gate
        owners: dict[str, _WorkerLink] = {}
        held = False
        try:
            for source, seq, arrival, low, item, _trace in rows:
                if source not in names:
                    raise ProtocolError(
                        f"reading for source {source!r} not declared "
                        f"in this connection's hello"
                    )
                if source in self._final:
                    raise ProtocolError(
                        f"reading for source {source!r} after its bye"
                    )
                key = str(self._key_fn(source, item))
                ingest_id = recv = 0
                if self._tracing:
                    # The receive stamp precedes the gate wait so a
                    # frozen rebalance gate shows up in router.queue.
                    recv = time.perf_counter_ns()
                    self._trace_seq += 1
                    ingest_id = self._trace_seq
                if not gate.is_set():
                    if held:
                        held = False
                        self._release_inflight()
                    await self._pass_gate()
                    owners.clear()
                if not held:
                    held = True
                    self._inflight += 1
                    self._idle.clear()
                retained = _RetainedFrame(
                    arrival, seq, source, key, low, item, ingest_id, recv
                )
                self._history[source].append(retained)
                previous = self._max_arrival.get(source, float("-inf"))
                self._max_arrival[source] = max(previous, arrival)
                link = owners.get(key)
                if link is None:
                    assert self._ring is not None
                    link = owners[key] = self._links[self._ring.owner(key)]
                try:
                    if link.take_credit(source):
                        self._place(link, retained, replayed=False)
                        if link.out.full:
                            self._flush()
                            await link.out.drain()
                    else:
                        await self._forward(link, retained, replayed=False)
                except _LinkDead:
                    # Already retained; recovery's replay delivers
                    # it. Skip; the feeder's credit is owed below.
                    self._bump("forwards_skipped_dead")
                except (ConnectionError, RuntimeError):
                    self._on_link_failure(link)
                    self._bump("forwards_skipped_dead")
                self._maybe_checkpoint(link)
                self.data_frames += 1
                self._offered[source] = self._offered.get(source, 0) + 1
                if self._frame_waiters:
                    for event in self._frame_waiters:
                        event.set()
                self._owed[source] = self._owed.get(source, 0) + 1
        finally:
            if held:
                self._release_inflight()

    async def _pass_gate(self) -> None:
        """Wait out a rebalance freeze, flushing first (:meth:`_flush`)."""
        if not self._gate.is_set():
            self._flush()
            await self._gate.wait()

    def _forward_bye(
        self, source: str, links: "dict[str, _WorkerLink]"
    ) -> None:
        for label in sorted(links):
            link = links[label]
            if source in link.sources and not link.dead:
                link.out.add(protocol.bye(source))

    def _release_inflight(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    def _count(self, key: str) -> None:
        if self._collector.enabled:
            self._collector.count(key)

    # -- test/ops affordances ------------------------------------------------

    async def wait_for_data_frames(self, n: int) -> None:
        """Resolve once ``n`` readings have been forwarded (tests)."""
        while self.data_frames < n:
            event = asyncio.Event()
            self._frame_waiters.append(event)
            try:
                await event.wait()
            finally:
                self._frame_waiters.remove(event)

    def stats(self) -> dict[str, Any]:
        """Routing accounting, ops-plane compatible (JSON-friendly)."""
        sources = {}
        for name in self._expected:
            offered = self._offered.get(name, 0)
            sources[name] = {
                "offered": offered,
                "delivered": offered,
                "dropped_overload": 0,
                "dropped_late": 0,
                "released": offered,
                "blocked": 0,
                "depth": 0,
                "max_depth": 0,
                "final": name in self._final,
                "evicted": False,
            }
        workers = {
            label: {
                "address": f"{link.host}:{link.port}",
                "sources": len(link.sources),
                "acked": len(link.acked),
                "status": self._detector.status(label),
            }
            for label, link in sorted(self._links.items())
        }
        return {
            "policy": "block",
            "queue_bound": self.queue_bound,
            "slack": self.slack,
            "sources": sources,
            "workers": workers,
            "epoch": self._epoch,
            "epoch_start_tick": self._epoch_start,
            "data_frames": self.data_frames,
            "shard_key": self._bundle.shard_key,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpointed_workers": self._store.labels(),
            "retained_frames": sum(
                len(frames) for frames in self._history.values()
            ),
            "recovery": dict(self.recovery),
        }

    def readiness(self) -> dict[str, Any]:
        """Readiness verdict for ``/readyz``."""
        reasons: list[str] = []
        if not self._started:
            reasons.append("router not started")
        if self._epoch < 0:
            reasons.append("no worker epoch established")
        elif not self._gate.is_set() and not self._finished:
            reasons.append("rebalance in progress (forwarding frozen)")
        if not self._ever_connected:
            reasons.append("no feeder has connected yet")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "workers": self._detector.statuses(),
        }
