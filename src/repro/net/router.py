"""The cluster front tier: route feeder streams onto a worker ring.

:class:`ClusterRouter` accepts ordinary feeder connections — the exact
versioned wire protocol a standalone gateway speaks — and forwards each
reading to the worker owning its *shard key* (the scenario's
batch-sharding key, :attr:`repro.net.service.ScenarioBundle.shard_key`)
on a consistent-hash ring (:class:`repro.net.ring.HashRing`), so keys
whose tuples share stateful stages land on one worker. An inbound
block's rows leave re-blocked per link, never re-framed per reading.

This module is the asyncio *shell* around the synchronous
:class:`~repro.net.router_core.RouterCore`, which takes every decision.
The shell turns sockets and the supervisor into core events, carries
out the actions that come back, and holds no router state across an
``await``. Its serve loops are the shared :class:`~repro.net.shell.
Shell`'s: each hands the core every frame one socket read completes,
then flushes (the flush rule) before it reads again; a feeder's loop
reads again only once the core has served all it has, so a feeder the
core cannot place meets TCP backpressure.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from repro.errors import NetError, ProtocolError
from repro.net.protocol import read_frame
from repro.net.recovery import WorkerSupervisor
from repro.net.router_core import Feeder, RouterCore, Settled
from repro.net.router_epochs import (
    CloseLink,
    Link,
    OpenLink,
    RestartWorker,
    RunDone,
)
from repro.net.service import ScenarioBundle
from repro.net.shell import Shell
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple


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
        telemetry: Cluster-wide rollup collector (worker epoch snapshots
            under their labels). It also switches on cluster tracing:
            epoch close commits each delivered tuple's span set
            (``router.queue`` … ``cluster.e2e``) and ``cluster_span``.
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
        processor = bundle.processor
        self.core = RouterCore(
            bundle.streams, processor.shard_key_fn(bundle.shard_key),
            processor.punctuation_ticks(bundle.until, bundle.tick),
            slack=slack, queue_bound=queue_bound,
            collector=resolve_telemetry(telemetry), clock=clock,
            checkpoint_interval=checkpoint_interval,
            supervised=supervisor is not None,
            suspect_after=suspect_after, dead_after=dead_after,
        )
        self.slack = self.core.slack
        self.queue_bound = self.core.queue_bound
        self.checkpoint_interval = checkpoint_interval
        #: Recovery accounting (also on ``router.recovery.*`` counters).
        self.recovery = self.core.recovery
        self._supervisor = supervisor
        self._server: "asyncio.base_events.Server | None" = None
        self._started = False
        self._shell = Shell(self.core)
        #: Each link's read loop.
        self._readers: dict[Link, asyncio.Task] = {}
        self._tasks: set[asyncio.Task] = set()

    @property
    def data_frames(self) -> int:
        """Readings placed on a worker link (or skipped for a dead one)."""
        return self.core.data_frames

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the feeder-facing listener; returns ``(host, port)``.

        Feeders may connect immediately; their data waits until
        :meth:`connect_workers` establishes epoch 0.
        """
        if self._server is not None:
            raise NetError("router already started")
        self._server = await asyncio.start_server(
            self._serve_feeder, host, port
        )
        self._started = True
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def connect_workers(
        self, workers: "list[tuple[str, str, int]]"
    ) -> None:
        """Establish epoch 0 over ``(label, host, port)`` workers."""
        membership = {label: (host, port) for label, host, port in workers}
        await self._request(
            lambda ticket: self.core.connect(ticket, membership)
        )

    async def add_worker(self, label: str, host: str, port: int) -> None:
        """Join ``label`` to the ring via a full epoch handoff."""
        await self._request(
            lambda ticket: self.core.rebalance(
                ticket, add={label: (host, port)}
            )
        )

    async def remove_worker(self, label: str) -> None:
        """Retire ``label`` from the ring via a full epoch handoff."""
        await self._request(
            lambda ticket: self.core.rebalance(ticket, remove={label})
        )

    async def run_until_complete(self) -> None:
        """Resolve once every source is final and all results are in; a
        worker lost in the final drain has its missing span re-run.

        Raises:
            NetError: Recovery is impossible (every worker lost, none
                respawnable), now or in a recovery earlier in the run.
        """
        self._apply(self.core.finish())
        core = self.core
        await self._shell.until(lambda: core.finished or core.fatal is not None)
        if core.fatal is not None:
            raise core.fatal

    async def close(self) -> None:
        """Stop listening and tear down worker links."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        tasks = list(self._tasks) + list(self._readers.values())
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._shell.close("router closed")
        if server is not None:
            await server.wait_closed()

    def result(self) -> list[StreamTuple]:
        """The merged, deterministic cluster output (after completion)."""
        from repro.net.cluster import merge_epochs

        if not self.core.finished:
            raise NetError("cluster run has not completed")
        return merge_epochs(
            self.core.epochs, len(self.core.ticks), self._bundle.shard_key
        )

    def epochs(self) -> list[dict[str, Any]]:
        """Per-epoch records: span, workers, stats (for summaries)."""
        return [
            {
                "epoch": record["epoch"], "start_tick": record["start"],
                "end_tick": record["end"], "workers": sorted(record["results"]),
            }
            for record in self.core.epochs
        ]

    def check_workers(self, now: "float | None" = None) -> list[str]:
        """Deadline sweep (driven from an ops cadence, never a hidden
        timer; a no-op without ``dead_after``): declare silent workers
        dead, start their recovery, return their labels."""
        died, actions = self.core.check_workers(now)
        self._apply(actions)
        return died

    # -- carrying out the core's actions ---------------------------------------

    def _apply(self, actions: list, burst: bool = False) -> None:
        """Carry out ``actions``; then, unless a socket read's burst goes
        on, flush."""
        for action in actions:
            kind = type(action)
            if kind is OpenLink:
                self._spawn(self._open(action.link, action.handshake))
            elif kind is CloseLink:
                self._close_link(action.link)
            elif kind is RestartWorker:
                self._spawn(self._restart(action.label))
            elif kind is Settled:
                if not action.ticket.done():
                    if action.error is None:
                        action.ticket.set_result(None)
                    else:
                        action.ticket.set_exception(action.error)
            else:
                assert kind is RunDone  # observed through the core's state
        if not burst:
            self._shell.flush()

    def _spawn(self, coroutine: Any) -> None:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _request(self, submit: Callable[[asyncio.Future], list]) -> None:
        ticket = asyncio.get_running_loop().create_future()
        self._apply(submit(ticket))
        await ticket

    async def _open(self, link: Link, handshake: bytes) -> None:
        try:
            reader, writer = await asyncio.open_connection(link.host, link.port)
        except OSError as error:
            self._apply(self.core.link_failed(link, error))
            return
        try:
            writer.write(handshake)
            await writer.drain()
            ack = await read_frame(reader)
        except (OSError, NetError) as error:
            writer.close()
            self._apply(self.core.link_failed(link, error))
            return
        self._shell.writers[link] = writer
        self._readers[link] = asyncio.ensure_future(
            self._read_link(link, reader)
        )
        self._apply(self.core.link_opened(link, ack))

    async def _read_link(self, link: Link, reader: asyncio.StreamReader) -> None:
        error: "Exception | None" = None
        try:
            await self._shell.read(reader, lambda frame: self._apply(
                self.core.worker_frame(link, frame), burst=True
            ))
        except asyncio.CancelledError:
            raise
        except Exception as failure:
            error = failure
        self._apply(self.core.link_died(link, error))

    def _close_link(self, link: Link) -> None:
        task = self._readers.pop(link, None)
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        writer = self._shell.writers.pop(link, None)
        if writer is not None:
            writer.close()

    async def _restart(self, label: str) -> None:
        assert self._supervisor is not None
        try:
            address = await self._supervisor.restart(label)
        except Exception as error:
            self._apply(self.core.restart_result(label, None, error))
        else:
            self._apply(self.core.restart_result(label, address))

    # -- feeder connections --------------------------------------------------

    async def _serve_feeder(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        feeder: Feeder = self.core.feeder_opened()
        self._shell.writers[feeder] = writer
        reason = ""
        try:
            hello = await read_frame(reader)
            if hello is None:
                return
            self._apply(self.core.feeder_hello(feeder, hello))
            await self._shell.read(reader, lambda frame: self._apply(
                self.core.feeder_frame(feeder, frame), burst=True
            ), feeder.served)  # EOF: the sources stay open for a reconnect
        except ProtocolError as error:
            reason = str(error)
        except (ConnectionError, asyncio.IncompleteReadError, NetError):
            pass  # a NetError here is the router closing
        finally:
            self._apply(self.core.feeder_closed(feeder, reason))

    # -- test/ops affordances ------------------------------------------------

    async def wait_for_recovery(self, key: str, n: int = 1) -> None:
        """Resolve once ``self.recovery[key] >= n`` (test affordance)."""
        if key not in self.recovery:
            raise NetError(f"unknown recovery counter {key!r}")
        await self._shell.until(lambda: self.recovery[key] >= n)

    async def wait_for_data_frames(self, n: int) -> None:
        """Resolve once ``n`` readings have been forwarded (tests)."""
        await self._shell.until(lambda: self.core.data_frames >= n)

    def stats(self) -> dict[str, Any]:
        """Routing accounting, ops-plane compatible (JSON-friendly)."""
        core = self.core
        sources = {}
        for name in core.expected:
            offered = core.offered.get(name, 0)
            sources[name] = {
                "offered": offered, "delivered": offered,
                "dropped_overload": 0, "dropped_late": 0,
                "released": offered, "blocked": 0, "depth": 0,
                "max_depth": 0, "final": name in core.final,
                "evicted": False,
            }
        workers = {
            label: {
                "address": f"{link.host}:{link.port}",
                "sources": len(link.sources),
                "acked": len(link.acked),
                "status": core.detector.status(label),
            }
            for label, link in sorted(core.links.items())
        }
        return {
            "policy": "block",
            "queue_bound": self.queue_bound,
            "slack": self.slack,
            "sources": sources,
            "workers": workers,
            "epoch": core.epoch,
            "epoch_start_tick": core.epoch_start,
            "data_frames": core.data_frames,
            "shard_key": self._bundle.shard_key,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpointed_workers": core.store.labels(),
            "retained_frames": sum(
                len(frames) for frames in core.history.values()
            ),
            "recovery": dict(core.recovery),
        }

    def readiness(self) -> dict[str, Any]:
        """Readiness verdict for ``/readyz``."""
        core = self.core
        reasons = []
        if not self._started:
            reasons.append("router not started")
        if core.epoch < 0:
            reasons.append("no worker epoch established")
        elif core.frozen and not core.finished:
            reasons.append("rebalance in progress (forwarding frozen)")
        if not core.ever_connected:
            reasons.append("no feeder has connected yet")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "workers": core.detector.statuses(),
        }
