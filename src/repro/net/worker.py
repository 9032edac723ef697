"""The cluster worker: one pipeline process behind the router.

A :class:`ClusterWorker` serves epochs. Each epoch is one TCP connection
from the router (:mod:`repro.net.router`): ``worker_hello`` + ``route``
(+ ``resume``) open it — checked, and the epoch built, by the
synchronous :func:`~repro.net.gateway_core.open_epoch` — then the
ordinary data-plane frames flow as into a standalone gateway, credits
included. The epoch is a :class:`~repro.net.gateway_core.GatewayCore`
in its worker role over a :class:`~repro.net.gateway_core.TickLedger`
and a fresh session; it answers ``drain`` and ``checkpoint``, and once
every routed source is final writes the cleaned output back as
``result_block`` frames and a closing ``result_end``. This module is its
asyncio shell: it only reads and writes.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Callable

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.gateway_core import (
    RESULT_CHUNK,
    GatewayCore,
    TickLedger,
    open_epoch,
)
from repro.net.ops import ops_plane
from repro.net.protocol import read_frame
from repro.net.service import ScenarioBundle, build_bundle
from repro.net.shell import Shell
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry

#: The epoch core's result framing and ledger, importable from here too.
__all__ = ["RESULT_CHUNK", "ClusterWorker", "TickLedger", "serve_worker"]


class ClusterWorker:
    """Serve a scenario's pipeline as one worker of a cluster.

    Args:
        scenario: Scenario name (see :data:`repro.net.service.SCENARIOS`)
            or a prebuilt :class:`~repro.net.service.ScenarioBundle`.
        duration: Scenario duration override (must match the router's).
        seed: Scenario seed override (must match the router's).
        slack: Reorder slack for the epoch gateways.
        queue_bound: Per-source ingress queue capacity.
        telemetry: The worker's rollup collector; each epoch runs on a
            spawned child whose snapshot is both absorbed here (for the
            worker's own ops plane) and shipped to the router inside
            ``result_end`` (for the cluster-wide rollup).
        label: Default worker label; the router's ``worker_hello``
            overrides it per epoch.
    """

    def __init__(
        self,
        scenario: "str | ScenarioBundle",
        *,
        duration: "float | None" = None,
        seed: "int | None" = None,
        slack: float = 0.0,
        queue_bound: int = 64,
        telemetry: "TelemetryCollector | None" = None,
        label: str = "worker",
    ):
        if isinstance(scenario, ScenarioBundle):
            self._bundle = scenario
        else:
            self._bundle = build_bundle(scenario, duration, seed)
        self.slack = float(slack)
        self.queue_bound = int(queue_bound)
        self.label = label
        self._collector = resolve_telemetry(telemetry)
        self._expected = tuple(sorted(self._bundle.streams))
        self._open_session = partial(
            self._bundle.processor.open_session,
            until=self._bundle.until, tick=self._bundle.tick,
        )
        self._server: "asyncio.base_events.Server | None" = None
        self._current: "GatewayCore | None" = None
        self._epochs_served = 0
        self._epoch_done = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()

    @property
    def epochs_served(self) -> int:
        """Epochs brought to completion (results shipped)."""
        return self._epochs_served

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and accept router connections; returns ``(host, port)``."""
        if self._server is not None:
            raise NetError("worker already started")
        self._server = await asyncio.start_server(self._accept, host, port)
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def wait_epochs(self, n: int) -> None:
        """Resolve once at least ``n`` epochs have completed."""
        while self._epochs_served < n:
            self._epoch_done.clear()
            await self._epoch_done.wait()

    async def close(self) -> None:
        """Stop accepting and cancel any in-flight epoch handlers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # -- per-connection epoch lifecycle ---------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            if await self._serve_epoch(reader, writer):
                self._epochs_served += 1
                self._epoch_done.set()
        except asyncio.CancelledError:
            # close() killed us mid-epoch (e.g. a scripted chaos kill);
            # end the handler quietly — the partial epoch is discarded.
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()

    async def _serve_epoch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one epoch; ``True`` once its results are written and
        the router has hung up. The hang-up is the router's: it may
        still have a frame in flight to us (the drain of an epoch that
        finished on its own, a relayed heartbeat), and data landing on a
        closed socket makes the kernel answer RST, which discards what
        of a large ``result_end`` has not left this host yet; so the core
        ignores frames until the router closes the link. An epoch whose
        link dies first is discarded: the router's retained history
        makes the next one whole."""
        frames: list[dict] = []
        opened = None
        try:
            while opened is None:
                frame = await read_frame(reader)
                if frame is None:
                    return False  # the router hung up first
                frames.append(frame)
                opened = open_epoch(
                    frames, self._expected, self._open_session,
                    label=self.label, slack=self.slack,
                    queue_bound=self.queue_bound, rollup=self._collector,
                )
        except ProtocolError as error:
            await protocol.bail(writer, str(error))
            return False
        except ConnectionError:
            return False
        core, conn = opened
        shell = Shell(core)
        shell.writers[conn] = writer
        self._current = core
        reason = ""
        try:
            core.drain()  # a resumed epoch may owe a sweep
            shell.flush()
            await shell.read(
                reader, lambda frame: core.frame(conn, frame),
                burst_end=core.drain,
            )
        except ProtocolError as error:
            reason = str(error)
        except ConnectionError:
            pass
        finally:
            core.end(conn, reason)
            shell.flush()
            if self._current is core:
                self._current = None
        return core.complete

    # -- ops plane -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Current-epoch gateway accounting plus worker identity."""
        core = self._current
        stats = core.stats() if core is not None else {
            "policy": "block", "queue_bound": self.queue_bound,
            "slack": self.slack, "sources": {},
        }
        stats["worker"] = self.label
        stats["epochs_served"] = self._epochs_served
        return stats

    def readiness(self) -> dict[str, Any]:
        """Ready once the worker is listening for router connections."""
        reasons: list[str] = []
        if self._server is None:
            reasons.append("worker not started")
        return {"ready": not reasons, "reasons": reasons}


async def serve_worker(
    name: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slack: float = 1.5,
    queue_bound: int = 64,
    duration: "float | None" = None,
    seed: "int | None" = None,
    label: str = "worker",
    max_epochs: "int | None" = None,
    telemetry: "TelemetryCollector | None" = None,
    ready: "Callable[[str, int], None] | None" = None,
    ops_port: "int | None" = None,
    ops_ready: "Callable[[str, int], None] | None" = None,
) -> dict[str, Any]:
    """Run one cluster worker; returns its summary when it stops.

    Args:
        max_epochs: Exit after completing this many epochs; ``None``
            serves until cancelled (the CLI maps Ctrl-C onto a clean
            close).
        ready: Called with the bound address once accepting.
        ops_port: When set, serve the worker's own ops plane
            (``/metrics``, ``/healthz``, ``/readyz``, ``/snapshot``).
    """
    worker = ClusterWorker(
        name,
        duration=duration,
        seed=seed,
        slack=slack,
        queue_bound=queue_bound,
        telemetry=telemetry,
        label=label,
    )
    async with ops_plane(
        worker, host, ops_port, telemetry, ops_ready
    ) as ops_address:
        try:
            bound_host, bound_port = await worker.start(host, port)
            if ready is not None:
                ready(bound_host, bound_port)
            if max_epochs is None:
                await asyncio.Event().wait()  # serve until cancelled
            else:
                await worker.wait_epochs(max_epochs)
        except asyncio.CancelledError:
            pass
        finally:
            await worker.close()
    return {
        "scenario": worker._bundle.name,
        "address": f"{bound_host}:{bound_port}",
        "ops_address": ops_address,
        "label": label,
        "epochs_served": worker.epochs_served,
        "worker": worker.stats(),
    }
