"""Deterministic fault injection for the cluster's wire links.

:class:`ChaosProxy` is a TCP proxy that reads the stream through the
protocol's own :class:`~repro.net.protocol.FrameDecoder` and counts
*readings* at frame boundaries — a ``block`` frame advances the count by
the rows it carries, any other frame by one — so faults land at
scripted, reproducible points in the stream rather than at arbitrary
byte offsets, however many frames share a TCP segment and however many
readings share a frame. Park
it between the router and a worker (or a feeder and the router) and
give it a list of :class:`FaultEvent` triggers:

- ``reset``   — drop the triggering frame and abort both directions
  (the peer sees a connection reset, possibly mid-stream).
- ``truncate`` — forward the frame header but only a prefix of its
  payload, then close: the receiver's decoder surfaces a typed
  :class:`repro.errors.FrameTruncated`.
- ``corrupt`` — flip one payload byte (offset drawn from the seeded
  RNG) and forward; the receiver fails JSON decode.
- ``stall``   — pause the direction once for ``seconds`` before the
  triggering frame (long enough stalls trip deadline detection).
- ``slow``    — delay every frame from the trigger on by ``seconds``
  (a degraded-but-correct worker).

Triggers are addressed by ``(connection, direction, at_frame)``:
connections are numbered in accept order (the router opens one worker
connection per epoch, so connection 0 is epoch 0's link and connection
1 is the first resume/recovery link), and the count runs per direction
within a connection; a fault fires on the frame in which the count
reaches ``at_frame`` (on a stream of one-reading frames — any v1/v2
stream — that is simply frame number ``at_frame``). Because the
protocol is a deterministic function of the scenario seed, the same
schedule hits the same reading every run (and takes the rest of its
block with it) — which is what lets the differential suite assert
crash-then-recover output byte-for-byte against a single-node run.

:func:`chaos_run` is the packaged experiment (also the ``repro chaos``
CLI): an in-process cluster with checkpointing and a supervisor, one
scripted fault, and a differential verdict against the in-memory
reference.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any

from repro.errors import NetError, ProtocolError
from repro.net.protocol import (
    BURST_BYTES,
    HEADER_BYTES,
    FrameDecoder,
    frame_bytes,
    write_raw_frame,
)

#: Fault kinds understood by :class:`ChaosProxy`.
FAULT_KINDS = ("reset", "truncate", "corrupt", "stall", "slow")

#: Directions, named from the connecting client's point of view.
C2S = "c2s"
S2C = "s2c"


class FaultEvent:
    """One scripted fault (see the module docstring for the kinds).

    Args:
        kind: One of :data:`FAULT_KINDS`.
        connection: Accept-order index of the proxied connection the
            fault applies to.
        direction: ``"c2s"`` (client → server) or ``"s2c"``.
        at_frame: 1-based position, counted in readings per direction
            within the connection (a ``block`` frame counts its rows,
            any other frame one), the fault triggers on.
        keep_bytes: For ``truncate`` — payload bytes forwarded before
            the cut.
        seconds: For ``stall``/``slow`` — the injected delay.
    """

    __slots__ = ("kind", "connection", "direction", "at_frame",
                 "keep_bytes", "seconds", "fired")

    def __init__(
        self,
        kind: str,
        *,
        connection: int = 0,
        direction: str = C2S,
        at_frame: int = 1,
        keep_bytes: int = 8,
        seconds: float = 0.0,
    ):
        if kind not in FAULT_KINDS:
            raise NetError(f"unknown fault kind {kind!r}")
        if direction not in (C2S, S2C):
            raise NetError(f"direction must be 'c2s' or 's2c', got "
                           f"{direction!r}")
        if at_frame < 1:
            raise NetError(f"at_frame must be >= 1, got {at_frame}")
        self.kind = kind
        self.connection = int(connection)
        self.direction = direction
        self.at_frame = int(at_frame)
        self.keep_bytes = int(keep_bytes)
        self.seconds = float(seconds)
        self.fired = False


class ChaosProxy:
    """Frame-aware TCP proxy injecting scripted faults (see module doc).

    Args:
        backend_host: Address the proxy forwards to.
        backend_port: Port the proxy forwards to.
        schedule: :class:`FaultEvent` triggers; each fires at most once.
        seed: RNG seed for the faults' random draws (corruption offset).
    """

    def __init__(
        self,
        backend_host: str,
        backend_port: int,
        schedule: "list[FaultEvent] | tuple[FaultEvent, ...]" = (),
        *,
        seed: int = 0,
    ):
        self.backend_host = backend_host
        self.backend_port = int(backend_port)
        self.schedule = list(schedule)
        self._random = random.Random(seed)
        self._server: "asyncio.base_events.Server | None" = None
        self._tasks: set[asyncio.Task] = set()
        self.connections = 0
        #: Faults actually injected, in firing order (for reports).
        self.injected: list[dict[str, Any]] = []

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the client-facing listener; returns ``(host, port)``."""
        if self._server is not None:
            raise NetError("proxy already started")
        self._server = await asyncio.start_server(self._accept, host, port)
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = self.connections
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            backend_reader, backend_writer = await asyncio.open_connection(
                self.backend_host, self.backend_port
            )
        except OSError:
            writer.close()
            if task is not None:
                self._tasks.discard(task)
            return
        writers = (writer, backend_writer)
        try:
            await asyncio.gather(
                self._pipe(reader, backend_writer, writers, connection, C2S),
                self._pipe(backend_reader, writer, writers, connection, S2C),
                return_exceptions=True,
            )
        except asyncio.CancelledError:
            pass  # close() tearing the proxy down mid-pipe
        finally:
            for side in writers:
                side.close()
            if task is not None:
                self._tasks.discard(task)

    def _match(
        self, connection: int, direction: str, before: int, position: int
    ) -> "FaultEvent | None":
        """The unfired event the frame that moved the direction's count
        from ``before`` to ``position`` reaches, if any."""
        for event in self.schedule:
            if (
                not event.fired
                and event.connection == connection
                and event.direction == direction
                and before < event.at_frame <= position
            ):
                event.fired = True
                self.injected.append(
                    {
                        "kind": event.kind,
                        "connection": connection,
                        "direction": direction,
                        "frame": position,
                    }
                )
                return event
        return None

    async def _pipe(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        writers: "tuple[asyncio.StreamWriter, asyncio.StreamWriter]",
        connection: int,
        direction: str,
    ) -> None:
        frames = 0
        delay = 0.0
        upstream = FrameDecoder()
        while True:
            try:
                while (payload := upstream.take()) is None:
                    data = await reader.read(BURST_BYTES)
                    if not data:
                        break
                    upstream.extend(data)
            except (ProtocolError, OSError):
                payload = None
            if payload is None:
                # EOF, reset or a cut frame upstream: propagate the
                # close downstream.
                writer.close()
                return
            before = frames
            frames += _readings(payload)
            event = self._match(connection, direction, before, frames)
            if event is not None:
                if event.kind == "reset":
                    for side in writers:
                        transport = side.transport
                        if transport is not None:
                            transport.abort()
                    return
                if event.kind == "truncate":
                    try:
                        cut = HEADER_BYTES + event.keep_bytes
                        writer.write(frame_bytes(payload)[:cut])
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    for side in writers:
                        side.close()
                    return
                if event.kind == "corrupt":
                    offset = self._random.randrange(max(1, len(payload)))
                    mutated = bytearray(payload)
                    mutated[offset % max(1, len(mutated))] ^= 0xFF
                    payload = bytes(mutated)
                elif event.kind == "stall":
                    await asyncio.sleep(event.seconds)
                elif event.kind == "slow":
                    delay = event.seconds
            if delay:
                await asyncio.sleep(delay)
            try:
                await write_raw_frame(writer, payload)
            except (ConnectionError, OSError):
                return


def _readings(payload: bytes) -> int:
    """How far a frame advances the proxy's position count: the rows
    of a ``block``, 1 for any other (or undecodable) frame."""
    try:
        frame = json.loads(payload)
    except ValueError:
        return 1
    if isinstance(frame, dict) and frame.get("type") == "block":
        rows = frame.get("rows")
        if isinstance(rows, list):
            return max(1, len(rows))
    return 1


def _latency_stats(values: "list[int]") -> dict[str, Any]:
    """``count``/``p50``/``p95``/``max`` over integer-ns durations."""
    if not values:
        return {"count": 0, "p50_ns": None, "p95_ns": None, "max_ns": None}
    ordered = sorted(values)

    def pick(quantile: float) -> int:
        return ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]

    return {
        "count": len(ordered),
        "p50_ns": pick(0.50),
        "p95_ns": pick(0.95),
        "max_ns": ordered[-1],
    }


def chaos_latency(
    span_log: "list[dict]", trigger: "int | None"
) -> dict[str, Any]:
    """Partition cluster ``e2e`` spans around the fault trigger.

    ``during`` is the replayed population — tuples the fault forced
    back through recovery's bounded-tail replay, so their end-to-end
    span absorbs detection, backoff and resume. ``before``/``after``
    split the first-delivery population at the trigger frame by ingest
    id (the router assigns ids in feed order, so the comparison lands
    on the exact frame the fault was scripted against). With no
    trigger (control run) everything lands in ``before``.
    """
    phases: dict[str, list[int]] = {"before": [], "during": [], "after": []}
    for record in span_log:
        if record.get("kind") != "cluster_span":
            continue
        if record.get("replayed"):
            phases["during"].append(record["e2e_ns"])
        elif trigger is None or record.get("ingest_id", 0) <= trigger:
            phases["before"].append(record["e2e_ns"])
        else:
            phases["after"].append(record["e2e_ns"])
    return {
        phase: _latency_stats(values) for phase, values in phases.items()
    }


async def chaos_run(
    name: str,
    *,
    n_workers: int = 2,
    duration: "float | None" = None,
    seed: "int | None" = None,
    fault: str = "kill",
    fraction: float = 0.4,
    checkpoint_interval: "int | None" = 24,
    slack: float = 0.0,
    max_restarts: int = 3,
    slow_seconds: float = 0.002,
) -> dict[str, Any]:
    """One scripted fault against an in-process cluster, differentially
    checked against the in-memory reference run.

    Faults (all aimed at worker ``w0``; ``fraction`` positions the
    trigger within the recording's reading count):

    - ``kill``     — stop the worker process outright; the supervisor
      respawns it and the router resumes it from its last checkpoint.
    - ``reset``    — abort the router↔worker connection; the surviving
      process is resumed at the same address.
    - ``truncate`` — cut a worker→router frame mid-payload (typed
      :class:`~repro.errors.FrameTruncated` at the router) and close.
    - ``slow``     — delay every router→worker frame; no recovery
      should trigger, output must still match.
    - ``none``     — control run, no fault.

    Returns a JSON-friendly report: the differential verdict
    (``identical``), the router's recovery counters, the injected
    fault log, and a ``latency`` block with end-to-end percentiles
    before/during/after the fault computed from the cluster spans
    (the run is always traced — see :func:`chaos_latency`).
    """
    from repro.net.feeder import ReplayFeeder
    from repro.net.recovery import WorkerSupervisor
    from repro.net.router import ClusterRouter
    from repro.net.service import build_bundle
    from repro.net.worker import ClusterWorker
    from repro.streams.telemetry import InMemoryCollector

    if fault not in ("kill", "reset", "truncate", "slow", "none"):
        raise NetError(f"unknown chaos fault {fault!r}")
    bundle = build_bundle(name, duration, seed)
    reference = bundle.processor.run(
        bundle.until, bundle.tick, sources=bundle.streams
    ).output
    total_frames = sum(len(items) for items in bundle.streams.values())
    trigger = max(1, int(fraction * total_frames))

    workers: list[ClusterWorker] = []
    proxies: list[ChaosProxy] = []

    async def spawn(label: str) -> tuple[str, int]:
        worker = ClusterWorker(
            build_bundle(name, duration, seed), slack=slack
        )
        workers.append(worker)
        return await worker.start()

    schedule: list[FaultEvent] = []
    if fault == "reset":
        # Connection 0, client(router)→server(worker): the handshake is
        # 2 frames, so the cut lands on the block that carries about
        # the `trigger`-th reading.
        schedule = [FaultEvent("reset", at_frame=2 + trigger)]
    elif fault == "truncate":
        # Server→client cuts a frame toward the router. That direction
        # carries only the hello_ack, credit grants and checkpoint acks
        # until the drain, so it sees far fewer frames than the data
        # path — aim early to land mid-stream.
        schedule = [
            FaultEvent(
                "truncate", direction=S2C, at_frame=max(2, trigger // 4)
            )
        ]
    elif fault == "slow":
        schedule = [FaultEvent("slow", at_frame=2, seconds=slow_seconds)]

    supervisor = WorkerSupervisor(
        spawn,
        max_restarts=max_restarts,
        backoff_base=0.001,
        backoff_cap=0.01,
        seed=0,
    )
    collector = InMemoryCollector()
    router = ClusterRouter(
        build_bundle(name, duration, seed),
        slack=slack,
        checkpoint_interval=checkpoint_interval,
        supervisor=supervisor,
        telemetry=collector,
    )
    specs: list[tuple[str, str, int]] = []
    try:
        for index in range(n_workers):
            label = f"w{index}"
            host, port = await spawn(label)
            if index == 0 and schedule:
                proxy = ChaosProxy(host, port, schedule, seed=seed or 0)
                proxies.append(proxy)
                host, port = await proxy.start()
            specs.append((label, host, port))
        host, port = await router.start()
        await router.connect_workers(specs)
        feeder = ReplayFeeder(host, port, bundle.streams)
        feed_task = asyncio.ensure_future(feeder.run())
        try:
            if fault == "kill":
                await router.wait_for_data_frames(trigger)
                await workers[0].close()
            await feed_task
            await router.run_until_complete()
            output = router.result()
        finally:
            if not feed_task.done():
                feed_task.cancel()
                try:
                    await feed_task
                except (asyncio.CancelledError, Exception):
                    pass
    finally:
        await router.close()
        for proxy in proxies:
            await proxy.close()
        for worker in workers:
            await worker.close()
    return {
        "scenario": name,
        "fault": fault,
        "trigger_frame": trigger if fault != "none" else None,
        "identical": output == reference,
        "output_tuples": len(output),
        "reference_tuples": len(reference),
        "checkpoint_interval": checkpoint_interval,
        "recovery": dict(router.recovery),
        "latency": chaos_latency(
            collector.snapshot()["span_log"],
            trigger if fault != "none" else None,
        ),
        "injected": [
            record for proxy in proxies for record in proxy.injected
        ],
        "epochs": router.epochs(),
    }
