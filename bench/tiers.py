"""One pass of a workload through its tier, checked and timed.

``mem`` is ``ESPProcessor.run``; ``gw`` is one ``IngestGateway`` fed by
a ``ReplayFeeder`` on loopback; ``cluster`` is a ``ClusterRouter`` over
two ``ClusterWorker``s. The network tiers run feeder and servers in one
asyncio loop — one thread — in this process over one feeder connection,
so the thread's CPU time over a pass is the serialised cost of the whole
path, not the outcome of a scheduler race between processes on two
cores.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from repro.net.feeder import ReplayFeeder
from repro.net.gateway import IngestGateway
from repro.net.router import ClusterRouter
from repro.net.service import ScenarioBundle
from repro.net.worker import ClusterWorker
from repro.receptors.network import DelayModel
from repro.streams.telemetry import InMemoryCollector
from repro.streams.tuples import StreamTuple

from bench.calibrate import cpu_clock
from bench.inputs import Inputs, build_chain, chain_ticks
from bench.probe import (
    LeanCollector,
    PacedClock,
    ProcessorProbe,
    SessionProbe,
    SpanLog,
    clock_ns,
)
from bench.spec import (
    CLUSTER_WORKERS,
    DELAY_CAP,
    DELAY_MEAN,
    QUEUE_BOUND,
    Workload,
)

#: A pass that has not finished by now is hung: fail the run (non-zero
#: exit, no result) well inside the driver's 180 s limit.
HANG_SECONDS = 120.0


@dataclass
class PassResult:
    """What one pass did, for checking and for the metric tables.

    Attributes:
        wall_s: Feed start (``run`` call on ``mem``) to output in hand.
        cpu_s: This thread's CPU seconds over the same interval.
        window: The same interval as ``time.perf_counter()`` instants,
            for host-speed lookup.
        construct_s: Processor build, ``open_session``, bind and
            ``connect_workers`` before the timed window.
        output: The cleaned output stream.
        offered: Input tuples the pass was given.
        undelivered: Of those, tuples that never reached a session
            (feeder loss, overload or late drops).
        accounted: ``offered = delivered + dropped`` held at the
            gateway / router (always true on ``mem``).
        snapshot: The program's telemetry snapshot (traced passes).
        feeder: ``ReplayFeeder.report()`` (network tiers).
        stats: ``gateway.stats()`` / ``router.stats()``.
        session_busy_ns: Bench-side time inside session calls (traced).
        merge_s: Time inside ``router.result()`` (cluster).
        timeline: Per-tuple due/sent/swept instants (paced passes).
        speed: Mean host speed over ``window`` (set by the runner; see
            :mod:`bench.calibrate`).
    """

    wall_s: float
    cpu_s: float
    window: tuple[float, float]
    construct_s: float
    output: list[StreamTuple]
    offered: int
    undelivered: int = 0
    accounted: bool = True
    snapshot: dict[str, Any] = field(default_factory=dict)
    feeder: dict[str, Any] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    session_busy_ns: int = 0
    merge_s: float = 0.0
    timeline: "PacedTimeline | None" = None
    speed: float = 1.0

    @property
    def reference_s(self) -> float:
        """The timed interval in reference seconds."""
        return self.cpu_s * self.speed


@dataclass
class PacedTimeline:
    """Open-loop timing of one paced pass, in wall seconds.

    ``latency[k]`` holds, for the k-th second of the schedule, each
    tuple's delay from the instant it was *due* on the wire to the
    return of the ``advance()`` that swept its tick — a stall is
    charged to every tuple it delays. ``lateness`` is how far behind
    its due instant the feeder actually released each frame.
    """

    scheduled_s: float
    latency: list[list[float]]
    lateness: list[float]


@dataclass
class Tracing:
    """Switches a pass to traced: program collectors on, probes in."""

    spans: SpanLog
    collector: InMemoryCollector = field(default_factory=InMemoryCollector)


def run_pass(
    workload: Workload, inputs: Inputs, seed: int,
    tracing: "Tracing | None" = None,
) -> PassResult:
    """Run one pass of ``workload`` over ``inputs``."""
    if workload.tier == "mem":
        return mem_pass(inputs, inputs.mode, tracing)
    body = _gw_pass if workload.tier == "gw" else _cluster_pass
    return asyncio.run(
        asyncio.wait_for(body(workload, inputs, seed, tracing), HANG_SECONDS)
    )


def reference_output(inputs: Inputs) -> list[StreamTuple]:
    """The in-memory row-mode output every pass must reproduce."""
    return mem_pass(inputs, "row").output


# -- mem ------------------------------------------------------------------------


def mem_pass(
    inputs: Inputs, mode: "str | None", tracing: "Tracing | None" = None
) -> PassResult:
    """Batch-clean the recording in memory, in ``mode``."""
    collector = tracing.collector if tracing else None
    built = clock_ns()
    if inputs.processor is None:
        fjord, sink = build_chain(inputs.streams)
        ticks = chain_ticks(inputs)
        started, cpu_started = clock_ns(), cpu_clock()
        fjord.run(ticks, telemetry=collector, mode=mode or "row")
        output = sink.results
        snapshot = collector.snapshot() if collector else {}
    else:
        processor = inputs.processor()
        started, cpu_started = clock_ns(), cpu_clock()
        run = processor.run(
            until=inputs.until, tick=inputs.tick, sources=inputs.streams,
            telemetry=collector, mode=mode,
        )
        output, snapshot = run.output, run.telemetry
    ended, cpu_s = clock_ns(), cpu_clock() - cpu_started
    if tracing:
        root = tracing.spans.add("pass", built, ended)
        tracing.spans.add("construct", built, started, root)
        tracing.spans.add("processor.run", started, ended, root)
    return PassResult(
        (ended - started) / 1e9, cpu_s, (started / 1e9, ended / 1e9),
        (started - built) / 1e9, output, inputs.n_tuples, snapshot=snapshot,
    )


# -- gw -------------------------------------------------------------------------


def delay_model(workload: Workload, seed: int) -> "DelayModel | None":
    return DelayModel(DELAY_MEAN, DELAY_CAP, rng=seed) if workload.delayed else None


async def _gw_pass(
    workload: Workload, inputs: Inputs, seed: int, tracing: "Tracing | None"
) -> PassResult:
    spans = tracing.spans if tracing else None
    collector = tracing.collector if tracing else None
    built = clock_ns()
    root = spans.reserve("pass", built) if spans is not None else None
    session = inputs.processor().open_session(
        until=inputs.until, tick=inputs.tick, telemetry=collector
    )
    probe = None
    if spans is not None or workload.rate is not None:
        probe = session = SessionProbe(session, spans, root)
    gateway = IngestGateway(
        session, slack=workload.slack, policy="block",
        queue_bound=QUEUE_BOUND, telemetry=collector,
    )
    host, port = await gateway.start()
    paced = PacedClock() if workload.rate is not None else None
    pacing = {"clock": paced.clock, "sleep": paced.sleep} if paced else {}
    feeder = ReplayFeeder(
        host, port, inputs.streams, delay_model=delay_model(workload, seed),
        rate=workload.rate, **pacing,
    )
    started, cpu_started = clock_ns(), cpu_clock()
    try:
        await feeder.run()
        fed = clock_ns()
        await gateway.run_until_drained()
        drained = clock_ns()
        run = await gateway.close()
        ended, cpu_s = clock_ns(), cpu_clock() - cpu_started
    finally:
        await gateway.close()
    if spans is not None:
        spans.add("construct", built, started, root)
        spans.add("feeder.run", started, fed, root)
        spans.add("gateway.run_until_drained", fed, drained, root)
        spans.add("gateway.close", drained, ended, root)
        spans.finish(root, ended)
    stats = gateway.stats()
    report = feeder.report()
    sources = stats["sources"].values()
    dropped = sum(s["dropped_overload"] + s["dropped_late"] for s in sources)
    return PassResult(
        (ended - started) / 1e9, cpu_s, (started / 1e9, ended / 1e9),
        (started - built) / 1e9, run.output, inputs.n_tuples,
        undelivered=sum(report["lost"].values()) + dropped,
        accounted=(
            sum(s["offered"] for s in sources) == sum(report["sent"].values())
            and all(
                s["offered"] == s["delivered"] + s["dropped_overload"]
                and not s["evicted"]
                for s in sources
            )
        ),
        snapshot=collector.snapshot() if collector else {},
        feeder=report,
        stats=stats,
        session_busy_ns=probe.busy_ns if probe else 0,
        timeline=(
            paced_timeline(inputs, workload.rate, paced, probe) if paced else None
        ),
    )


def arrival_schedule(
    inputs: Inputs, delays: "DelayModel | None" = None
) -> list[tuple[float, str, int, StreamTuple]]:
    """``(arrival, source, seq, item)`` in the order a feeder sends:
    its own impairment draw order and its own sort key."""
    schedule = []
    for name in sorted(inputs.streams):
        for seq, item in enumerate(inputs.streams[name]):
            delay = delays.sample() if delays else 0.0
            schedule.append((item.timestamp + delay, name, seq, item))
    schedule.sort(key=lambda entry: entry[:3])
    return schedule


def paced_timeline(
    inputs: Inputs, rate: float, paced: PacedClock, probe: SessionProbe
) -> PacedTimeline:
    """Line up due, sent and swept instants for every tuple of a pass."""
    order = arrival_schedule(inputs)
    if len(paced.reads) != len(order) + 1:
        raise RuntimeError(
            f"paced feeder read its clock {len(paced.reads)} times for "
            f"{len(order)} frames; the pacing loop changed shape"
        )
    anchor, first = paced.reads[0], order[0][0]
    ticks = probe.ticks
    latency: list[list[float]] = []
    lateness: list[float] = []
    for index, (timestamp, _name, _seq, _item) in enumerate(order):
        offset = (timestamp - first) / rate
        due = anchor + offset
        lateness.append(paced.reads[index + 1] - due)
        tick = bisect_left(ticks, timestamp - 1e-9)
        if tick == len(ticks):
            continue  # past the last punctuation: never swept
        while len(latency) <= int(offset):
            latency.append([])
        latency[int(offset)].append(probe.swept_at[tick] - due)
    return PacedTimeline((order[-1][0] - first) / rate, latency, lateness)


# -- cluster --------------------------------------------------------------------


async def _cluster_pass(
    workload: Workload, inputs: Inputs, seed: int, tracing: "Tracing | None"
) -> PassResult:
    spans = tracing.spans if tracing else None
    collector = tracing.collector if tracing else None
    built = clock_ns()
    root = spans.reserve("pass", built) if spans is not None else None
    probes: list[ProcessorProbe] = []

    def bundle(probed: bool = False) -> ScenarioBundle:
        processor = inputs.processor()
        if probed:
            processor = ProcessorProbe(processor, spans, root)
            probes.append(processor)
        return ScenarioBundle(
            workload.scenario, processor, inputs.streams, inputs.until,
            inputs.tick, shard_key=inputs.shard_key,
        )

    workers: list[ClusterWorker] = []
    router = ClusterRouter(
        bundle(), slack=workload.slack, queue_bound=QUEUE_BOUND,
        telemetry=collector,
        checkpoint_interval=workload.checkpoint_interval,
    )
    try:
        specs = []
        for index in range(CLUSTER_WORKERS):
            worker = ClusterWorker(
                bundle(probed=spans is not None), slack=workload.slack,
                queue_bound=QUEUE_BOUND,
                telemetry=LeanCollector() if tracing else None,
            )
            workers.append(worker)
            specs.append((f"w{index}", *await worker.start()))
        host, port = await router.start()
        await router.connect_workers(specs)
        feeder = ReplayFeeder(
            host, port, inputs.streams,
            delay_model=delay_model(workload, seed), rate=workload.rate,
        )
        started, cpu_started = clock_ns(), cpu_clock()
        await feeder.run()
        fed = clock_ns()
        await router.run_until_complete()
        complete = clock_ns()
        output = router.result()
        ended, cpu_s = clock_ns(), cpu_clock() - cpu_started
        stats = router.stats()
    finally:
        await router.close()
        for worker in workers:
            await worker.close()
    if spans is not None:
        spans.add("construct", built, started, root)
        spans.add("feeder.run", started, fed, root)
        spans.add("router.run_until_complete", fed, complete, root)
        spans.add("router.result", complete, ended, root)
        spans.finish(root, ended)
    report = feeder.report()
    routed = sum(s["offered"] for s in stats["sources"].values())
    return PassResult(
        (ended - started) / 1e9, cpu_s, (started / 1e9, ended / 1e9),
        (started - built) / 1e9, output, inputs.n_tuples,
        undelivered=sum(report["lost"].values()),
        accounted=(
            routed == stats["data_frames"] == sum(report["sent"].values())
        ),
        snapshot=collector.snapshot() if collector else {},
        feeder=report,
        stats=stats,
        session_busy_ns=sum(
            session.busy_ns for probe in probes for session in probe.sessions
        ),
        merge_s=(ended - complete) / 1e9,
    )
