"""Differential tests: cluster output is byte-identical to single-node.

The determinism contract of :mod:`repro.net.cluster`: for any worker
count — and across live worker join/leave rebalances mid-stream — the
router + workers + egress merge produce *exactly* the tuples, in
exactly the order, of (a) the in-memory batch run and (b) a
single-gateway loopback run of the same scenario.

Same discipline as ``test_net_gateway.py``: real sockets on loopback
ephemeral ports, no wall-clock sleeps, ``asyncio.wait_for`` guards as
hang insurance only.
"""

import asyncio
import contextlib

import pytest

from repro.net import protocol
from repro.net.cluster import merge_epochs, serve_cluster
from repro.net.feeder import ReplayFeeder
from repro.net.gateway import IngestGateway
from repro.net.router import ClusterRouter
from repro.net.service import build_bundle
from repro.net.worker import ClusterWorker
from repro.receptors.network import DelayModel
from repro.streams.telemetry import InMemoryCollector

from tests.test_net_gateway import MALFORMED, RawFeeder

WAIT = 30.0  # hang guard for awaits; never approached on a healthy run

#: (scenario, duration override) — durations sized so each case feeds
#: hundreds of frames (shelf) / the full default recording (redwood)
#: yet completes in seconds.
CASES = [("shelf", 12.0), ("redwood", None)]

SEED = 3


def in_memory_output(name, duration):
    bundle = build_bundle(name, duration, SEED)
    run = bundle.processor.run(
        bundle.until, bundle.tick, sources=bundle.streams
    )
    return run.output


async def gateway_loopback_output(name, duration, slack=0.0):
    """The existing single-gateway serve/feed path, for the 3-way check."""
    bundle = build_bundle(name, duration, SEED)
    session = bundle.processor.open_session(
        until=bundle.until, tick=bundle.tick
    )
    gateway = IngestGateway(session, slack=slack)
    host, port = await gateway.start()
    feeder = ReplayFeeder(host, port, bundle.streams)
    await asyncio.wait_for(feeder.run(), WAIT)
    await asyncio.wait_for(gateway.run_until_drained(), WAIT)
    run = await gateway.close()
    return run.output


async def cluster_run(
    name,
    n_workers,
    duration,
    *,
    slack=0.0,
    events=(),
    delay_model=None,
    telemetry=None,
    instrument_workers=False,
    feeder_reports=None,
):
    """Drive a full in-process cluster; returns (output, router).

    ``events`` is a list of ``(fraction, action, label)`` rebalance
    triggers: once ``fraction`` of the recording's frames have been
    forwarded, ``join``/``leave`` the labelled worker. The feeder's
    delivery report is appended to ``feeder_reports`` when given.
    """
    bundle = build_bundle(name, duration, SEED)
    total_frames = sum(len(items) for items in bundle.streams.values())
    workers = {}

    async def spawn(label):
        worker = ClusterWorker(
            build_bundle(name, duration, SEED),
            slack=slack,
            telemetry=InMemoryCollector() if instrument_workers else None,
        )
        host, port = await worker.start()
        workers[label] = worker
        return label, host, port

    specs = [await spawn(f"w{i}") for i in range(n_workers)]
    router = ClusterRouter(
        build_bundle(name, duration, SEED), slack=slack, telemetry=telemetry
    )
    host, port = await router.start()
    await router.connect_workers(specs)
    feeder = ReplayFeeder(
        host, port, bundle.streams, delay_model=delay_model
    )
    feed_task = asyncio.ensure_future(feeder.run())
    try:
        for fraction, action, label in events:
            threshold = max(1, int(fraction * total_frames))
            await asyncio.wait_for(
                router.wait_for_data_frames(threshold), WAIT
            )
            if action == "join":
                spec = await spawn(label)
                await asyncio.wait_for(router.add_worker(*spec), WAIT)
            else:
                await asyncio.wait_for(router.remove_worker(label), WAIT)
        report = await asyncio.wait_for(feed_task, WAIT)
        if feeder_reports is not None:
            feeder_reports.append(report)
        await asyncio.wait_for(router.run_until_complete(), WAIT)
        output = router.result()
    finally:
        feed_task.cancel()
        await router.close()
        for worker in workers.values():
            await worker.close()
    return output, router


class TestClusterEquivalence:
    """1/2/4 workers × shelf/redwood, all byte-identical to single-node."""

    @pytest.mark.parametrize("name,duration", CASES)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matches_in_memory_and_single_gateway(
        self, name, duration, n_workers
    ):
        reference = in_memory_output(name, duration)
        assert reference  # non-vacuous

        async def scenario():
            single = await gateway_loopback_output(name, duration)
            clustered, router = await cluster_run(name, n_workers, duration)
            return single, clustered, router

        single, clustered, router = asyncio.run(scenario())
        assert single == reference
        assert clustered == reference
        stats = router.stats()
        assert stats["epoch"] == 0  # no rebalance: one epoch end to end
        assert len(router.epochs()) == 1

    def test_shelf_with_network_delays_and_slack(self):
        # Reordered arrivals: slack at the delay cap keeps the cluster
        # byte-identical, the same contract as a single gateway.
        reference = in_memory_output("shelf", 12.0)

        async def scenario():
            return await cluster_run(
                "shelf",
                2,
                12.0,
                slack=1.5,
                delay_model=DelayModel(0.4, 1.5, rng=7),
            )

        clustered, router = asyncio.run(scenario())
        assert clustered == reference


class TestCreditFlow:
    """Feeder credits ride bursts: conserved per source, few frames."""

    def test_credits_conserved_per_source_and_batched(self):
        reports = []
        clustered, router = asyncio.run(
            cluster_run("shelf", 2, 12.0, feeder_reports=reports)
        )
        assert clustered == in_memory_output("shelf", 12.0)
        (report,) = reports
        sent = sum(report["sent"].values())
        assert sent == router.stats()["data_frames"] > 500
        # One credit per data frame accepted, source by source ...
        assert report["credits_received"] == report["sent"]
        # ... granted a burst at a time, not a frame at a time.
        assert report["credit_frames"] * 4 < sent


class TestRebalance:
    """Live membership changes mid-stream lose and duplicate nothing."""

    @pytest.mark.parametrize("name,duration", CASES)
    def test_worker_join_mid_stream(self, name, duration):
        reference = in_memory_output(name, duration)

        async def scenario():
            return await cluster_run(
                name, 2, duration, events=[(0.3, "join", "w2")]
            )

        clustered, router = asyncio.run(scenario())
        assert clustered == reference
        epochs = router.epochs()
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert epochs[1]["workers"] == ["w0", "w1", "w2"]
        # The spans tile the tick axis: no tick lost, none duplicated.
        assert epochs[0]["start_tick"] == 0
        assert epochs[0]["end_tick"] == epochs[1]["start_tick"]

    @pytest.mark.parametrize("name,duration", CASES)
    def test_worker_join_then_leave(self, name, duration):
        reference = in_memory_output(name, duration)

        async def scenario():
            return await cluster_run(
                name,
                2,
                duration,
                events=[(0.2, "join", "w2"), (0.6, "leave", "w0")],
            )

        clustered, router = asyncio.run(scenario())
        assert clustered == reference
        epochs = router.epochs()
        assert [e["epoch"] for e in epochs] == [0, 1, 2]
        assert epochs[2]["workers"] == ["w1", "w2"]
        boundaries = [(e["start_tick"], e["end_tick"]) for e in epochs]
        for (_, end), (start, _) in zip(boundaries, boundaries[1:]):
            assert end == start

    def test_rebalance_under_network_delays(self):
        reference = in_memory_output("shelf", 12.0)

        async def scenario():
            return await cluster_run(
                "shelf",
                2,
                12.0,
                slack=1.5,
                delay_model=DelayModel(0.4, 1.5, rng=7),
                events=[(0.4, "join", "w2")],
            )

        clustered, _router = asyncio.run(scenario())
        assert clustered == reference


@contextlib.asynccontextmanager
async def one_worker_cluster(name, duration, telemetry=None):
    """A router over one worker, for hand-driven feeder connections;
    yields ``(router, host, port)``."""
    worker = ClusterWorker(build_bundle(name, duration, SEED), slack=0.0)
    router = ClusterRouter(
        build_bundle(name, duration, SEED), slack=0.0, telemetry=telemetry
    )
    try:
        spec = ("w0", *await worker.start())
        host, port = await router.start()
        await router.connect_workers([spec])
        yield router, host, port
    finally:
        await router.close()
        await worker.close()


class TestRouterFrontDoor:
    """The router reads a data frame exactly as the gateway behind it
    does: same defaults, same refusals."""

    def test_arrival_less_frames_are_stamped_with_their_timestamp(self):
        """A v1-style frame has no ``arrival``; the gateway takes the
        record's timestamp, and so must the router (it once read a
        ``ts`` column no record has, and retained every frame at 0.0).
        Router + 1 worker ≡ bare gateway on the same frames."""
        bundle = build_bundle("shelf", 6.0, SEED)

        async def through_gateway():
            session = bundle.processor.open_session(
                until=bundle.until, tick=bundle.tick
            )
            gateway = IngestGateway(session, slack=0.0)
            host, port = await gateway.start()
            feeder = await RawFeeder.open(host, port, bundle.streams)
            await feeder.replay(bundle.streams, strip=["arrival"])
            await asyncio.wait_for(gateway.run_until_drained(), WAIT)
            return (await gateway.close()).output

        async def through_router():
            async with one_worker_cluster("shelf", 6.0) as (router, host, port):
                feeder = await RawFeeder.open(host, port, bundle.streams)
                await feeder.replay(bundle.streams, strip=["arrival"])
                await asyncio.wait_for(router.run_until_complete(), WAIT)
                retained = [
                    (frame.arrival, item.timestamp)
                    for name, items in bundle.streams.items()
                    for frame, item in zip(router.core.history[name], items)
                ]
                return router.result(), retained

        single = asyncio.run(through_gateway())
        clustered, retained = asyncio.run(through_router())
        assert single == clustered == in_memory_output("shelf", 6.0)
        assert len(retained) > 300 and retained[-1][1] > 5.0
        assert all(arrival == stamp for arrival, stamp in retained)

    @pytest.mark.parametrize(
        "overrides,named", MALFORMED.values(), ids=MALFORMED
    )
    def test_malformed_numbers_are_refused_at_the_router(
        self, overrides, named
    ):
        """The feeder that sent the frame is told why; nothing of it is
        retained or forwarded, the neighbour connection carries on, and
        the refused source finishes on a fresh connection."""
        bundle = build_bundle("shelf", 3.0, SEED)
        streams = bundle.streams
        first = streams["reader1"][0]

        async def scenario():
            async with one_worker_cluster("shelf", 3.0) as (router, host, port):
                good = await RawFeeder.open(host, port, ["reader0"])
                for seq, item in enumerate(streams["reader0"][:5]):
                    await good.send(protocol.data_frame(
                        "reader0", seq, item.timestamp, item
                    ))
                bad = await RawFeeder.open(host, port, ["reader1"])
                frame = protocol.data_frame(
                    "reader1", 0, first.timestamp, first
                )
                reason = await bad.send_refused({**frame, **overrides})
                stats = router.stats()
                assert stats["data_frames"] == stats["retained_frames"] == 5
                assert stats["sources"]["reader1"]["offered"] == 0
                for seq, item in enumerate(streams["reader0"][5:], start=5):
                    await good.send(protocol.data_frame(
                        "reader0", seq, item.timestamp, item
                    ))
                await good.bye("reader0")
                again = await RawFeeder.open(host, port, ["reader1"])
                await again.replay({"reader1": streams["reader1"]})
                await asyncio.wait_for(router.run_until_complete(), WAIT)
                good.writer.close()
                return reason, router.result()

        reason, clustered = asyncio.run(scenario())
        assert named in reason
        assert clustered == in_memory_output("shelf", 3.0)


class TestClusterSmoke:
    """The CI loopback smoke: 3 workers, telemetry rollup, ops surface."""

    def test_three_worker_smoke_with_rollup(self):
        reference = in_memory_output("shelf", 8.0)
        collector = InMemoryCollector()

        async def scenario():
            return await cluster_run(
                "shelf", 3, 8.0, telemetry=collector,
                instrument_workers=True,
            )

        clustered, router = asyncio.run(scenario())
        assert clustered == reference
        # Worker telemetry was absorbed into the cluster rollup under
        # node labels; stage counters merge unprefixed.
        snapshot = collector.snapshot()
        labelled = [
            key for key in snapshot["counters"] if key.startswith("w")
        ]
        assert any(key.startswith("w0.") for key in labelled)
        stats = router.stats()
        assert stats["data_frames"] == sum(
            entry["offered"] for entry in stats["sources"].values()
        )
        readiness = router.readiness()
        assert isinstance(readiness["ready"], bool)

    def test_rollup_is_keyed_by_the_single_node_run_s_node_names(self):
        """Workers run the pipeline as built, so the cluster-wide
        operator rollup (worker snapshots merge unprefixed) has exactly
        the in-memory run's nodes, beside the gateways' own entries."""
        bundle = build_bundle("shelf", 8.0, SEED)
        single = bundle.processor.run(
            bundle.until, bundle.tick, sources=bundle.streams,
            telemetry=InMemoryCollector(),
        )
        collector = InMemoryCollector()

        async def scenario():
            return await cluster_run(
                "shelf", 2, 8.0, telemetry=collector,
                instrument_workers=True,
            )

        clustered, _router = asyncio.run(scenario())
        assert clustered == single.output
        rollup = collector.snapshot()["operators"]
        nodes = {key for key in rollup if not key.startswith("gateway:")}
        assert nodes == set(single.telemetry["operators"])
        for name, entry in single.telemetry["operators"].items():
            assert rollup[name]["tuples_out"] == entry["tuples_out"], name

    def test_serve_cluster_summary(self):
        # The service-level wrapper (what `repro cluster` runs).
        async def scenario():
            workers = []
            specs = []
            for index in range(2):
                worker = ClusterWorker("shelf", duration=8.0, seed=SEED)
                host, port = await worker.start()
                workers.append(worker)
                specs.append((f"w{index}", host, port))
            bundle = build_bundle("shelf", 8.0, SEED)

            async def feed(host, port):
                feeder = ReplayFeeder(host, port, bundle.streams)
                await feeder.run()

            feed_tasks = []

            def ready(host, port):
                feed_tasks.append(asyncio.ensure_future(feed(host, port)))

            summary = await asyncio.wait_for(
                serve_cluster(
                    "shelf",
                    specs,
                    duration=8.0,
                    seed=SEED,
                    slack=0.0,
                    ready=ready,
                ),
                WAIT,
            )
            for task in feed_tasks:
                await task
            for worker in workers:
                await worker.close()
            return summary

        summary = asyncio.run(scenario())
        assert summary["scenario"] == "shelf"
        assert summary["workers"] == ["w0", "w1"]
        assert summary["output_tuples"] == len(
            in_memory_output("shelf", 8.0)
        )
        assert summary["epochs"][0]["workers"] == ["w0", "w1"]


class TestMergeEpochs:
    """Unit coverage for the epoch-sliced egress merge."""

    def test_spans_mask_ticks_outside_their_epoch(self):
        from repro.streams.tuples import StreamTuple

        def tup(ts, key):
            return StreamTuple(ts, {"tag_id": key}, stream="s")

        epochs = [
            {
                "start": 0,
                "end": 1,
                "results": {
                    "w0": {"per_tick": {0: [tup(0.0, "a")], 1: [tup(1.0, "stale")]}},
                },
            },
            {
                "start": 1,
                "end": 2,
                "results": {
                    "w0": {"per_tick": {0: [tup(0.0, "dup")], 1: [tup(1.0, "b")]}},
                    "w1": {"per_tick": {1: [tup(1.0, "a")]}},
                },
            },
        ]
        merged = merge_epochs(epochs, 2, "tag_id")
        assert [t.get("tag_id") for t in merged] == ["a", "a", "b"]

    def test_cross_worker_tick_ordering_is_key_sorted(self):
        from repro.streams.tuples import StreamTuple

        def tup(key):
            return StreamTuple(0.0, {"tag_id": key}, stream="s")

        epochs = [
            {
                "start": 0,
                "end": 1,
                "results": {
                    "w1": {"per_tick": {0: [tup("c"), tup("a")]}},
                    "w0": {"per_tick": {0: [tup("b")]}},
                },
            }
        ]
        merged = merge_epochs(epochs, 1, "tag_id")
        assert [t.get("tag_id") for t in merged] == ["a", "b", "c"]
