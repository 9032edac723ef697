"""Differential fault injection: crash-then-recover ≡ never-crashed.

The recovery layer's contract, pinned the same way the rebalance suite
pins membership changes: for every scripted fault — worker kill
mid-epoch, kill during a planned rebalance, connection reset, truncated
frames, a slow worker — the cluster's merged egress is byte-identical
to the in-memory single-node run, and recovery ships bounded checkpoint
state plus only the post-checkpoint frame tail rather than replaying
full history.

Same discipline as the rest of the net suite: real loopback sockets,
no wall-clock sleeps (fake clocks drive liveness deadlines),
``asyncio.wait_for`` as hang insurance only.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetError
from repro.net import protocol
from repro.net.faults import ChaosProxy, FaultEvent, chaos_run
from repro.net.feeder import ReplayFeeder
from repro.net.feeder_core import low_marks
from repro.net.ops import format_top
from repro.net.protocol import read_frame, write_frame
from repro.net.router import ClusterRouter
from repro.net.service import build_bundle
from repro.net.worker import ClusterWorker

from tests.test_net_feeder import rows_of

WAIT = 30.0
SEED = 3


def in_memory_output(name, duration):
    bundle = build_bundle(name, duration, SEED)
    run = bundle.processor.run(
        bundle.until, bundle.tick, sources=bundle.streams
    )
    return run.output


class TestChaosDifferential:
    """chaos_run schedules: every fault recovers byte-identically."""

    def run(self, **kwargs):
        async def scenario():
            return await asyncio.wait_for(
                chaos_run("shelf", duration=8.0, seed=SEED, **kwargs),
                WAIT * 2,
            )

        return asyncio.run(scenario())

    def test_control_run_uses_no_recovery(self):
        report = self.run(fault="none", checkpoint_interval=20)
        assert report["identical"]
        recovery = report["recovery"]
        assert recovery["checkpoints_acked"] > 0
        assert recovery["resumes"] == 0
        assert recovery["failovers"] == 0
        assert recovery["replayed_frames"] == 0

    def test_worker_kill_mid_epoch_resumes_from_checkpoint(self):
        report = self.run(fault="kill", checkpoint_interval=20)
        assert report["identical"]
        recovery = report["recovery"]
        # The supervisor respawned the process and the router resumed
        # it from the last acked checkpoint...
        assert recovery["restarts"] >= 1
        assert recovery["resumes"] >= 1
        assert recovery["checkpoints_acked"] >= 1
        assert recovery["failovers"] == 0
        # ...replaying only the post-checkpoint tail, not full history.
        assert 0 < recovery["replayed_frames"] < report["trigger_frame"]

    def test_connection_reset_resumes_surviving_process(self):
        report = self.run(fault="reset", checkpoint_interval=20)
        assert report["identical"]
        assert report["injected"][0]["kind"] == "reset"
        recovery = report["recovery"]
        # The process outlived its connection: resume, no respawn.
        assert recovery["resumes"] >= 1
        assert recovery["restarts"] == 0
        assert 0 < recovery["replayed_frames"] < report["trigger_frame"]

    def test_truncated_frame_triggers_typed_recovery(self):
        report = self.run(fault="truncate", checkpoint_interval=20)
        assert report["identical"]
        assert report["injected"][0]["kind"] == "truncate"
        assert report["recovery"]["resumes"] >= 1

    def test_slow_worker_degrades_without_recovery(self):
        report = self.run(fault="slow", checkpoint_interval=20)
        assert report["identical"]
        assert report["injected"][0]["kind"] == "slow"
        recovery = report["recovery"]
        assert recovery["resumes"] == 0
        assert recovery["failovers"] == 0
        assert recovery["replayed_frames"] == 0

    def test_source_sharded_scenario_survives_a_kill(self):
        # redwood shards whole sources (spatial granules) per worker.
        async def scenario():
            return await asyncio.wait_for(
                chaos_run(
                    "redwood", seed=SEED, fault="kill",
                    checkpoint_interval=20,
                ),
                WAIT * 2,
            )

        report = asyncio.run(scenario())
        assert report["identical"]
        recovery = report["recovery"]
        # The recording is short, so the kill can land mid-stream (a
        # supervised resume) or during the final drain (a failover
        # re-run) — either way the respawn happened and output matched.
        assert recovery["resumes"] + recovery["failovers"] >= 1
        assert recovery["restarts"] >= 1


class TestFailover:
    """No supervisor, or no checkpoints: the span fails over instead."""

    async def _cluster(self, *, n_workers, checkpoint_interval, kill_at):
        bundle = build_bundle("shelf", 8.0, SEED)
        total = sum(len(items) for items in bundle.streams.values())
        workers = []

        async def spawn(label):
            worker = ClusterWorker(build_bundle("shelf", 8.0, SEED))
            workers.append(worker)
            return await worker.start()

        router = ClusterRouter(
            build_bundle("shelf", 8.0, SEED),
            checkpoint_interval=checkpoint_interval,
        )
        specs = []
        for index in range(n_workers):
            host, port = await spawn(f"w{index}")
            specs.append((f"w{index}", host, port))
        host, port = await router.start()
        await router.connect_workers(specs)
        feeder = ReplayFeeder(host, port, bundle.streams)
        feed_task = asyncio.ensure_future(feeder.run())
        try:
            await asyncio.wait_for(
                router.wait_for_data_frames(max(1, int(kill_at * total))),
                WAIT,
            )
            yield router, workers, spawn
            await asyncio.wait_for(feed_task, WAIT)
            await asyncio.wait_for(router.run_until_complete(), WAIT)
        finally:
            if not feed_task.done():
                feed_task.cancel()
                try:
                    await feed_task
                except (asyncio.CancelledError, Exception):
                    pass
            await router.close()
            for worker in workers:
                await worker.close()

    def test_kill_without_supervisor_fails_over_to_survivors(self):
        reference = in_memory_output("shelf", 8.0)

        async def scenario():
            harness = self._cluster(
                n_workers=2, checkpoint_interval=16, kill_at=0.4
            )
            async for router, workers, _spawn in harness:
                await workers[0].close()  # kill w0; no supervisor
                await asyncio.wait_for(
                    router.wait_for_recovery("failovers"), WAIT
                )
            return router

        router = asyncio.run(scenario())
        assert router.result() == reference
        recovery = router.recovery
        assert recovery["failovers"] >= 1
        assert recovery["resumes"] == 0
        # The dead worker had acked checkpoints, so the closed epoch
        # still kept every tick its snapshot covered.
        epochs = router.epochs()
        assert len(epochs) >= 2
        assert epochs[1]["workers"] == ["w1"]

    def test_kill_without_checkpoints_reruns_the_whole_epoch(self):
        reference = in_memory_output("shelf", 8.0)

        async def scenario():
            harness = self._cluster(
                n_workers=2, checkpoint_interval=None, kill_at=0.4
            )
            async for router, workers, _spawn in harness:
                await workers[0].close()
                await asyncio.wait_for(
                    router.wait_for_recovery("failovers"), WAIT
                )
            return router

        router = asyncio.run(scenario())
        assert router.result() == reference
        epochs = router.epochs()
        # No checkpoint existed: nothing from epoch 0 was trustworthy,
        # so its span is empty and the survivors re-ran from tick 0.
        assert epochs[0]["end_tick"] == epochs[0]["start_tick"] == 0

    def test_kill_during_planned_rebalance(self):
        reference = in_memory_output("shelf", 8.0)

        async def scenario():
            harness = self._cluster(
                n_workers=2, checkpoint_interval=16, kill_at=0.3
            )
            async for router, workers, spawn in harness:
                # Kill w0 and immediately request a join: the recovery
                # task and the planned rebalance serialize on the same
                # lock, in whichever order they got there.
                await workers[0].close()
                host, port = await spawn("w2")
                await asyncio.wait_for(
                    router.add_worker("w2", host, port), WAIT
                )
            return router

        router = asyncio.run(scenario())
        assert router.result() == reference
        assert router.epochs()[-1]["workers"][-1] == "w2"

    def test_every_worker_lost_raises_cleanly(self):
        # Sole worker dies, no supervisor: recovery cannot succeed. The
        # failure must surface as a typed error on run_until_complete
        # with the gate left closed — never a hang, never silent loss.
        async def scenario():
            bundle = build_bundle("shelf", 8.0, SEED)
            worker = ClusterWorker(build_bundle("shelf", 8.0, SEED))
            w_host, w_port = await worker.start()
            router = ClusterRouter(
                build_bundle("shelf", 8.0, SEED), checkpoint_interval=16
            )
            host, port = await router.start()
            await router.connect_workers([("w0", w_host, w_port)])
            feeder = ReplayFeeder(host, port, bundle.streams)
            feed_task = asyncio.ensure_future(feeder.run())
            try:
                await asyncio.wait_for(router.wait_for_data_frames(20), WAIT)
                await worker.close()
                with pytest.raises(NetError, match="lost"):
                    await asyncio.wait_for(router.run_until_complete(), WAIT)
            finally:
                feed_task.cancel()
                try:
                    await feed_task
                except (asyncio.CancelledError, Exception):
                    pass
                await router.close()
                await worker.close()

        asyncio.run(asyncio.wait_for(scenario(), WAIT * 2))


class TestRepeatedResume:
    """A link resumed from a checkpoint must itself checkpoint exactly."""

    def test_double_reset_on_one_worker_stays_byte_identical(self):
        # ``link.positions`` counts every data frame written on a link,
        # replayed or live. If the resume-time tail replay skips that
        # count, every checkpoint the resumed link takes records a cut
        # that is too early, and the *second* resume redelivers frames
        # the restored state already holds: same tuple count, silently
        # different output, no error anywhere.
        reference = in_memory_output("shelf", 12.0)

        async def scenario():
            bundle = build_bundle("shelf", 12.0, SEED)
            workers = [
                ClusterWorker(build_bundle("shelf", 12.0, SEED))
                for _ in range(2)
            ]
            router = ClusterRouter(
                build_bundle("shelf", 12.0, SEED), checkpoint_interval=20
            )
            proxy = None
            try:
                host, port = await workers[0].start()
                # c2s positions, counted in readings (a block counts
                # its rows): connection 0 opens with worker_hello +
                # route, connection 1 (the first resume) adds a resume
                # frame and the replayed tail before live rows flow.
                proxy = ChaosProxy(host, port, [
                    FaultEvent("reset", connection=0, at_frame=200),
                    FaultEvent("reset", connection=1, at_frame=250),
                ])
                specs = [("w0", *await proxy.start())]
                specs.append(("w1", *await workers[1].start()))
                host, port = await router.start()
                await router.connect_workers(specs)
                feeder = ReplayFeeder(host, port, bundle.streams)
                feed_task = asyncio.ensure_future(feeder.run())
                await asyncio.wait_for(
                    router.wait_for_recovery("resumes", 1), WAIT
                )
                acked_at_first = router.recovery["checkpoints_acked"]
                await asyncio.wait_for(
                    router.wait_for_recovery("resumes", 2), WAIT
                )
                acked_at_second = router.recovery["checkpoints_acked"]
                await asyncio.wait_for(feed_task, WAIT)
                await asyncio.wait_for(router.run_until_complete(), WAIT)
                return router, proxy, acked_at_first, acked_at_second
            finally:
                await router.close()
                if proxy is not None:
                    await proxy.close()
                for worker in workers:
                    await worker.close()

        router, proxy, acked_at_first, acked_at_second = asyncio.run(
            asyncio.wait_for(scenario(), WAIT * 3)
        )
        assert [fault["connection"] for fault in proxy.injected] == [0, 1]
        # The second resume restored a checkpoint the *resumed* link took.
        assert acked_at_second > acked_at_first
        assert router.recovery["resumes"] == 2
        assert router.recovery["failovers"] == 0
        assert router.result() == reference


class TestCheckpointCutInsideABlock:
    """Checkpoints are scheduled in readings, blocks are framing: a cut
    may fall between two rows of one inbound block, and a resume from
    it is exact."""

    def test_cut_between_two_rows_of_one_inbound_block_resumes_exactly(self):
        from tests.test_net_gateway import RawFeeder

        reference = in_memory_output("shelf", 6.0)
        bundle = build_bundle("shelf", 6.0, SEED)
        planner = ReplayFeeder("unused", 0, bundle.streams)
        schedule = planner.core.plan()
        entries = [
            (source, seq, arrival, low, item, None)
            for (arrival, source, seq, item), low in zip(
                schedule, low_marks(schedule)
            )
        ]
        head, tail = entries[:50], entries[50:]

        async def scenario():
            worker = ClusterWorker(build_bundle("shelf", 6.0, SEED))
            router = ClusterRouter(
                build_bundle("shelf", 6.0, SEED), checkpoint_interval=20
            )
            proxy = None
            try:
                # Connection 0, router → worker, positions in readings:
                # 2 handshake frames, the head's 50 rows and the 2
                # checkpoint frames among them, then the tail — whose
                # first block the reset takes out.
                proxy = ChaosProxy(
                    *await worker.start(),
                    [FaultEvent("reset", at_frame=2 + 50 + 2 + 5)],
                )
                router_host, router_port = await router.start()
                await router.connect_workers([("w0", *await proxy.start())])
                feeder = await RawFeeder.open(
                    router_host, router_port, sorted(bundle.streams)
                )
                # One inbound block of 50 rows: checkpoints fall due
                # after its 20th and its 40th.
                await feeder.send_rows(head)
                await asyncio.wait_for(
                    router.wait_for_recovery("checkpoints_acked", 2), WAIT
                )
                cut = dict(router.core.store.latest("w0").positions)
                for offset in range(0, len(tail), 64):
                    await feeder.send_rows(tail[offset:offset + 64])
                for name in sorted(bundle.streams):
                    await feeder.bye(name)
                await asyncio.wait_for(router.run_until_complete(), WAIT)
                feeder.writer.close()
                return router, proxy, cut
            finally:
                await router.close()
                if proxy is not None:
                    await proxy.close()
                await worker.close()

        router, proxy, cut = asyncio.run(
            asyncio.wait_for(scenario(), WAIT * 2)
        )
        assert sum(cut.values()) == 40  # rows 41–50 lie past the cut
        assert [fault["kind"] for fault in proxy.injected] == ["reset"]
        assert router.recovery["resumes"] == 1
        assert router.recovery["failovers"] == 0
        # Resumed from that cut or a later one: the tail replayed is
        # short of the history, which a fresh session would need whole.
        assert 0 < router.recovery["replayed_frames"] < len(entries) - 40
        assert router.result() == reference


class ScriptedWorker:
    """Speaks just enough worker dialect to script credit behaviour.

    Connection 0 grants ``initial_credits`` per source and then goes
    silent (a stalled worker: the router ends up holding forwarded
    frames whose feeder credits it cannot return). Later connections
    grant liberally and ack everything, so recovery can route around
    the stall.
    """

    def __init__(self, *, initial_credits=64, stall_first_connection=False):
        self.initial_credits = initial_credits
        self.stall_first_connection = stall_first_connection
        self.connections = 0
        self.data_frames = 0
        self._server = None
        self._tasks = set()
        self.poke = asyncio.Event()  # send one out-of-band credit frame

    async def start(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[:2]

    async def close(self):
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

    async def _serve(self, reader, writer):
        task = asyncio.current_task()
        self._tasks.add(task)
        connection = self.connections
        self.connections += 1
        stalled = self.stall_first_connection and connection == 0
        try:
            hello = await read_frame(reader)
            label = hello.get("worker", "w?")
            route = await read_frame(reader)
            if route.get("resume"):
                await read_frame(reader)
            sources = route.get("sources") or []
            epoch = int(route.get("epoch", 0))
            await write_frame(
                writer,
                protocol.hello_ack(
                    {name: self.initial_credits for name in sources}, 2
                ),
            )
            poker = asyncio.ensure_future(self._poker(writer, sources))
            try:
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        return
                    kind = frame.get("type")
                    for source, *_rest in rows_of(frame):
                        self.data_frames += 1  # readings, as the router's
                        if not stalled:
                            await write_frame(
                                writer, protocol.credit_frame(source, 1)
                            )
                    if kind == "bye":
                        await write_frame(
                            writer, protocol.bye_ack(frame["source"])
                        )
                    elif kind == "drain":
                        await write_frame(
                            writer,
                            protocol.result_end(epoch, label, 0, {}),
                        )
                        return
                    # heartbeats, checkpoints: ignored (never acked)
            finally:
                poker.cancel()
                try:
                    await poker
                except (asyncio.CancelledError, Exception):
                    pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # close() tearing the scripted worker down
        finally:
            self._tasks.discard(task)
            writer.close()

    async def _poker(self, writer, sources):
        await self.poke.wait()
        self.poke.clear()
        await write_frame(writer, protocol.credit_frame(sources[0], 0))


class TestCreditDebtOnLeave:
    """Worker leave under in-flight credit debt: no deadlock, no
    double-grant.

    A stalled worker stops granting credits, so the router is stuck
    holding forwarded-but-uncredited feeder frames when the leave
    freezes the gate. The deadline sweep (fake clock — the test never
    sleeps) declares the staller dead, which aborts the blocked
    forwards, lets the handoff drain, and re-runs everything on the
    survivor. Every data frame must come back with exactly one feeder
    credit — debt neither leaks (deadlock) nor double-pays.
    """

    @given(initial_credits=st.integers(min_value=0, max_value=3))
    @settings(max_examples=5, deadline=None)
    def test_leave_with_stalled_worker(self, initial_credits):
        clock_box = {"now": 0.0}

        async def scenario():
            bundle = build_bundle("shelf", 6.0, SEED)
            staller = ScriptedWorker(
                initial_credits=initial_credits,
                stall_first_connection=True,
            )
            leaver = ScriptedWorker()
            survivor = ScriptedWorker()
            router = ClusterRouter(
                build_bundle("shelf", 6.0, SEED),
                clock=lambda: clock_box["now"],
                suspect_after=1.0,
                dead_after=3.0,
            )
            specs = []
            for label, worker in (
                ("w0", staller), ("w1", leaver), ("w2", survivor)
            ):
                host, port = await worker.start()
                specs.append((label, host, port))
            host, port = await router.start()
            await router.connect_workers(specs)
            feeder = ReplayFeeder(host, port, bundle.streams)
            feed_task = asyncio.ensure_future(feeder.run())
            try:
                # Run until forwarding quiesces: the staller's credits
                # are exhausted, so a forward is blocked on it and the
                # router holds that frame's feeder credit as debt.
                await asyncio.wait_for(
                    router.wait_for_data_frames(1), WAIT
                )
                previous = -1
                while router.data_frames != previous:
                    previous = router.data_frames
                    await asyncio.sleep(0.05)
                assert not feed_task.done()
                leave = asyncio.ensure_future(router.remove_worker("w1"))
                await asyncio.sleep(0)  # let the leave freeze the gate
                # Advance the fake clock past the deadline; keep the
                # survivor visibly alive with one out-of-band frame.
                clock_box["now"] = 10.0
                survivor.poke.set()
                while router.readiness()["workers"].get("w2") != "alive":
                    await asyncio.sleep(0.001)
                died = router.check_workers()
                assert "w0" in died
                await asyncio.wait_for(leave, WAIT)
                report = await asyncio.wait_for(feed_task, WAIT)
                return report, router, set(router.stats()["workers"])
            finally:
                if not feed_task.done():
                    feed_task.cancel()
                    try:
                        await feed_task
                    except (asyncio.CancelledError, Exception):
                        pass
                await router.close()
                for worker in (staller, leaver, survivor):
                    await worker.close()

        report, router, members = asyncio.run(
            asyncio.wait_for(scenario(), WAIT * 2)
        )
        # No deadlock (we got here) and no double-grant: exactly one
        # credit came back per data frame sent, dead-worker debt
        # included (however many frames carried them).
        assert report["credits_received"] == report["sent"]
        assert router.recovery["forwards_skipped_dead"] >= 1
        assert members == {"w2"}


class TestCreditDebtWhileBlocked:
    """The flush rule at the router: blocked on a worker that grants
    nothing more, it holds no forwarded frame back from the worker and
    owes the feeder exactly the one frame it is blocked on."""

    def test_blocked_router_owes_one_credit(self):
        async def scenario():
            bundle = build_bundle("shelf", 6.0, SEED)
            staller = ScriptedWorker(
                initial_credits=3, stall_first_connection=True
            )
            router = ClusterRouter(build_bundle("shelf", 6.0, SEED))
            worker_host, worker_port = await staller.start()
            host, port = await router.start()
            await router.connect_workers([("w0", worker_host, worker_port)])
            feeder = ReplayFeeder(host, port, bundle.streams)
            feed_task = asyncio.ensure_future(feeder.run())
            try:
                await asyncio.wait_for(router.wait_for_data_frames(3), WAIT)

                def settled():
                    return (
                        sum(feeder.credits_received.values())
                        == router.data_frames
                        == staller.data_frames
                    )

                previous = -1
                while router.data_frames != previous or not settled():
                    previous = router.data_frames
                    await asyncio.sleep(0.05)
                assert not feed_task.done()
                return (
                    router.data_frames,
                    router.stats()["retained_frames"],
                    dict(feeder.credits_received),
                )
            finally:
                feed_task.cancel()
                try:
                    await feed_task
                except (asyncio.CancelledError, Exception):
                    pass
                await router.close()
                await staller.close()

        forwarded, retained, credits = asyncio.run(
            asyncio.wait_for(scenario(), WAIT)
        )
        # Every forwarded frame reached the worker and earned its
        # credit before the router blocked; the frame it is blocked on
        # is retained, unforwarded and uncredited.
        assert 3 <= forwarded <= 6  # 3 credits on each of 2 sources
        assert max(credits.values()) == 3
        assert retained - sum(credits.values()) == 1


class TestCreditIgnoringFeeder:
    """A feeder that writes far past its credit window while the worker
    grants nothing meets TCP backpressure: the router reads no further
    than the burst it is serving, so the connection's unserved input
    stays within one burst's frames."""

    def test_the_router_stops_reading(self):
        async def scenario():
            bundle = build_bundle("shelf", 6.0, SEED)
            staller = ScriptedWorker(
                initial_credits=0, stall_first_connection=True
            )
            router = ClusterRouter(build_bundle("shelf", 6.0, SEED))
            worker_host, worker_port = await staller.start()
            host, port = await router.start()
            await router.connect_workers([("w0", worker_host, worker_port)])
            reader, writer = await asyncio.open_connection(host, port)
            try:
                names = sorted(bundle.streams)
                await write_frame(writer, protocol.hello(names))
                assert (await read_frame(reader))["type"] == "hello_ack"
                source = names[0]
                item = bundle.streams[source][0]
                block = protocol.encode_frame(protocol.block_frame([
                    (source, seq, 0.0, None, item, None) for seq in range(4)
                ]))
                copies = (4 << 20) // len(block)  # 4 MiB, no credit asked
                writer.write(block * copies)
                feeder = router.core.feeders[0]
                bound = protocol.BURST_BYTES // len(block) + 1
                depths = []
                for _ in range(30):
                    await asyncio.sleep(0.01)
                    depths.append(len(feeder.inbox))
                return depths, bound, copies, router.data_frames
            finally:
                writer.transport.abort()
                await router.close()
                await staller.close()

        depths, bound, copies, placed = asyncio.run(
            asyncio.wait_for(scenario(), WAIT)
        )
        assert placed == 0  # the first reading waits on a credit
        assert max(depths) <= bound < copies


class TestLivenessOpsPlane:
    """Worker liveness surfaces on /readyz, stats and `repro top`."""

    def test_readyz_and_stats_report_statuses(self):
        async def scenario():
            worker = ClusterWorker(build_bundle("shelf", 6.0, SEED))
            host, port = await worker.start()
            router = ClusterRouter(build_bundle("shelf", 6.0, SEED))
            await router.start()
            await router.connect_workers([("w0", host, port)])
            try:
                readiness = router.readiness()
                assert readiness["workers"] == {"w0": "alive"}
                stats = router.stats()
                assert stats["workers"]["w0"]["status"] == "alive"
                assert stats["checkpoint_interval"] is None
                assert stats["recovery"]["failovers"] == 0
                assert stats["retained_frames"] == 0
            finally:
                await router.close()
                await worker.close()

        asyncio.run(asyncio.wait_for(scenario(), WAIT))

    def test_top_renders_worker_status_column(self):
        document = {
            "readiness": {"ready": True, "reasons": []},
            "telemetry": {},
            "gateway": {
                "epoch": 1,
                "data_frames": 42,
                "shard_key": "tag_id",
                "workers": {
                    "w0": {
                        "address": "127.0.0.1:9000",
                        "sources": 3,
                        "acked": 0,
                        "status": "restarting",
                    },
                    "w1": {
                        "address": "127.0.0.1:9001",
                        "sources": 3,
                        "acked": 0,
                        "status": "alive",
                    },
                },
                "sources": {},
            },
        }
        rendered = format_top(document)
        header = next(
            line for line in rendered.splitlines()
            if line.startswith("worker")
        )
        assert "status" in header
        assert "restarting" in rendered
        assert "alive" in rendered


class TestChaosProxyUnit:
    """The proxy's frame counting and fault primitives, in isolation."""

    def test_transparent_when_schedule_is_empty(self):
        async def scenario():
            async def echo(reader, writer):
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        break
                    await write_frame(writer, frame)
                writer.close()

            server = await asyncio.start_server(echo, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            proxy = ChaosProxy(host, port)
            proxy_host, proxy_port = await proxy.start()
            reader, writer = await asyncio.open_connection(
                proxy_host, proxy_port
            )
            for index in range(3):
                await write_frame(writer, protocol.bye(f"s{index}"))
                frame = await asyncio.wait_for(read_frame(reader), WAIT)
                assert frame == protocol.bye(f"s{index}")
            writer.close()
            await proxy.close()
            server.close()
            await server.wait_closed()
            assert proxy.injected == []
            assert proxy.connections == 1

        asyncio.run(asyncio.wait_for(scenario(), WAIT))

    def test_a_block_advances_the_position_by_its_rows(self):
        """Positions count readings: the fault fires on the frame in
        which the count reaches ``at_frame``, here the block that
        carries readings 2–6, and takes the whole frame."""
        from repro.streams.tuples import StreamTuple

        block = protocol.block_frame([
            ("a", seq, 0.0, None, StreamTuple(0.0, {"v": seq}), None)
            for seq in range(5)
        ])

        async def scenario():
            received = []
            sink_done = asyncio.Event()

            async def sink(reader, writer):
                try:
                    while (frame := await read_frame(reader)) is not None:
                        received.append(frame["type"])
                except NetError:
                    pass  # the reset, seen as a reset rather than EOF
                sink_done.set()
                writer.close()

            server = await asyncio.start_server(sink, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            proxy = ChaosProxy(host, port, [
                FaultEvent("slow", at_frame=4, seconds=0.0),
                FaultEvent("reset", at_frame=8),
            ])
            proxy_host, proxy_port = await proxy.start()
            _reader, writer = await asyncio.open_connection(
                proxy_host, proxy_port
            )
            for frame in (
                protocol.bye("a"), block, protocol.bye("b"),  # 1, 2–6, 7
                block,                                        # 8–12
                protocol.bye("c"),
            ):
                await write_frame(writer, frame)
            await asyncio.wait_for(sink_done.wait(), WAIT)
            writer.close()
            await proxy.close()
            server.close()
            await server.wait_closed()
            return received, proxy.injected

        received, injected = asyncio.run(
            asyncio.wait_for(scenario(), WAIT)
        )
        assert received == ["bye", "block", "bye"]
        assert [(f["kind"], f["frame"]) for f in injected] == [
            ("slow", 6), ("reset", 12)
        ]

    def test_truncate_surfaces_frame_truncated_at_receiver(self):
        from repro.errors import FrameTruncated

        async def scenario():
            sink_done = asyncio.Event()

            async def sink(reader, writer):
                with pytest.raises(FrameTruncated):
                    while True:
                        if await read_frame(reader) is None:
                            break
                sink_done.set()
                writer.close()

            server = await asyncio.start_server(sink, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            proxy = ChaosProxy(
                host, port, [FaultEvent("truncate", at_frame=2)]
            )
            proxy_host, proxy_port = await proxy.start()
            _reader, writer = await asyncio.open_connection(
                proxy_host, proxy_port
            )
            await write_frame(writer, protocol.bye("a"))
            await write_frame(writer, protocol.bye("b"))
            await asyncio.wait_for(sink_done.wait(), WAIT)
            writer.close()
            await proxy.close()
            server.close()
            await server.wait_closed()
            assert proxy.injected[0]["frame"] == 2

        asyncio.run(asyncio.wait_for(scenario(), WAIT))
