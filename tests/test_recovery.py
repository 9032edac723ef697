"""Unit coverage for the fault-tolerance primitives.

:mod:`repro.net.recovery` (detector, supervisor, checkpoint store) plus
the two wire-level robustness satellites: the typed
:class:`~repro.errors.FrameTruncated` surfaced on abrupt disconnects,
and the feeder's jittered reconnect backoff.
"""

import asyncio

import pytest

from repro.errors import FrameTruncated, NetError, ProtocolError
from repro.net import protocol
from repro.net.feeder import ReplayFeeder
from repro.net.protocol import FrameDecoder, encode_frame
from repro.net.recovery import (
    ALIVE,
    DEAD,
    RESTARTING,
    SUSPECT,
    CheckpointStore,
    FailureDetector,
    WorkerCheckpoint,
    WorkerSupervisor,
)
from repro.streams.tuples import StreamTuple

WAIT = 20.0


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestFailureDetector:
    def test_silence_escalates_alive_suspect_dead(self):
        clock = FakeClock()
        detector = FailureDetector(
            suspect_after=1.0, dead_after=3.0, clock=clock
        )
        detector.register("w0")
        assert detector.status("w0") == ALIVE
        clock.now = 2.0
        assert detector.status("w0") == SUSPECT
        clock.now = 4.0
        assert detector.status("w0") == DEAD

    def test_traffic_resets_the_silence_clock(self):
        clock = FakeClock()
        detector = FailureDetector(
            suspect_after=1.0, dead_after=3.0, clock=clock
        )
        detector.register("w0")
        clock.now = 2.5
        detector.seen("w0")
        clock.now = 3.2  # 0.7s since the frame: alive again
        assert detector.status("w0") == ALIVE

    def test_check_declares_each_death_once(self):
        clock = FakeClock()
        detector = FailureDetector(
            suspect_after=1.0, dead_after=2.0, clock=clock
        )
        detector.register("w0")
        detector.register("w1")
        detector.seen("w1")
        clock.now = 5.0
        assert detector.check() == ["w0", "w1"]
        assert detector.check() == []  # forced dead: not re-reported
        assert detector.status("w0") == DEAD

    def test_forced_states_override_deadlines_and_traffic(self):
        clock = FakeClock()
        detector = FailureDetector(suspect_after=1.0, clock=clock)
        detector.register("w0")
        detector.mark_restarting("w0")
        detector.seen("w0")  # a straggler frame must not resurrect it
        assert detector.status("w0") == RESTARTING
        detector.mark_dead("w0")
        assert detector.status("w0") == DEAD
        detector.register("w0")  # recovery re-registers: alive again
        assert detector.status("w0") == ALIVE

    def test_no_deadline_means_silence_never_kills(self):
        clock = FakeClock()
        detector = FailureDetector(suspect_after=1.0, clock=clock)
        detector.register("w0")
        clock.now = 1e6
        assert detector.check() == []
        assert detector.status("w0") == SUSPECT

    def test_unknown_worker_reads_dead(self):
        detector = FailureDetector(clock=FakeClock())
        assert detector.status("ghost") == DEAD

    def test_statuses_snapshot_is_sorted(self):
        clock = FakeClock()
        detector = FailureDetector(suspect_after=1.0, clock=clock)
        for label in ("w2", "w0", "w1"):
            detector.register(label)
        detector.mark_dead("w1")
        statuses = detector.statuses()
        assert list(statuses) == ["w0", "w1", "w2"]
        assert statuses["w1"] == DEAD


class TestWorkerSupervisor:
    def run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, WAIT))

    def make(self, **kwargs):
        slept = []

        async def sleep(seconds):
            slept.append(seconds)

        async def spawn(label):
            return "127.0.0.1", 4000 + len(slept)

        supervisor = WorkerSupervisor(spawn, sleep=sleep, **kwargs)
        return supervisor, slept

    def test_backoff_doubles_and_caps(self):
        supervisor, slept = self.make(
            max_restarts=5, backoff_base=0.1, backoff_cap=0.5, jitter=0.0
        )

        async def scenario():
            for _ in range(5):
                assert await supervisor.restart("w0") is not None

        self.run(scenario())
        assert slept == [0.1, 0.2, 0.4, 0.5, 0.5]
        assert supervisor.last_backoff == 0.5

    def test_budget_exhaustion_returns_none_without_spawning(self):
        supervisor, slept = self.make(max_restarts=2, jitter=0.0)

        async def scenario():
            assert await supervisor.restart("w0") is not None
            assert await supervisor.restart("w0") is not None
            assert await supervisor.restart("w0") is None
            # Budgets are per label.
            assert await supervisor.restart("w1") is not None

        self.run(scenario())
        assert supervisor.attempts("w0") == 2
        assert supervisor.attempts("w1") == 1

    def test_reset_reopens_the_budget(self):
        supervisor, _slept = self.make(max_restarts=1, jitter=0.0)

        async def scenario():
            assert await supervisor.restart("w0") is not None
            assert await supervisor.restart("w0") is None
            supervisor.reset("w0")
            assert await supervisor.restart("w0") is not None

        self.run(scenario())

    def test_spawn_failure_counts_as_attempt(self):
        calls = []

        async def sleep(seconds):
            pass

        async def spawn(label):
            calls.append(label)
            raise OSError("no capacity")

        supervisor = WorkerSupervisor(
            spawn, max_restarts=2, sleep=sleep, jitter=0.0
        )

        async def scenario():
            assert await supervisor.restart("w0") is None
            assert await supervisor.restart("w0") is None
            assert await supervisor.restart("w0") is None  # over budget

        self.run(scenario())
        assert calls == ["w0", "w0"]

    def test_jitter_is_seeded_and_bounded(self):
        a, slept_a = self.make(jitter=0.5, seed=11, backoff_base=0.1)
        b, slept_b = self.make(jitter=0.5, seed=11, backoff_base=0.1)

        async def scenario(supervisor):
            await supervisor.restart("w0")
            await supervisor.restart("w0")

        self.run(scenario(a))
        self.run(scenario(b))
        assert slept_a == slept_b  # same seed, same draws
        assert 0.1 <= slept_a[0] < 0.15
        assert 0.2 <= slept_a[1] < 0.3
        assert slept_a[0] != 0.1  # jitter actually applied


class TestCheckpointStore:
    def entry(self, checkpoint_id=1, epoch=0):
        return WorkerCheckpoint(
            checkpoint_id,
            epoch,
            ticks=4,
            state="blob",
            positions={"a": 7},
            per_tick={0: [StreamTuple(0.0, {}, stream="s")]},
            sources=("a", "b"),
        )

    def test_entry_snapshots_are_defensive_copies(self):
        positions = {"a": 7}
        bucket = [StreamTuple(0.0, {}, stream="s")]
        entry = WorkerCheckpoint(
            1, 0, 4, "blob", positions, {0: bucket}, sources=["a"]
        )
        positions["a"] = 99
        bucket.append("poison")
        assert entry.positions == {"a": 7}
        assert len(entry.per_tick[0]) == 1
        assert entry.sources == ("a",)

    def test_latest_wins_and_discard_forgets(self):
        store = CheckpointStore()
        store.record("w0", self.entry(checkpoint_id=1))
        store.record("w0", self.entry(checkpoint_id=2))
        store.record("w1", self.entry(checkpoint_id=3))
        assert store.latest("w0").checkpoint_id == 2
        assert store.labels() == ["w0", "w1"]
        store.discard("w0")
        assert store.latest("w0") is None
        assert store.labels() == ["w1"]


class TestFrameTruncated:
    """Abrupt disconnects surface a typed error, not asyncio internals."""

    def test_is_a_protocol_error(self):
        # Existing except-ProtocolError handlers keep working.
        assert issubclass(FrameTruncated, ProtocolError)

    def test_decoder_eof_mid_frame(self):
        decoder = FrameDecoder()
        data = encode_frame({"type": "drain"})
        decoder.feed(data[: len(data) - 3])
        with pytest.raises(FrameTruncated, match="mid-frame"):
            decoder.eof()

    def test_decoder_eof_mid_header(self):
        decoder = FrameDecoder()
        decoder.feed(b"\x00\x00")
        with pytest.raises(FrameTruncated, match="mid-header"):
            decoder.eof()

    def test_decoder_eof_at_boundary_is_clean(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame({"type": "drain"}))
        decoder.eof()  # no buffered remainder: no error

    def test_read_frame_raw_truncated_payload(self):
        async def scenario():
            reader = asyncio.StreamReader()
            data = encode_frame({"type": "drain"})
            reader.feed_data(data[: len(data) - 2])
            reader.feed_eof()
            with pytest.raises(FrameTruncated, match="mid-frame"):
                await protocol.read_frame(reader)

        asyncio.run(asyncio.wait_for(scenario(), WAIT))

    def test_read_frame_raw_truncated_header(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00\x01")
            reader.feed_eof()
            with pytest.raises(FrameTruncated, match="mid-header"):
                await protocol.read_frame(reader)

        asyncio.run(asyncio.wait_for(scenario(), WAIT))

    def test_clean_eof_is_still_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await protocol.read_frame(reader) is None
            assert await protocol.read_frame(reader) is None  # and again

        asyncio.run(asyncio.wait_for(scenario(), WAIT))


class TestFeederBackoff:
    def make(self, **kwargs):
        streams = {"s": [StreamTuple(0.0, {"v": 1}, stream="s")]}
        return ReplayFeeder("127.0.0.1", 1, streams, **kwargs)

    def test_default_is_exact_exponential_with_cap(self):
        feeder = self.make(backoff_base=0.05, backoff_cap=0.4)
        delays = [feeder._backoff(n) for n in range(1, 6)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.4]
        assert feeder.last_backoff == 0.4

    def test_jitter_bounded_and_seeded(self):
        a = self.make(backoff_jitter=0.5, backoff_seed=9)
        b = self.make(backoff_jitter=0.5, backoff_seed=9)
        delays_a = [a._backoff(n) for n in range(1, 5)]
        delays_b = [b._backoff(n) for n in range(1, 5)]
        assert delays_a == delays_b
        for attempt, delay in enumerate(delays_a, start=1):
            base = min(1.0, 0.05 * 2 ** (attempt - 1))
            assert base <= delay < base * 1.5

    def test_report_exposes_backoff_ms(self):
        feeder = self.make(backoff_base=0.125)
        assert feeder.report()["reconnect_backoff_ms"] == 0.0
        feeder._backoff(1)
        assert feeder.report()["reconnect_backoff_ms"] == 125.0

    def test_negative_jitter_rejected(self):
        with pytest.raises(NetError):
            self.make(backoff_jitter=-0.1)

    def test_reconnects_on_truncated_credit_frame(self):
        """A gateway dying mid-frame triggers a reconnect, not a crash."""

        async def scenario():
            sessions = []

            async def serve(reader, writer):
                index = len(sessions)
                sessions.append(index)
                hello = await protocol.read_frame(reader)
                assert hello["type"] == "hello"
                await protocol.write_frame(
                    writer,
                    protocol.hello_ack({"s": 8}, hello.get("version")),
                )
                if index == 0:
                    # First connection: cut a credit frame mid-payload.
                    await protocol.read_frame(reader)  # the reading
                    frame = encode_frame(protocol.credit_frame("s", 1))
                    writer.write(frame[: len(frame) - 4])
                    await writer.drain()
                    writer.close()
                    return
                # Second connection: accept the resend and say goodbye.
                while True:
                    frame = await protocol.read_frame(reader)
                    if frame is None:
                        return
                    if frame["type"] == "bye":
                        await protocol.write_frame(
                            writer, protocol.bye_ack(frame["source"])
                        )
                        return

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            feeder = ReplayFeeder(
                host,
                port,
                {"s": [StreamTuple(0.0, {"v": 1}, stream="s")]},
                backoff_base=0.001,
                backoff_cap=0.002,
            )
            report = await asyncio.wait_for(feeder.run(), WAIT)
            server.close()
            await server.wait_closed()
            assert report["reconnects"] == 1
            assert len(sessions) == 2

        asyncio.run(scenario())
