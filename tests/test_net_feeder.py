"""Unit tests for the replay feeder: schedule, pacing, reconnection.

Real sockets, fake time: ``sleep`` and ``clock`` are injected so backoff
and pacing are asserted exactly, with zero wall-clock waiting.
"""

import asyncio
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.feeder import ReplayFeeder
from repro.net.feeder_core import low_marks
from repro.net.gateway import IngestGateway
from repro.net.protocol import read_frame, write_frame
from repro.receptors.network import DelayModel, GilbertElliottChannel
from repro.streams.tuples import StreamTuple


def tup(ts, **fields):
    return StreamTuple(ts, fields, stream="s")


def rows_of(frame):
    """The readings a frame carries, as ``(source, seq, arrival, low,
    item, trace)`` entries: a block's rows, a data frame's one, none
    for anything else."""
    return list(protocol.frame_rows(frame, protocol.PROTOCOL_VERSION) or ())


class FakeSession:
    """The minimal pipeline-session surface the gateway drives."""

    def __init__(self, receptor_ids=("a",)):
        self.receptor_ids = tuple(receptor_ids)
        self.pushed = []
        self.watermarks = []
        self.closed = False

    @property
    def safe_time(self):
        return float("-inf")

    def push_run(self, source, items, traces=None):
        self.pushed.extend((source, item) for item in items)

    def advance(self, watermark):
        self.watermarks.append(watermark)
        return []

    def close(self):
        self.closed = True
        return self


class FakeTime:
    """A clock that only moves when someone sleeps on it."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        self.sleeps.append(round(seconds, 6))
        self.now += seconds
        await asyncio.sleep(0)  # stay cooperative


class TestSchedule:
    def _streams(self, n=20):
        return {"a": [tup(float(i), v=i) for i in range(n)]}

    def test_no_impairments_is_identity_order(self):
        feeder = ReplayFeeder("h", 1, self._streams(5))
        schedule = feeder.core.plan()
        assert [(a, s, q) for a, s, q, _ in schedule] == [
            (float(i), "a", i) for i in range(5)
        ]

    def test_delay_model_sorts_by_arrival_keeps_all(self):
        feeder = ReplayFeeder(
            "h", 1, self._streams(30),
            delay_model=DelayModel(mean_delay=2.0, max_delay=8.0, rng=7),
        )
        schedule = feeder.core.plan()
        arrivals = [a for a, _s, _q, _i in schedule]
        assert arrivals == sorted(arrivals)
        assert sorted(q for _a, _s, q, _i in schedule) == list(range(30))
        assert any(
            a != i.timestamp for a, _s, _q, i in schedule
        )  # delays actually applied
        assert all(a >= i.timestamp for a, _s, _q, i in schedule)

    def test_channel_loss_counted_and_sequence_gaps_preserved(self):
        channel = GilbertElliottChannel(
            0.3, 0.3, deliver_good=0.9, deliver_bad=0.1, rng=11
        )
        feeder = ReplayFeeder("h", 1, self._streams(60), channel=channel)
        schedule = feeder.core.plan()
        assert feeder.lost["a"] > 0  # the channel really dropped some
        assert len(schedule) + feeder.lost["a"] == 60
        survivors = [q for _a, _s, q, _i in schedule]
        assert survivors == sorted(survivors)
        # Lost readings consumed their sequence numbers: gaps, no reuse.
        assert len(set(survivors)) == len(survivors)
        assert set(survivors) < set(range(60))

    def test_empty_streams_rejected(self):
        with pytest.raises(NetError, match="at least one source"):
            ReplayFeeder("h", 1, {})

    def test_bad_rate_and_attempts_rejected(self):
        with pytest.raises(NetError, match="rate"):
            ReplayFeeder("h", 1, self._streams(1), rate=0)
        with pytest.raises(NetError, match="max_attempts"):
            ReplayFeeder("h", 1, self._streams(1), max_attempts=0)


class TestLowMarks:
    """The promise a data frame declares: the least timestamp its
    source can still send, where that rises."""

    def test_one_promise_per_poll_and_none_on_the_last_frame(self):
        polls = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0]
        feeder = ReplayFeeder(
            "h", 1, {"a": [tup(ts, v=i) for i, ts in enumerate(polls)]}
        )
        lows = low_marks(feeder.core.plan())
        assert lows == [None, None, 1.0, None, None, 3.0, None, None]

    @given(
        st.lists(
            st.lists(st.integers(0, 15), min_size=1, max_size=25),
            min_size=1, max_size=3,
        ),
        st.integers(0, 2**16),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_declared_lows_are_exact_rising_and_never_last(
        self, grids, seed, delayed, lossy
    ):
        """Random streams × delay × loss against a brute-force oracle:
        a declared ``low`` is the least timestamp among its source's
        later frames, it is declared exactly where that bound rises,
        and a source's last frame carries none."""
        streams = {
            f"s{n}": [tup(float(ts), v=i) for i, ts in enumerate(sorted(grid))]
            for n, grid in enumerate(grids)
        }
        feeder = ReplayFeeder(
            "h", 1, streams,
            delay_model=(
                DelayModel(mean_delay=1.5, max_delay=6.0, rng=seed)
                if delayed else None
            ),
            channel=(
                GilbertElliottChannel(
                    0.3, 0.3, deliver_good=0.9, deliver_bad=0.2, rng=seed
                )
                if lossy else None
            ),
        )
        schedule = feeder.core.plan()
        lows = low_marks(schedule)
        assert len(lows) == len(schedule)
        for name in streams:
            own = [
                (item.timestamp, low)
                for (_a, source, _q, item), low in zip(schedule, lows)
                if source == name
            ]
            for index, (timestamp, low) in enumerate(own):
                later = [ts for ts, _low in own[index + 1:]]
                if not later:
                    assert low is None  # the bye covers the last frame
                    continue
                bound = min(later)
                # The bound before this frame also covered the frame
                # itself; it rises here iff the frame lay below ``bound``.
                if min(timestamp, bound) < bound:
                    assert low == bound
                else:
                    assert low is None
            declared = [low for _ts, low in own if low is not None]
            assert declared == sorted(set(declared))  # strictly rising

    def test_frames_on_the_wire_carry_the_schedule_s_lows(self):
        polls = [0.0, 0.0, 1.0, 1.0, 3.0]
        streams = {"a": [tup(ts, v=i) for i, ts in enumerate(polls)]}
        seen, kinds = [], []

        async def handle(reader, writer):
            await read_frame(reader)
            await write_frame(writer, protocol.hello_ack(None))
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kinds.append(frame["type"])
                seen.extend(row[3] for row in rows_of(frame))
                if frame["type"] == "bye":
                    await write_frame(
                        writer, protocol.bye_ack(frame["source"])
                    )
            writer.close()

        async def scenario():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            feeder = ReplayFeeder("127.0.0.1", port, streams)
            await asyncio.wait_for(feeder.run(), timeout=20)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())
        assert seen == [None, 1.0, None, 3.0, None]
        # One unpaced, uncredited replay is one burst: one block.
        assert kinds == ["block", "bye"]


class TestBackoff:
    def test_exponential_with_cap(self):
        feeder = ReplayFeeder(
            "h", 1, {"a": [tup(0.0)]},
            backoff_base=0.05, backoff_cap=0.3,
        )
        assert [feeder._backoff(n) for n in range(1, 6)] == [
            0.05, 0.1, 0.2, 0.3, 0.3
        ]

    def test_unreachable_gateway_raises_after_backoff(self):
        # Grab a port that is guaranteed closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        fake = FakeTime()
        feeder = ReplayFeeder(
            "127.0.0.1", port, {"a": [tup(0.0)]},
            max_attempts=3, backoff_base=0.05, backoff_cap=1.0,
            sleep=fake.sleep,
        )
        with pytest.raises(NetError, match="unreachable after 3"):
            asyncio.run(feeder.run())
        # Two backoff sleeps before the third, fatal, attempt.
        assert fake.sleeps == [0.05, 0.1]


class TestReconnect:
    def test_resumes_after_midstream_disconnect(self):
        """First connection is cut right after the handshake; the
        feeder must reconnect and redeliver everything (at-least-once:
        the gateway sees every sequence number at least once)."""
        streams = {"a": [tup(float(i), v=i) for i in range(6)]}
        connections = []
        received = []
        done = asyncio.Event()

        async def handle(reader, writer):
            connections.append(True)
            hello = await read_frame(reader)
            assert hello["type"] == "hello"
            await write_frame(writer, protocol.hello_ack(None))
            if len(connections) == 1:
                writer.close()  # cut the session mid-stream
                return
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                received.extend(row[1] for row in rows_of(frame))
                if frame["type"] == "bye":
                    await write_frame(
                        writer, protocol.bye_ack(frame["source"])
                    )
                    done.set()

        async def scenario():
            fake = FakeTime()
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            feeder = ReplayFeeder(
                "127.0.0.1", port, streams, sleep=fake.sleep
            )
            report = await asyncio.wait_for(feeder.run(), timeout=20)
            await asyncio.wait_for(done.wait(), timeout=20)
            server.close()
            await server.wait_closed()
            return report

        report = asyncio.run(scenario())
        assert report["reconnects"] >= 1
        assert len(connections) == 2
        assert set(received) == set(range(6))  # nothing permanently lost
        assert report["sent"]["a"] >= 6  # at-least-once may resend


    @pytest.mark.parametrize("acks", [False, True])
    def test_a_gateway_that_closes_every_session_is_given_up(self, acks):
        """A session counts as having reached the gateway only once a
        credit or bye_ack arrives: a gateway that accepts (and maybe
        acks the hello) and closes is ``max_attempts`` failures in a
        row, each followed by a backoff sleep."""
        connections = []

        async def handle(reader, writer):
            connections.append(True)
            try:
                await read_frame(reader)
                if acks:
                    await write_frame(writer, protocol.hello_ack({"a": 4}))
            finally:
                writer.close()

        async def scenario():
            fake = FakeTime()
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            feeder = ReplayFeeder(
                "127.0.0.1", port, {"a": [tup(0.0, v=0)]},
                max_attempts=3, sleep=fake.sleep,
            )
            try:
                with pytest.raises(NetError, match="after 3 attempts"):
                    await asyncio.wait_for(feeder.run(), timeout=5)
            finally:
                server.close()
                await server.wait_closed()
            return fake.sleeps, feeder.report()

        sleeps, report = asyncio.run(scenario())
        assert sleeps == [0.05, 0.1]
        assert len(connections) == 3
        assert report["reconnects"] == 3
        assert report["reconnect_backoff_ms"] == 100.0


class TestFailsClosed:
    """A gateway frame the feeder cannot act on ends the replay as a
    ``ProtocolError``: no reconnect, no replay, and the frame changes
    nothing (credits and acknowledgements stay as they were)."""

    STREAMS = {"a": [tup(float(i), v=i) for i in range(4)]}

    def refused(self, gateway):
        async def scenario():
            port = await gateway.start()
            feeder = ReplayFeeder(
                "127.0.0.1", port, self.STREAMS, sleep=FakeTime().sleep
            )
            try:
                with pytest.raises(ProtocolError) as refusal:
                    await asyncio.wait_for(feeder.run(), timeout=5)
            finally:
                await gateway.close()
            return feeder.report(), str(refusal.value)

        report, reason = asyncio.run(scenario())
        assert gateway.connections == 1  # no replay
        assert report["reconnects"] == 0
        return report, reason

    @staticmethod
    def answers(frame):
        """``on_data``: write ``frame`` after the first reading."""

        async def on_data(gateway, writer):
            if len(gateway.received) == 1:
                await write_frame(writer, frame)

        return on_data

    @pytest.mark.parametrize("count", ["lots", True, -1, 1.5, None])
    def test_a_credit_that_is_not_a_count(self, count):
        frame = {"type": "credit", "source": "a", "credits": count}
        report, reason = self.refused(
            ScriptedGateway({"a": 1}, self.answers(frame))
        )
        assert "non-negative integer" in reason
        assert report["sent"] == {"a": 1}
        assert report["credit_frames"] == 0
        assert report["credits_received"] == {"a": 0}

    @pytest.mark.parametrize("source", ["zz", ["a"], None])
    @pytest.mark.parametrize("kind", ["credit", "bye_ack"])
    def test_a_frame_for_a_source_it_does_not_feed(self, kind, source):
        frame = {"type": kind, "source": source, "credits": 5}
        report, reason = self.refused(
            ScriptedGateway({"a": 1}, self.answers(frame))
        )
        assert f"for source {source!r}" in reason
        assert report["credits_received"] == {"a": 0}
        assert report["credit_frames"] == 0

    @pytest.mark.parametrize(
        "credits",
        [[1, 2], "lots", {"zz": 1}, {"a": "lots"}, {"a": -1}, {"a": True}],
    )
    def test_a_hello_ack_whose_credits_are_not_counts_per_source(
        self, credits
    ):
        ack = {
            "type": "hello_ack", "version": protocol.PROTOCOL_VERSION,
            "credits": credits,
        }
        report, reason = self.refused(ScriptedGateway(None, ack=ack))
        assert "hello_ack credits" in reason
        assert report["sent"] == {"a": 0}


class TestPacing:
    def test_rate_multiplier_paces_sends(self):
        """rate=2.0 over arrivals [0, 1, 3] must pause 0.5 s then
        1.0 s on the injected clock — and never sleep for the first
        frame."""
        fake = FakeTime()
        session = FakeSession(("a",))

        async def scenario():
            gateway = IngestGateway(session, slack=0.0)
            host, port = await gateway.start()
            feeder = ReplayFeeder(
                host, port,
                {"a": [tup(0.0, v=0), tup(1.0, v=1), tup(3.0, v=2)]},
                rate=2.0, sleep=fake.sleep, clock=fake.clock,
            )
            report = await asyncio.wait_for(feeder.run(), timeout=20)
            await asyncio.wait_for(
                gateway.run_until_drained(), timeout=20
            )
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert fake.sleeps == [0.5, 1.0]
        assert report["sent"] == {"a": 3}
        assert [item.timestamp for _src, item in session.pushed] == [
            0.0, 1.0, 3.0
        ]
        assert session.closed

    def test_unpaced_replay_never_sleeps(self):
        fake = FakeTime()
        session = FakeSession(("a",))

        async def scenario():
            gateway = IngestGateway(session, slack=0.0)
            host, port = await gateway.start()
            feeder = ReplayFeeder(
                host, port, {"a": [tup(0.0, v=0), tup(5.0, v=1)]},
                sleep=fake.sleep, clock=fake.clock,
            )
            await asyncio.wait_for(feeder.run(), timeout=20)
            await asyncio.wait_for(
                gateway.run_until_drained(), timeout=20
            )
            await gateway.close()

        asyncio.run(scenario())
        assert fake.sleeps == []


class ScriptedGateway:
    """A gateway stand-in: acks the hello with ``credits`` (echoing
    ``version``, or the hello's own; or sends ``ack`` as it is),
    records readings and the types of the frames that carried them,
    acks byes; ``on_data(gateway, writer)`` runs after each reading.
    ``connections`` counts the sessions it served."""

    def __init__(self, credits, on_data=None, version=None, ack=None):
        self.credits = credits
        self.on_data = on_data
        self.version = version
        self.ack = ack
        self.connections = 0
        self.received = []
        self.frames = []
        self._arrived = asyncio.Event()
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def close(self):
        self._server.close()
        await self._server.wait_closed()

    async def wait_received(self, n):
        while len(self.received) < n:
            self._arrived.clear()
            await asyncio.wait_for(self._arrived.wait(), timeout=5)

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            hello = await read_frame(reader)
            await write_frame(writer, self.ack or protocol.hello_ack(
                self.credits, self.version or hello["version"]
            ))
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self.frames.append(frame["type"])
                for _source, seq, *_rest in rows_of(frame):
                    self.received.append(seq)
                    self._arrived.set()
                    if self.on_data is not None:
                        await self.on_data(self, writer)
                if frame["type"] == "bye":
                    await write_frame(
                        writer, protocol.bye_ack(frame["source"])
                    )
        finally:
            writer.close()


class TestFlushRule:
    """Readings leave in bursts — one block each — and a burst is on
    the socket before the feeder suspends: it never sleeps, or waits
    for credits, on a reading it has counted as sent (an unsealed row
    would be exactly that)."""

    def test_paced_feeder_never_sleeps_on_an_unsent_frame(self):
        """Three polls of readings, paced: whenever ``sleep`` is
        awaited the gateway can read every frame of the polls so far
        (a frame still pending would time the wait out)."""
        fake = FakeTime()
        polls = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0]
        streams = {"a": [tup(ts, v=i) for i, ts in enumerate(polls)]}
        seen_at_sleep = []

        async def scenario():
            gateway = ScriptedGateway(None)
            port = await gateway.start()

            async def sleep(seconds):
                await gateway.wait_received(feeder.sent["a"])
                seen_at_sleep.append(len(gateway.received))
                await fake.sleep(seconds)

            feeder = ReplayFeeder(
                "127.0.0.1", port, streams,
                rate=1.0, sleep=sleep, clock=fake.clock,
            )
            try:
                report = await asyncio.wait_for(feeder.run(), timeout=20)
            finally:
                await gateway.close()
            return report, gateway.received, gateway.frames

        report, received, frames = asyncio.run(scenario())
        assert fake.sleeps == [1.0, 2.0]
        assert seen_at_sleep == [3, 6]
        assert report["sent"] == {"a": 8}
        assert received == list(range(8))
        # A poll is a burst is a frame: sealed by each sleep, and by
        # the end of the recording.
        assert frames == ["block", "block", "block", "bye"]

    def test_feeder_out_of_credits_has_nothing_pending(self):
        """Two credits at a time: each time the gateway has read two
        more frames the feeder is blocked, and everything it counts as
        sent has arrived — were a frame still pending, the credits it
        waits for would never come."""
        window = 2
        streams = {"a": [tup(float(i), v=i) for i in range(6)]}
        counted = []

        async def scenario():
            async def on_data(gateway, writer):
                if len(gateway.received) % window == 0:
                    counted.append(
                        (feeder.sent["a"], len(gateway.received))
                    )
                    await write_frame(
                        writer, protocol.credit_frame("a", window)
                    )

            gateway = ScriptedGateway({"a": window}, on_data)
            port = await gateway.start()
            feeder = ReplayFeeder("127.0.0.1", port, streams)
            try:
                report = await asyncio.wait_for(feeder.run(), timeout=20)
            finally:
                await gateway.close()
            return report, gateway.frames

        report, frames = asyncio.run(scenario())
        assert counted == [(2, 2), (4, 4), (6, 6)]
        # A credit window is a burst is a frame.
        assert frames == ["block", "block", "block", "bye"]
        assert report["sent"] == {"a": 6}
        assert report["credits_received"] == {"a": 6}
        assert report["credit_frames"] == 3
        assert report["blocked_waits"] >= 2


class TestBlocksOnTheWire:
    """One frame per burst, not per reading."""

    def test_delayed_shelf_replay_is_blocks_only_and_few_of_them(
        self, monkeypatch
    ):
        """The 300 s shelf recording, delayed and out of order, through
        a real gateway's credit windows: no ``data`` frame leaves the
        feeder, every reading arrives once, and the frames that carry
        them number under a twentieth of the readings."""
        from repro.pipelines.rfid_shelf import build_shelf_processor
        from repro.scenarios.shelf import ShelfScenario

        scenario = ShelfScenario(duration=300.0, seed=3)
        streams = scenario.recorded_streams()
        readings = sum(len(items) for items in streams.values())
        carried = []
        decoder = protocol.FrameDecoder

        class Tap(decoder):
            """Sees every frame a :class:`FrameReader` serves — the
            gateway's and, for the credits coming back, the feeder's."""

            def take(self):
                payload = super().take()
                if payload is not None:
                    (frame,) = decoder().feed(protocol.frame_bytes(payload))
                    carried.append((frame["type"], len(rows_of(frame))))
                return payload

        monkeypatch.setattr(protocol, "FrameDecoder", Tap)

        async def run():
            session = build_shelf_processor(
                scenario, "smooth+arbitrate"
            ).open_session(
                until=scenario.duration, tick=scenario.poll_period
            )
            gateway = IngestGateway(session, slack=1.5, queue_bound=64)
            host, port = await gateway.start()
            feeder = ReplayFeeder(
                host, port, streams,
                delay_model=DelayModel(0.375, 1.5, rng=3),
            )
            report = await asyncio.wait_for(feeder.run(), timeout=60)
            await asyncio.wait_for(gateway.run_until_drained(), timeout=60)
            await gateway.close()
            return report, gateway.stats()["sources"]

        report, stats = asyncio.run(run())
        bearing = [(kind, n) for kind, n in carried if n]
        assert {kind for kind, _n in bearing} == {"block"}
        assert sum(n for _kind, n in bearing) == readings
        assert sum(report["sent"].values()) == readings
        assert sum(s["delivered"] for s in stats.values()) == readings
        assert len(bearing) < readings / 20

    def test_v2_only_gateway_is_refused_naming_both_versions(self):
        """A feeder's readings leave as blocks, so it cannot fall back:
        against a gateway that acknowledges (or only speaks) an older
        dialect it fails closed, before any reading is sent."""
        streams = {"a": [tup(0.0, v=0)]}

        async def against(handler):
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            feeder = ReplayFeeder("127.0.0.1", port, streams)
            try:
                await asyncio.wait_for(feeder.run(), timeout=20)
            finally:
                server.close()
                await server.wait_closed()
            return feeder

        frames = []

        async def acks_v2(reader, writer):
            await read_frame(reader)
            await write_frame(writer, protocol.hello_ack(None, 2))
            while (frame := await read_frame(reader)) is not None:
                frames.append(frame)
            writer.close()

        async def speaks_v2(reader, writer):
            hello = await read_frame(reader)
            await protocol.bail(
                writer,
                f"protocol version {hello['version']!r} unsupported; "
                f"this gateway speaks [1, 2]",
            )
            writer.close()

        for handler in (acks_v2, speaks_v2):
            with pytest.raises(NetError) as refusal:
                asyncio.run(against(handler))
            assert "4" in str(refusal.value) and "2" in str(refusal.value)
        assert frames == []  # nothing was sent on the v2 connection


class TestHeartbeat:
    def test_heartbeats_sent_during_replay(self):
        """A paced replay with a heartbeat interval emits heartbeat
        frames between data frames (fake clock: no real waiting)."""
        heartbeats = []
        done = asyncio.Event()

        async def handle(reader, writer):
            await read_frame(reader)
            await write_frame(writer, protocol.hello_ack(None))
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                if frame["type"] == "heartbeat":
                    heartbeats.append(frame["sources"])
                elif frame["type"] == "bye":
                    await write_frame(
                        writer, protocol.bye_ack(frame["source"])
                    )
                    done.set()

        async def scenario():
            fake = FakeTime()
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            feeder = ReplayFeeder(
                "127.0.0.1", port,
                {"a": [tup(0.0, v=0), tup(10.0, v=1)]},
                rate=1.0, heartbeat_interval=2.0,
                sleep=fake.sleep, clock=fake.clock,
            )
            await asyncio.wait_for(feeder.run(), timeout=20)
            await asyncio.wait_for(done.wait(), timeout=20)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())
        assert heartbeats  # at least one heartbeat made it out
        assert all(sources == ["a"] for sources in heartbeats)
