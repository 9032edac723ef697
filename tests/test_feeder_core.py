"""The feeder core and the worker's epoch opening with no socket.

A :class:`~repro.net.feeder_core.FeederCore` and a standalone
:class:`~repro.net.gateway_core.GatewayCore` are wired by hand: what one
core's ``flush`` hands over is cut into deliveries (hypothesis chooses
where) and decoded by the other's :class:`~repro.net.protocol.
FrameDecoder`, exactly as a socket would; no event loop runs.
``open_epoch``'s checks and restore are driven the same way, with the
stand-in session of ``tests/test_gateway_core.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetError, ProtocolError
from repro.net import protocol
from repro.net.feeder_core import DONE, FULL, Blocked, FeederCore, Paced
from repro.net.gateway_core import GatewayCore, open_epoch
from repro.net.protocol import FrameDecoder
from repro.net.service import build_bundle
from repro.receptors.network import DelayModel
from repro.streams.telemetry import InMemoryCollector
from repro.streams.tuples import StreamTuple
from tests.test_gateway_core import Pipeline, reading

SHELF = build_bundle("shelf", 30.0, 3)
REFERENCE = SHELF.processor.run(
    SHELF.until, SHELF.tick, sources=SHELF.streams
).output


def tup(ts, v):
    return StreamTuple(ts, {"v": v}, stream="s")


class Pipe:
    """One direction of a connection: what a core flushed, handed to the
    other side's decoder in cuts of ``sizes`` (each delivery is the next
    size, or an eighth of what waits if that is more)."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.turn = 0
        self.pending = bytearray()
        self.decoder = FrameDecoder()

    def write(self, flushed):
        for _peer, data, _close in flushed:
            self.pending += data

    def deliver(self, everything=False):
        """The frames the next delivery (or, at the hang-up, the rest of
        the stream) completes."""
        size = self.sizes[self.turn % len(self.sizes)]
        self.turn += 1
        cut = min(len(self.pending), max(size, len(self.pending) // 8))
        if everything:
            cut = len(self.pending)
        chunk = bytes(self.pending[:cut])
        del self.pending[:cut]
        return list(self.decoder.frames(chunk))


def replay(feeder, gateway, sizes):
    """Run ``feeder`` against ``gateway`` until it is done; each round
    sends what the feeder can, delivers one cut each way (the gateway
    draining once per delivery, as its shell does per socket read).
    What the gateway wrote before the feeder hung up still arrives: the
    last credit may follow the last ``bye_ack``."""
    up, down = Pipe(sizes), Pipe(sizes[::-1])
    conn = gateway.opened()
    hello = None
    feeder.open()
    stop = feeder.send()
    rounds = 0
    while True:
        up.write(feeder.flush())
        if stop is DONE:
            for frame in down.deliver(everything=True):
                feeder.frame(frame)
            return rounds
        assert stop is FULL or type(stop) is Blocked, stop
        for frame in up.deliver():
            if hello is None:
                hello = frame
                gateway.hello(conn, frame)
            else:
                gateway.frame(conn, frame)
        gateway.drain()
        down.write(gateway.flush())
        for frame in down.deliver():
            feeder.frame(frame)
        if stop is FULL or feeder.ready():
            stop = feeder.send()
        rounds += 1
        assert rounds < 100_000, "no progress"


class TestFeederMeetsGateway:
    @given(
        sizes=st.lists(st.integers(1, 1 << 16), min_size=1, max_size=12),
        delay_seed=st.integers(0, 2**16),
        queue_bound=st.sampled_from([4, 64]),
    )
    @settings(max_examples=12, deadline=None)
    def test_delayed_shelf_replay_equals_the_in_memory_run(
        self, sizes, delay_seed, queue_bound
    ):
        feeder = FeederCore(
            SHELF.streams, delay_model=DelayModel(0.375, 1.5, rng=delay_seed)
        )
        session = SHELF.processor.open_session(
            until=SHELF.until, tick=SHELF.tick
        )
        gateway = GatewayCore(session, slack=1.5, queue_bound=queue_bound)
        replay(feeder, gateway, sizes)
        assert gateway.complete and gateway.failure is None
        assert session.close().output == REFERENCE
        report = feeder.report()
        assert report["credits_received"] == report["sent"]
        assert report["reconnects"] == 0
        sources = gateway.stats()["sources"]
        assert {name: s["offered"] for name, s in sources.items()} == (
            report["sent"]
        )
        for stats in sources.values():
            assert stats["offered"] == (
                stats["delivered"] + stats["dropped_overload"]
            )
            assert stats["dropped_late"] == 0

    def test_a_reconnect_replays_the_schedule_from_its_start(self):
        streams = {"a": [tup(float(i), i) for i in range(5)]}
        feeder = FeederCore(streams)
        feeder.open()
        feeder.frame(protocol.hello_ack({"a": 2}))
        assert feeder.send() == Blocked("a")
        assert feeder.sent == {"a": 2}
        feeder.ended()
        with pytest.raises(ConnectionResetError, match="mid-stream"):
            feeder.send()
        assert feeder.retry(connected=True)
        gateway = GatewayCore(Pipeline(), ["a"], queue_bound=2)
        replay(feeder, gateway, [64])
        seqs = [item.get("v") for item in gateway.session.close().output]
        assert seqs == list(range(5))
        assert feeder.sent == {"a": 7}  # at-least-once: two sent twice
        assert feeder.reconnects == 1
        assert feeder.attempts == 0  # the gateway answered this one


class TestSendStops:
    """Why ``send`` stops, and what it costs the clock."""

    def test_pacing_reads_the_clock_once_per_reading(self):
        reads = []
        now = [100.0]

        def clock():
            reads.append(now[0])
            return now[0]

        feeder = FeederCore(
            {"a": [tup(0.0, 0), tup(1.0, 1), tup(1.0, 2), tup(3.0, 3)]},
            rate=2.0, clock=clock,
        )
        feeder.open()
        feeder.frame(protocol.hello_ack(None))
        stops = []
        while (stop := feeder.send()) is not DONE:
            stops.append(stop)
            if type(stop) is Paced:
                now[0] += stop.pause
            else:
                feeder.frame(protocol.bye_ack("a"))
        assert stops == [Paced(0.5), Paced(1.0), Blocked(None)]
        assert len(reads) == 1 + 4  # the anchor, then one per reading
        assert feeder.pacing_stalls == 2
        frames = FrameDecoder().feed(
            b"".join(data for _peer, data, _close in feeder.flush())
        )
        assert [f["type"] for f in frames] == ["hello", "block", "bye"]

    def test_nothing_leaves_before_the_hello_ack(self):
        feeder = FeederCore({"a": [tup(0.0, 0)]})
        feeder.open()
        assert feeder.send() == Blocked(None) and not feeder.ready()
        assert feeder.sent == {"a": 0}
        feeder.frame(protocol.hello_ack(None))
        assert feeder.ready()

    @pytest.mark.parametrize("frame,reason", [
        (protocol.error_frame("full"), "gateway rejected session: full"),
        (protocol.bye_ack("a"), "expected hello_ack, got 'bye_ack'"),
        (protocol.hello_ack(None, 3), "protocol version 3"),
    ])
    def test_a_refused_session_is_a_net_error(self, frame, reason):
        feeder = FeederCore({"a": [tup(0.0, 0)]})
        feeder.open()
        with pytest.raises(NetError, match=reason) as refusal:
            feeder.frame(frame)
        assert type(refusal.value) is NetError
        feeder.ended(refusal.value)
        assert feeder.ready()
        with pytest.raises(NetError, match=reason):
            feeder.send()

    def test_a_bad_credit_changes_nothing(self):
        feeder = FeederCore({"a": [tup(0.0, 0)]})
        feeder.open()
        feeder.frame(protocol.hello_ack({"a": 0}))
        for bad in ("3", False, -2):
            with pytest.raises(ProtocolError, match="non-negative"):
                feeder.frame({"type": "credit", "source": "a", "credits": bad})
        assert feeder.credits == {"a": 0} and feeder.credit_frames == 0
        feeder.frame(protocol.credit_frame("a", 0))  # zero is a count
        assert feeder.credit_frames == 1

    def test_max_attempts_failures_in_a_row_give_up(self):
        feeder = FeederCore({"a": [tup(0.0, 0)]}, max_attempts=3)
        assert [feeder.retry(connected=False) for _ in range(3)] == [
            True, True, False
        ]
        assert feeder.reconnects == 0  # none connected


ROLLUP_COUNTERS = ("worker.version_mismatch", "worker.resumed_from_checkpoint")
HELLO = protocol.worker_hello("w0")


def opened(*frames, rollup=None):
    """``open_epoch`` over ``frames``, as a worker serving ``a`` and
    ``b`` with the stand-in session."""
    return open_epoch(
        frames, ("a", "b"), lambda telemetry: Pipeline(ticks=[1.0, 2.0, 3.0]),
        label="w0", slack=0.0, queue_bound=8,
        rollup=rollup if rollup is not None else InMemoryCollector(),
    )


def counters(rollup):
    snapshot = rollup.snapshot()["counters"]
    return {key: snapshot.get(key, 0) for key in ROLLUP_COUNTERS}


class TestOpenEpoch:
    """The frames that open a worker epoch, checked with no socket."""

    def test_hello_then_route_opens_the_epoch(self):
        hello = protocol.worker_hello("w3")
        assert opened(hello) is None
        core, conn = opened(hello, protocol.route(2, 5, ["b", "a"]))
        assert core.worker.epoch == 2 and core.worker.label == "w3"
        assert core.expected == ("a", "b") and conn in core.conns
        (data,) = [data for _c, data, _close in core.flush()]
        (ack,) = FrameDecoder().feed(data)
        assert ack == protocol.hello_ack({"a": 8, "b": 8})

    def test_an_epoch_routed_no_source_has_no_session(self):
        core, _conn = opened(HELLO, protocol.route(0, 0, []))
        assert core.session is None

    def test_wrong_version_is_refused_and_counted(self):
        rollup = InMemoryCollector()
        with pytest.raises(
            ProtocolError,
            match=r"^cluster dialect requires protocol 4, got 2$",
        ):
            opened(protocol.worker_hello("w0", version=2), rollup=rollup)
        assert counters(rollup)["worker.version_mismatch"] == 1

    def test_an_unknown_source_is_refused(self):
        with pytest.raises(
            ProtocolError,
            match=r"^unroutable sources \['zz'\]; this worker serves "
                  r"\['a', 'b'\]$",
        ):
            opened(HELLO, protocol.route(0, 0, ["a", "zz"]))

    def test_a_resume_for_another_epoch_is_refused(self):
        route = protocol.route(3, 0, ["a"], resume=True)
        assert opened(HELLO, route) is None
        with pytest.raises(
            ProtocolError,
            match=r"^resume epoch 2 does not match route epoch 3$",
        ):
            opened(HELLO, route, protocol.resume(2, 0, None))

    def test_frames_out_of_order_are_refused(self):
        with pytest.raises(
            ProtocolError, match=r"^expected worker_hello, got 'route'$"
        ):
            opened(protocol.route(0, 0, ["a"]))
        with pytest.raises(
            ProtocolError, match=r"^expected resume, got 'drain'$"
        ):
            opened(
                HELLO, protocol.route(0, 0, ["a"], resume=True),
                protocol.drain(),
            )

    def test_a_resume_restores_the_checkpoint(self):
        rollup = InMemoryCollector()
        core, conn = opened(
            HELLO, protocol.route(0, 0, ["a", "b"]), rollup=rollup
        )
        core.frame(conn, protocol.block_frame(
            [reading("a", 0, ts=0.5), reading("b", 0, ts=2.5)]
        ))
        core.drain()
        core.frame(conn, protocol.checkpoint(1))
        frames = [
            frame for _c, data, _close in core.flush()
            for frame in FrameDecoder().feed(data)
        ]
        (ack,) = [f for f in frames if f["type"] == "checkpoint_ack"]
        assert ack["ok"]

        resumed, _conn = opened(
            HELLO, protocol.route(1, 0, ["a", "b"], resume=True),
            protocol.resume(1, ack["ticks"], ack["state"]), rollup=rollup,
        )
        assert counters(rollup) == {
            "worker.version_mismatch": 0,
            "worker.resumed_from_checkpoint": 1,
        }
        assert resumed.checkpoint() == core.checkpoint()
        assert resumed.session._session.held == core.session._session.held

    def test_a_resume_without_state_starts_fresh(self):
        rollup = InMemoryCollector()
        core, _conn = opened(
            HELLO, protocol.route(1, 0, ["a"], resume=True),
            protocol.resume(1, 0, None), rollup=rollup,
        )
        assert core.session.per_tick == []
        assert counters(rollup)["worker.resumed_from_checkpoint"] == 0
