"""The gateway core with no socket: events in, frames out.

:class:`~repro.net.gateway_core.GatewayCore` is driven here by hand —
hellos, frames, ends, drains and liveness checks — with hand-made
readings and a stand-in pipeline session, no simulator and no event
loop, so the suite runs without numpy. What the core's ``flush`` hands
over is decoded exactly as a socket peer would.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.net import protocol
from repro.net.gateway_core import GatewayCore, TickLedger, WorkerRole
from repro.net.protocol import FrameDecoder
from repro.net.recovery import decode_state
from repro.streams.telemetry import InMemoryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple

SOURCES = ("a", "b")


class Pipeline:
    """A stand-in session: it holds what it is pushed and emits, at each
    ``advance(w)``, every held reading the sweep rule lets through
    (``ts + 2e-9 < w``), in ``(ts, source, seq)`` order — so its output
    equals the in-memory run's only if no reading reaches it after a
    watermark that should have waited for it."""

    def __init__(self, ticks=()):
        self.receptor_ids = SOURCES
        self.ticks = tuple(ticks)
        self.safe_time = float("-inf")
        self.held = []
        self.output = []
        self.emitted = []
        self.late = []
        self.span_sink = None

    def push_run(self, source, items, traces=None):
        for item in items:
            if item.timestamp + 2e-9 < self.safe_time:
                self.late.append(item)
            self.held.append((item.timestamp, source, item.get("v"), item))

    def advance(self, watermark):
        if watermark <= self.safe_time:
            return []
        self.safe_time = watermark
        ready = sorted(e for e in self.held if e[0] + 2e-9 < watermark)
        self.held = [e for e in self.held if not e[0] + 2e-9 < watermark]
        out = [item for *_key, item in ready]
        self.output += out
        self.emitted += out
        return [watermark]

    def take_emitted(self):
        out, self.emitted = self.emitted, []
        return out

    def checkpoint(self):
        return {"held": list(self.held), "safe_time": self.safe_time,
                "output": list(self.output)}

    def restore(self, state):
        self.held = list(state["held"])
        self.safe_time = state["safe_time"]
        self.output = list(state["output"])

    def close(self):
        self.advance(float("inf"))
        return self


def reading(source, seq, ts=None, arrival=None):
    """One row as a feeder's block carries it (``v`` is the seq)."""
    ts = float(seq) if ts is None else ts
    item = StreamTuple(ts, {"v": seq}, "s")
    return (source, seq, ts if arrival is None else arrival, None, item, None)


class Peers:
    """Decodes what the core's flush hands each connection."""

    def __init__(self, core):
        self.core = core
        self.received = defaultdict(list)
        self.closed = set()

    def flush(self):
        for conn, data, close in self.core.flush():
            self.received[conn].extend(FrameDecoder().feed(data))
            if close:
                self.closed.add(conn)

    def frames(self, conn, kind):
        return [f for f in self.received[conn] if f["type"] == kind]


def feeder_core(session=None, sources=SOURCES, **kwargs):
    core = GatewayCore(session or Pipeline(), sources, **kwargs)
    return core, Peers(core)


def connect(core, peers, names=SOURCES, version=protocol.PROTOCOL_VERSION):
    conn = core.opened()
    core.hello(conn, protocol.hello(names, version))
    peers.flush()
    return conn


def block(rows):
    return protocol.block_frame(rows)


class TestSheddingWhileDrainsAreHeld:
    """Rows offered with no drain between them: each row is offered on
    its own, so a drop policy sheds rows — not frames, and not nothing."""

    @pytest.mark.parametrize(
        "policy,kept",
        [("drop-oldest", range(34, 50)), ("drop-newest", range(16))],
    )
    def test_two_frames_into_a_queue_of_sixteen(self, policy, kept):
        collector = InMemoryCollector()
        core, peers = feeder_core(
            sources=["a"], policy=policy, queue_bound=16, telemetry=collector
        )
        conn = connect(core, peers, ["a"])
        assert peers.frames(conn, "hello_ack")[0]["credits"] is None
        core.frame(conn, block([reading("a", seq) for seq in range(40)]))
        core.frame(conn, block([reading("a", seq) for seq in range(40, 50)]))
        assert conn.served()  # a drop policy never stalls a connection
        core.frame(conn, protocol.bye("a"))
        core.drain()
        assert [item.get("v") for item in core.session.output] == list(kept)
        stats = core.stats()["sources"]["a"]
        assert (stats["offered"], stats["delivered"]) == (50, 16)
        assert stats["offered"] == stats["delivered"] + stats["dropped_overload"]
        counters = collector.snapshot()["counters"]
        assert counters["gateway.a.dropped"] == stats["dropped_overload"] == 34
        assert core.complete


class TestPastItsCredits:
    def test_the_core_stops_serving_it_until_a_drain(self):
        """Four credits, ten rows in one block, then a bye: the fifth
        row meets a full queue, so the rest of the block and the bye
        wait in the core and the connection is not served; one drain
        serves all of it, a queue's worth at a time."""
        core, peers = feeder_core(queue_bound=4)
        conn = connect(core, peers, ["a", "b"])
        assert peers.frames(conn, "hello_ack")[0]["credits"] == {
            "a": 4, "b": 4,
        }
        core.frame(conn, block([reading("a", seq) for seq in range(10)]))
        core.frame(conn, protocol.bye("a"))
        assert not conn.served()
        peers.flush()
        assert peers.frames(conn, "bye_ack") == []
        assert core.session.held == []  # nothing is drained by a frame
        core.drain()
        assert conn.served()
        assert [e[2] for e in core.session.held] == list(range(10))
        peers.flush()
        assert peers.frames(conn, "bye_ack") == [protocol.bye_ack("a")]
        granted = sum(f["credits"] for f in peers.frames(conn, "credit"))
        assert granted == 10
        stats = core.stats()["sources"]["a"]
        assert stats["max_depth"] == 4 and stats["blocked"] >= 1
        assert stats["final"]


def worker_core(session, sources=SOURCES, epoch=3, queue_bound=8):
    rollup = resolve_telemetry(None)
    core = GatewayCore(
        session, sources, queue_bound=queue_bound,
        worker=WorkerRole(epoch, "w0", rollup),
    )
    peers = Peers(core)
    conn = core.attach(sources)
    peers.flush()
    return core, peers, conn


def results(frames):
    return [
        item for frame in frames if frame["type"] == "result_block"
        for _tick, items, _spans in protocol.result_block_ticks(frame)
        for item in items
    ]


class TestCheckpointCutInsideABlock:
    def test_the_cut_falls_after_the_last_row_ahead_of_it(self):
        """Twenty rows into queues of eight, a checkpoint frame, twenty
        more rows, with no drain between them: the checkpoint waits
        behind the held rows, and its snapshot holds exactly the first
        twenty readings — restored into a fresh core and fed the rest,
        it gives the uninterrupted run's output."""
        ticks = [float(t) for t in range(0, 41, 4)]
        rows = [reading("a", seq) for seq in range(40)]
        core, peers, conn = worker_core(TickLedger(Pipeline(ticks)))
        core.frame(conn, block(rows[:20]))
        core.frame(conn, protocol.checkpoint(7))
        core.frame(conn, block(rows[20:]))
        assert not conn.served()
        core.drain()
        peers.flush()
        (ack,) = peers.frames(conn, "checkpoint_ack")
        assert (ack["id"], ack["epoch"], ack["ok"]) == (7, 3, True)
        state = decode_state(ack["state"])
        before = results(peers.received[conn][
            :peers.received[conn].index(ack)
        ])

        resumed_ledger = TickLedger(Pipeline(ticks))
        resumed_ledger.restore(state["ledger"])
        resumed, again, link = worker_core(resumed_ledger)
        resumed.restore(state["gateway"])
        assert resumed.stats()["sources"]["a"]["offered"] == 0
        for frame in (block(rows[20:]), protocol.bye("a"), protocol.bye("b")):
            resumed.frame(link, frame)
        resumed.drain()
        again.flush()

        reference = sorted(rows, key=lambda row: row[4].timestamp)
        assert before + results(again.received[link]) == [
            row[4] for row in reference
        ]
        (end,) = again.frames(link, "result_end")
        assert end["ticks"] == len(ticks) and resumed.complete


class TestSessionFailure:
    def test_every_owner_is_told_and_a_later_hello_is_refused(self):
        class Broken(Pipeline):
            def push_run(self, source, items, traces=None):
                raise OperatorError("the pipeline broke")

        core, peers = feeder_core(Broken())
        first = connect(core, peers, ["a"])
        second = connect(core, peers, ["b"])
        core.frame(first, block([reading("a", 0)]))
        core.drain()
        peers.flush()
        assert isinstance(core.failure, OperatorError)
        for conn in (first, second):
            (error,) = peers.frames(conn, "error")
            assert "pipeline broke" in error["reason"]
        # Later input is ignored; a later connection is refused.
        core.frame(first, block([reading("a", 1)]))
        core.end(first)
        core.end(second)
        late = connect(core, peers, ["a"])
        assert late in peers.closed
        (refusal,) = peers.frames(late, "error")
        assert "pipeline session failed" in refusal["reason"]
        assert not core.complete


class TestLiveness:
    def test_a_silent_source_is_evicted_under_an_injected_clock(self):
        now = [0.0]
        core, peers = feeder_core(clock=lambda: now[0], liveness_timeout=10.0)
        conn = connect(core, peers)
        core.frame(conn, block([reading("a", 0), reading("b", 0)]))
        core.drain()
        now[0] = 8.0
        core.frame(conn, protocol.heartbeat(["a"]))
        core.frame(conn, block([reading("a", 1)]))
        core.frame(conn, protocol.bye("a"))
        core.drain()
        assert core.check_liveness() == []  # b silent for 8 s only
        now[0] = 10.5
        assert core.check_liveness() == ["b"]
        stats = core.stats()["sources"]
        assert stats["b"]["evicted"] and stats["b"]["final"]
        assert not stats["a"]["evicted"]
        assert core.complete
        assert [item.get("v") for item in core.session.output] == [0, 0, 1]


class TestIdleWorkerEpoch:
    def test_ack_heartbeat_drain_and_an_empty_result_end(self):
        core, peers, conn = worker_core(None, sources=[], epoch=5)
        assert peers.received[conn] == [protocol.hello_ack({})]
        core.frame(conn, protocol.heartbeat([]))
        core.drain()
        assert not core.complete
        core.frame(conn, protocol.drain())
        core.drain()
        peers.flush()
        (end,) = peers.frames(conn, "result_end")
        assert (end["epoch"], end["worker"], end["ticks"]) == (5, "w0", 0)
        assert end["stats"]["sources"] == {}
        assert core.complete and conn not in peers.closed

    @pytest.mark.parametrize("kind", ["data", "block"])
    def test_a_reading_is_refused(self, kind):
        core, peers, conn = worker_core(None, sources=[])
        item = StreamTuple(1.0, {"v": 1})
        if kind == "data":
            frame = protocol.data_frame("a", 0, 1.0, item)
        else:
            frame = block([("a", 0, 1.0, None, item, None)])
        core.frame(conn, frame)
        peers.flush()
        assert conn in peers.closed
        (error,) = peers.frames(conn, "error")
        assert "not declared" in error["reason"]
        assert not core.complete


RECORDINGS = st.lists(
    st.tuples(
        st.sampled_from(SOURCES),
        st.integers(0, 40),            # timestamp, half-seconds
        st.integers(0, 6),             # delay, half-seconds (≤ slack)
    ),
    max_size=40,
)


class TestAnyCutAndAnyDrains:
    @given(
        recording=RECORDINGS, cuts=st.data(),
        bound=st.integers(1, 6), seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_output_and_accounting_match_the_in_memory_run(
        self, recording, cuts, bound, seed
    ):
        readings = {name: [] for name in SOURCES}
        for name, ts, delay in sorted(recording, key=lambda r: r[1]):
            seq = len(readings[name])
            readings[name].append(
                reading(name, seq, ts / 2, ts / 2 + delay / 2)
            )
        # Sent in arrival order, as a delayed feeder sends them.
        sent = sorted(
            (row for rows in readings.values() for row in rows),
            key=lambda row: (row[2], row[0], row[1]),
        )
        core, peers = feeder_core(slack=3.0, queue_bound=bound)
        conn = connect(core, peers)
        rest = list(sent)
        while rest:
            size = cuts.draw(st.integers(1, len(rest)), label="frame")
            core.frame(conn, block(rest[:size]))
            rest = rest[size:]
            if seed.random() < 0.5:
                core.drain()
        for name in SOURCES:
            core.frame(conn, protocol.bye(name))
            if seed.random() < 0.5:
                core.drain()
        core.drain()

        reference = Pipeline()
        for name in SOURCES:
            reference.push_run(name, [row[4] for row in readings[name]])
        reference.close()
        session = core.session.close()
        assert session.late == []
        assert session.output == reference.output
        assert core.complete
        for name, stats in core.stats()["sources"].items():
            assert stats["offered"] == (
                stats["delivered"] + stats["dropped_overload"]
            ) == len(readings[name])
            assert stats["max_depth"] <= bound
