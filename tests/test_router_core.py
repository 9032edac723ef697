"""The router core with no socket: events in, actions out.

:class:`~repro.net.router_core.RouterCore` is driven here by hand, with
hand-made readings, a key function and a tick list — no simulator, no
event loop. :class:`Cluster` plays the feeder and the workers around
one core (credits, checkpoint acks, ``result_end``), decoding what the
core's ``flush`` hands over exactly as a socket peer would.
"""

import ast
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    feeder_core,
    gateway_core,
    protocol,
    router_core,
    router_epochs,
)
from repro.net.protocol import FrameDecoder
from repro.net.router_core import RouterCore, Settled
from repro.net.router_epochs import CloseLink, OpenLink, RunDone
from repro.streams.telemetry import resolve_telemetry
from repro.streams.tuples import StreamTuple

SOURCES = ("a", "b")
KEYS = ("k0", "k1", "k2", "k3")
TICKS = [float(t) for t in range(1, 41)]


def key_fn(source, item):
    return item.get("k")


def reading(source, seq, key="k0"):
    """One row as a feeder's block carries it."""
    item = StreamTuple(float(seq), {"k": key, "v": seq}, source)
    return (source, seq, float(seq), None, item, None)


class Cluster:
    """One core, the feeder that owns ``SOURCES``, and its workers."""

    def __init__(
        self, *, workers=("w0",), queue_bound=4, worker_credits=4,
        checkpoint_interval=None,
    ):
        self.core = RouterCore(
            SOURCES, key_fn, TICKS, slack=0.0, queue_bound=queue_bound,
            collector=resolve_telemetry(None), clock=lambda: 0.0,
            checkpoint_interval=checkpoint_interval, supervised=False,
            suspect_after=2.0, dead_after=None,
        )
        self.worker_credits = worker_credits
        #: Peer → every frame the core handed it, in order.
        self.received = defaultdict(list)
        self.closed = set()
        self.opening = []
        self.settled = []
        self.done = []
        self.feeder = None
        self.apply(self.core.connect("connect", {
            label: ("127.0.0.1", index) for index, label in enumerate(workers)
        }))
        self.answer_opens()
        self.feeder = self.hello(SOURCES)

    def apply(self, actions):
        for action in actions:
            if isinstance(action, OpenLink):
                self.opening.append(action.link)
            elif isinstance(action, CloseLink):
                self.closed.add(action.link)
            elif isinstance(action, Settled):
                self.settled.append(action)
            elif isinstance(action, RunDone):
                self.done.append(action.error)
        for peer, data, close in self.core.flush():
            self.received[peer].extend(FrameDecoder().feed(data))
            if close:
                self.closed.add(peer)
        self.check()

    def check(self):
        """Invariants a subclass asserts after every event."""

    def hello(self, names):
        feeder = self.core.feeder_opened()
        self.apply(self.core.feeder_hello(feeder, protocol.hello(names)))
        return feeder

    def answer_opens(self):
        while self.opening:
            link = self.opening.pop(0)
            self.apply(self.core.link_opened(link, protocol.hello_ack(
                {source: self.worker_credits for source in link.sources}
            )))

    def answer_drains(self):
        for link in list(self.received):
            if (
                getattr(link, "end", True) is None and not link.dead
                and not link.closed
                and {"type": "drain"} in self.received[link]
            ):
                self.apply(self.core.worker_frame(
                    link, protocol.result_end(self.core.epoch, link.label, 0, {})
                ))

    def send(self, rows, feeder=None):
        self.apply(self.core.feeder_frame(
            feeder or self.feeder, protocol.block_frame(rows)
        ))

    def credit(self, link, source, credits=1):
        self.apply(self.core.worker_frame(
            link, protocol.credit_frame(source, credits)
        ))

    def frames(self, peer, kind=None):
        return [
            frame for frame in self.received[peer]
            if kind is None or frame["type"] == kind
        ]

    def rows_on(self, link):
        return [
            row for frame in self.frames(link, "block")
            for row in protocol.block_rows(frame)
        ]

    def credits_granted(self):
        granted = Counter()
        for frame in self.frames(self.feeder, "credit") if self.feeder else ():
            granted[frame["source"]] += frame["credits"]
        return granted

    def link(self, label):
        return self.core.links[label]


class TestRebalanceBehindACreditWait:
    """A planned rebalance while a block waits on an exhausted worker
    credit: the drain queues behind the waiting reading instead of
    deadlocking on it."""

    def test_drain_follows_the_reading_once_its_credit_comes(self):
        cluster = Cluster(worker_credits=0)
        w0 = cluster.link("w0")
        cluster.send([reading("a", 0, "k0"), reading("a", 1, "k1")])
        assert cluster.feeder.stalled and len(w0.backlog) == 1
        assert cluster.rows_on(w0) == []

        cluster.apply(cluster.core.rebalance("join", add={"w1": ("h", 9)}))
        assert cluster.core.frozen
        assert cluster.frames(w0) == []  # the drain waits its turn

        cluster.credit(w0, "a")
        assert [f["type"] for f in cluster.frames(w0)] == ["block", "drain"]
        assert [row[1] for row in cluster.rows_on(w0)] == [0]
        assert cluster.credits_granted() == {"a": 1}

        cluster.worker_credits = 4
        cluster.answer_drains()
        cluster.answer_opens()
        assert cluster.settled[-1] == Settled("join", None)
        assert not cluster.core.frozen
        assert sorted(cluster.core.links) == ["w0", "w1"]
        # The held row went to the new epoch, behind the replay.
        new_rows = [
            row[1] for label in ("w0", "w1")
            for row in cluster.rows_on(cluster.link(label))
        ]
        assert sorted(new_rows) == [0, 1]
        assert cluster.credits_granted() == {"a": 2}


class TestReconnectDuringAFreeze:
    """A feeder that drops while a rebalance freezes the core gives its
    sources up at once, so its reconnect is accepted; what it sends
    then waits out the freeze."""

    def test_the_reconnect_is_accepted_and_placed_after_the_freeze(self):
        cluster = Cluster()
        core = cluster.core
        cluster.send([reading("a", 0)])
        cluster.apply(core.rebalance("join", add={"w1": ("h", 9)}))
        assert core.frozen
        cluster.apply(core.feeder_closed(cluster.feeder))
        assert cluster.feeder in cluster.closed
        assert cluster.feeder not in core.feeders

        again = cluster.hello(SOURCES)
        assert cluster.frames(again, "hello_ack")
        assert not cluster.frames(again, "error")
        cluster.send([reading("a", 1, "k1")], again)
        assert core.data_frames == 1  # frozen: the block waits

        cluster.answer_drains()
        cluster.answer_opens()
        assert cluster.settled[-1] == Settled("join", None)
        assert not core.frozen
        assert core.data_frames == 2
        assert cluster.frames(again, "credit") == [
            protocol.credit_frame("a", 1)
        ]


def _bad_block(source):
    frame = protocol.block_frame([reading("b", 0)])
    frame["rows"][0][1] = source
    return frame


#: A hello opens its own connection; the rest follow a good hello.
MALFORMED_NAMES = {
    "hello-sources-number": {"type": "hello", "version": 3, "sources": 5},
    "hello-sources-mixed": {
        "type": "hello", "version": 3, "sources": ["b", 5],
    },
    "hello-sources-nested": {"type": "hello", "version": 3, "sources": [["b"]]},
    "hello-version-true": {"type": "hello", "version": True, "sources": ["b"]},
    "data-source-object": {
        **protocol.data_frame("x", 0, 0.0, StreamTuple(0.0, {"k": "k0"})),
        "source": {},
    },
    "block-source-list": _bad_block([]),
    "block-source-number": _bad_block(5),
    "heartbeat-sources-number": {"type": "heartbeat", "sources": 5},
    "heartbeat-sources-string": {"type": "heartbeat", "sources": "b"},
    "bye-source-list": {"type": "bye", "source": []},
    "bye-source-absent": {"type": "bye"},
}


class TestMalformedNamesAtTheCore:
    """A name that is not a name is refused to its connection — an
    ``error`` frame, then the close — and touches nothing else."""

    @pytest.mark.parametrize(
        "frame", MALFORMED_NAMES.values(), ids=MALFORMED_NAMES
    )
    def test_refused_and_the_neighbour_is_untouched(self, frame):
        cluster = Cluster()
        core = cluster.core
        cluster.apply(core.feeder_closed(cluster.feeder))  # frees "b" too
        neighbour = cluster.hello(["a"])
        cluster.send([reading("a", 0), reading("a", 1, "k1")], neighbour)

        def state():
            return (
                {name: len(frames) for name, frames in core.history.items()},
                core.data_frames, dict(core.max_arrival), set(core.final),
            )

        before = state()
        if frame["type"] == "hello":
            bad = core.feeder_opened()
            cluster.apply(core.feeder_hello(bad, frame))
        else:
            bad = cluster.hello(["b"])
            cluster.apply(core.feeder_frame(bad, frame))
        assert bad in cluster.closed
        error = cluster.received[bad][-1]
        assert error["type"] == "error"
        assert "source" in error["reason"] or "True" in error["reason"]
        assert state() == before

        cluster.send([reading("a", 2)], neighbour)
        again = cluster.hello(["b"])
        assert cluster.frames(again, "hello_ack")
        cluster.send([reading("b", 0)], again)
        assert core.data_frames == before[1] + 2


class TestCheckpointCutInsideABlock:
    def test_a_50_row_block_is_cut_after_readings_20_and_40(self):
        cluster = Cluster(
            queue_bound=64, worker_credits=64, checkpoint_interval=20
        )
        w0 = cluster.link("w0")
        cluster.send([reading("a", seq, KEYS[seq % 4]) for seq in range(50)])
        assert [f["type"] for f in cluster.frames(w0)] == [
            "block", "checkpoint", "block", "checkpoint", "block",
        ]
        blocks = cluster.frames(w0, "block")
        assert [len(block["rows"]) for block in blocks] == [20, 20, 10]
        assert w0.pending_checkpoints == {1: {"a": 20}, 2: {"a": 40}}
        cluster.apply(cluster.core.worker_frame(
            w0, protocol.checkpoint_ack(2, 0, 0, "state")
        ))
        assert cluster.core.store.latest("w0").positions == {"a": 40}
        assert cluster.core.recovery["checkpoints_acked"] == 1


class Checked(Cluster):
    """A cluster that asserts the core's invariants after every event."""

    def __init__(self, **kwargs):
        self.sent = Counter()
        self.drained = set()
        super().__init__(**kwargs)

    def check(self):
        core = self.core
        for link, frames in self.received.items():
            if not hasattr(link, "positions"):
                continue
            written = Counter()
            for index, frame in enumerate(frames):
                if frame["type"] == "block":
                    assert link not in self.drained or index < self.drain_at(link)
                    written.update(row[0] for row in protocol.block_rows(frame))
            # positions count every reading written on the link
            assert {s: n for s, n in link.positions.items() if n} == written
            if link not in self.drained and {"type": "drain"} in frames:
                self.drained.add(link)
                # every retained reading the link owns is on the wire
                owner = core._ring.owner
                owned = Counter(
                    frame.source
                    for frames_ in core.history.values() for frame in frames_
                    if owner(frame.key) == link.label
                )
                assert written == owned
        # a feeder's unplaced readings stay within its credit window
        waiting = Counter(
            entry[0].source
            for link in core.links.values() for entry in link.backlog
            if type(entry) is tuple and entry[1] is not None
        )
        for source in SOURCES:
            assert waiting[source] <= core.queue_bound
        # one feeder credit per reading placed or skipped, no more
        granted = self.credits_granted()
        assert sum(granted.values()) == core.data_frames
        for source in SOURCES:
            assert granted[source] <= self.sent[source]
            assert self.sent[source] - granted[source] <= core.queue_bound

    def drain_at(self, link):
        return self.received[link].index({"type": "drain"})

    def send_from(self, source, keys):
        window = (
            self.core.queue_bound - self.sent[source]
            + self.credits_granted()[source]
        )
        rows = [
            reading(source, self.sent[source] + offset, key)
            for offset, key in enumerate(keys[:window])
        ]
        if rows:
            self.sent[source] += len(rows)
            self.send(rows)

    def live_links(self):
        return [
            link for _, link in sorted(self.core.links.items())
            if not link.dead and not link.closed
        ]


OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"), st.sampled_from(SOURCES),
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=6),
        ),
        st.tuples(
            st.just("credit"), st.integers(0, 3), st.sampled_from(SOURCES),
            st.integers(1, 3),
        ),
        st.tuples(st.just("rebalance")),
        st.tuples(st.just("death"), st.integers(0, 3)),
        st.tuples(st.just("answer")),
    ),
    max_size=40,
)


class TestInterleavings:
    """Random interleavings of feeder blocks, worker credits, one
    rebalance and one link death keep the core's four invariants
    (asserted after every event by :class:`Checked`), and the run
    still finishes with one credit per reading sent."""

    @given(ops=OPS)
    @settings(max_examples=150, deadline=None)
    def test_invariants_hold_and_the_run_finishes(self, ops):
        cluster = Checked(queue_bound=3, worker_credits=2)
        core = cluster.core
        rebalanced = died = False
        for op in ops:
            kind = op[0]
            if kind == "send":
                cluster.send_from(op[1], op[2])
            elif kind == "credit":
                links = cluster.live_links()
                if links:
                    cluster.credit(links[op[1] % len(links)], op[2], op[3])
            elif kind == "rebalance" and not rebalanced:
                rebalanced = True
                if "w1" in core.links:
                    request = core.rebalance("leave", remove={"w1"})
                else:
                    request = core.rebalance("join", add={"w1": ("h", 9)})
                cluster.apply(request)
            elif kind == "death" and not died:
                links = cluster.live_links()
                if links:
                    died = True
                    link = links[op[1] % len(links)]
                    cluster.apply(core.link_died(link))
            elif kind == "answer":
                cluster.answer_opens()
                cluster.answer_drains()
        # Drive to the end: open, credit and drain everything, then bye.
        byed = False
        for _ in range(200):
            if core.finished:
                break
            cluster.answer_opens()
            for link in cluster.live_links():
                for source in SOURCES:
                    cluster.credit(link, source, 8)
            cluster.answer_drains()
            if not byed and not core.frozen and not cluster.feeder.stalled:
                byed = True
                for source in SOURCES:
                    cluster.apply(core.feeder_frame(
                        cluster.feeder, protocol.bye(source)
                    ))
                cluster.apply(core.finish())
        assert core.finished and core.fatal is None
        assert cluster.credits_granted() == cluster.sent
        assert len(cluster.frames(cluster.feeder, "bye_ack")) == 2


@pytest.mark.parametrize(
    "module", [router_core, router_epochs, gateway_core, feeder_core]
)
def test_the_core_imports_no_asyncio(module):
    tree = ast.parse(open(module.__file__).read())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module or "" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert not any(name.split(".")[0] == "asyncio" for name in imported)
