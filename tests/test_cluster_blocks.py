"""Blocks across the cluster hop, both ways.

Readings reach the router as feeder blocks and are routed a block at a
time; cleaned output returns from each worker as ``result_block`` frames,
many ticks of positional rows per frame. These tests pin the frame's
round trip and its fail-closed decoder, the call shapes of both hops on
a real cluster run, and a pipeline whose output names a field like a
reserved trace column crossing the cluster unharmed.

Real sockets on loopback ephemeral ports; ``asyncio.wait_for`` guards
are hang insurance only.
"""

import asyncio
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators.arbitrate_ops import max_count_arbitrate
from repro.core.operators.point_ops import convert_field, ghost_filter
from repro.core.operators.smooth_ops import presence_smoother
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.errors import ProtocolError
from repro.net import gateway_core, protocol, ring
from repro.net.feeder import ReplayFeeder
from repro.net.gateway_core import RESULT_CHUNK, write_ticks
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    Outbox,
    encode_frame,
)
from repro.net.router import ClusterRouter
from repro.net.router_core import RouterCore
from repro.net.service import ScenarioBundle
from repro.net.worker import ClusterWorker
from repro.scenarios.shelf import ShelfScenario
from repro.streams.tuples import StreamTuple

from tests.test_cluster_equivalence import cluster_run, in_memory_output
from tests.test_router_core import Cluster

WAIT = 30.0


def result_frames(data):
    return [
        frame for frame in FrameDecoder().feed(bytes(data))
        if frame["type"] in ("result", "result_block")
    ]


def shipped(per_tick, spans_per_tick):
    """``write_ticks`` over a ledger holding these buckets: its frames."""
    ledger = SimpleNamespace(
        per_tick=per_tick, spans_per_tick=spans_per_tick, reported=0
    )
    out = Outbox()
    count = write_ticks(out, 5, ledger)
    assert count == len(per_tick) == ledger.reported
    return FrameDecoder().feed(out.take())


def gathered(frames):
    """Tick → (items, spans), appending a tick continued across frames."""
    ticks = {}
    for frame in frames:
        assert frame["type"] == "result_block" and frame["epoch"] == 5
        for tick, items, spans in protocol.result_block_ticks(frame):
            have_items, have_spans = ticks.setdefault(tick, ([], []))
            have_items.extend(items)
            have_spans.extend(spans)
    return ticks


NAMES = st.one_of(
    st.sampled_from(["_ts", "_stream", "type", "rows", "k"]),
    st.text(max_size=6),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.integers(-2**70, 2**70),
    FINITE,
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)
ITEMS = st.builds(
    StreamTuple, FINITE, st.dictionaries(NAMES, SCALARS, max_size=4),
    st.text(max_size=6),
)
SPANS = st.lists(st.integers(0, 2**62), min_size=11, max_size=11)


class TestResultBlockRoundTrip:
    @given(
        buckets=st.lists(
            st.tuples(
                st.lists(ITEMS, max_size=6), st.lists(SPANS, max_size=4)
            ),
            max_size=8,
        ),
        traced=st.booleans(),
        big=st.one_of(st.none(), st.tuples(ITEMS, st.integers(1, 300))),
    )
    @settings(max_examples=80, deadline=None)
    def test_drawn_ticks_read_back_exactly(self, buckets, traced, big):
        """Empty ticks, mixed schemas in one tick, fields named like
        reserved columns, every JSON scalar, with and without spans, and
        a tick of more than ``RESULT_CHUNK`` rows: what the frames read
        back is what the ledger held."""
        per_tick = [list(items) for items, _ in buckets]
        spans_per_tick = [
            [list(span) for span in spans] if traced else []
            for _, spans in buckets
        ]
        if big is not None:
            item, extra = big
            per_tick.append([item] * (RESULT_CHUNK + extra))
            spans_per_tick.append([])
        frames = shipped(per_tick, spans_per_tick)
        expected = {
            tick: (items, spans)
            for tick, (items, spans) in enumerate(zip(per_tick, spans_per_tick))
            if items or spans
        }
        assert gathered(frames) == expected
        for frame in frames:
            assert len(frame["rows"]) <= RESULT_CHUNK
            assert len(frame.get("spans", ())) <= RESULT_CHUNK
        if not traced:
            rows = sum(len(items) for items in per_tick)
            assert len(frames) == math.ceil(rows / RESULT_CHUNK)
        # Field order too: a row keeps its tuple's own.
        assert [
            list(item.keys()) for items, _ in gathered(frames).values()
            for item in items
        ] == [
            list(item.keys()) for items, _ in expected.values()
            for item in items
        ]

    def test_a_frame_over_the_byte_limit_splits(self):
        fat = [
            StreamTuple(float(n), {"blob": "x" * (MAX_FRAME_BYTES // 3)}, "s")
            for n in range(4)
        ]
        ticks = [(2, fat[:1], []), (3, fat[1:], [])]
        frames = FrameDecoder().feed(protocol.encode_result_block(5, ticks))
        assert len(frames) > 1
        assert gathered(frames) == {2: (fat[:1], []), 3: (fat[1:], [])}

    def test_a_single_oversize_row_is_refused(self):
        fat = StreamTuple(1.0, {"blob": "x" * MAX_FRAME_BYTES}, "s")
        with pytest.raises(ProtocolError, match="result row"):
            protocol.encode_result_block(5, [(0, [fat], [])])

    def test_reserved_names_travel_as_cells(self):
        item = StreamTuple(
            1.0, {"_ts": 5.0, "_stream": "evil", "x": 1}, stream="rfid"
        )
        frames = shipped([[item]], [[]])
        ((tick, (items, spans)),) = gathered(frames).items()
        assert (tick, items, spans) == (0, [item], [])
        assert (items[0].timestamp, items[0].stream) == (1.0, "rfid")


def good_frame():
    """Ticks 3 and 5 of one frame: two rows, then two more."""
    a = StreamTuple(1.5, {"tag_id": "T1", "n": 2}, stream="rfid")
    b = StreamTuple(2.0, {"temp": 20.5}, stream="mote")
    (frame,) = FrameDecoder().feed(
        protocol.encode_result_block(0, [(3, [a, b], []), (5, [b, a], [])])
    )
    return frame


def _set_row(index, cell, value):
    def mutate(frame):
        frame["rows"][index][cell] = value
    return mutate


MALFORMED_RESULTS = {
    "timestamp-nan": (_set_row(1, 1, float("nan")), r"row 1 .*timestamp"),
    "timestamp-string": (_set_row(3, 1, "abc"), r"row 3 .*timestamp"),
    "stream-number": (_set_row(2, 2, 5), r"row 2 names stream 5"),
    "k-out-of-range": (_set_row(2, 0, 2), r"row 2 carries k=2"),
    "k-negative": (_set_row(0, 0, -1), r"row 0 carries k=-1"),
    "row-too-wide": (
        lambda frame: frame["rows"][3].append(1), r"row 3 carries 3 values"
    ),
    "row-too-narrow": (
        lambda frame: frame["rows"][1].pop(), r"row 1 carries 0 values"
    ),
    "ticks-short-of-rows": (
        lambda frame: frame["ticks"][1].__setitem__(1, 1),
        r"ticks \[3, 5\] list 3 rows; the frame carries 4",
    ),
    "ticks-past-rows": (
        lambda frame: frame["ticks"][0].__setitem__(1, 3),
        r"ticks \[3, 5\] list 5 rows",
    ),
    "tick-entry-shape": (
        lambda frame: frame["ticks"][1].append(0), r"tick entry 1"
    ),
    "spans-not-covered": (
        lambda frame: frame.__setitem__("spans", []), r"tick entry 0"
    ),
}


class TestResultBlockFailsClosed:
    """What ``record_to_tuple`` let through (a NaN timestamp, a stream
    coerced from a number) or failed on untyped (a string timestamp) is
    a ``ProtocolError`` naming the row or tick."""

    def test_the_good_frame_decodes(self):
        ticks = protocol.result_block_ticks(good_frame())
        assert [(tick, len(items)) for tick, items, _ in ticks] == [
            (3, 2), (5, 2)
        ]

    @pytest.mark.parametrize(
        "mutate,named", MALFORMED_RESULTS.values(), ids=MALFORMED_RESULTS
    )
    def test_malformed_frame_is_a_protocol_error(self, mutate, named):
        frame = good_frame()
        mutate(frame)
        # As it would arrive: json.loads accepts NaN.
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        with pytest.raises(ProtocolError, match=named):
            protocol.result_block_ticks(decoded)

    def test_integer_timestamps_are_numbers(self):
        frame = good_frame()
        frame["rows"][0][1] = 2
        ((_, items, _), _) = protocol.result_block_ticks(frame)
        assert type(items[0].timestamp) is float and items[0].timestamp == 2.0

    @pytest.mark.parametrize("name", sorted(MALFORMED_RESULTS))
    def test_a_refused_frame_leaves_the_link_as_it_was(self, name):
        """The router core's link takes a good frame, then refuses a bad
        one whose first tick is sound: nothing of the bad frame lands."""
        mutate, named = MALFORMED_RESULTS[name]
        bad = good_frame()
        bad["epoch"] = 1
        mutate(bad)

        cluster = Cluster()
        link = cluster.link("w0")
        cluster.apply(cluster.core.worker_frame(link, good_frame()))
        cluster.apply(cluster.core.worker_frame(link, bad))
        expected = {
            tick: items
            for tick, items, _ in protocol.result_block_ticks(good_frame())
        }
        assert link.per_tick == expected
        assert link.dead
        with pytest.raises(ProtocolError, match=named):
            raise link.error

    def test_a_protocol_3_result_frame_is_refused(self):
        cluster = Cluster()
        link = cluster.link("w0")
        cluster.apply(
            cluster.core.worker_frame(link, protocol.result(0, 1, []))
        )
        assert link.per_tick == {}
        with pytest.raises(ProtocolError, match="unexpected frame 'result'"):
            raise link.error


class TestCallShapes:
    """A 12 s shelf cluster of two untraced workers: the router core
    hashes each distinct key once per ``_route_rows`` call (one per
    block, plus one for a block resumed after a credit wait), and a
    worker ships its rows in full frames, not one frame per tick."""

    def test_one_hash_per_key_per_block_and_full_result_frames(
        self, monkeypatch
    ):
        counts = {"hashes": 0, "keys": 0, "readings": 0}
        ships = []
        real_hash = ring._hash
        real_route = RouterCore._route_rows
        real_write = gateway_core.write_ticks
        #: Keys of the rows the current ``_route_rows`` call took; a
        #: block whose reading waits on a credit resumes in a later call.
        keys = set()
        counted = set()

        def counting_hash(value):
            # _hash ← HashRing.owner ← the caller being counted.
            if sys._getframe(2).f_code.co_name == "_route_rows":
                counts["hashes"] += 1
            return real_hash(value)

        def count(core, rows):
            for row in rows:
                counts["readings"] += 1
                keys.add(str(core._key_fn(row[0], row[4])))
                yield row

        def route(self, feeder, rows):
            if id(rows) not in counted:
                rows = count(self, rows)
                counted.add(id(rows))
            keys.clear()
            try:
                real_route(self, feeder, rows)
            finally:
                counts["keys"] += len(keys)

        def write(out, epoch, ledger):
            rows = sum(len(b) for b in ledger.per_tick[ledger.reported:])
            tap = Outbox()
            done = real_write(tap, epoch, ledger)
            data = tap.take()
            ships.append((rows, len(result_frames(data))))
            out.write(data)
            return done

        monkeypatch.setattr(ring, "_hash", counting_hash)
        monkeypatch.setattr(RouterCore, "_route_rows", route)
        monkeypatch.setattr(gateway_core, "write_ticks", write)
        output, router = asyncio.run(cluster_run("shelf", 2, 12.0))

        assert output == in_memory_output("shelf", 12.0)
        assert counts["readings"] == router.data_frames > counts["keys"] > 0
        assert 0 < counts["hashes"] <= counts["keys"]
        # One ship per worker epoch (no checkpoints, no rebalance).
        assert len(ships) == 2 and len(router.epochs()) == 1
        rows = sum(r for r, _ in ships)
        frames = sum(f for _, f in ships)
        assert rows == len(output)
        assert frames <= math.ceil(rows / RESULT_CHUNK) + len(ships)


def reserved_name_bundle():
    """The shelf pipeline, then a Point stage that copies each tag into
    a field named like the reserved stream column."""
    scenario = ShelfScenario(duration=12.0, seed=3)
    pipeline = ESPPipeline(
        "rfid",
        temporal_granule=scenario.temporal_granule,
        sequence=[
            ghost_filter(),
            presence_smoother(),
            max_count_arbitrate(),
            convert_field("tag_id", str, output="_stream"),
        ],
    )
    processor = ESPProcessor(scenario.registry)
    processor.add_pipeline(pipeline)
    return ScenarioBundle(
        "shelf",
        processor,
        scenario.recorded_streams(),
        scenario.duration,
        scenario.poll_period,
        shard_key="tag_id",
    )


def test_reserved_field_names_cross_the_cluster():
    bundle = reserved_name_bundle()
    reference = bundle.processor.run(
        bundle.until, bundle.tick, sources=bundle.streams
    ).output
    assert reference and all("_stream" in item for item in reference)

    async def scenario():
        worker = ClusterWorker(reserved_name_bundle())
        router = ClusterRouter(reserved_name_bundle())
        try:
            host, port = await worker.start()
            router_host, router_port = await router.start()
            await router.connect_workers([("w0", host, port)])
            feeder = ReplayFeeder(router_host, router_port, bundle.streams)
            await asyncio.wait_for(feeder.run(), WAIT)
            await asyncio.wait_for(router.run_until_complete(), WAIT)
            return router.result()
        finally:
            await router.close()
            await worker.close()

    assert asyncio.run(scenario()) == reference
