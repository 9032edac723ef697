"""Tests for the ingestion wire protocol framing and payloads."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameTruncated, ProtocolError
from repro.net import protocol
from repro.net.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    record_to_tuple,
    tuple_to_record,
)
from repro.streams.tuples import StreamTuple


class TestFraming:
    def test_roundtrip_single_frame(self):
        frame = protocol.hello(["reader0", "reader1"])
        decoded = FrameDecoder().feed(encode_frame(frame))
        assert decoded == [frame]

    def test_split_across_arbitrary_boundaries(self):
        frames = [
            protocol.hello(["a"]),
            protocol.heartbeat(["a"]),
            protocol.bye("a"),
        ]
        wire = b"".join(encode_frame(f) for f in frames)
        for cut in range(1, len(wire) - 1):
            decoder = FrameDecoder()
            out = decoder.feed(wire[:cut]) + decoder.feed(wire[cut:])
            assert out == frames
            assert len(decoder) == 0

    def test_byte_at_a_time(self):
        frame = protocol.credit_frame("a", 7)
        decoder = FrameDecoder()
        out = []
        for i in encode_frame(frame):
            out.extend(decoder.feed(bytes([i])))
        assert out == [frame]

    def test_oversized_length_prefix_rejected(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(header)

    def test_oversized_frame_not_encodable(self):
        with pytest.raises(ProtocolError):
            encode_frame({"type": "data", "blob": "x" * (MAX_FRAME_BYTES)})

    def test_non_object_payload_rejected(self):
        payload = b"[1, 2, 3]"
        wire = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(wire)

    def test_typeless_object_rejected(self):
        payload = b'{"version": 1}'
        wire = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(wire)

    def test_garbage_payload_rejected(self):
        payload = b"\xff\xfe not json"
        wire = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(wire)


class ScriptedStream:
    """The one method :func:`protocol.read_frame` asks of a stream:
    ``read`` hands out the scripted chunks in turn (an exception is
    raised), then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.reads = 0

    async def read(self, n):
        self.reads += 1
        if not self.chunks:
            return b""
        if isinstance(self.chunks[0], Exception):
            raise self.chunks.pop(0)
        assert len(self.chunks[0]) <= n
        return self.chunks.pop(0)


def one_at_a_time(wire):
    """The reference reading: the one-shot ``read_frame`` helper, frame
    after frame, off a real stream holding ``wire``; returns what it
    served and how it ended (``None`` for a clean EOF, else the
    error)."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        out = []
        try:
            while (frame := await protocol.read_frame(reader)) is not None:
                out.append(frame)
        except ProtocolError as error:
            return out, error
        return out, None

    return asyncio.run(scenario())


def burst_read(chunks):
    """What a shell's read loop serves off ``chunks`` (one socket read
    each): a decoder's ``frames`` per chunk, then ``eof``; returns the
    frames and how it ended, as :func:`one_at_a_time`."""
    decoder = FrameDecoder()
    out = []
    try:
        for chunk in chunks:
            out.extend(decoder.frames(chunk))
        decoder.eof()
    except ProtocolError as error:
        return out, error
    return out, None


FRAMES = st.lists(
    st.one_of(
        st.builds(protocol.bye, st.text(max_size=6)),
        st.builds(protocol.credit_frame, st.text(max_size=6),
                  st.integers(0, 99)),
        st.builds(protocol.heartbeat, st.lists(st.text(max_size=4),
                                               max_size=3)),
        st.just(protocol.drain()),
    ),
    min_size=1, max_size=6,
)


class TestFrameReader:
    """Burst reading (a decoder fed one socket read at a time, as every
    serve loop and the chaos proxy read): any chunking of the stream
    serves the frames one-at-a-time reading (``read_frame``) serves,
    and ends the way it ends."""

    @given(frames=FRAMES, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_chunking_matches_one_frame_at_a_time(self, frames, data):
        wire = b"".join(encode_frame(frame) for frame in frames)
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(wire)), max_size=8), label="cuts"
        ))
        chunks = [
            wire[a:b] for a, b in zip([0] + cuts, cuts + [len(wire)])
            if a < b
        ]
        served, error = burst_read(chunks)
        assert error is None
        assert (served, None) == one_at_a_time(wire)
        assert served == frames
        # The raw read a relaying tier uses (``take``: the chaos proxy)
        # hands on the same bytes.
        decoder, payloads = FrameDecoder(), []
        for chunk in chunks:
            decoder.extend(chunk)
            while (payload := decoder.take()) is not None:
                payloads.append(payload)
        assert len(decoder) == 0
        assert b"".join(map(protocol.frame_bytes, payloads)) == wire

    def test_cut_anywhere_raises_frame_truncated(self):
        first, second = protocol.bye("a"), protocol.hello(["a", "b"])
        head, wire = encode_frame(first), encode_frame(second)
        body = len(wire) - 4
        for cut in range(1, len(wire)):
            expected = (
                f"mid-header ({cut} of 4 bytes)" if cut < 4
                else f"mid-frame ({cut - 4} of {body} bytes)"
            )
            stream = head + wire[:cut]
            for served, error in (
                burst_read([stream[:7], stream[7:]]),
                one_at_a_time(stream),
            ):
                assert served == [first]
                assert isinstance(error, FrameTruncated)
                assert expected in str(error)

    def test_oversized_prefix_refused_before_its_payload_is_read(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        stream = ScriptedStream([header, b"x" * 1024, b"x" * 1024])
        with pytest.raises(ProtocolError, match="limit") as refusal:
            asyncio.run(protocol.read_frame(stream))
        assert type(refusal.value) is ProtocolError
        assert stream.reads == 1  # the header alone decided it
        served, error = burst_read([header])
        assert served == [] and type(error) is ProtocolError

    def test_corrupt_frame_is_served_after_the_good_ones_before_it(self):
        good = [protocol.bye("a"), protocol.drain(), protocol.bye("b")]
        garbage = b"\xff\xfe not json"
        wire = b"".join(encode_frame(frame) for frame in good)
        wire += protocol.frame_bytes(garbage) + encode_frame(protocol.drain())
        for served, error in (burst_read([wire]), one_at_a_time(wire)):
            assert served == good
            assert type(error) is ProtocolError

    def test_a_reset_inside_a_frame_is_frame_truncated(self):
        wire = encode_frame(protocol.bye("a"))
        stream = ScriptedStream([wire[:4], ConnectionResetError("gone")])
        with pytest.raises(FrameTruncated, match="reset mid-stream"):
            asyncio.run(protocol.read_frame(stream))

    def test_decoder_frames_serve_one_chunk_at_a_time(self):
        """What a burst is to a serve loop that reads the socket itself
        (the router shell): the frames one chunk completes, and an
        error only once the frames ahead of it are served."""
        wire = b"".join(
            encode_frame(protocol.bye(f"s{i}")) for i in range(5)
        )
        decoder = FrameDecoder()
        bursts = [
            list(decoder.frames(wire[:40])), list(decoder.frames(wire[40:]))
        ]
        assert [len(burst) for burst in bursts] == [1, 4]
        assert [f for burst in bursts for f in burst] == [
            protocol.bye(f"s{i}") for i in range(5)
        ]
        served = []
        bad = encode_frame(protocol.drain()) + protocol.frame_bytes(b"\xff")
        with pytest.raises(ProtocolError):
            for frame in decoder.frames(bad):
                served.append(frame)
        assert served == [protocol.drain()]


class TestFrameSizeGuard:
    """The configurable max-frame-size hardening (hostile prefixes)."""

    def test_custom_cap_enforced_on_decoder(self):
        decoder = FrameDecoder(max_frame_bytes=32)
        assert decoder.max_frame_bytes == 32
        small = encode_frame(protocol.drain())
        assert decoder.feed(small) == [protocol.drain()]
        big = encode_frame(protocol.hello([f"reader{i}" for i in range(20)]))
        with pytest.raises(ProtocolError, match="32-byte limit"):
            decoder.feed(big)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=0)
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=-1)

    def test_hostile_length_prefix_rejected_before_buffering(self):
        # A 4 GiB length prefix must cost 4 bytes of inspection, never
        # an allocation: the decoder raises from the header alone.
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="4294967295"):
            decoder.feed(b"\xff\xff\xff\xff")
        assert len(decoder) <= 4

    def test_gateway_rejects_hostile_prefix_and_closes(self):
        # End to end: a connection writing a hostile length prefix gets
        # an error frame and a closed connection; the gateway survives.
        from repro.net.gateway import IngestGateway

        class _Session:
            receptor_ids = ("reader0",)
            safe_time = float("-inf")

            def push_run(self, *a, **k):
                pass

            def advance(self, watermark):
                return []

            def close(self):
                return None

        async def scenario():
            gateway = IngestGateway(_Session(), slack=0.0)
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(protocol.hello(["reader0"])))
            await writer.drain()
            ack = await protocol.read_frame(reader)
            assert ack["type"] == "hello_ack"
            writer.write(b"\xff\xff\xff\xff")
            await writer.drain()
            reply = await protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert "limit" in reply["reason"]
            assert await reader.read() == b""  # server closed the stream
            writer.close()
            await gateway.close()

        asyncio.run(asyncio.wait_for(scenario(), 20.0))


class TestConstructors:
    def test_hello_carries_version_and_sorted_sources(self):
        frame = protocol.hello(["b", "a"])
        assert frame["version"] == PROTOCOL_VERSION
        assert frame["sources"] == ["a", "b"]

    def test_hello_ack_credits_forms(self):
        assert protocol.hello_ack(None)["credits"] is None
        assert protocol.hello_ack({"a": 4})["credits"] == {"a": 4}

    def test_data_frame_fields(self):
        item = StreamTuple(2.5, {"v": 1}, stream="rfid")
        frame = protocol.data_frame("reader0", 9, 3.25, item)
        assert frame["source"] == "reader0"
        assert frame["seq"] == 9
        assert frame["arrival"] == 3.25
        assert record_to_tuple(frame["record"]) == item


    def test_data_frame_pinned_bytes_with_and_without_low(self):
        # The promise is one optional key: without it the frame is, to
        # the byte, what every earlier build sent.
        item = StreamTuple(2.5, {"v": 1}, stream="rfid")
        assert encode_frame(protocol.data_frame("reader0", 9, 3.25, item)) == (
            b'\x00\x00\x00s{"arrival": 3.25, "record": {"_stream": "rfid", '
            b'"_ts": 2.5, "v": 1}, "seq": 9, "source": "reader0", '
            b'"type": "data"}'
        )
        assert encode_frame(
            protocol.data_frame("reader0", 9, 3.25, item, low=2.75)
        ) == (
            b'\x00\x00\x00\x80{"arrival": 3.25, "low": 2.75, "record": '
            b'{"_stream": "rfid", "_ts": 2.5, "v": 1}, "seq": 9, '
            b'"source": "reader0", "type": "data"}'
        )

    def test_peer_that_predates_low_reads_the_same_reading(self):
        # Such a peer reads the keys it knows through ``frame.get``; the
        # extra key changes none of them.
        item = StreamTuple(2.5, {"v": 1}, stream="rfid")
        plain = protocol.data_frame("reader0", 9, 3.25, item)
        (promised,) = FrameDecoder().feed(
            encode_frame(protocol.data_frame("reader0", 9, 3.25, item, 2.75))
        )
        assert promised.pop("low") == 2.75
        assert promised == plain


class TestDataFields:
    """The one validation both front doors run on a data frame."""

    ITEM = StreamTuple(2.5, {"v": 1}, stream="rfid")

    def frame(self, **overrides):
        frame = protocol.data_frame("reader0", 9, 3.25, self.ITEM, 2.75)
        frame.update(overrides)
        return frame

    def test_well_formed_frame(self):
        seq, arrival, low, record = protocol.data_fields(self.frame())
        assert (seq, arrival, low) == (9, 3.25, 2.75)
        assert record_to_tuple(record) == self.ITEM

    def test_defaults_of_a_v1_style_frame(self):
        frame = self.frame()
        del frame["arrival"], frame["seq"], frame["low"]
        del frame["record"]["_stream"]
        seq, arrival, low, record = protocol.data_fields(frame)
        assert (seq, arrival, low) == (0, 2.5, None)  # arrival = its _ts
        assert record_to_tuple(record).stream == ""

    def test_integers_are_numbers(self):
        _seq, arrival, low, _record = protocol.data_fields(
            self.frame(arrival=3, low=2)
        )
        assert (arrival, low) == (3.0, 2.0)
        assert type(arrival) is float and type(low) is float

    @pytest.mark.parametrize("key", ["arrival", "low", "_ts"])
    @pytest.mark.parametrize(
        "value",
        ["x", [1.0], {"a": 1}, True, float("nan"), float("inf"),
         float("-inf"), 10**400],
        ids=repr,
    )
    def test_bad_number_is_a_protocol_error(self, key, value):
        frame = self.frame()
        if key == "_ts":
            frame["record"] = {**frame["record"], "_ts": value}
        else:
            frame[key] = value
        # As it would arrive: json.loads accepts NaN, Infinity, 1e400.
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        with pytest.raises(ProtocolError, match=key):
            protocol.data_fields(decoded)

    def test_null_arrival_or_timestamp_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="arrival"):
            protocol.data_fields(self.frame(arrival=None))
        with pytest.raises(ProtocolError, match="_ts"):
            protocol.data_fields(self.frame(record={"_ts": None}))

    @pytest.mark.parametrize("seq", ["7", 7.0, None, True, [7]], ids=repr)
    def test_bad_seq_is_a_protocol_error(self, seq):
        with pytest.raises(ProtocolError, match="seq"):
            protocol.data_fields(self.frame(seq=seq))

    @pytest.mark.parametrize("record", [None, [1, 2], "r", 3], ids=repr)
    def test_bad_record_is_a_protocol_error(self, record):
        frame = self.frame(record=record)
        with pytest.raises(ProtocolError, match="record"):
            protocol.data_fields(frame)
        del frame["record"]
        with pytest.raises(ProtocolError, match="record"):
            protocol.data_fields(frame)

    def test_record_without_a_timestamp_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="_ts"):
            protocol.data_fields(self.frame(record={"v": 1}))

    @pytest.mark.parametrize("stream", [5, None, 1.5, ["rfid"]], ids=repr)
    def test_non_string_stream_is_a_protocol_error(self, stream):
        """As a ``block`` row's stream cell: a label is never made up
        by ``str()``, and the error names the source."""
        frame = {
            "type": "data", "source": "a", "seq": 0, "arrival": 1.0,
            "record": {"_ts": 1.0, "_stream": stream, "x": 1},
        }
        with pytest.raises(ProtocolError, match="_stream.*expected a string"):
            protocol.data_fields(frame)
        with pytest.raises(ProtocolError, match="'a'"):
            protocol.data_row(frame)



#: Cells a reading may not carry, as ``(timestamp, stream)``: each is
#: what ``record_to_tuple`` would coerce (a number stream, a string or
#: boolean stamp) or pass through (NaN).
BAD_READING_CELLS = {
    "stream-number": (2.5, 5),
    "timestamp-string": ("2.5", "rfid"),
    "timestamp-true": (True, "rfid"),
    "timestamp-nan": (float("nan"), "rfid"),
}


def spelled(spelling, timestamp, stream):
    """One reading of source ``a`` as a ``data`` frame or a one-row
    ``block``, decoded as it would arrive (``json.loads`` takes NaN)."""
    if spelling == "data":
        frame = {
            "type": "data", "source": "a", "seq": 0, "arrival": 3.0,
            "record": {"_ts": timestamp, "_stream": stream, "v": 1},
        }
    else:
        frame = {
            "type": "block", "schemas": [["v"]],
            "rows": [[0, "a", 0, 3.0, None, timestamp, stream, 1]],
        }
    (decoded,) = FrameDecoder().feed(encode_frame(frame))
    return decoded


@pytest.mark.parametrize("spelling", ["data", "block"])
class TestOneSetOfReadingRules:
    """A ``data`` frame fails closed exactly like a ``block`` row: both
    spellings go through the same cell checks."""

    @pytest.mark.parametrize(
        "cells", BAD_READING_CELLS.values(), ids=BAD_READING_CELLS
    )
    def test_a_bad_cell_is_refused(self, spelling, cells):
        with pytest.raises(ProtocolError, match="source 'a'"):
            list(protocol.frame_rows(spelled(spelling, *cells), 4))

    def test_a_good_reading_is_the_same_row(self, spelling):
        (row,) = protocol.frame_rows(spelled(spelling, 2, "rfid"), 4)
        assert row == ("a", 0, 3.0, None, StreamTuple(2.0, {"v": 1}, "rfid"),
                       None)
        assert type(row[4].timestamp) is float


def entry(source, seq, arrival, low, item, trace=None):
    return (source, seq, arrival, low, item, trace)


def decode_block(wire):
    """Rows of the ``block`` frame(s) in ``wire``, as they would be
    read off a socket, and how many frames carried them."""
    frames = FrameDecoder().feed(wire)
    assert all(frame["type"] == "block" for frame in frames)
    return (
        [row for frame in frames for row in protocol.block_rows(frame)],
        len(frames),
    )


def exact(rows):
    """``rows`` in a form ``==`` compares exactly: ``repr`` tells 1 from
    1.0 from True, -0.0 from 0.0, and equates NaN with NaN."""
    return [
        (source, seq, arrival, low, item.timestamp, item.stream,
         repr(item.as_dict()), trace)
        for source, seq, arrival, low, item, trace in rows
    ]


def set_cell(row, column, value):
    def mutate(frame):
        frame["rows"][row][column] = value
    return mutate


def set_key(key, value):
    def mutate(frame):
        frame[key] = value
    return mutate


BAD_NUMBERS = [
    "x", [1.0], {"a": 1}, True, None, float("nan"), float("inf"),
    float("-inf"), 10**400,
]
#: Case id → (mutation of a good two-row traced block, what the
#: refusal must name). Rows: 0 is reader0 (with a low), 1 is mote1.
MALFORMED_BLOCKS = {
    "rows-object": (set_key("rows", {"a": 1}), "rows"),
    "rows-string": (set_key("rows", "abcdefghij"), "rows"),
    "rows-absent": (lambda frame: frame.pop("rows"), "rows"),
    "schemas-absent": (lambda frame: frame.pop("schemas"), "schemas"),
    "schemas-string": (set_key("schemas", "ab"), "schemas"),
    "schema-not-a-list": (set_key("schemas", ["ab", "cde"]), "schema"),
    "schema-name-not-a-string": (
        set_key("schemas", [["tag_id", 1], ["a", "b", "c"]]), "schema"
    ),
    "schema-name-repeated": (
        set_key("schemas", [["count", "count"], ["a", "b", "c"]]),
        "schema",
    ),
    "row-string": (
        lambda frame: frame["rows"].__setitem__(1, "abcdefghij"), "row 1"
    ),
    "row-object": (
        lambda frame: frame["rows"].__setitem__(1, {"k": 0}), "row 1"
    ),
    "row-null": (
        lambda frame: frame["rows"].__setitem__(1, None), "row 1"
    ),
    "row-short": (
        lambda frame: frame["rows"].__setitem__(1, [0, "mote1", 4]),
        "row 1",
    ),
    "row-wider-than-schema": (
        lambda frame: frame["rows"][1].append(0), "row 1"
    ),
    "row-narrower-than-schema": (
        lambda frame: frame["rows"][1].pop(), "row 1"
    ),
    "k-past-the-schemas": (set_cell(1, 0, 2), "k=2"),
    "k-negative": (set_cell(1, 0, -1), "k=-1"),
    "k-true": (set_cell(1, 0, True), "k=True"),
    "k-float": (set_cell(1, 0, 1.0), "k=1.0"),
    "source-list": (set_cell(1, 1, []), "source"),
    "source-number": (set_cell(1, 1, 5), "source"),
    "stream-null": (set_cell(1, 6, None), "stream"),
    "seq-float": (set_cell(1, 2, 4.0), "seq"),
    "seq-string": (set_cell(1, 2, "4"), "seq"),
    "seq-bool": (set_cell(1, 2, True), "seq"),
    "seq-null": (set_cell(1, 2, None), "seq"),
    **{
        f"{name}-{value!r:.8}": (set_cell(1, column, value), name)
        for name, column in (("arrival", 3), ("timestamp", 5))
        for value in BAD_NUMBERS
    },
    **{
        f"low-{value!r:.8}": (set_cell(0, 4, value), "low")
        for value in BAD_NUMBERS if value is not None
    },
    "traces-short": (lambda frame: frame["traces"].pop(), "traces"),
    "traces-long": (
        lambda frame: frame["traces"].append([9, 1, 2, 3, 0]), "traces"
    ),
    "traces-object": (set_key("traces", {"a": 1}), "traces"),
    "trace-narrow": (
        lambda frame: frame["traces"][1].pop(), "trace"
    ),
    "trace-cell-float": (
        lambda frame: frame["traces"][1].__setitem__(2, 1.5), "trace"
    ),
    "trace-cell-bool": (
        lambda frame: frame["traces"][1].__setitem__(4, True), "trace"
    ),
    "trace-object": (
        lambda frame: frame["traces"].__setitem__(1, {"id": 8}), "trace"
    ),
}



class TestBlockFrame:
    """Protocol 3's ``block``: a burst of readings as positional rows."""

    A = StreamTuple(2.5, {"tag_id": "T1", "count": 3}, stream="rfid")
    B = StreamTuple(2.5, {"tag_id": "T2", "count": 1}, stream="rfid")
    MOTE = StreamTuple(
        2.75, {"mote_id": "m1", "temp": 21.5, "volt": 2.9}, stream="mote"
    )

    def test_pinned_bytes_one_schema(self):
        rows = [
            entry("reader0", 9, 3.25, None, self.A),
            entry("reader0", 10, 3.25, None, self.B),
        ]
        wire = protocol.encode_block(rows)
        assert wire == (
            b'\x00\x00\x00\xa8{"rows": [[0, "reader0", 9, 3.25, null, 2.5, '
            b'"rfid", "T1", 3], [0, "reader0", 10, 3.25, null, 2.5, "rfid", '
            b'"T2", 1]], "schemas": [["tag_id", "count"]], "type": "block"}'
        )
        assert wire == encode_frame(protocol.block_frame(rows))
        assert decode_block(wire) == (rows, 1)

    def test_pinned_bytes_mixed_schemas(self):
        # Receptor kinds share a block, each under its own schema,
        # numbered in order of first use; row order is entry order.
        rows = [
            entry("reader0", 9, 3.25, None, self.A),
            entry("mote1", 4, 3.5, None, self.MOTE),
            entry("reader0", 10, 3.25, None, self.B),
        ]
        wire = protocol.encode_block(rows)
        assert wire == (
            b'\x00\x00\x01\x00{"rows": [[0, "reader0", 9, 3.25, null, 2.5, '
            b'"rfid", "T1", 3], [1, "mote1", 4, 3.5, null, 2.75, "mote", '
            b'"m1", 21.5, 2.9], [0, "reader0", 10, 3.25, null, 2.5, "rfid", '
            b'"T2", 1]], "schemas": [["tag_id", "count"], ["mote_id", "temp", '
            b'"volt"]], "type": "block"}'
        )
        assert decode_block(wire) == (rows, 1)

    def test_pinned_bytes_with_low(self):
        rows = [
            entry("reader0", 9, 3.25, None, self.A),
            entry("reader0", 10, 3.25, 2.75, self.B),
        ]
        wire = protocol.encode_block(rows)
        assert wire == (
            b'\x00\x00\x00\xa8{"rows": [[0, "reader0", 9, 3.25, null, 2.5, '
            b'"rfid", "T1", 3], [0, "reader0", 10, 3.25, 2.75, 2.5, "rfid", '
            b'"T2", 1]], "schemas": [["tag_id", "count"]], "type": "block"}'
        )
        assert decode_block(wire) == (rows, 1)

    def test_pinned_bytes_with_traces(self):
        rows = [
            entry("reader0", 9, 3.25, None, self.A, [7, 100, 110, 120, 0]),
            entry("reader0", 10, 3.25, 2.75, self.B, [8, 101, 111, 121, 1]),
        ]
        wire = protocol.encode_block(rows)
        assert wire == (
            b'\x00\x00\x00\xe2{"rows": [[0, "reader0", 9, 3.25, null, 2.5, '
            b'"rfid", "T1", 3], [0, "reader0", 10, 3.25, 2.75, 2.5, "rfid", '
            b'"T2", 1]], "schemas": [["tag_id", "count"]], "traces": [[7, 100, '
            b'110, 120, 0], [8, 101, 111, 121, 1]], "type": "block"}'
        )
        assert decode_block(wire) == (rows, 1)

    def test_traces_are_for_every_row_or_none(self):
        with pytest.raises(ProtocolError, match="one per row"):
            protocol.block_frame([
                entry("reader0", 9, 3.25, None, self.A, [7, 100, 110, 120, 0]),
                entry("reader0", 10, 3.25, None, self.B),
            ])

    def test_reserved_record_names_are_ordinary_fields_in_a_row(self):
        # A record would let these fields overwrite the tuple's own
        # timestamp and stream; a row keeps both in cells of their own.
        item = StreamTuple(
            1.0, {"_ts": 5.0, "_stream": "evil", "x": 1}, stream="reader0"
        )
        rows, _frames = decode_block(
            protocol.encode_block([entry("reader0", 0, 1.0, None, item)])
        )
        assert rows[0][4] == item
        assert (rows[0][4].timestamp, rows[0][4].stream) == (1.0, "reader0")

    def test_integers_are_numbers(self):
        frame = protocol.block_frame([entry("a", 1, 3.25, 2.75, self.A)])
        frame["rows"][0][3:6] = [3, 2, 2]
        (row,) = protocol.block_rows(frame)
        assert row[2:4] == (3.0, 2.0) and row[4].timestamp == 2.0
        assert [type(cell) for cell in row[2:4]] == [float, float]
        assert type(row[4].timestamp) is float

    NAMES = st.one_of(
        st.sampled_from(["_ts", "_stream", "type", "rows"]),
        st.text(max_size=6),
    )
    FINITE = st.floats(allow_nan=False, allow_infinity=False)
    ENTRIES = st.lists(
        st.tuples(
            st.text(max_size=6),                        # source
            st.integers(0, 2**70),                      # seq
            FINITE,                                     # arrival
            st.one_of(st.none(), FINITE),               # low
            st.builds(
                StreamTuple,
                FINITE,
                st.dictionaries(
                    NAMES,
                    st.one_of(
                        st.integers(-2**70, 2**70),
                        st.floats(),                    # NaN, ±inf: legal
                        st.text(max_size=8),
                        st.booleans(),
                        st.none(),
                        st.lists(st.integers(), max_size=3),
                    ),
                    max_size=4,
                ),
                st.text(max_size=6),
            ),
        ),
        max_size=12,
    )

    @given(entries=ENTRIES, traced=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_block_reads_back_exactly(self, entries, traced, data):
        """Unicode names, integers beyond 2**53, non-finite field
        *values*, empty mappings, fields named like reserved columns,
        mixed schemas: ``block_rows(block_frame(e)) == e``, over the
        wire."""
        rows = [
            entry(*fields, trace=(
                data.draw(st.lists(
                    st.integers(0, 2**62), min_size=5, max_size=5
                )) if traced else None
            ))
            for fields in entries
        ]
        decoded, frames = decode_block(protocol.encode_block(rows))
        assert exact(decoded) == exact(rows)
        assert frames == 1
        assert [
            list(row[4].keys()) for row in decoded
        ] == [list(row[4].keys()) for row in rows]  # field order too

    def good(self):
        return protocol.block_frame([
            entry("reader0", 9, 3.25, 2.75, self.A, [7, 100, 110, 120, 0]),
            entry("mote1", 4, 3.5, None, self.MOTE, [8, 101, 111, 121, 1]),
        ])

    @pytest.mark.parametrize(
        "mutate,named", MALFORMED_BLOCKS.values(), ids=MALFORMED_BLOCKS
    )
    def test_malformed_block_is_a_protocol_error(self, mutate, named):
        frame = self.good()
        assert len(list(protocol.block_rows(frame))) == 2
        mutate(frame)
        # As it would arrive: json.loads accepts NaN, Infinity, 1e400.
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        with pytest.raises(ProtocolError, match=named):
            list(protocol.block_rows(decoded))

    def test_an_exponent_beyond_a_double_reads_as_infinity_and_is_refused(self):
        wire = encode_frame(self.good()).replace(b" 3.5,", b" 1e400,")
        payload = wire[4:]
        (decoded,) = FrameDecoder().feed(protocol.frame_bytes(payload))
        assert decoded["rows"][1][3] == float("inf")
        with pytest.raises(ProtocolError, match="arrival"):
            list(protocol.block_rows(decoded))

    def test_rows_ahead_of_a_malformed_one_are_served_first(self):
        frame = self.good()
        frame["rows"][1][2] = "4"
        rows = protocol.block_rows(frame)
        assert next(rows)[:2] == ("reader0", 9)
        with pytest.raises(ProtocolError, match="row 1"):
            next(rows)

    def big(self, n, size):
        return [
            entry("a", seq, 1.0, None, StreamTuple(1.0, {"blob": "x" * size}))
            for seq in range(n)
        ]

    def test_over_cap_block_is_split_in_halves(self):
        rows = self.big(7, MAX_FRAME_BYTES // 3)
        with pytest.raises(ProtocolError, match="limit"):
            encode_frame(protocol.block_frame(rows))
        wire = protocol.encode_block(rows)
        decoded, frames = decode_block(wire)
        assert decoded == rows  # every row, in order
        assert frames == 4  # 7 → 3 + 4 → (1 + 2) + (2 + 2)

    def test_over_cap_row_fails(self):
        rows = self.big(3, MAX_FRAME_BYTES)
        with pytest.raises(ProtocolError, match="limit"):
            protocol.encode_block(rows)


class TestFrameWriterRows:
    """Rows wait unsealed in an :class:`~repro.net.protocol.Outbox`, and
    are sealed by exactly the events of the flush rule — so wire order
    stays ``add`` / ``add_row`` order."""

    ITEM = StreamTuple(2.5, {"v": 1}, stream="s")

    def rows(self, out, seqs):
        for seq in seqs:
            out.add_row("a", seq, 2.5, None, self.ITEM)

    @staticmethod
    def shape(writes):
        """Per write: each frame's type, or its row seqs for a block."""
        return [
            [
                [row[1] for row in protocol.block_rows(frame)]
                if frame["type"] == "block" else frame["type"]
                for frame in FrameDecoder().feed(data)
            ]
            for data in writes
        ]

    def test_another_frame_seals_the_rows_ahead_of_it(self):
        out = protocol.Outbox()
        self.rows(out, [0, 1])
        out.add(protocol.checkpoint(1))
        self.rows(out, [2])
        out.add(protocol.bye("a"))
        assert self.shape([out.take()]) == [[[0, 1], "checkpoint", [2], "bye"]]
        assert out.take() == b""  # nothing pending: nothing to write

    def test_flush_drain_and_close_each_seal(self):
        # A shell's flush takes the outbox a burst at a time (``bursts``),
        # a one-shot writer all at once (``take``): either seals.
        out = protocol.Outbox()
        self.rows(out, [0])
        writes = [out.take()]
        self.rows(out, [1, 2])
        writes += out.bursts()
        self.rows(out, [3])
        writes.append(out.take())
        assert self.shape(writes) == [[[0]], [[1, 2]], [[3]]]

    def test_a_block_is_sealed_at_256_rows(self):
        out = protocol.Outbox()
        self.rows(out, range(300))
        ((first, second),) = self.shape([out.take()])
        assert first == list(range(256)) and second == list(range(256, 300))

    def test_sealed_bytes_count_toward_full(self):
        out = protocol.Outbox()
        fat = StreamTuple(2.5, {"blob": "x" * 300}, stream="s")
        for seq in range(255):
            out.add_row("a", seq, 2.5, None, fat)
        assert not out.full  # unsealed rows have no size yet
        out.add_row("a", 255, 2.5, None, fat)
        assert out.full  # sealed: 256 rows of 300 bytes pass 64 KiB

    def test_over_cap_row_fails_at_the_seal(self):
        out = protocol.Outbox()
        out.add_row(
            "a", 0, 2.5, None, StreamTuple(2.5, {"blob": "x" * MAX_FRAME_BYTES})
        )
        with pytest.raises(ProtocolError, match="limit"):
            out.take()


class TestClusterDialect:
    """Round-trips and pinned bytes for the protocol-2 cluster frames."""

    FRAMES = [
        protocol.worker_hello("w0", version=2),
        protocol.route(3, 12, ["r1", "r0"]),
        protocol.drain(),
        protocol.result(
            3, 7, [{"__ts__": 1.5, "__stream__": "rfid", "tag_id": "T1"}]
        ),
        protocol.result_end(3, "w0", 61, {"policy": "block"}),
    ]

    def test_protocol_version_is_2_and_v1_stays_supported(self):
        # Version 2 was this build's own until blocks made it 3, and
        # result blocks 4; like version 1 it stays a dialect a front
        # door accepts.
        assert PROTOCOL_VERSION == 4
        assert protocol.SUPPORTED_VERSIONS == (1, 2, 3, 4)
        assert protocol.BLOCK_VERSION == 3

    def test_every_cluster_frame_roundtrips(self):
        for frame in self.FRAMES:
            assert FrameDecoder().feed(encode_frame(frame)) == [frame]

    def test_worker_hello_fields(self):
        frame = protocol.worker_hello("w3")
        assert frame["worker"] == "w3"
        assert frame["version"] == PROTOCOL_VERSION

    def test_route_sorts_sources_and_coerces_ints(self):
        frame = protocol.route(1.0, 4.0, ["b", "a"])
        assert frame["sources"] == ["a", "b"]
        assert frame["epoch"] == 1 and isinstance(frame["epoch"], int)
        assert frame["start_tick"] == 4

    def test_result_end_defaults_telemetry_to_null(self):
        frame = protocol.result_end(0, "w0", 5, {})
        assert frame["telemetry"] is None
        rich = protocol.result_end(0, "w0", 5, {}, {"counters": {}})
        assert rich["telemetry"] == {"counters": {}}

    def test_pinned_wire_bytes(self):
        # Golden encodings: any drift here breaks mixed-version
        # clusters, so the exact bytes are pinned.
        golden = [
            b'\x00\x00\x006{"type": "worker_hello", "version": 2, '
            b'"worker": "w0"}',
            b'\x00\x00\x00H{"epoch": 3, "sources": ["r0", "r1"], '
            b'"start_tick": 12, "type": "route"}',
            b'\x00\x00\x00\x11{"type": "drain"}',
            b'\x00\x00\x00m{"epoch": 3, "records": [{"__stream__": "rfid", '
            b'"__ts__": 1.5, "tag_id": "T1"}], "tick": 7, "type": "result"}',
            b'\x00\x00\x00p{"epoch": 3, "stats": {"policy": "block"}, '
            b'"telemetry": null, "ticks": 61, "type": "result_end", '
            b'"worker": "w0"}',
        ]
        assert [encode_frame(f) for f in self.FRAMES] == golden

    def test_raw_read_returns_payload_for_verbatim_relay(self):
        # ``take`` is the raw read: what the chaos proxy relays (or cuts,
        # or corrupts) without re-encoding.
        frame = protocol.route(0, 0, ["a"])
        decoder = FrameDecoder()
        decoder.extend(encode_frame(frame))
        payload = decoder.take()
        assert protocol.frame_bytes(payload) == encode_frame(frame)
        assert FrameDecoder().feed(protocol.frame_bytes(payload)) == [frame]
        assert decoder.take() is None and len(decoder) == 0


class TestVersionHandshake:
    """Compat negotiation: v1 and v2 feeders keep working, v5 is
    refused."""

    WAIT = 20.0

    class _Session:
        receptor_ids = ("reader0",)
        safe_time = float("-inf")

        def push_run(self, *a, **k):
            pass

        def advance(self, watermark):
            return []

        def close(self):
            return None

    def _handshake(self, version):
        from repro.net.gateway import IngestGateway

        async def scenario():
            gateway = IngestGateway(self._Session(), slack=0.0)
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_frame(
                writer, protocol.hello(["reader0"], version=version)
            )
            reply = await protocol.read_frame(reader)
            writer.close()
            await gateway.close()
            return reply

        return asyncio.run(asyncio.wait_for(scenario(), self.WAIT))

    def test_v1_hello_acked_with_v1(self):
        reply = self._handshake(1)
        assert reply["type"] == "hello_ack"
        assert reply["version"] == 1

    def test_v2_hello_acked_with_v2(self):
        reply = self._handshake(2)
        assert reply["type"] == "hello_ack"
        assert reply["version"] == 2

    def test_v3_hello_acked_with_v3(self):
        reply = self._handshake(3)
        assert reply["type"] == "hello_ack"
        assert reply["version"] == 3

    def test_future_version_refused_with_supported_list(self):
        reply = self._handshake(5)
        assert reply["type"] == "error"
        assert "[1, 2, 3, 4]" in reply["reason"]

    def test_boolean_version_is_not_version_one(self):
        # ``True == 1``: it was accepted as v1 and echoed as ``true``.
        reply = self._handshake(True)
        assert reply["type"] == "error"
        assert "True" in reply["reason"]

    def test_worker_requires_exact_v2(self):
        """A worker takes its router's build and no other — once that
        was v2; now v2 itself is refused (the router sends blocks)."""
        from repro.net.worker import ClusterWorker

        async def scenario(version):
            worker = ClusterWorker("shelf", duration=6.0, seed=3)
            host, port = await worker.start()
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_frame(
                writer, protocol.worker_hello("w0", version=version)
            )
            reply = await protocol.read_frame(reader)
            writer.close()
            await worker.close()
            return reply

        for version in (1, 2):
            reply = asyncio.run(
                asyncio.wait_for(scenario(version), self.WAIT)
            )
            assert reply["type"] == "error"
            assert f"requires protocol {PROTOCOL_VERSION}" in reply["reason"]


class TestTupleEncoding:
    def test_roundtrip(self):
        item = StreamTuple(1.5, {"tag_id": "T1", "count": 3}, stream="rfid")
        assert record_to_tuple(tuple_to_record(item)) == item

    def test_missing_timestamp_rejected(self):
        with pytest.raises(ProtocolError):
            record_to_tuple({"v": 1})

    @pytest.mark.parametrize("name", ["_ts", "_stream"])
    def test_field_named_like_a_reserved_column_is_refused(self, name):
        # It came back as the tuple's own timestamp or stream — on data
        # frames, and on result frames for any operator emitting it.
        item = StreamTuple(1.0, {name: 5.0, "x": 1}, stream="reader0")
        with pytest.raises(ProtocolError, match="reserves"):
            tuple_to_record(item)
        with pytest.raises(ProtocolError, match="reserves"):
            protocol.data_frame("reader0", 0, 1.0, item)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.dictionaries(
            st.text(min_size=1, max_size=8).filter(
                lambda k: not k.startswith("_")
            ),
            st.one_of(
                st.integers(min_value=-1000, max_value=1000),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.text(max_size=12),
                st.booleans(),
                st.none(),
            ),
            max_size=6,
        ),
        st.text(max_size=8),
    )
    @settings(max_examples=60)
    def test_roundtrip_arbitrary_json_values(self, ts, fields, stream):
        item = StreamTuple(ts, fields, stream=stream)
        decoded = FrameDecoder().feed(
            encode_frame(protocol.data_frame("s", 0, ts, item))
        )
        assert record_to_tuple(decoded[0]["record"]) == item
