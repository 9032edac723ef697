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
    """The one method :class:`FrameReader` asks of a stream: ``read``
    hands out the scripted chunks in turn, then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.reads = 0

    async def read(self, n):
        self.reads += 1
        if not self.chunks:
            return b""
        assert len(self.chunks[0]) <= n
        return self.chunks.pop(0)


async def read_all(frames):
    """Everything ``frames`` (a FrameReader, or its reference
    :class:`OneAtATime`) serves, and how it ended:
    ``None`` for a clean EOF, else the error."""
    out = []
    try:
        while True:
            read = await frames.read_frame_raw()
            if read is None:
                return out, None
            out.append(read)
    except ProtocolError as error:
        return out, error


class OneAtATime:
    """The reference reading: the one-shot ``read_frame_raw`` helper,
    frame after frame, off a real stream holding ``wire``."""

    def __init__(self, wire):
        self.reader = asyncio.StreamReader()
        self.reader.feed_data(wire)
        self.reader.feed_eof()

    async def read_frame_raw(self):
        return await protocol.read_frame_raw(self.reader)


def one_at_a_time(wire):
    async def scenario():
        return await read_all(OneAtATime(wire))

    return asyncio.run(scenario())


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
    """Burst reading: any chunking of the stream serves the frames
    one-at-a-time reading serves, and ends the way it ends."""

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
        served, error = asyncio.run(
            read_all(protocol.FrameReader(ScriptedStream(chunks)))
        )
        assert error is None
        assert (served, None) == one_at_a_time(wire)
        assert [frame for frame, _payload in served] == frames
        assert b"".join(
            protocol.frame_bytes(payload) for _frame, payload in served
        ) == wire

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
                asyncio.run(read_all(protocol.FrameReader(
                    ScriptedStream([stream[:7], stream[7:]])
                ))),
                one_at_a_time(stream),
            ):
                assert [frame for frame, _payload in served] == [first]
                assert isinstance(error, FrameTruncated)
                assert expected in str(error)

    def test_oversized_prefix_refused_before_its_payload_is_read(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        stream = ScriptedStream([header, b"x" * 1024, b"x" * 1024])
        served, error = asyncio.run(
            read_all(protocol.FrameReader(stream))
        )
        assert served == []
        assert type(error) is ProtocolError and "limit" in str(error)
        assert stream.reads == 1  # the header alone decided it

    def test_corrupt_frame_is_served_after_the_good_ones_before_it(self):
        good = [protocol.bye("a"), protocol.drain(), protocol.bye("b")]
        garbage = b"\xff\xfe not json"
        wire = b"".join(encode_frame(frame) for frame in good)
        wire += protocol.frame_bytes(garbage) + encode_frame(protocol.drain())
        served, error = asyncio.run(
            read_all(protocol.FrameReader(ScriptedStream([wire])))
        )
        assert [frame for frame, _payload in served] == good
        assert type(error) is ProtocolError

    def test_before_wait_runs_once_per_burst(self):
        wire = b"".join(
            encode_frame(protocol.bye(f"s{i}")) for i in range(5)
        )
        waits = []
        frames = protocol.FrameReader(
            ScriptedStream([wire[:40], wire[40:]]),
            before_wait=lambda: waits.append(len(waits)),
        )
        served, error = asyncio.run(read_all(frames))
        assert len(served) == 5 and error is None
        assert len(waits) == 3  # two chunks and the EOF, not five frames


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

            def push(self, *a, **k):
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
        seq, arrival, low, _record = protocol.data_fields(frame)
        assert (seq, arrival, low) == (0, 2.5, None)  # arrival = its _ts

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


class TestClusterDialect:
    """Round-trips and pinned bytes for the protocol-2 cluster frames."""

    FRAMES = [
        protocol.worker_hello("w0"),
        protocol.route(3, 12, ["r1", "r0"]),
        protocol.drain(),
        protocol.result(
            3, 7, [{"__ts__": 1.5, "__stream__": "rfid", "tag_id": "T1"}]
        ),
        protocol.result_end(3, "w0", 61, {"policy": "block"}),
    ]

    def test_protocol_version_is_2_and_v1_stays_supported(self):
        assert PROTOCOL_VERSION == 2
        assert protocol.SUPPORTED_VERSIONS == (1, 2)

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
        async def scenario():
            server_reader = asyncio.StreamReader()
            frame = protocol.route(0, 0, ["a"])
            server_reader.feed_data(encode_frame(frame))
            server_reader.feed_eof()
            decoded, payload = await protocol.read_frame_raw(server_reader)
            assert decoded == frame
            assert encode_frame(frame) == (
                len(payload).to_bytes(4, "big") + payload
            )
            assert await protocol.read_frame_raw(server_reader) is None

        asyncio.run(asyncio.wait_for(scenario(), 20.0))


class TestVersionHandshake:
    """Compat negotiation: v1 feeders keep working, v3 is refused."""

    WAIT = 20.0

    class _Session:
        receptor_ids = ("reader0",)
        safe_time = float("-inf")

        def push(self, *a, **k):
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

    def test_future_version_refused_with_supported_list(self):
        reply = self._handshake(3)
        assert reply["type"] == "error"
        assert "[1, 2]" in reply["reason"]

    def test_worker_requires_exact_v2(self):
        from repro.net.worker import ClusterWorker

        async def scenario():
            worker = ClusterWorker("shelf", duration=6.0, seed=3)
            host, port = await worker.start()
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_frame(
                writer, protocol.worker_hello("w0", version=1)
            )
            reply = await protocol.read_frame(reader)
            writer.close()
            await worker.close()
            return reply

        reply = asyncio.run(asyncio.wait_for(scenario(), self.WAIT))
        assert reply["type"] == "error"
        assert "requires protocol 2" in reply["reason"]


class TestTupleEncoding:
    def test_roundtrip(self):
        item = StreamTuple(1.5, {"tag_id": "T1", "count": 3}, stream="rfid")
        assert record_to_tuple(tuple_to_record(item)) == item

    def test_missing_timestamp_rejected(self):
        with pytest.raises(ProtocolError):
            record_to_tuple({"v": 1})

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
