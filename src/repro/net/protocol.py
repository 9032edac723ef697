"""The ingestion wire protocol: length-prefixed JSON frames.

Every frame on the wire is a UTF-8 JSON object preceded by a 4-byte
big-endian byte length. JSON keeps the protocol debuggable (``nc`` plus
eyeballs suffices) and reuses the trace interchange format of
:mod:`repro.streams.traceio` for the tuple payload; the binary length
prefix makes framing unambiguous without scanning for newlines.

Frame types (all carry a ``"type"`` key):

=========== ========== =================================================
type        direction  meaning
=========== ========== =================================================
hello       client →   opens a session: protocol ``version`` plus the
                       ``sources`` (receptor ids) this connection feeds
hello_ack   → client   accepts: negotiated ``version`` and, under the
                       ``block`` overload policy, the initial per-source
                       ``credits`` (``null`` means uncredited)
block       client →   a burst of readings (protocol ≥ 3; what every
                       sender in this package emits): ``schemas``, a
                       list of field-name lists, and ``rows``, one
                       positional array per reading (layout below);
                       a tracing router adds ``traces``, one
                       ``[id, recv, acq, fwd, replayed]`` array per row
                       (ingest id, integer-ns hop stamps, 0/1 flag) —
                       feeders never send one
data        client →   the one-row spelling of ``block`` that v1/v2
                       peers send: ``source``, per-source ``seq``,
                       simulated ``arrival`` time, and the ``record``
                       (:func:`tuple_to_record` encoding); optionally
                       ``low`` (omitted when there is nothing new to
                       promise; a peer that predates the key ignores
                       it)
heartbeat   client →   liveness signal for ``sources`` between readings
credit      → client   grants ``credits`` more in-flight readings for
                       ``source`` (backpressure release)
error       → client   terminal protocol failure; ``reason`` explains
bye         client →   no more data for ``source`` (clean close)
bye_ack     → client   acknowledges the ``bye`` for ``source``
=========== ========== =================================================

A ``block`` row is ``[k, source, seq, arrival, low, timestamp, stream,
*values]``: ``k`` indexes ``schemas`` and ``values`` are the reading's
field values in that schema's order, so ``dict(zip(schemas[k], values))``
rebuilds the reading's mapping exactly. A schema is simply the field
order of the readings that use it — receptors of different kinds share a
block, each under its own schema, and no field name is reserved (a
``data`` record keeps its timestamp and stream under ``_ts`` /
``_stream``, so a field of that name cannot travel in one:
:func:`tuple_to_record` refuses it). ``source``, ``seq`` and ``arrival``
are a ``data`` frame's; ``low`` is the sender's promise that every later
reading of ``source`` carries a timestamp ≥ ``low`` (``null`` when there
is nothing new to promise), and it takes effect right after its own row.
Rows are validated one by one with the cell rules a ``data`` frame's
fields pass (:func:`block_rows`); flow control, sequence numbers and
every counter stay per reading — a block is framing, not a unit of
delivery.

Version 2 adds the cluster dialect spoken between the front-tier router
and its workers (:mod:`repro.net.router` / :mod:`repro.net.worker`). A
worker connection opens with ``worker_hello`` + ``route`` instead of
``hello``, then carries the ordinary data-plane frames above, and ends
with the worker streaming its per-tick cleaned output back:

=========== ========== =================================================
type        direction  meaning (router ↔ worker, protocol ≥ 2)
=========== ========== =================================================
worker_hello router →  opens an epoch channel: protocol ``version``
                       plus the ``worker`` label being addressed
route       router →   assigns the epoch: monotonically increasing
                       ``epoch`` number, the ``start_tick`` index whose
                       output the egress merge will take from this
                       epoch, and the ``sources`` routed to this worker
drain       router →   finalize now: treat every routed source as byed,
                       flush reorder buffers, sweep all remaining
                       punctuation ticks, then report results
result_block worker →  cleaned output for many punctuation ticks of
                       ``epoch`` (protocol ≥ 4; what every worker
                       sends): ``ticks``, one ``[index, rows]`` array
                       per listed tick — ``[index, rows, spans]`` when
                       the frame carries ``spans`` — then ``schemas``
                       and ``rows`` as in a ``block`` (layout below),
                       and, while tracing is live, ``spans``: the
                       listed ticks' completed hop records, in tick
                       order. Ticks with neither output nor spans are
                       never listed
result      worker →   the protocol-2/3 spelling: cleaned output for
                       one ``tick`` index of ``epoch`` as a list of
                       ``records`` (:func:`tuple_to_record`), plus the
                       tick's hop-``spans`` while tracing. No worker of
                       this build sends one, and a router refuses it
result_end  worker →   epoch complete: total ``ticks`` swept, the
                       worker gateway's ``stats`` and (when
                       instrumented) its ``telemetry`` snapshot
checkpoint  router →   snapshot operator state now; the TCP FIFO makes
                       the cut exact (``id`` correlates the ack)
checkpoint_ack worker → the snapshot: opaque ``state`` blob plus the
                       ``ticks`` the worker's ledger covers (``ok``
                       false = keep the previous checkpoint)
resume      router →   after a ``route`` with ``resume: true``: restore
                       this ``state`` before processing data (``null``
                       state = start fresh, expect full replay)
=========== ========== =================================================

A ``result_block`` row is ``[k, timestamp, stream, *values]``: a
``block`` row without the ingest columns, so no field name is reserved
here either. Its rows belong to the listed ticks in order — the first
tick's ``rows`` count of them, then the next tick's — and its spans
likewise by the ``spans`` counts. A frame is sealed at a fixed row count,
so one tick's rows may continue in the next frame, which lists the tick
again; a receiver appends. :func:`result_block_ticks` validates the whole
frame with :func:`block_rows`' rules before it returns any of it.

Wire times are *simulation-axis* seconds: the feeder stamps each data
frame with the arrival time its delay model produced, and the gateway
orders on those stamps. Wall-clock time appears nowhere on the wire —
that is what makes loopback replays deterministic and fast.
"""

from __future__ import annotations

import asyncio
import json
import struct
from itertools import repeat
from math import isfinite
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import FrameTruncated, ProtocolError
from repro.streams.traceio import (
    STREAM_COLUMN,
    TIMESTAMP_COLUMN,
    has_reserved_column,
)
from repro.streams.tuples import StreamTuple

#: Protocol revision spoken by this build. Version 2 added the cluster
#: dialect (worker_hello/route/drain/result frames), version 3 the
#: ``block`` frame, version 4 the ``result_block`` frame workers return
#: their output on; no feeder frame changed, so v1–v3 feeders still
#: work.
PROTOCOL_VERSION = 4

#: Protocol revisions a server accepts in a ``hello``; the ``hello_ack``
#: echoes the client's version so both sides speak the older dialect.
SUPPORTED_VERSIONS = (1, 2, 3, 4)

#: First revision whose connections may carry ``block`` frames.
BLOCK_VERSION = 3

#: Rows after which an :class:`Outbox` seals its pending block.
BLOCK_ROWS = 256

#: Default upper bound on a single frame's JSON payload, in bytes. A
#: length prefix above this is treated as a framing error rather than an
#: allocation request — garbage bytes must not OOM the gateway.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")

#: Size of the length prefix in front of every frame's JSON payload.
HEADER_BYTES = _HEADER.size

#: Bytes asked of the socket per read, and the size past which pending
#: writes are handed to the transport mid-burst. One socket read is one
#: *burst*: every frame it completes is served before the socket is
#: awaited again, and every fixed cost of the wire path (read and send
#: syscalls, credit grants) is paid once per burst, not once per frame.
BURST_BYTES = 64 << 10


def _dumps(frame: Mapping[str, Any]) -> bytes:
    return json.dumps(frame, sort_keys=True).encode("utf-8")


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize one frame: 4-byte big-endian length + JSON payload."""
    payload = _dumps(frame)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return frame_bytes(payload)


def frame_bytes(payload: bytes) -> bytes:
    """An already-encoded JSON payload behind a fresh length header."""
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks (TCP segments split frames wherever they
    like); complete frames come back in order. State between calls is
    the undecoded remainder. This class is the one place the header,
    length-cap and truncation rules live: every serve loop
    (:class:`~repro.net.shell.Shell`), the one-shot :func:`read_frame`
    helper and the chaos proxy read through it.

    The length prefix is checked against ``max_frame_bytes`` *before*
    any payload is buffered, so a hostile prefix (say ``0xFFFFFFFF``)
    costs four bytes of inspection, not a 4 GiB allocation; callers
    must treat the resulting :class:`~repro.errors.ProtocolError` as
    fatal and close the connection (the byte stream cannot be resynced).

    Args:
        max_frame_bytes: Per-frame payload cap; defaults to the
            module-wide :data:`MAX_FRAME_BYTES`.

    Example:
        >>> decoder = FrameDecoder()
        >>> data = encode_frame({"type": "heartbeat", "sources": []})
        >>> decoder.feed(data[:3])
        []
        >>> decoder.feed(data[3:])[0]["type"]
        'heartbeat'
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes <= 0:
            raise ValueError(
                f"max_frame_bytes must be positive, got {max_frame_bytes}"
            )
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    @property
    def max_frame_bytes(self) -> int:
        """The per-frame payload cap this decoder enforces."""
        return self._max_frame_bytes

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb ``data``; return every frame completed by it.

        Raises:
            ProtocolError: On an oversized length prefix or a payload
                that is not a JSON object.
        """
        return list(self.frames(data))

    def frames(self, data: bytes) -> Iterator[dict[str, Any]]:
        """Absorb ``data``; yield every frame completed by it, one at a
        time, so a bad frame (:meth:`feed`'s errors) raises only once
        the frames ahead of it have been served."""
        self.extend(data)
        while (payload := self.take()) is not None:
            yield _parse_payload(payload)

    def extend(self, data: bytes) -> None:
        """Absorb ``data`` without decoding; :meth:`take` serves it."""
        self._buffer.extend(data)

    def _frame_end(self) -> "int | None":
        """Buffer offset one past the frame in progress (header
        included); ``None`` while its header is incomplete.

        Raises:
            ProtocolError: On an oversized length prefix.
        """
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length > self._max_frame_bytes:
            raise ProtocolError(
                f"frame length {length} exceeds the "
                f"{self._max_frame_bytes}-byte limit"
            )
        return _HEADER.size + length

    def take(self) -> "bytes | None":
        """Remove and return the next complete frame's raw JSON payload;
        ``None`` while the buffered bytes stop short of one.

        Raises:
            ProtocolError: On an oversized length prefix.
        """
        end = self._frame_end()
        if end is None or len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[_HEADER.size:end])
        del self._buffer[:end]
        return payload

    @property
    def missing(self) -> int:
        """Bytes the frame in progress still lacks: the rest of its
        header first, then the rest of its payload."""
        end = self._frame_end()
        return (_HEADER.size if end is None else end) - len(self._buffer)

    def eof(self) -> None:
        """Declare end-of-stream: raise if a frame was cut mid-flight.

        Call this when the underlying transport closes. A non-empty
        buffer means the peer (or the network) died inside a frame —
        surfaced as the typed :class:`~repro.errors.FrameTruncated`
        rather than leaking transport-level errors to callers.

        Raises:
            FrameTruncated: When buffered bytes form an incomplete frame.
        """
        if not self._buffer:
            return
        end = self._frame_end()
        if end is None:
            raise FrameTruncated(
                f"connection closed mid-header ({len(self._buffer)} of "
                f"{_HEADER.size} bytes)"
            )
        raise FrameTruncated(
            f"connection closed mid-frame "
            f"({len(self._buffer) - _HEADER.size} of "
            f"{end - _HEADER.size} bytes)"
        )

    def __len__(self) -> int:
        return len(self._buffer)


def _parse_payload(payload: bytes) -> dict[str, Any]:
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame payload: {error}") from None
    if not isinstance(frame, dict) or "type" not in frame:
        raise ProtocolError(
            f"frame must be a JSON object with a 'type' key, got "
            f"{frame!r:.80}"
        )
    return frame


class Outbox:
    """One peer's outbound frames, encoded in wire order, not written
    (every core writes into these, and its shell writes what
    :meth:`bursts` returns). Readings (:meth:`add_row`) wait as rows and
    are sealed into one ``block`` frame by :meth:`take` or
    :meth:`bursts`, by an :meth:`add` of another frame, and at
    :data:`BLOCK_ROWS` rows."""

    __slots__ = ("_pending", "_size", "_rows")

    def __init__(self) -> None:
        self._pending: list[bytes] = []
        self._size = 0
        self._rows: list[tuple] = []

    def add(self, frame: Mapping[str, Any]) -> None:
        """Encode ``frame`` and give it the next place in wire order."""
        self.write(encode_frame(frame))

    def write(self, data: bytes) -> None:
        """Give already-encoded frames the next place in wire order."""
        self._seal()
        self._pending.append(data)
        self._size += len(data)

    def add_row(
        self,
        source: str,
        seq: int,
        arrival: float,
        low: "float | None",
        item: StreamTuple,
        trace: "list[int] | None" = None,
    ) -> None:
        """Give one reading the next place in wire order, as the next
        row of the pending block (:func:`block_frame` has the layout).

        Raises:
            ProtocolError: When this row seals the block and a single
                row of it exceeds :data:`MAX_FRAME_BYTES`.
        """
        rows = self._rows
        rows.append((source, seq, arrival, low, item, trace))
        if len(rows) >= BLOCK_ROWS:
            self._seal()

    def _seal(self) -> None:
        if self._rows:
            rows, self._rows = self._rows, []
            self.write(encode_block(rows))

    @property
    def full(self) -> bool:
        """Sealed bytes have passed :data:`BURST_BYTES`."""
        return self._size > BURST_BYTES

    def bursts(self) -> Iterator[bytes]:
        """Every pending frame in wire order, joined into byte strings of
        at most :data:`BURST_BYTES` (a larger frame alone, uncopied); the
        outbox empties."""
        self._seal()
        pending, self._pending = self._pending, []
        self._size = 0
        burst: list[bytes] = []
        size = 0
        for data in pending:
            if burst and size + len(data) > BURST_BYTES:
                yield b"".join(burst)
                burst = []
                size = 0
            burst.append(data)
            size += len(data)
        if burst:
            yield b"".join(burst)

    def take(self) -> bytes:
        """Every pending frame as one byte string; the outbox empties."""
        self._seal()
        if not self._pending:
            return b""
        data = b"".join(self._pending)
        self._pending.clear()
        self._size = 0
        return data


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> "dict[str, Any] | None":
    """Read one frame from ``reader``; ``None`` on clean EOF.

    Consumes exactly the frame's bytes (it asks the stream only for
    what :attr:`FrameDecoder.missing` says): what follows stays in
    ``reader`` for the next call, or for the serve loop that reads on
    after a handshake.

    Raises:
        FrameTruncated: EOF or a reset inside the frame.
        ProtocolError: An oversized length prefix (before its payload
            is read) or an undecodable payload.
    """
    decoder = FrameDecoder(max_frame_bytes)
    while (payload := decoder.take()) is None:
        try:
            data = await reader.read(decoder.missing)
        except ConnectionResetError as error:
            raise FrameTruncated(
                f"connection reset mid-stream: {error}"
            ) from None
        if not data:
            decoder.eof()
            return None
        decoder.extend(data)
    return _parse_payload(payload)


async def write_frame(
    writer: asyncio.StreamWriter, frame: Mapping[str, Any]
) -> None:
    """Encode ``frame``, write it, and drain the transport.

    One-shot and immediate: the frame is in the transport when the
    call returns, so a peer may write and close at once. Loops that
    send many frames per burst write a core's :class:`Outbox` instead.
    """
    writer.write(encode_frame(frame))
    await writer.drain()


async def write_raw_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Write an already-encoded JSON payload with a fresh length header."""
    writer.write(frame_bytes(payload))
    await writer.drain()


async def bail(writer: asyncio.StreamWriter, reason: str) -> None:
    """Tell the peer why it is being refused (a terminal ``error``
    frame), tolerating a peer that has already gone away."""
    try:
        await write_frame(writer, error_frame(reason))
    except (ConnectionError, RuntimeError):
        pass


# -- frame constructors -----------------------------------------------------


def hello(sources: Iterable[str], version: int = PROTOCOL_VERSION) -> dict:
    """Session-opening frame declaring the sources this connection feeds."""
    return {"type": "hello", "version": version, "sources": sorted(sources)}


def hello_ack(
    credits: "Mapping[str, int] | None", version: int = PROTOCOL_VERSION
) -> dict:
    """Handshake acceptance; ``credits`` is per-source or ``None``."""
    return {
        "type": "hello_ack",
        "version": version,
        "credits": dict(credits) if credits is not None else None,
    }


def data_frame(
    source: str,
    seq: int,
    arrival: float,
    item: StreamTuple,
    low: "float | None" = None,
) -> dict:
    """One reading: who sent it, its rank, and when it 'arrived'.

    The one-row spelling of a ``block`` (:func:`block_frame`), which
    v1/v2 peers send; nothing in this package does. ``low`` is the
    sender's promise that every later reading of
    ``source`` carries a timestamp of at least that (see
    :meth:`repro.streams.reorder.ReorderBuffer.promise`). The key is
    omitted entirely without one, so the wire bytes of a plain ``data``
    frame are unchanged.
    """
    frame = {
        "type": "data",
        "source": source,
        "seq": int(seq),
        "arrival": float(arrival),
        "record": tuple_to_record(item),
    }
    if low is not None:
        frame["low"] = float(low)
    return frame


def _finite(where: str, source: Any, key: str, value: Any) -> float:
    """``value`` as a float, if it is a finite JSON number (``source``
    names the reading in the error; ``None`` for a result row)."""
    kind = type(value)
    if kind is float:
        if isfinite(value):
            return value
    elif kind is int:
        try:
            return float(value)
        except OverflowError:
            pass
    if source is not None:
        where = f"{where} for source {source!r:.40}"
    raise ProtocolError(
        f"{where} carries {key}={value!r:.40}; expected a finite number"
    )


def _reading_cells(
    where: str,
    source: Any,
    seq: Any,
    arrival: Any,
    low: Any,
    timestamp: Any,
    stream: Any,
    columns: "tuple[str, str]" = ("timestamp", "stream"),
) -> "tuple[float, float | None, float]":
    """The one set of rules a received reading's cells pass, in a
    ``block`` row or a ``data`` frame: ``stream`` a string, ``seq`` an
    integer, ``timestamp``, ``arrival`` and ``low`` (unless ``None``)
    finite numbers (``json.loads`` accepts ``NaN``, and a non-finite
    stamp would poison a watermark). Returns ``(arrival, low,
    timestamp)`` as floats, or raises a ``ProtocolError`` naming the
    first bad cell (``columns`` names the timestamp and stream)."""
    if type(stream) is not str:
        raise ProtocolError(
            f"{where} for source {source!r:.40} carries "
            f"{columns[1]}={stream!r:.40}; expected a string"
        )
    if type(seq) is not int:
        raise ProtocolError(
            f"{where} for source {source!r:.40} carries seq={seq!r:.40}; "
            f"expected an integer"
        )
    timestamp = _finite(where, source, columns[0], timestamp)
    arrival = _finite(where, source, "arrival", arrival)
    if low is not None:
        low = _finite(where, source, "low", low)
    return arrival, low, timestamp


def data_fields(
    frame: Mapping[str, Any],
) -> "tuple[int, float, float | None, dict[str, Any]]":
    """Validate a received ``data`` frame; ``(seq, arrival, low, record)``.

    ``record`` must be an object; its timestamp and stream and the
    frame's ``seq``, ``arrival`` and ``low`` pass a ``block`` row's cell
    rules (:func:`_reading_cells`). Absent, the stream is ``""``,
    ``arrival`` the timestamp (a v1-style frame), ``seq`` 0, and ``low``
    no promise. Raises ``ProtocolError`` on any bad field.
    """
    source = frame.get("source")
    record = frame.get("record")
    if type(record) is not dict:
        raise ProtocolError(
            f"data frame for source {source!r:.40} carries a "
            f"record that is not an object: {record!r:.40}"
        )
    seq = frame.get("seq", 0)
    timestamp = record.get(TIMESTAMP_COLUMN)
    arrival, low, _timestamp = _reading_cells(
        "data frame", source, seq, frame.get("arrival", timestamp),
        frame.get("low"), timestamp, record.get(STREAM_COLUMN, ""),
        (TIMESTAMP_COLUMN, STREAM_COLUMN),
    )
    return seq, arrival, low, record


def data_row(frame: Mapping[str, Any]) -> tuple:
    """A received ``data`` frame as the one-row ``block`` it spells:
    the same entry :func:`block_rows` yields, so a front door has one
    per-reading handler whichever frame a peer sent.

    Raises:
        ProtocolError: As :func:`data_fields`, or a ``source`` that is
            not a string.
    """
    source = source_name(frame)
    seq, arrival, low, record = data_fields(frame)
    return source, seq, arrival, low, record_to_tuple(record), None


def block_frame(entries: Iterable[tuple]) -> dict:
    """A burst of readings as one frame.

    ``entries`` are ``(source, seq, arrival, low, item, trace)``:
    the fields of :func:`data_frame` (``low`` is ``None`` without a
    promise) and ``trace``, ``None`` or a tracing router's positional
    ``[id, recv, acq, fwd, replayed]`` context — for every entry or for
    none. Each becomes the row ``[k, source, seq, arrival, low,
    timestamp, stream, *values]`` under ``schemas[k]``, the item's own
    field order; schemas are numbered in order of first use.
    """
    index: dict[tuple, int] = {}
    rows: list[list] = []
    traces: list = []
    for source, seq, arrival, low, item, trace in entries:
        # The tuple's own mapping, read in place (as the column
        # encoder does): a copy per reading is what a block avoids.
        values = item._values
        schema = tuple(values)
        k = index.get(schema)
        if k is None:
            k = index[schema] = len(index)
        rows.append([
            k, source, seq, arrival, low, item.timestamp, item.stream,
            *values.values(),
        ])
        if trace is not None:
            traces.append(trace)
    frame = {
        "type": "block",
        "schemas": [list(schema) for schema in index],
        "rows": rows,
    }
    if traces:
        if len(traces) != len(rows):
            raise ProtocolError(
                f"block of {len(rows)} rows carries {len(traces)} trace "
                f"contexts; expected one per row or none"
            )
        frame["traces"] = traces
    return frame


def encode_block(entries: "Sequence[tuple]") -> bytes:
    """Serialize ``entries`` (:func:`block_frame`) as one ``block``
    frame — or, when that would exceed :data:`MAX_FRAME_BYTES`, as the
    frames of its two halves, in order.

    Raises:
        ProtocolError: When a single row exceeds the limit.
    """
    payload = _dumps(block_frame(entries))
    if len(payload) <= MAX_FRAME_BYTES:
        return frame_bytes(payload)
    if len(entries) == 1:
        raise ProtocolError(
            f"block row of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    half = len(entries) // 2
    return encode_block(entries[:half]) + encode_block(entries[half:])


#: Cell types of a row's ``traces`` entry.
_TRACE_CELLS = [int] * 5


def _schemas_and_rows(
    frame: Mapping[str, Any], kind: str
) -> "tuple[list, list]":
    """A ``block`` or ``result_block`` frame's ``schemas`` and ``rows``,
    once both are lists and every schema a list of distinct field names.

    Raises:
        ProtocolError: Otherwise.
    """
    schemas = frame.get("schemas")
    rows = frame.get("rows")
    if type(schemas) is not list or type(rows) is not list:
        raise ProtocolError(
            f"{kind} frame needs 'schemas' and 'rows' lists, got "
            f"{schemas!r:.40} and {rows!r:.40}"
        )
    for schema in schemas:
        if (
            type(schema) is not list
            or any(type(name) is not str for name in schema)
            or len(set(schema)) != len(schema)
        ):
            raise ProtocolError(
                f"{kind} schema {schema!r:.60} is not a list of distinct "
                f"field names"
            )
    return schemas, rows


def block_rows(frame: Mapping[str, Any]) -> "Iterator[tuple]":
    """Validate a received ``block`` frame row by row; yields the
    entries :func:`block_frame` took — ``(source, seq, arrival, low,
    item, trace)`` — as each row passes.

    Each row's cells pass :func:`_reading_cells`, as a ``data``
    frame's do, and ``source`` must be a string; beyond them ``k`` must
    index ``schemas``, a row be as wide as its schema, schema names be
    distinct strings, and ``traces`` (when present) hold one array of
    five integers per row. Field *values* are the reading's own and are
    not inspected. Rows ahead of a malformed one are yielded first, as
    frames ahead of a malformed frame are served first.

    Raises:
        ProtocolError: On the first violation, naming the row.
    """
    schemas, rows = _schemas_and_rows(frame, "block")
    traces = frame.get("traces")
    if traces is None:
        traces = repeat(None)
    elif type(traces) is not list or len(traces) != len(rows):
        raise ProtocolError(
            f"block frame of {len(rows)} rows carries traces "
            f"{traces!r:.40}; expected one per row"
        )
    count = len(schemas)
    from_parts = StreamTuple._from_parts
    for index, (row, trace) in enumerate(zip(rows, traces)):
        if type(row) is not list or len(row) < 7:
            raise ProtocolError(
                f"block row {index} is not a list of at least 7 cells: "
                f"{row!r:.60}"
            )
        k, source, seq, arrival, low, timestamp, stream, *cells = row
        if type(source) is not str:
            raise ProtocolError(
                f"block row {index} names source {source!r:.40}; "
                f"expected a string"
            )
        if type(k) is not int or not 0 <= k < count:
            raise ProtocolError(
                f"block row {index} for source {source!r:.40} carries "
                f"k={k!r:.40}; expected an index into {count} schemas"
            )
        if not (
            type(stream) is str
            and type(seq) is int
            and type(arrival) is float
            and type(timestamp) is float
            and isfinite(arrival)
            and isfinite(timestamp)
            and (low is None or (type(low) is float and isfinite(low)))
        ):
            # The common case inline; anything else (integer stamps
            # included) goes through the rules that name its cell.
            arrival, low, timestamp = _reading_cells(
                f"block row {index}", source, seq, arrival, low,
                timestamp, stream,
            )
        schema = schemas[k]
        if len(cells) != len(schema):
            raise ProtocolError(
                f"block row {index} for source {source!r:.40} carries "
                f"{len(cells)} values under a schema of {len(schema)}"
            )
        if trace is not None and (
            type(trace) is not list
            or [type(cell) for cell in trace] != _TRACE_CELLS
        ):
            raise ProtocolError(
                f"block row {index} carries trace {trace!r:.60}; "
                f"expected [id, recv, acq, fwd, replayed] integers"
            )
        yield (
            source, seq, arrival, low,
            from_parts(timestamp, dict(zip(schema, cells)), stream), trace,
        )


def frame_rows(
    frame: Mapping[str, Any], version: int
) -> "Iterable[tuple] | None":
    """The readings ``frame`` carries, as :func:`block_rows` entries —
    a ``block``'s rows, a ``data`` frame's one (:func:`data_row`) —
    or ``None`` for a frame of any other type. What a front door hands
    its one per-reading handler, whichever spelling the peer sent.

    Raises:
        ProtocolError: A ``block`` on a connection whose handshake
            negotiated a ``version`` below :data:`BLOCK_VERSION`; a
            malformed ``data`` frame (a ``block``'s rows are checked
            as they are iterated).
    """
    kind = frame.get("type")
    if kind == "block":
        if version < BLOCK_VERSION:
            raise ProtocolError(
                f"block frame on a connection that negotiated protocol "
                f"{version}; blocks need {BLOCK_VERSION}"
            )
        return block_rows(frame)
    if kind == "data":
        return (data_row(frame),)
    return None


def source_name(frame: Mapping[str, Any]) -> str:
    """The ``source`` a ``data`` or ``bye`` frame names.

    Raises:
        ProtocolError: Unless it is a string — checked before a front
            door uses it as a key.
    """
    source = frame.get("source")
    if type(source) is not str:
        raise ProtocolError(
            f"{frame.get('type')} frame names source {source!r:.40}; "
            f"expected a string"
        )
    return source


def source_names(frame: Mapping[str, Any]) -> "list[str]":
    """The ``sources`` a ``hello`` or ``heartbeat`` frame lists
    (absent or ``null``: none).

    Raises:
        ProtocolError: Unless they are a list of strings.
    """
    names = frame.get("sources")
    if names is None:
        return []
    if type(names) is not list or any(type(n) is not str for n in names):
        raise ProtocolError(
            f"{frame.get('type')} frame lists sources {names!r:.60}; "
            f"expected a list of strings"
        )
    return names


def heartbeat(sources: Iterable[str]) -> dict:
    """Liveness signal covering ``sources``."""
    return {"type": "heartbeat", "sources": sorted(sources)}


def credit_frame(source: str, credits: int) -> dict:
    """Grant ``credits`` more in-flight readings for ``source``."""
    return {"type": "credit", "source": source, "credits": int(credits)}


def error_frame(reason: str) -> dict:
    """Terminal failure notice; the sender closes after this."""
    return {"type": "error", "reason": reason}


def bye(source: str) -> dict:
    """Clean end-of-stream for ``source``."""
    return {"type": "bye", "source": source}


def bye_ack(source: str) -> dict:
    """Acknowledge the ``bye`` for ``source``."""
    return {"type": "bye_ack", "source": source}


# -- cluster dialect (protocol >= 2) ----------------------------------------


def worker_hello(worker: str, version: int = PROTOCOL_VERSION) -> dict:
    """Open a router→worker epoch channel addressed to ``worker``."""
    return {"type": "worker_hello", "version": version, "worker": worker}


def route(
    epoch: int,
    start_tick: int,
    sources: Iterable[str],
    resume: bool = False,
) -> dict:
    """Assign an epoch: the sources this worker serves and the first
    punctuation tick index whose output the egress merge takes from it.

    With ``resume=True`` the worker must expect a :func:`resume` frame
    next and restore the carried checkpoint before processing data. The
    key is omitted entirely in the common case so the golden wire bytes
    of a plain ``route`` are unchanged from protocol v2.
    """
    frame = {
        "type": "route",
        "epoch": int(epoch),
        "start_tick": int(start_tick),
        "sources": sorted(sources),
    }
    if resume:
        frame["resume"] = True
    return frame


def drain() -> dict:
    """Finalize every routed source now and report results."""
    return {"type": "drain"}


def result(
    epoch: int,
    tick: int,
    records: Iterable[Mapping[str, Any]],
    spans: "Iterable[list] | None" = None,
) -> dict:
    """Cleaned output for one punctuation tick index of ``epoch``: the
    protocol-2/3 spelling, which no worker of this build sends (workers
    send :func:`encode_result_block` frames).

    ``spans`` carries the tick's completed hop-span records when the
    cluster trace context is live (layout on
    :func:`encode_result_block`). The key is omitted entirely when
    there are none, so the golden wire bytes of an untraced ``result``
    are unchanged from protocol v2.
    """
    frame = {
        "type": "result",
        "epoch": int(epoch),
        "tick": int(tick),
        "records": list(records),
    }
    if spans:
        frame["spans"] = list(spans)
    return frame


#: Cells of a hop-span record (layout on :func:`encode_result_block`).
_HOP_CELLS = 11


def _result_block(epoch: int, ticks: "Sequence[tuple]") -> dict:
    """The ``result_block`` frame of ``ticks`` (:func:`encode_result_block`)."""
    traced = any(spans for _, _, spans in ticks)
    index: dict[tuple, int] = {}
    listed: list[list[int]] = []
    rows: list[list] = []
    hops: list[list] = []
    for tick, items, spans in ticks:
        for item in items:
            # Read in place, as block_frame does.
            values = item._values
            schema = tuple(values)
            k = index.get(schema)
            if k is None:
                k = index[schema] = len(index)
            rows.append([k, item.timestamp, item.stream, *values.values()])
        if traced:
            listed.append([tick, len(items), len(spans)])
            hops.extend(spans)
        else:
            listed.append([tick, len(items)])
    frame = {
        "type": "result_block",
        "epoch": int(epoch),
        "ticks": listed,
        "schemas": [list(schema) for schema in index],
        "rows": rows,
    }
    if traced:
        frame["spans"] = hops
    return frame


def encode_result_block(epoch: int, ticks: "Sequence[tuple]") -> bytes:
    """Serialize cleaned output of ``epoch`` as one ``result_block``
    frame — or, when that would exceed :data:`MAX_FRAME_BYTES`, as the
    frames of its two halves, in order (as :func:`encode_block` splits;
    a tick cut in two is listed in both).

    ``ticks`` are ``(index, items, spans)`` in tick order: a tick index,
    the tuples that tick emitted, and the hop records it completed
    (empty when untraced). Each tuple becomes the row ``[k, timestamp,
    stream, *values]`` under ``schemas[k]``, its own field order. A hop
    record is the positional array ``[ingest_id, source, sim_ts, recv,
    acq, fwd, wrecv, queued, released, done, replayed]`` — the trace
    context's router stamps, then the worker-clock stamps, all integer
    nanoseconds, with ``replayed`` as 0/1 (positional rather than keyed
    to keep the per-tuple wire cost inside the traced cluster's overhead
    budget).

    Raises:
        ProtocolError: When a single row or hop record exceeds the limit.
    """
    payload = _dumps(_result_block(epoch, ticks))
    if len(payload) <= MAX_FRAME_BYTES:
        return frame_bytes(payload)
    if len(ticks) > 1:
        half = len(ticks) // 2
        return encode_result_block(epoch, ticks[:half]) + encode_result_block(
            epoch, ticks[half:]
        )
    tick, items, spans = ticks[0]
    size = max(len(items), len(spans))
    if size <= 1:
        raise ProtocolError(
            f"result row of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    half = size // 2
    return encode_result_block(
        epoch, [(tick, items[:half], spans[:half])]
    ) + encode_result_block(epoch, [(tick, items[half:], spans[half:])])


def result_block_ticks(
    frame: Mapping[str, Any],
) -> "list[tuple[int, list[StreamTuple], list[list]]]":
    """Validate a received ``result_block`` frame whole; returns the
    ``(index, items, spans)`` ticks :func:`encode_result_block` took.

    Rows follow :func:`block_rows`' rules: ``k`` must index
    ``schemas``, a row be as wide as its schema, schema names be
    distinct strings, the timestamp a finite number and the stream a
    string. ``ticks`` must hold arrays of non-negative integers —
    ``[index, rows]``, or ``[index, rows, spans]`` when the frame
    carries ``spans`` — whose counts add up to exactly the frame's rows
    and spans, and a span must be an array of eleven hop cells.
    Nothing is returned until the whole frame has passed, so a refused
    frame changes nothing at its receiver.

    Raises:
        ProtocolError: On the first violation, naming the row or tick.
    """
    schemas, rows = _schemas_and_rows(frame, "result_block")
    ticks = frame.get("ticks")
    spans = frame.get("spans")
    if type(frame.get("epoch")) is not int or type(ticks) is not list or (
        spans is not None and type(spans) is not list
    ):
        raise ProtocolError(
            f"result_block frame needs an integer 'epoch' and a 'ticks' "
            f"list, got {frame.get('epoch')!r:.40} and {ticks!r:.40}"
        )
    width = 2 if spans is None else 3
    for position, entry in enumerate(ticks):
        if (
            type(entry) is not list
            or len(entry) != width
            or any(type(cell) is not int or cell < 0 for cell in entry)
        ):
            raise ProtocolError(
                f"result_block tick entry {position} is {entry!r:.60}; "
                f"expected {width} non-negative integers"
            )
    listed = sum(entry[1] for entry in ticks)
    if listed != len(rows):
        raise ProtocolError(
            f"result_block ticks {[entry[0] for entry in ticks]!r:.60} "
            f"list {listed} rows; the frame carries {len(rows)}"
        )
    if spans is not None:
        listed = sum(entry[2] for entry in ticks)
        if listed != len(spans):
            raise ProtocolError(
                f"result_block ticks {[entry[0] for entry in ticks]!r:.60} "
                f"list {listed} spans; the frame carries {len(spans)}"
            )
        for position, span in enumerate(spans):
            if type(span) is not list or len(span) != _HOP_CELLS:
                raise ProtocolError(
                    f"result_block span {position} is {span!r:.60}; "
                    f"expected an array of {_HOP_CELLS} hop cells"
                )
    count = len(schemas)
    from_parts = StreamTuple._from_parts
    items: list[StreamTuple] = []
    for index, row in enumerate(rows):
        if type(row) is not list or len(row) < 3:
            raise ProtocolError(
                f"result_block row {index} is not a list of at least 3 "
                f"cells: {row!r:.60}"
            )
        k, timestamp, stream, *cells = row
        if type(k) is not int or not 0 <= k < count:
            raise ProtocolError(
                f"result_block row {index} carries k={k!r:.40}; expected "
                f"an index into {count} schemas"
            )
        if type(timestamp) is not float or not isfinite(timestamp):
            timestamp = _finite(
                f"result_block row {index}", None, "timestamp", timestamp
            )
        if type(stream) is not str:
            raise ProtocolError(
                f"result_block row {index} names stream {stream!r:.40}; "
                f"expected a string"
            )
        schema = schemas[k]
        if len(cells) != len(schema):
            raise ProtocolError(
                f"result_block row {index} carries {len(cells)} values "
                f"under a schema of {len(schema)}"
            )
        items.append(from_parts(timestamp, dict(zip(schema, cells)), stream))
    decoded = []
    offset = hop = 0
    for entry in ticks:
        tick, n = entry[0], entry[1]
        tick_spans: list[list] = []
        if spans is not None:
            tick_spans = spans[hop:hop + entry[2]]
            hop += entry[2]
        decoded.append((tick, items[offset:offset + n], tick_spans))
        offset += n
    return decoded


def result_end(
    epoch: int,
    worker: str,
    ticks: int,
    stats: Mapping[str, Any],
    telemetry: "Mapping[str, Any] | None" = None,
) -> dict:
    """Epoch completion: sweep count, gateway stats, telemetry snapshot."""
    return {
        "type": "result_end",
        "epoch": int(epoch),
        "worker": worker,
        "ticks": int(ticks),
        "stats": dict(stats),
        "telemetry": dict(telemetry) if telemetry is not None else None,
    }


# -- recovery dialect (protocol >= 2) ---------------------------------------


def checkpoint(checkpoint_id: int) -> dict:
    """Router→worker: snapshot your operator state *now*.

    TCP FIFO makes the cut exact: the worker has received precisely the
    readings the router sent before this frame, so the positions the
    router recorded at send time name the first reading *not* covered
    by the snapshot. The worker quiesces (drains its ingress queues into
    the session), ships ``result_block`` frames for any newly swept ticks,
    then answers with :func:`checkpoint_ack`.
    """
    return {"type": "checkpoint", "id": int(checkpoint_id)}


def checkpoint_ack(
    checkpoint_id: int,
    epoch: int,
    ticks: int,
    state: "str | None",
    ok: bool = True,
    reason: str = "",
) -> dict:
    """Worker→router: the snapshot taken at :func:`checkpoint`.

    ``state`` is an opaque base64 blob (the router stores it without
    inspecting it and ships it back verbatim in :func:`resume`);
    ``ticks`` is how many punctuation ticks the worker's ledger covers.
    ``ok=False`` (e.g. state too large for one frame) tells the router
    to keep its previous checkpoint for this worker.
    """
    frame = {
        "type": "checkpoint_ack",
        "id": int(checkpoint_id),
        "epoch": int(epoch),
        "ticks": int(ticks),
        "state": state,
        "ok": bool(ok),
    }
    if reason:
        frame["reason"] = reason
    return frame


def resume(
    epoch: int, ticks: int, state: "str | None", checkpoint_id: int = -1
) -> dict:
    """Router→worker: restore this checkpoint before processing data.

    Sent immediately after a ``route`` carrying ``resume: true``. A
    ``None`` state means "no checkpoint exists" — the worker starts a
    fresh session and the router replays the full retained history for
    its keys (the provably-correct fallback).
    """
    return {
        "type": "resume",
        "epoch": int(epoch),
        "ticks": int(ticks),
        "state": state,
        "id": int(checkpoint_id),
    }


# -- tuple payload encoding -------------------------------------------------


def tuple_to_record(item: StreamTuple) -> dict[str, Any]:
    """Encode a tuple as the traceio JSONL record convention.

    Raises:
        ProtocolError: When the tuple has a field named like a reserved
            column: in a record it would overwrite the tuple's own
            timestamp or stream (``block`` rows reserve no name).
    """
    if has_reserved_column(item):
        raise ProtocolError(
            f"tuple from stream {item.stream!r} has a field named "
            f"{TIMESTAMP_COLUMN!r} or {STREAM_COLUMN!r}, which a record "
            f"reserves for the tuple's own timestamp and stream"
        )
    return {
        TIMESTAMP_COLUMN: item.timestamp,
        STREAM_COLUMN: item.stream,
        **item.as_dict(),
    }


def record_to_tuple(record: Mapping[str, Any]) -> StreamTuple:
    """Decode a :func:`tuple_to_record` payload.

    Raises:
        ProtocolError: When the reserved timestamp column is absent.
    """
    values = dict(record)
    if TIMESTAMP_COLUMN not in values:
        raise ProtocolError(
            f"data record lacks the {TIMESTAMP_COLUMN!r} column"
        )
    timestamp = values.pop(TIMESTAMP_COLUMN)
    stream = values.pop(STREAM_COLUMN, "")
    return StreamTuple(float(timestamp), values, str(stream))
