"""Columnar batch representation for the hot ``on_batch`` path.

A :class:`ColumnBatch` stores a run of same-port deliveries as parallel
columns — one list per field, plus a timestamp list and a stream-label
list — instead of a list of :class:`~repro.streams.tuples.StreamTuple`
objects. Stateless kernels (filter, map, union relabel) then touch one
column per operation instead of one object per tuple.

Semantics contract
------------------

``ColumnBatch`` is a *pure encoding*: for every batch,
``ColumnBatch.from_tuples(items).tuples() == list(items)``, field for
field and in order. Operators that consume batches columnar-side must
produce exactly the tuples the row kernel would have produced — the
differential suite in ``tests/test_columnar_equivalence.py`` pins this
per kernel, and the golden traces pin it end-to-end.

Batches are **immutable by convention**: derived batches share column
lists with their parents (``with_columns`` copies only the column dict,
``take``/``where`` with an all-rows selection return ``self``). Never
mutate a column list in place.

**One schema per batch.** Every row of a batch carries the same field
set, so every column has a cell in every row. ``from_tuples`` refuses
rows whose fields differ and ``concat`` refuses parts whose schemas
differ (:class:`~repro.errors.OperatorError`); :func:`coalesce` returns
``None`` for such a run, and the executor hands it to the row kernel.

Typed columns
-------------

A column is stored as either a plain Python list or — when
:mod:`repro.streams.typedcols` detects a homogeneous numeric column at
encode time — a numpy array (``int64``/``float64``). Typed storage is
a pure acceleration: ``tolist()`` round-trips cells bit-exactly, every
consumer that needs rows goes through :func:`typedcols.to_list`, and
all fallback paths (no numpy, mixed dtypes, tiny batches) keep the
list representation, so results are identical with and without numpy.
Code touching ``columns`` directly must treat a column as
*list-or-array*: index and ``len()`` freely, but never
``append``/``extend`` (immutability already forbids that) and never
compare a whole column with ``==`` (arrays broadcast).

Vectorizable callables
----------------------

Row-path callables can opt into columnar execution by exposing:

- ``.columnar(batch) -> ColumnBatch`` on map functions
  (:class:`AddFields`, :class:`SetStream`), and
- ``.mask(batch) -> sequence of truthy`` on predicates
  (:class:`FieldCompare`).

An operator whose callable lacks the hook has no column kernel and is
handed rows, so arbitrary lambdas keep working unchanged. A map
function may also expose ``.rows(items) -> list`` (:class:`SetStream`),
the row path's whole-run form: exactly the non-``None`` results of
calling it per tuple, in order.
"""

from __future__ import annotations

import operator as _op
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import OperatorError
from repro.streams import typedcols as _tc
from repro.streams.tuples import StreamTuple, relabel
from repro.streams.typedcols import (
    EXACT_INT_BOUND,
    INT64_MAX,
    INT64_MIN,
    is_typed,
    to_list,
)

__all__ = [
    "ColumnBatch",
    "AddFields",
    "SetStream",
    "FieldCompare",
    "coalesce",
    "flatten",
]


class ColumnBatch:
    """A batch of stream tuples stored as parallel columns.

    Args:
        timestamps: Per-row event times, non-decreasing within a source.
        streams: Per-row stream labels.
        columns: Mapping of field name to a value list of the same
            length; every row has a cell in every column.

    The constructor takes ownership of the lists it is given — callers
    must not mutate them afterwards.
    """

    __slots__ = ("timestamps", "streams", "_columns", "_tuples")

    def __init__(
        self,
        timestamps: list[float],
        streams: list[str],
        columns: dict[str, Any],
    ) -> None:
        n = len(timestamps)
        if len(streams) != n:
            raise OperatorError(
                f"column batch is ragged: {n} timestamps vs "
                f"{len(streams)} stream labels"
            )
        for field, col in columns.items():
            if len(col) != n:
                raise OperatorError(
                    f"column batch is ragged: column {field!r} has "
                    f"{len(col)} cells for {n} rows"
                )
        self.timestamps = timestamps
        self.streams = streams
        self._columns: dict[str, Any] | None = columns
        self._tuples: list[StreamTuple] | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def empty(cls) -> "ColumnBatch":
        """A zero-row batch."""
        return cls([], [], {})

    @classmethod
    def from_tuples(cls, items: Sequence[StreamTuple]) -> "ColumnBatch":
        """Wrap a row batch of one schema; caches ``items`` for free
        decoding.

        Raises :class:`OperatorError` when the rows' field sets differ.
        Column construction is deferred until :attr:`columns` is first
        read, so purely row-oriented consumers (a window or sink kernel
        that materializes straight back to tuples) never pay for the
        encoding.
        """
        items = list(items)
        if items:
            fields = items[0]._values.keys()
            if any(t._values.keys() != fields for t in items):
                raise OperatorError(
                    "column batch rows differ in their fields; a batch "
                    "holds one schema"
                )
        return cls._lazy(
            [t.timestamp for t in items], [t.stream for t in items], items
        )

    @classmethod
    def _lazy(
        cls,
        timestamps: list[float],
        streams: list[str],
        rows: list[StreamTuple],
    ) -> "ColumnBatch":
        """A batch of one-schema ``rows``, encoded when first read."""
        batch = cls(timestamps, streams, {})
        batch._columns = None
        batch._tuples = rows
        return batch

    @classmethod
    def concat(cls, parts: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches of one schema row-wise.

        Raises :class:`OperatorError` when the parts' schemas differ.
        Field order of the result is the first part's.
        """
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        # Each part's field set, read without encoding it.
        schemas = [
            p._columns.keys() if p._columns is not None
            else p._tuples[0]._values.keys()  # type: ignore[index]
            for p in parts
        ]
        if any(schema != schemas[0] for schema in schemas):
            raise OperatorError(
                "cannot concatenate column batches of different schemas"
            )
        timestamps: list[float] = []
        streams: list[str] = []
        for part in parts:
            timestamps.extend(part.timestamps)
            streams.extend(part.streams)
        cached: list[StreamTuple] | None = None
        if all(p._tuples is not None for p in parts):
            cached = []
            for part in parts:
                cached.extend(part._tuples)  # type: ignore[arg-type]
            if any(p._columns is None for p in parts):
                # Some part was never encoded: concatenate the rows and
                # stay lazy.
                return cls._lazy(timestamps, streams, cached)
        columns: dict[str, Any] = {}
        for field in parts[0].columns:
            srcs = [part.columns[field] for part in parts]
            typed = _tc.concat_cells(srcs)
            if typed is not None:
                columns[field] = typed
                continue
            col: list[Any] = []
            for src in srcs:
                col.extend(src if isinstance(src, list) else to_list(src))
            columns[field] = col
        batch = cls(timestamps, streams, columns)
        batch._tuples = cached
        return batch

    # -- encoding ------------------------------------------------------

    @property
    def columns(self) -> dict[str, Any]:
        """Field → column mapping, encoded lazily from cached rows.

        A column is a plain list or, for homogeneous numeric fields, a
        numpy array (see :mod:`repro.streams.typedcols`). Treat the
        mapping and its columns as read-only — derived batches share
        them.
        """
        cols = self._columns
        if cols is None:
            cols = self._encode()
        return cols

    def _encode(self) -> dict[str, Any]:
        items = self._tuples
        if items is None:  # pragma: no cover - construction invariant
            raise OperatorError("column batch has neither rows nor columns")
        columns: dict[str, Any] = {}
        if items:
            # One schema, so one list comprehension per field.
            # Homogeneous numeric columns come out typed (numpy-backed)
            # when available; the first-cell sniff keeps obviously
            # non-numeric columns off the full type scan.
            for field in items[0]._values:
                col: Any = [t._values[field] for t in items]
                if type(col[0]) in (int, float):
                    typed = _tc.typed_from_values(col)
                    if typed is not None:
                        col = typed
                columns[field] = col
        self._columns = columns
        return columns

    # -- decoding ------------------------------------------------------

    def tuples(self) -> list[StreamTuple]:
        """Materialize rows lazily; the result is cached and shared.

        Treat the returned list as read-only — repeated calls return
        the same list object.
        """
        if self._tuples is None:
            names = tuple(self.columns)
            from_parts = StreamTuple._from_parts
            if names:
                # Typed columns decode through tolist(): bit-exact
                # native int/float objects, and tuple rows never see
                # numpy types.
                cols = [to_list(self.columns[f]) for f in names]
                self._tuples = [
                    from_parts(ts, dict(zip(names, row)), stream)
                    for ts, stream, row in zip(
                        self.timestamps, self.streams, zip(*cols)
                    )
                ]
            else:
                self._tuples = [
                    from_parts(ts, {}, stream)
                    for ts, stream in zip(self.timestamps, self.streams)
                ]
        return self._tuples

    # -- views ---------------------------------------------------------

    def column(self, field: str) -> Any:
        """The column for ``field`` (list or typed array); raises if absent."""
        try:
            return self.columns[field]
        except KeyError:
            raise OperatorError(
                f"column batch has no field {field!r}"
            ) from None

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Rows at ``indices`` (ascending, unique), as a new batch.

        Selecting every row returns ``self`` unchanged; a cached tuple
        list is sliced rather than re-materialized.
        """
        n = len(self.timestamps)
        if len(indices) == n:
            return self
        if not indices:
            return ColumnBatch.empty()
        timestamps = [self.timestamps[i] for i in indices]
        streams = [self.streams[i] for i in indices]
        rows = self._tuples
        if self._columns is None:
            # Never encoded: slice the cached rows and stay lazy.
            assert rows is not None
            return ColumnBatch._lazy(
                timestamps, streams, [rows[i] for i in indices]
            )
        batch = ColumnBatch(
            timestamps,
            streams,
            {
                field: _tc.take_cells(col, indices)
                for field, col in self._columns.items()
            },
        )
        if rows is not None:
            batch._tuples = [rows[i] for i in indices]
        return batch

    def where(self, mask: Sequence[Any]) -> "ColumnBatch":
        """Rows whose ``mask`` entry is truthy, as a new batch.

        All-truthy masks return ``self`` (no copy); all-falsy masks
        return an empty batch.
        """
        n = len(self.timestamps)
        if len(mask) != n:
            raise OperatorError(
                f"filter mask has {len(mask)} entries for {n} rows"
            )
        if is_typed(mask):
            # Boolean array from a vectorized predicate: keep the
            # all-truthy identity short-circuit, and turn the mask
            # into indices in C instead of a Python loop.
            if mask.all():
                return self
            indices = _tc.np.flatnonzero(mask).tolist()
        else:
            indices = [i for i, keep in enumerate(mask) if keep]
        return self.take(indices)

    def with_stream(self, stream: str) -> "ColumnBatch":
        """Relabel every row's stream; shares all columns with self."""
        streams = [stream] * len(self.streams)
        if self._columns is None:
            # Never encoded: relabel the cached rows (sharing their
            # value dicts — tuples are immutable by convention) and
            # stay lazy rather than encoding just to share columns.
            assert self._tuples is not None
            return ColumnBatch._lazy(
                self.timestamps, streams, relabel(self._tuples, stream)
            )
        return ColumnBatch(self.timestamps, streams, self._columns)

    def with_columns(self, values: Mapping[str, Any]) -> "ColumnBatch":
        """Add or overwrite constant-valued columns; shares the rest."""
        if self._columns is None:
            # Never encoded: derive the cached rows directly (the same
            # dict-merge the row path pays) and stay lazy, instead of
            # encoding every existing column just to add constants.
            assert self._tuples is not None
            adds = dict(values)
            return ColumnBatch._lazy(
                self.timestamps,
                self.streams,
                [
                    StreamTuple._from_parts(
                        t.timestamp, {**t._values, **adds}, t.stream
                    )
                    for t in self._tuples
                ],
            )
        n = len(self.timestamps)
        columns = dict(self._columns)
        for field, value in values.items():
            # Numeric constants are born typed so downstream compares
            # vectorize without a re-encode; everything else (strings,
            # objects) stays a shared list.
            columns[field] = _tc.constant_cells(value, n)
        return ColumnBatch(self.timestamps, self.streams, columns)

    # -- dunder --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self.tuples())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnBatch):
            return self.tuples() == other.tuples()
        if isinstance(other, (list, tuple)):
            return self.tuples() == list(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - batches are not keys
        return hash(tuple(self.tuples()))

    def __repr__(self) -> str:
        fields = ", ".join(self.columns)
        return f"ColumnBatch({len(self)} rows; fields=[{fields}])"


def flatten(
    payloads: Iterable["ColumnBatch | StreamTuple | list[StreamTuple]"],
) -> list[StreamTuple]:
    """One fresh list of the rows in a run of pending payloads.

    Always a new list — list payloads and a batch's cached rows are
    borrowed (see
    :meth:`Operator.on_batch <repro.streams.operators.Operator.on_batch>`)
    and may sit in a sibling consumer's queue too. This is where a
    batch becomes rows: once, at its first row-only consumer (the
    decoded rows stay cached on the batch for any sibling).
    """
    rows: list[StreamTuple] = []
    for payload in payloads:
        if isinstance(payload, StreamTuple):  # most runs are source tuples
            rows.append(payload)
        elif isinstance(payload, list):
            rows.extend(payload)
        else:
            rows.extend(payload.tuples())
    return rows


def coalesce(
    payloads: Sequence["ColumnBatch | StreamTuple | list[StreamTuple]"],
) -> "ColumnBatch | None":
    """Fold a same-port run of pending payloads into one batch, or
    return ``None`` when the run's rows do not share one schema.

    The executor's pending queues hold a mix of per-tuple source
    deliveries, row lists (row-kernel and punctuation output) and
    whole-batch column-kernel outputs; the drain coalesces a run that
    is long enough for a node's column kernel, and hands a run this
    refuses to the row kernel. Rows between two batches become one
    lazily encoded batch (the single-pass twin of :func:`flatten`: the
    source-tuple run of a stateless chain's first node comes through
    here once per tick).
    """
    if len(payloads) == 1 and isinstance(payloads[0], ColumnBatch):
        return payloads[0]
    parts: list[ColumnBatch] = []
    loose: list[StreamTuple] = []  # fresh: row-list payloads are borrowed
    try:
        for payload in payloads:
            if isinstance(payload, StreamTuple):  # most runs are source tuples
                loose.append(payload)
            elif isinstance(payload, list):
                loose.extend(payload)
            else:
                if loose:
                    parts.append(ColumnBatch.from_tuples(loose))
                    loose = []
                parts.append(payload)
        if loose:
            parts.append(ColumnBatch.from_tuples(loose))
        return ColumnBatch.concat(parts)
    except OperatorError:  # the run's rows differ in their fields
        return None


# -- vectorizable callables -------------------------------------------


class AddFields:
    """Map function adding (or overwriting) constant fields per tuple,
    and relabelling its stream when ``stream`` is given.

    Row path: ``t.derive(values=..., stream=...)`` per tuple. Columnar
    path: one shared constant column per field, O(fields) per batch.
    """

    __slots__ = ("values", "stream")

    def __init__(
        self, values: Mapping[str, Any], stream: str | None = None
    ) -> None:
        self.values = dict(values)
        self.stream = stream

    def __call__(self, item: StreamTuple) -> StreamTuple:
        return item.derive(values=self.values, stream=self.stream)

    def columnar(self, batch: ColumnBatch) -> ColumnBatch:
        batch = batch.with_columns(self.values)
        return batch if self.stream is None else batch.with_stream(self.stream)


class SetStream:
    """Map function relabeling each tuple's stream.

    Row path: ``t.derive(stream=...)`` — a new tuple sharing the value
    mapping; :meth:`rows` relabels a whole run in one comprehension.
    Columnar path: swap the stream list, share every column.
    """

    __slots__ = ("stream",)

    def __init__(self, stream: str) -> None:
        self.stream = stream

    def __call__(self, item: StreamTuple) -> StreamTuple:
        return item.derive(stream=self.stream)

    def rows(self, items: Sequence[StreamTuple]) -> list[StreamTuple]:
        return relabel(items, self.stream)

    def columnar(self, batch: ColumnBatch) -> ColumnBatch:
        return batch.with_stream(self.stream)


class FieldCompare:
    """Predicate comparing one field against a constant.

    ``FieldCompare("temp", "<", 50.0)`` row-path raises
    :class:`~repro.errors.SchemaError` on tuples missing the field,
    exactly like ``t["temp"] < 50.0`` would; the mask path falls back
    to per-row evaluation when the batch has no such column, so the
    error is identical.
    """

    __slots__ = ("field", "op", "value", "_cmp")

    _OPS: dict[str, Callable[[Any, Any], bool]] = {
        "<": _op.lt,
        "<=": _op.le,
        ">": _op.gt,
        ">=": _op.ge,
        "==": _op.eq,
        "!=": _op.ne,
    }

    def __init__(self, field: str, op: str, value: Any) -> None:
        if op not in self._OPS:
            raise OperatorError(
                f"unknown comparison {op!r}; expected one of "
                f"{sorted(self._OPS)}"
            )
        self.field = field
        self.op = op
        self.value = value
        self._cmp = self._OPS[op]

    def __call__(self, item: StreamTuple) -> bool:
        return bool(self._cmp(item[self.field], self.value))

    def mask(self, batch: ColumnBatch) -> Any:
        """Whole-batch mask: a bool array on typed columns, else a list.

        The array path only engages when its result is provably
        identical to the per-row loop: int column vs int constant
        (exact int64 compares), float column vs float constant (same
        IEEE-754 compares element-wise), or float column vs an int
        constant small enough (``|v| <= 2**53``) that numpy's
        int→float64 promotion is exact. Everything else — including an
        int column against a float constant, where numpy would compare
        lossily-promoted cells while Python compares exactly — falls
        back to the loop.
        """
        col = batch.columns.get(self.field)
        if col is None:
            return [self(item) for item in batch.tuples()]
        cmp, value = self._cmp, self.value
        if is_typed(col):
            vt = type(value)
            kind = col.dtype.kind
            if (
                (vt is int and kind == "i" and INT64_MIN <= value <= INT64_MAX)
                or (vt is float and kind == "f")
                or (
                    vt is int
                    and kind == "f"
                    and -EXACT_INT_BOUND <= value <= EXACT_INT_BOUND
                )
            ):
                return cmp(col, value)
            return [bool(cmp(v, value)) for v in col.tolist()]
        return [bool(cmp(v, value)) for v in col]
