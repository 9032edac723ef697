"""Timestamped tuple data model.

A :class:`StreamTuple` is the unit of data flowing through every stream in
the system: a timestamp (float seconds on the simulation time axis), the
name of the stream it belongs to, and a mapping of field names to values.

Tuples are treated as immutable by convention (see "we are all responsible
users"): operators never mutate an input tuple in place; they derive new
tuples via :meth:`StreamTuple.derive`.

Field values are **native Python objects** — an int cell is ``int``, a
float cell is ``float`` — regardless of how the value was stored in
between. The columnar engine may hold a run of tuples as numpy-typed
columns (:mod:`repro.streams.typedcols`), but decoding always goes
through ``ndarray.tolist()``, which rebuilds native objects bit-exactly;
numpy scalar types never appear in a materialized tuple. Code consuming
tuples may therefore rely on exact ``type()`` checks and on JSON
serializability of every value it put in.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import SchemaError


class StreamTuple:
    """A single timestamped record in a data stream.

    Args:
        timestamp: Time of the reading, in seconds on the simulation axis.
        values: Mapping of field name to field value.
        stream: Name of the stream this tuple belongs to. Operators that
            union multiple streams preserve the originating stream name so
            that later stages (e.g. Virtualize) can distinguish sources.

    Example:
        >>> t = StreamTuple(1.0, {"tag_id": "T7", "shelf": 0})
        >>> t["tag_id"]
        'T7'
        >>> t.derive(values={"shelf": 1})["shelf"]
        1
    """

    __slots__ = ("timestamp", "stream", "_values")

    def __init__(
        self,
        timestamp: float,
        values: Mapping[str, Any] | None = None,
        stream: str = "",
    ):
        self.timestamp = float(timestamp)
        self.stream = stream
        self._values: dict[str, Any] = dict(values) if values else {}

    @classmethod
    def _from_parts(
        cls, timestamp: float, values: dict[str, Any], stream: str
    ) -> "StreamTuple":
        """Hot-path constructor taking ownership of ``values``.

        Skips the defensive ``dict`` copy and ``float`` coercion of
        ``__init__``; callers (columnar batch decoding, relabels, window
        emission) guarantee the timestamp is already a float and the
        dict is either freshly built or the ``_values`` of another
        tuple — which nothing ever mutates, so tuples may share it.
        """
        item = cls.__new__(cls)
        item.timestamp = timestamp
        item.stream = stream
        item._values = values
        return item

    # -- mapping-style access -------------------------------------------------

    def __getitem__(self, field: str) -> Any:
        try:
            return self._values[field]
        except KeyError:
            raise SchemaError(
                f"tuple from stream {self.stream!r} has no field {field!r}; "
                f"available fields: {sorted(self._values)}"
            ) from None

    def get(self, field: str, default: Any = None) -> Any:
        """Return the value of ``field``, or ``default`` if absent."""
        return self._values.get(field, default)

    def __contains__(self, field: str) -> bool:
        return field in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def keys(self):
        """Return the field names of this tuple."""
        return self._values.keys()

    def items(self):
        """Return (field, value) pairs of this tuple."""
        return self._values.items()

    def as_dict(self) -> dict[str, Any]:
        """Return a copy of the field mapping."""
        return dict(self._values)

    # -- derivation -----------------------------------------------------------

    def derive(
        self,
        timestamp: float | None = None,
        values: Mapping[str, Any] | None = None,
        stream: str | None = None,
        drop: tuple[str, ...] = (),
    ) -> "StreamTuple":
        """Return a new tuple based on this one.

        Args:
            timestamp: Replacement timestamp, or ``None`` to keep this one.
            values: Fields to add or overwrite.
            stream: Replacement stream name, or ``None`` to keep this one.
            drop: Field names to remove from the derived tuple.

        A derivation that changes no field and no timestamp (a pure
        relabel, ``stream=`` alone) shares this tuple's value mapping
        instead of copying it — tuples have no mutating API, so the
        sharing is unobservable; every other derivation copies the
        mapping exactly once.
        """
        if stream is None:
            stream = self.stream
        if timestamp is None:
            timestamp = self.timestamp
            if not values and not drop:
                return StreamTuple._from_parts(timestamp, self._values, stream)
        else:
            timestamp = float(timestamp)
        new_values = dict(self._values)
        for field in drop:
            new_values.pop(field, None)
        if values:
            new_values.update(values)
        return StreamTuple._from_parts(timestamp, new_values, stream)

    def project(self, fields: tuple[str, ...]) -> "StreamTuple":
        """Return a new tuple containing only ``fields`` (in any order)."""
        return StreamTuple(
            self.timestamp,
            {f: self[f] for f in fields},
            self.stream,
        )

    # -- comparisons / display ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.stream == other.stream
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash(
            (self.timestamp, self.stream, tuple(sorted(self._values.items())))
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        origin = f" stream={self.stream!r}" if self.stream else ""
        return f"StreamTuple(t={self.timestamp:g}{origin} {{{fields}}})"


def relabel(items: Iterable[StreamTuple], stream: str) -> list[StreamTuple]:
    """``[t.derive(stream=stream) for t in items]`` in one comprehension.

    The whole-run form of a relabel: each result shares its source's
    value mapping (see :meth:`StreamTuple.derive`).
    """
    from_parts = StreamTuple._from_parts
    return [from_parts(t.timestamp, t._values, stream) for t in items]
