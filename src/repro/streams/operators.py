"""Relational operators over streams.

Operators follow a push-based, punctuated protocol. The executor
(:mod:`repro.streams.fjord`) delivers two kinds of events to an operator:

- :meth:`Operator.on_batch` — a run of data tuples arrived on an input
  port (the one data entry point: it is what an operator implements and
  the only data method an executor calls);
- :meth:`Operator.on_time` — a *time punctuation*: every tuple with
  timestamp ``<= now`` has been delivered; windowed operators slide and
  emit their results for time ``now``.

Both methods return the (possibly empty) list of output tuples to push
downstream. Stateless operators (filter, map) emit from ``on_batch``;
windowed operators buffer in ``on_batch`` and emit from ``on_time``.
:meth:`Operator.on_tuple` is a convenience defined once on the base
(``on_batch([item], port)``) for tests and interactive use; operators do
not override it.

This split mirrors the Fjord execution model the paper cites [22]: data is
pushed through the pipeline as it arrives, while window semantics are
driven by punctuations rather than by a global per-window barrier.
"""

from __future__ import annotations

from bisect import insort
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import OperatorError, PipelineError
from repro.streams.aggregates import AggregateSpec
from repro.streams.columnar import ColumnBatch
from repro.streams.tuples import StreamTuple, relabel
from repro.streams.windows import BaseWindow, WindowSpec

#: Extracts a grouping key component or aggregate argument from a tuple.
Extractor = Callable[[StreamTuple], Any]


class Operator:
    """Base class for stream operators (see module docstring)."""

    #: Attribute names holding this operator's mutable *data* state —
    #: window contents, pending buffers, running moments — as opposed to
    #: configuration (predicates, thresholds, field names). The default
    #: :meth:`checkpoint`/:meth:`restore` protocol covers exactly these
    #: attributes; config is deliberately excluded so restore targets a
    #: freshly built identical pipeline (lambdas never cross the wire).
    STATE_ATTRS: tuple[str, ...] = ()

    def on_tuple(self, item: StreamTuple, port: int = 0) -> list[StreamTuple]:
        """Handle one input tuple on ``port``: ``on_batch([item], port)``.

        A convenience for tests and interactive use. Executors never
        call it and operators never override it.
        """
        return self.on_batch([item], port)

    def checkpoint(self) -> "dict[str, Any] | None":
        """Snapshot this operator's data state, or ``None`` if stateless.

        Returns live references, not copies: the caller serializes the
        snapshot synchronously (before the operator runs again), which
        is what makes checkpointing cheap on the hot path. Operators
        whose state is not attribute-shaped override this together with
        :meth:`restore`.
        """
        if not self.STATE_ATTRS:
            return None
        return {name: getattr(self, name) for name in self.STATE_ATTRS}

    def restore(self, state: "Mapping[str, Any] | None") -> None:
        """Install a :meth:`checkpoint` snapshot into this operator.

        The operator must be freshly constructed with the *same
        configuration* as the one that produced the snapshot. Lists and
        dicts are refilled in place so aliases held by the surrounding
        session (e.g. a sink's results list exposed as ``emitted``)
        stay valid.
        """
        if state is None:
            return
        for name, value in state.items():
            current = getattr(self, name, None)
            if isinstance(current, list) and isinstance(value, list):
                current[:] = value
            elif isinstance(current, dict) and isinstance(value, dict):
                current.clear()
                current.update(value)
            else:
                setattr(self, name, value)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        """Handle a run of input tuples that arrived on ``port``.

        The data entry point every operator implements: the executor
        delivers pending input through this method, one call per run.

        **Chunking invariance.** How the executor cuts a port's input
        into runs is not observable: ``on_batch(a + b)`` must emit
        exactly ``on_batch(a) + on_batch(b)`` (and leave the same
        state). The executor accounts flow counters and telemetry
        (batch-size histograms, per-call latency) by the lengths of the
        input and output sequences, so a kernel that drops, adds or
        reorders tuples depending on the cut would skew every counter
        downstream. ``tests/test_observability.py`` pins the invariance
        differentially (whole runs against one tuple at a time) for
        every operator.

        **Borrowing rule.** ``items`` is borrowed: it may be the very
        list an upstream kernel returned, and the executor may have
        handed the same list to a sibling consumer (a tap, a fan-out
        edge). A kernel therefore neither mutates ``items`` nor keeps a
        reference to it past the call — copying out of it (``extend``)
        is fine. The list a kernel *returns* belongs to the executor
        from then on: the kernel must not touch it again.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement on_batch"
        )

    def column_kernel(
        self,
    ) -> "Callable[[ColumnBatch, int], ColumnBatch] | None":
        """This operator's column kernel, or ``None`` when it has none.

        Asked once, when the operator joins a dataflow; the executor
        then hands the kernel the runs worth encoding (see
        :data:`repro.streams.fjord.COLUMN_MIN_ROWS`) and :meth:`on_batch`
        the rest. A kernel — by convention a method named
        ``on_column_batch(batch, port)`` — must emit exactly the batch
        :meth:`on_batch` would emit for ``batch.tuples()``: the same
        tuples, in the same order, under the same accounting contract.
        Only operators whose work is per-column have one (a filter
        with a mask predicate, a map with a columnar function, and
        union); everything else, stateful or not, consumes rows.
        """
        return None

    def on_time(self, now: float) -> list[StreamTuple]:
        """Handle a time punctuation; return output tuples for ``now``."""
        return []


class FilterOp(Operator):
    """Keep tuples satisfying a predicate (the WHERE clause / Point filters).

    Args:
        predicate: Callable returning truthy to keep the tuple.

    Example:
        >>> op = FilterOp(lambda t: t["temp"] < 50)
        >>> op.on_tuple(StreamTuple(0, {"temp": 80}))
        []
    """

    def __init__(self, predicate: Callable[[StreamTuple], bool]):
        self._predicate = predicate

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        predicate = self._predicate
        return [item for item in items if predicate(item)]

    def column_kernel(self):
        return self.on_column_batch if hasattr(self._predicate, "mask") else None

    def on_column_batch(self, batch: ColumnBatch, port: int = 0) -> ColumnBatch:
        return batch.where(self._predicate.mask(batch))  # type: ignore[attr-defined]


class MapOp(Operator):
    """Transform each tuple (projection, field conversion, annotation).

    Args:
        fn: Callable mapping a tuple to a tuple, a list of tuples, or
            ``None`` to drop it.
    """

    def __init__(self, fn: Callable[[StreamTuple], "StreamTuple | list[StreamTuple] | None"]):
        self._fn = fn

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        fn = self._fn
        rows = getattr(fn, "rows", None)
        if rows is not None:
            return rows(items)
        out: list[StreamTuple] = []
        for item in items:
            result = fn(item)
            if result is None:
                continue
            if isinstance(result, StreamTuple):
                out.append(result)
            else:
                out.extend(result)
        return out

    def column_kernel(self):
        return self.on_column_batch if hasattr(self._fn, "columnar") else None

    def on_column_batch(self, batch: ColumnBatch, port: int = 0) -> ColumnBatch:
        return self._fn.columnar(batch)  # type: ignore[attr-defined]


class UnionOp(Operator):
    """Merge any number of input streams into one (bag union).

    Optionally re-labels the output stream name so downstream operators see
    a single logical stream, as the ESP processor does at each receptor
    kind's output (``kindout:<kind>``).
    """

    def __init__(self, output_stream: str | None = None):
        self._output_stream = output_stream

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        stream = self._output_stream
        if stream is None:
            # Pass-through: hand the borrowed run on as this kernel's
            # output (nothing downstream may mutate it either).
            return items if isinstance(items, list) else list(items)
        return relabel(items, stream)

    def column_kernel(self):
        return self.on_column_batch

    def on_column_batch(self, batch: ColumnBatch, port: int = 0) -> ColumnBatch:
        if self._output_stream is None:
            return batch
        return batch.with_stream(self._output_stream)


class StaticJoinOp(Operator):
    """Join the stream against a static relation (e.g. an inventory list).

    This implements the paper's "static table joins (e.g., for inventory
    lookups)" extensibility point (§4.3.1) and the digital-home Point stage
    that keeps only expected tag IDs (§6.1).

    Args:
        table: The static relation, as a sequence of field mappings.
        on: Predicate over ``(stream_tuple, table_row)`` deciding a match.
        how: ``"inner"`` emits one enriched tuple per matching row (table
            fields merged in, stream fields win on collision); ``"semi"``
            emits the stream tuple unchanged if any row matches; ``"anti"``
            emits it if no row matches.
    """

    def __init__(
        self,
        table: Sequence[Mapping[str, Any]],
        on: Callable[[StreamTuple, Mapping[str, Any]], bool],
        how: str = "inner",
    ):
        if how not in ("inner", "semi", "anti"):
            raise OperatorError(f"unknown join mode {how!r}")
        self._table = [dict(row) for row in table]
        self._on = on
        self._how = how

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        table = self._table
        on = self._on
        how = self._how
        out: list[StreamTuple] = []
        for item in items:
            matches = [row for row in table if on(item, row)]
            if how == "semi":
                if matches:
                    out.append(item)
            elif how == "anti":
                if not matches:
                    out.append(item)
            else:
                out.extend(
                    item.derive(values={**row, **item.as_dict()})
                    for row in matches
                )
        return out


#: ``GroupKey(value=...)`` not given: the component is no constant.
_NO_VALUE: Any = object()


class GroupKey:
    """A named component of a grouping key, declaring what it reads.

    The declared forms, which :class:`WindowedGroupByOp` reads with one
    compiled getter per operator:

    - ``GroupKey(name)``: the field ``name``, strictly (a row without it
      raises :class:`~repro.errors.SchemaError`); ``field=`` reads
      another field under the output name ``name``;
    - ``GroupKey(name, optional=True)``: the field, ``None`` where absent;
    - ``GroupKey(name, value=v)``: the constant ``v``;
    - ``GroupKey(name, extractor, field=f)``: ``extractor``, declared to
      return ``row[f]`` whenever the row has ``f`` (a CQL column
      reference); it alone decides a row without ``f``.

    ``GroupKey(name, extractor)`` with no ``field`` is opaque: the
    group-by calls the extractor on every row.

    Attributes:
        name: Output field name for this key component.
        extractor: The component's meaning, ``row -> value``: what the
            group-by calls for a row lacking a declared field, and for
            every row when a component is opaque.
        field: The field the component reads, or ``None``.
        constant: Whether the component is the constant ``value``.
    """

    __slots__ = (
        "name", "extractor", "field", "optional", "constant", "value", "_given"
    )

    def __init__(
        self,
        name: str,
        extractor: Extractor | None = None,
        *,
        field: str | None = None,
        optional: bool = False,
        value: Any = _NO_VALUE,
    ):
        self.constant = value is not _NO_VALUE
        self._given = extractor is not None
        if self.constant:
            if extractor is not None or field is not None or optional:
                raise OperatorError(
                    f"GroupKey {name!r}: a constant reads no field"
                )
            extractor = lambda t: value  # noqa: E731
        elif extractor is None:
            field = name if field is None else field
            if optional:
                extractor = lambda t: t.get(field)  # noqa: E731
            else:
                extractor = lambda t: t[field]  # noqa: E731
        elif optional:
            raise OperatorError(
                f"GroupKey {name!r}: an extractor decides rows without "
                "the field, so it cannot be optional"
            )
        self.name = name
        self.extractor = extractor
        self.field = field
        self.optional = optional
        self.value = value if self.constant else None

    @property
    def opaque(self) -> bool:
        """Whether only the extractor says what this component reads."""
        return self.field is None and not self.constant

    def __repr__(self) -> str:
        if self.constant:
            return f"GroupKey({self.name}={self.value!r})"
        parts = [self.name]
        if self.field is not None and (self._given or self.field != self.name):
            parts.append(f"field={self.field!r}")
        if self.optional:
            parts.append("optional")
        if self._given:
            reader = getattr(self.extractor, "__name__", None)
            parts.append(f"extractor={reader or type(self.extractor).__name__}")
        return f"GroupKey({', '.join(parts)})"


def _emission_key(key: tuple) -> tuple:
    return tuple(str(c) for c in key)


def emission_order(groups: Iterable[tuple]) -> list[tuple]:
    """Group keys in the order a windowed group-by emits them.

    Component-wise ``str`` order, not insertion order: the output order
    must be a function of the live key set alone so sharded and cluster
    execution can reproduce it (:mod:`repro.streams.shard`). Keys whose
    ``str`` forms collide (``1`` and ``"1"``) keep their order in
    ``groups``. The group-by sorts once, on its first punctuation or
    after :meth:`~WindowedGroupByOp.restore`, and from then on keeps the
    order itself: a new group is bisected in after its equals, and
    emptied groups are filtered out.
    """
    return sorted(groups, key=_emission_key)


def _is_count_star(spec: AggregateSpec) -> bool:
    return spec.name == "count" and spec.argument is None and not spec.distinct


def _compile_key(keys: Sequence[GroupKey]) -> "Callable[[dict], tuple] | None":
    """One read of a row's value dict into its key, or ``None`` when a
    component is opaque.

    The declared fields are one ``itemgetter``; the constants follow
    them and, unless they already trail, one more ``itemgetter`` puts
    every component back at its declared position. A row lacking a
    field raises ``KeyError``, and its key is then read through the
    extractors (:func:`_extract_key`), which own the semantics of an
    absent field.
    """
    if any(key.opaque for key in keys):
        return None
    fields = [key.field for key in keys if not key.constant]
    constants = tuple(key.value for key in keys if key.constant)
    if not fields:
        return lambda values: constants
    read = itemgetter(*fields)
    if len(fields) == 1:
        one = read
        read = lambda values: (one(values),)  # noqa: E731
    if constants:
        head = read
        read = lambda values: head(values) + constants  # noqa: E731
        # Where each declared component sits in ``fields + constants``.
        placed = sorted(range(len(keys)), key=lambda i: keys[i].constant)
        positions = [placed.index(i) for i in range(len(keys))]
        if positions != sorted(positions):
            arrange = itemgetter(*positions)
            joined = read
            read = lambda values: arrange(joined(values))  # noqa: E731
    return read


def _extract_key(extractors: Sequence[Extractor], item: StreamTuple) -> tuple:
    return tuple([extract(item) for extract in extractors])


class WindowedGroupByOp(Operator):
    """Windowed GROUP BY with aggregates and an optional HAVING filter.

    This single operator covers the paper's Queries 1, 2, 3 and 5: it
    maintains one window per group, slides all windows on each punctuation
    and emits one result tuple per non-empty group. ``count(*)`` (name
    ``count``, no argument, not distinct) is the group's ``len(window)``;
    every other aggregate is its :meth:`AggregateSpec.kernel` iterating
    the window itself, no copy of it.

    A row's key is read by one getter compiled from the keys'
    declarations (:class:`GroupKey`) when the operator is built; a row
    lacking a declared field, and every row when a component is opaque,
    is read through the extractors instead. A group's key fields are a
    dict built the first time the group emits and copied per emission.

    Args:
        window: Window specification applied per group.
        keys: Grouping key components; empty for a global aggregate.
        aggregates: Aggregate calls evaluated over each group's window.
        having: Optional filter over emitted rows. It is called as
            ``having(row, all_rows)`` where ``all_rows`` is every row
            produced at this instant — giving it visibility across groups,
            which is exactly what Query 3's ``>= ALL (...)`` correlated
            subquery needs.
        emit_every: Emit results only on punctuations that are multiples of
            this period (seconds); ``None`` emits on every punctuation.
            This models a window *slide* larger than the tick.
        output_stream: Stream name for emitted tuples.

    Emitted tuples carry the key component fields plus one field per
    aggregate (named by ``AggregateSpec.output``), timestamped at the
    punctuation time.

    :meth:`partition_by` turns one operator into a whole stage's keyed
    node: every group is then keyed by its row's partition first, so one
    window table and one ``on_time`` serve every receptor (or proximity
    group) the stage used to need an instance for.
    """

    def __init__(
        self,
        window: WindowSpec,
        keys: Sequence[GroupKey] = (),
        aggregates: Sequence[AggregateSpec] = (),
        having: Callable[[StreamTuple, list[StreamTuple]], bool] | None = None,
        emit_every: float | None = None,
        output_stream: str = "",
    ):
        if not aggregates and not keys:
            raise OperatorError("group-by needs at least one key or aggregate")
        if emit_every is not None and emit_every <= 0:
            raise OperatorError(f"emit_every must be positive, got {emit_every}")
        self._window_spec = window
        self._keys = list(keys)
        self._names = [k.name for k in self._keys]
        self._read_key = _compile_key(self._keys)
        self._extractors = [k.extractor for k in self._keys]
        #: ``(output field, spec)`` per aggregate, with ``None`` standing
        #: for ``count(*)`` — every row counts, so it is the group's
        #: ``len(window)`` and needs no pass over the rows.
        self._aggregates = [
            (spec.output, None if _is_count_star(spec) else spec)
            for spec in aggregates
        ]
        self._having = having
        self._emit_every = emit_every
        self._output_stream = output_stream
        self._windows: dict[tuple, BaseWindow] = {}
        #: Live keys in emission order, ``emission_order(_windows)``:
        #: built by :meth:`on_time` when ``None`` (before the first
        #: punctuation and after :meth:`restore`), then kept in step
        #: with ``_windows``; never checkpointed.
        self._order: list[tuple] | None = None
        #: Live key -> its key fields as a dict, built at the group's
        #: first emission and dropped with the group: a function of the
        #: key, so never checkpointed.
        self._heads: dict[tuple, dict[str, Any]] = {}
        #: Stream label -> ``(partition,)``, set by :meth:`partition_by`.
        self._prefixes: dict[str, tuple[str]] | None = None
        self._owner = ""

    STATE_ATTRS = ("_windows",)

    def partition_by(self, labels: Mapping[str, str], owner: str) -> None:
        """Key every group by the partition its row's stream label maps to.

        The partition (a receptor id, or a proximity group after a
        widening) is a hidden leading key component: it orders emission
        first, it is each emitted row's stream label instead of
        ``output_stream``, HAVING sees only the rows of the partition
        being filtered, and it is never a field. So the output is the
        concatenation, in partition order, of what one operator per
        partition would emit, each relabelled with its partition.
        Configuration, not state: call it before the first row.

        Raises (from :meth:`on_batch`):
            PipelineError: For a row whose label ``labels`` does not
                map, naming ``owner`` (the stage).
        """
        self._prefixes = {label: (part,) for label, part in labels.items()}
        self._owner = owner

    def restore(self, state: "Mapping[str, Any] | None") -> None:
        super().restore(state)
        self._order = None
        self._heads.clear()

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        read = self._read_key
        extractors = self._extractors
        windows = self._windows
        order = self._order
        prefixes = self._prefixes
        for item in items:
            if prefixes is not None:
                prefix = prefixes.get(item.stream)
                if prefix is None:
                    raise PipelineError(
                        f"{self._owner} got a row labelled {item.stream!r}, "
                        f"which is none of its partitions {sorted(prefixes)}"
                    )
            if read is None:
                key = _extract_key(extractors, item)
            else:
                try:
                    key = read(item._values)
                except KeyError:
                    # A declared field is absent: the extractors decide.
                    key = _extract_key(extractors, item)
            if prefixes is not None:
                key = prefix + key
            window = windows.get(key)
            if window is None:
                window = self._window_spec.make_window()
                windows[key] = window
                if order is not None:
                    # After keys with equal ``str`` forms, as a stable
                    # sort of ``windows`` (newest last) places it.
                    insort(order, key, key=_emission_key)
            window.insert(item)
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        if self._emit_every is not None:
            # Emit only on slide boundaries (within float tolerance).
            phase = now / self._emit_every
            if abs(phase - round(phase)) > 1e-6:
                for window in self._windows.values():
                    window.advance(now)
                return []
        rows: list[StreamTuple] = []
        empty_keys = []
        windows = self._windows
        order = self._order
        if order is None:
            order = self._order = emission_order(windows)
        # Fetched once per call, not per key: a fetch checks the registry.
        aggregates = [
            (output, None if spec is None else spec.kernel())
            for output, spec in self._aggregates
        ]
        heads = self._heads
        stream = self._output_stream
        # Fields start after the hidden partition (a whole-tuple slice
        # is the tuple itself).
        skip = 0 if self._prefixes is None else 1
        from_parts = StreamTuple._from_parts
        stamp = float(now)
        for key in order:
            window = windows[key]
            size = window.advance(now)
            if not size:
                empty_keys.append(key)
                continue
            head = heads.get(key)
            if head is None:
                head = heads[key] = dict(zip(self._names, key[skip:]))
            values = head.copy()
            for output, kernel in aggregates:
                values[output] = size if kernel is None else kernel(window)
            rows.append(from_parts(stamp, values, key[0] if skip else stream))
        if empty_keys:
            for key in empty_keys:
                del windows[key]
                heads.pop(key, None)
            self._order = [key for key in order if key in windows]
        having = self._having
        if having is not None:
            if skip:
                # A partition's rows are adjacent: it is the leading key.
                kept: list[StreamTuple] = []
                for _label, run in groupby(rows, key=attrgetter("stream")):
                    block = list(run)
                    kept += [row for row in block if having(row, block)]
                rows = kept
            else:
                rows = [row for row in rows if having(row, rows)]
        return rows


class WindowJoinOp(Operator):
    """Join two windowed streams, evaluated at each punctuation.

    Implements CQL's relation-at-time-t join semantics: at each punctuation
    the operator pairs every row of the left window with every row of
    the right window, combines each pair into one joined row and keeps
    the joined rows passing ``predicate`` — the plan of a multi-source
    ``FROM`` with its ``WHERE`` (paper Query 5).

    Args:
        left: Window spec for input port 0.
        right: Window spec for input port 1.
        predicate: Callable over the joined row; truthy keeps it.
            ``None`` keeps every pair.
        combine: Callable over ``(left_tuple, right_tuple)`` returning
            the joined row's fields; the default merges the two rows'
            fields, left winning on a shared name.
        output_stream: Stream name for emitted tuples.

    Joined rows are timestamped at the punctuation time.
    """

    def __init__(
        self,
        left: WindowSpec,
        right: WindowSpec,
        predicate: Callable[[StreamTuple], Any] | None = None,
        combine: Callable[[StreamTuple, StreamTuple], Mapping[str, Any]]
        | None = None,
        output_stream: str = "",
    ):
        self._left = left.make_window()
        self._right = right.make_window()
        self._predicate = predicate
        self._combine = combine or _merge_fields
        self._output_stream = output_stream

    STATE_ATTRS = ("_left", "_right")

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        if port not in (0, 1):
            raise OperatorError(f"join has two ports, got port {port}")
        insert = (self._left if port == 0 else self._right).insert
        for item in items:
            insert(item)
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        self._left.advance(now)
        self._right.advance(now)
        predicate, combine = self._predicate, self._combine
        out: list[StreamTuple] = []
        for lhs in self._left:
            for rhs in self._right:
                row = StreamTuple(now, combine(lhs, rhs), self._output_stream)
                if predicate is None or predicate(row):
                    out.append(row)
        return out


def _merge_fields(lhs: StreamTuple, rhs: StreamTuple) -> dict[str, Any]:
    merged = rhs.as_dict()
    merged.update(lhs.items())
    return merged


class SinkOp(Operator):
    """Terminal operator collecting every tuple it receives.

    Attributes:
        results: The collected tuples, in arrival order.
    """

    STATE_ATTRS = ("results",)

    def __init__(self, callback: Callable[[StreamTuple], None] | None = None):
        self.results: list[StreamTuple] = []
        self._callback = callback

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        self.results.extend(items)
        if self._callback is not None:
            for item in items:
                self._callback(item)
        return []


class ChainOp(Operator):
    """Run several operators as one sequential mini-pipeline.

    Useful for packaging an ESP stage built from multiple primitive
    operators as a single DAG node.

    Args:
        stages: Operators applied in order. Each stage's ``on_batch``
            outputs feed the next stage; at punctuations, each stage's
            ``on_time`` outputs are delivered to the next stage *before*
            that stage's own ``on_time`` fires, preserving same-instant
            pipelining.
    """

    def __init__(self, stages: Sequence[Operator]):
        if not stages:
            raise OperatorError("ChainOp needs at least one stage")
        self._stages = list(stages)

    @property
    def stages(self) -> tuple[Operator, ...]:
        """The chained operators, in order."""
        return tuple(self._stages)

    def checkpoint(self) -> "dict[str, Any] | None":
        states = [stage.checkpoint() for stage in self._stages]
        if all(state is None for state in states):
            return None
        return {"stages": states}

    def restore(self, state: "Mapping[str, Any] | None") -> None:
        if state is None:
            return
        for stage, sub in zip(self._stages, state["stages"]):
            stage.restore(sub)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        # No up-front copy: the input sequence is handed to the first
        # stage as-is, and stages that pass everything through (every
        # stage returns a fresh list per its contract) already isolate
        # us from the caller's sequence. Only if *every* stage returned
        # the input object unchanged would aliasing matter, so a final
        # defensive copy covers that one case.
        pending: Sequence[StreamTuple] = items
        for stage in self._stages:
            pending = stage.on_batch(pending, port)
            port = 0  # only the first stage sees the original port
            if not pending:
                return []
        if pending is items:
            return list(pending)
        return pending if isinstance(pending, list) else list(pending)

    def on_time(self, now: float) -> list[StreamTuple]:
        carried: list[StreamTuple] = []
        for stage in self._stages:
            produced = stage.on_batch(carried, 0) if carried else []
            produced.extend(stage.on_time(now))
            carried = produced
        return carried


def run_operator(
    op: Operator,
    items: Iterable[StreamTuple],
    ticks: Iterable[float],
) -> list[StreamTuple]:
    """Drive a single operator over pre-sorted tuples and punctuations.

    A convenience used heavily by unit tests: tuples with timestamp
    ``<= tick`` are delivered before that tick's punctuation.

    Args:
        op: The operator under test.
        items: Tuples sorted by non-decreasing timestamp.
        ticks: Punctuation times, ascending.

    Returns:
        All output tuples, in emission order.
    """
    out: list[StreamTuple] = []
    pending = sorted(items, key=lambda t: t.timestamp)
    index = 0
    for tick in ticks:
        start = index
        while index < len(pending) and pending[index].timestamp <= tick + 1e-9:
            index += 1
        if index > start:
            out.extend(op.on_batch(pending[start:index]))
        out.extend(op.on_time(tick))
    return out
