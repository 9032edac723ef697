"""Incremental sliding-window aggregation.

:class:`~repro.streams.operators.WindowedGroupByOp` re-evaluates its
aggregates over the full window contents at every punctuation — always
correct, O(window) per slide. At RFID rates (5 Hz × dozens of tags) that
is fine; at higher rates the recompute dominates. This module provides
the classic alternative for *subtractable* aggregates (count, sum, avg,
and count-distinct via reference counts): maintain running state, apply
inserts as they arrive and retract evicted tuples, making each slide
O(inserts + evictions).

Non-subtractable aggregates (min/max/median/stdev-with-forgetting-free
semantics) deliberately stay on the recompute path — mixing a correct
slow path with a fast path is how engines grow silent wrong answers, so
:class:`IncrementalWindowedGroupByOp` *rejects* aggregates it cannot
maintain incrementally instead of falling back quietly.

Equivalence with the recompute operator is pinned by property tests.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Mapping, Sequence

from repro.errors import OperatorError
from repro.streams.aggregates import AggregateSpec
from repro.streams.operators import GroupKey, Operator, emission_order
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec

#: Aggregates with O(1) insert/retract maintenance.
SUBTRACTABLE = frozenset({"count", "sum", "avg", "mean"})


class _IncrementalState:
    """Running state for one group's subtractable aggregates."""

    __slots__ = ("buffer", "count", "sums", "distinct")

    def __init__(self, n_sums: int):
        #: (timestamp, tuple, per-spec argument values)
        self.buffer: deque[tuple[float, StreamTuple, list]] = deque()
        self.count = 0
        self.sums = [0.0] * n_sums
        self.distinct: list[dict[Any, int]] = [dict() for _ in range(n_sums)]


class IncrementalWindowedGroupByOp(Operator):
    """Windowed GROUP BY with O(1)-per-tuple aggregate maintenance.

    A drop-in replacement for
    :class:`~repro.streams.operators.WindowedGroupByOp` restricted to
    time-range windows and subtractable aggregates.

    Args:
        window: Time-range window spec (``Rows``/``NOW`` windows gain
            nothing from incrementality and are rejected).
        keys: Grouping key components.
        aggregates: Aggregate specs; every spec's name must be in
            :data:`SUBTRACTABLE`. ``count(distinct x)`` is supported via
            reference counting.
        output_stream: Stream name for emitted tuples.

    Raises:
        OperatorError: On unsupported window kinds or aggregates.
    """

    def __init__(
        self,
        window: WindowSpec,
        keys: Sequence[GroupKey] = (),
        aggregates: Sequence[AggregateSpec] = (),
        output_stream: str = "",
    ):
        if window.kind != "range" or window.is_now:
            raise OperatorError(
                "incremental group-by needs a positive time-range window"
            )
        if not aggregates and not keys:
            raise OperatorError("group-by needs at least one key or aggregate")
        for spec in aggregates:
            if spec.name not in SUBTRACTABLE:
                raise OperatorError(
                    f"aggregate {spec.name!r} is not subtractable; use "
                    "WindowedGroupByOp for it"
                )
            if spec.distinct and spec.name != "count":
                raise OperatorError(
                    "only count(distinct ...) is maintained incrementally"
                )
        self._range = window.range_seconds
        self._keys = list(keys)
        self._specs = list(aggregates)
        self._output_stream = output_stream
        self._states: dict[tuple, _IncrementalState] = {}
        #: Live keys in emission order — derived from ``_states``,
        #: rebuilt by :meth:`on_time` after the key set changed (``None``),
        #: never checkpointed.
        self._order: list[tuple] | None = None

    STATE_ATTRS = ("_states",)

    def restore(self, state: "Mapping[str, Any] | None") -> None:
        super().restore(state)
        self._order = None

    # -- maintenance ------------------------------------------------------------

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        extractors = [k.extractor for k in self._keys]
        specs = list(enumerate(self._specs))
        states = self._states
        apply = self._apply
        for item in items:
            key = tuple(extract(item) for extract in extractors)
            state = states.get(key)
            if state is None:
                state = states[key] = _IncrementalState(len(specs))
                self._order = None
            arguments = []
            for index, spec in specs:
                value = 1 if spec.argument is None else spec.argument(item)
                arguments.append(value)
                apply(state, index, spec, value, +1)
            state.count += 1
            state.buffer.append((item.timestamp, item, arguments))
        return []

    def _apply(
        self,
        state: _IncrementalState,
        index: int,
        spec: AggregateSpec,
        value: Any,
        sign: int,
    ) -> None:
        if value is None:
            return
        if spec.distinct:
            refs = state.distinct[index]
            refs[value] = refs.get(value, 0) + sign
            if refs[value] <= 0:
                del refs[value]
            return
        if spec.name == "count":
            state.sums[index] += sign
        else:  # sum / avg need the running total (and non-None count)
            state.sums[index] += sign * float(value)
            state.distinct[index][None] = (
                state.distinct[index].get(None, 0) + sign
            )

    def on_time(self, now: float) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        limit = now - self._range - 1e-9
        states = self._states
        order = self._order
        if order is None:
            order = self._order = emission_order(states)
        names = [k.name for k in self._keys]
        specs = list(enumerate(self._specs))
        apply = self._apply
        result = self._result
        stream = self._output_stream
        from_parts = StreamTuple._from_parts
        stamp = float(now)
        empty: list[tuple] = []
        for key in order:
            state = states[key]
            buffer = state.buffer
            while buffer and buffer[0][0] < limit:
                arguments = buffer.popleft()[2]
                state.count -= 1
                for index, spec in specs:
                    apply(state, index, spec, arguments[index], -1)
            if not buffer:
                empty.append(key)
                continue
            values: dict[str, Any] = dict(zip(names, key))
            for index, spec in specs:
                values[spec.output] = result(state, index, spec)
            out.append(from_parts(stamp, values, stream))
        if empty:
            for key in empty:
                del states[key]
            self._order = None
        return out

    def _result(
        self, state: _IncrementalState, index: int, spec: AggregateSpec
    ) -> Any:
        if spec.distinct:
            return len(state.distinct[index])
        if spec.name == "count":
            return int(state.sums[index])
        non_null = state.distinct[index].get(None, 0)
        if non_null == 0:
            return None
        if spec.name == "sum":
            return state.sums[index]
        return state.sums[index] / non_null  # avg / mean
