"""Aggregate functions over window contents.

Aggregates follow a simple accumulate-then-finalize protocol
(:class:`Aggregate`): one instance is created per evaluation, values are
fed with :meth:`Aggregate.add`, and :meth:`Aggregate.result` produces the
final value. Windowed operators re-evaluate their aggregates each time the
window slides, which keeps every aggregate trivially correct under
eviction (no retraction logic to get wrong) at O(window) cost per slide —
the right trade-off at the data rates of the paper's deployments (5 Hz
RFID polls, 5-minute sensor epochs).

There is one evaluation, :meth:`AggregateSpec.evaluate`: a fresh
accumulator is fed every row's argument in window order. An aggregate's
numerical meaning (a float sum's rounding, which zero ``min`` keeps) is
therefore its accumulator's and nothing else's. The one value the
windowed GROUP BY does not ask this module for is ``count(*)``, which
counts every row and so is the window's length
(:class:`~repro.streams.operators.WindowedGroupByOp`).

User-defined aggregates (UDAs, paper §3.3) are supported through
:func:`register_aggregate`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.errors import AggregateError


class Aggregate:
    """Base class for aggregate functions.

    Subclasses override :meth:`add` and :meth:`result`. ``None`` inputs are
    skipped by convention (SQL-style NULL handling) except for ``count(*)``,
    which is expressed by feeding a non-None marker for every row.
    """

    #: Value returned when the aggregate saw no (non-None) input.
    empty_result: Any = None

    def add(self, value: Any) -> None:
        """Accumulate one input value."""
        raise NotImplementedError

    def result(self) -> Any:
        """Return the aggregate of everything added so far."""
        raise NotImplementedError

    @classmethod
    def over(cls, values: Iterable[Any], *args: Any, **kwargs: Any) -> Any:
        """Convenience: evaluate this aggregate over an iterable."""
        agg = cls(*args, **kwargs)
        for value in values:
            agg.add(value)
        return agg.result()


class Count(Aggregate):
    """``count(expr)`` — number of non-None inputs."""

    empty_result = 0

    def __init__(self):
        self._n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self._n += 1

    def result(self) -> int:
        return self._n


class CountDistinct(Aggregate):
    """``count(distinct expr)`` — number of distinct non-None inputs."""

    empty_result = 0

    def __init__(self):
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self._seen.add(value)

    def result(self) -> int:
        return len(self._seen)


class Sum(Aggregate):
    """``sum(expr)`` — sum of non-None inputs; None when empty."""

    def __init__(self):
        self._total = 0.0
        self._n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self._total += float(value)
            self._n += 1

    def result(self) -> float | None:
        return self._total if self._n else None


class Avg(Aggregate):
    """``avg(expr)`` — arithmetic mean of non-None inputs; None when empty."""

    def __init__(self):
        self._total = 0.0
        self._n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self._total += float(value)
            self._n += 1

    def result(self) -> float | None:
        return self._total / self._n if self._n else None


class Stdev(Aggregate):
    """``stdev(expr)`` — sample standard deviation (ddof=1).

    Returns 0.0 for a single input and None for no input. Uses Welford's
    online algorithm for numerical stability — the redwood traces
    accumulate thousands of near-identical temperatures where the naive
    sum-of-squares formula loses precision.
    """

    def __init__(self):
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._n += 1
        delta = float(value) - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (float(value) - self._mean)

    def result(self) -> float | None:
        if self._n == 0:
            return None
        if self._n == 1:
            return 0.0
        return math.sqrt(self._m2 / (self._n - 1))


class Min(Aggregate):
    """``min(expr)`` — minimum non-None input; None when empty."""

    def __init__(self):
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self._best is None or value < self._best):
            self._best = value

    def result(self) -> Any:
        return self._best


class Max(Aggregate):
    """``max(expr)`` — maximum non-None input; None when empty."""

    def __init__(self):
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self._best is None or value > self._best):
            self._best = value

    def result(self) -> Any:
        return self._best


class Median(Aggregate):
    """``median(expr)`` — median of non-None inputs; None when empty.

    Not a CQL builtin, but part of the ESP operator toolkit: the robust
    alternative to ``avg`` used in the MAD outlier-rejection ablation.
    """

    def __init__(self):
        self._values: list[float] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self._values.append(float(value))

    def result(self) -> float | None:
        if not self._values:
            return None
        ordered = sorted(self._values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0


class Mad(Aggregate):
    """``mad(expr)`` — median absolute deviation of non-None inputs.

    Used by the toolkit's robust outlier detector (DESIGN.md ablation 4).
    """

    def __init__(self):
        self._values: list[float] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self._values.append(float(value))

    def result(self) -> float | None:
        if not self._values:
            return None
        center = Median.over(self._values)
        return Median.over(abs(v - center) for v in self._values)


class First(Aggregate):
    """``first(expr)`` — earliest non-None input; None when empty."""

    def __init__(self):
        self._value: Any = None
        self._set = False

    def add(self, value: Any) -> None:
        if value is not None and not self._set:
            self._value = value
            self._set = True

    def result(self) -> Any:
        return self._value


class Last(Aggregate):
    """``last(expr)`` — latest non-None input; None when empty."""

    def __init__(self):
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is not None:
            self._value = value

    def result(self) -> Any:
        return self._value


#: Registry of aggregate factories, keyed by lowercase name.
_REGISTRY: dict[str, Callable[[], Aggregate]] = {
    "count": Count,
    "sum": Sum,
    "avg": Avg,
    "mean": Avg,
    "stdev": Stdev,
    "stddev": Stdev,
    "min": Min,
    "max": Max,
    "median": Median,
    "mad": Mad,
    "first": First,
    "last": Last,
}


def aggregate_names() -> frozenset[str]:
    """Names of all registered aggregates (lowercase)."""
    return frozenset(_REGISTRY)


def register_aggregate(name: str, factory: Callable[[], Aggregate]) -> None:
    """Register a user-defined aggregate under ``name`` (case-insensitive).

    The factory must return a fresh :class:`Aggregate` per call. Registering
    an existing name replaces it, which lets deployments specialize builtins.
    """
    _REGISTRY[name.lower()] = factory


def get_aggregate(name: str, distinct: bool = False) -> Aggregate:
    """Instantiate the aggregate registered under ``name``.

    Args:
        name: Aggregate name, case-insensitive.
        distinct: Evaluate over distinct inputs. ``count(distinct x)`` maps
            to :class:`CountDistinct`; for other aggregates a distinct
            filter wrapper is applied.

    Raises:
        AggregateError: If no aggregate is registered under ``name``.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise AggregateError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)}"
        )
    if not distinct:
        return _REGISTRY[key]()
    if key == "count":
        return CountDistinct()
    return _DistinctWrapper(_REGISTRY[key]())


class _DistinctWrapper(Aggregate):
    """Feed each distinct value to the wrapped aggregate once."""

    def __init__(self, inner: Aggregate):
        self._inner = inner
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None or value in self._seen:
            return
        self._seen.add(value)
        self._inner.add(value)

    def result(self) -> Any:
        return self._inner.result()


class AggregateSpec:
    """A bound aggregate call as it appears in a query plan.

    Args:
        name: Registered aggregate name (``"count"``, ``"avg"``, ...),
            or an aggregate factory like the registry holds (a callable
            returning a fresh :class:`Aggregate`), so a parametrised
            aggregate needs no global name.
        argument: Callable extracting the input value from a tuple, or
            ``None`` for ``count(*)`` semantics (every row counts).
        distinct: Whether the call is over distinct argument values.
        output: Field name for the result in the output tuple.
        field: Plain-field shorthand for ``argument``: the input value
            is the row's ``field`` (absent → ``None``, skipped SQL-style,
            exactly like the ``lambda t: t.get(f)`` idiom it replaces)
            and the default output name carries the field. Mutually
            exclusive with ``argument``.

    Example:
        >>> from repro.streams.tuples import StreamTuple
        >>> spec = AggregateSpec("count", lambda t: t["tag_id"],
        ...                      distinct=True, output="n_tags")
        >>> rows = [StreamTuple(0, {"tag_id": x}) for x in "aab"]
        >>> spec.evaluate(rows)
        2
    """

    __slots__ = ("name", "factory", "argument", "distinct", "output", "field")

    def __init__(
        self,
        name: str | Callable[[], Aggregate],
        argument: Callable[[Any], Any] | None = None,
        distinct: bool = False,
        output: str | None = None,
        field: str | None = None,
    ):
        if field is not None and argument is not None:
            raise AggregateError(
                "AggregateSpec takes either argument= or field=, not both"
            )
        if isinstance(name, str):
            self.factory: Callable[[], Aggregate] | None = None
        else:
            self.factory = name
            name = getattr(name, "__name__", type(name).__name__)
        self.name = name.lower()
        self.field = field
        if field is not None:
            argument = _field_argument(field)
        self.argument = argument
        self.distinct = distinct
        self.output = output or self._default_output()

    def _default_output(self) -> str:
        if self.field is not None:
            arg = self.field
        else:
            arg = "*" if self.argument is None else "expr"
        prefix = "distinct_" if self.distinct else ""
        return f"{self.name}_{prefix}{arg}".replace("*", "star")

    def evaluate(self, rows: Iterable[Any]) -> Any:
        """Evaluate this aggregate over an iterable of tuples.

        One way, whatever the spec: a fresh accumulator is fed every
        row's argument in window order, so the result's meaning
        (float rounding included) is the accumulator's alone.
        """
        if self.factory is None:
            agg = get_aggregate(self.name, distinct=self.distinct)
        elif self.distinct:
            agg = _DistinctWrapper(self.factory())
        else:
            agg = self.factory()
        field = self.field
        if field is not None:
            # ``StreamTuple.get`` inlined: this loop is the windowed
            # GROUP BY's per-row cost.
            for row in rows:
                agg.add(row._values.get(field))
            return agg.result()
        for row in rows:
            agg.add(1 if self.argument is None else self.argument(row))
        return agg.result()

    def __repr__(self) -> str:
        if self.field is not None:
            arg = self.field
        else:
            arg = "*" if self.argument is None else "<expr>"
        distinct = "distinct " if self.distinct else ""
        return f"AggregateSpec({self.name}({distinct}{arg}) AS {self.output})"


def _field_argument(field: str) -> Callable[[Any], Any]:
    """Row extractor equivalent of ``field=``: ``row.get(field)``."""

    def argument(row: Any) -> Any:
        return row.get(field)

    return argument
