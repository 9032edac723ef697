"""Aggregate functions over window contents.

Aggregates follow a simple accumulate-then-finalize protocol
(:class:`Aggregate`): values are fed with :meth:`Aggregate.add`, and
:meth:`Aggregate.result` produces the final value. Windowed operators
re-evaluate their aggregates each time the window slides, which keeps
every aggregate trivially correct under eviction (no retraction logic to
get wrong) at O(window) cost per slide — the right trade-off at the data
rates of the paper's deployments (5 Hz RFID polls, 5-minute sensor
epochs).

There is one evaluation, :meth:`AggregateSpec.evaluate`, and it calls
the spec's :meth:`~AggregateSpec.kernel`: a callable over the window's
rows in window order. The specs the paper's Smooth and Merge stages run
per window — ``sum``, ``avg`` / ``mean`` and ``count(distinct)`` —
compile once to a loop that does its accumulator's arithmetic in its
accumulator's order: the same ``float()`` coercions and the same
left-to-right ``total += value`` from ``0.0`` (never builtin ``sum``,
which is compensated from Python 3.12), so an aggregate's numerical
meaning is its accumulator's and nothing else's. Every other spec (any
other name, a builtin name re-registered to another class, an aggregate
factory) is a fresh accumulator fed every row's argument. The one value
the windowed GROUP BY does not ask this module for is ``count(*)``,
which counts every row and so is the window's length
(:class:`~repro.streams.operators.WindowedGroupByOp`).

User-defined aggregates (UDAs, paper §3.3) are supported through
:func:`register_aggregate`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Iterable

from repro.errors import AggregateError

#: An aggregate spec's evaluation: the rows of one window -> the value.
Kernel = Callable[[Iterable[Any]], Any]
#: A row -> its aggregate argument.
_Read = Callable[[Any], Any]
#: A kernel factory: ``(field, read) -> kernel``, exactly one given.
_Make = Callable[[str | None, _Read | None], Kernel]


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


#: Bumped by :func:`register_aggregate`: a spec compiled under an older
#: generation compiles again on its next :meth:`AggregateSpec.kernel`.
_generation = 0


def register_aggregate(name: str, factory: Callable[[], Aggregate]) -> None:
    """Register a user-defined aggregate under ``name`` (case-insensitive).

    The factory must return a fresh :class:`Aggregate` per call. Registering
    an existing name replaces it, which lets deployments specialize builtins.
    """
    global _generation
    _REGISTRY[name.lower()] = factory
    _generation += 1


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

    __slots__ = (
        "name", "factory", "argument", "distinct", "output", "field",
        "_kernel", "_generation",
    )

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
        #: The compiled builtin kernel (``None``: the accumulator path),
        #: valid while ``_generation`` is the registry's.
        self._kernel: Kernel | None = None
        self._generation = -1

    def _default_output(self) -> str:
        if self.field is not None:
            arg = self.field
        else:
            arg = "*" if self.argument is None else "expr"
        prefix = "distinct_" if self.distinct else ""
        return f"{self.name}_{prefix}{arg}".replace("*", "star")

    def evaluate(self, rows: Iterable[Any]) -> Any:
        """Evaluate this aggregate over an iterable of tuples: its
        :meth:`kernel` over the rows, in window order."""
        return self.kernel()(rows)

    def kernel(self) -> Kernel:
        """This spec's evaluation, ``kernel(rows) -> value``.

        ``sum``, ``avg`` / ``mean`` and ``count(distinct)``, while the
        registry holds the builtin class under the name, are compiled
        once (again after :func:`register_aggregate`) to a loop with
        their accumulator's arithmetic; anything else is a fresh
        accumulator per call. A caller evaluating many windows fetches
        the kernel once and calls it per window.
        """
        if self._generation != _generation:
            self._kernel = self._compile()
            self._generation = _generation
        return self._kernel or self._accumulate

    @property
    def compiled(self) -> bool:
        """Whether :meth:`kernel` is a compiled builtin, not an accumulator."""
        self.kernel()
        return self._kernel is not None

    def _compile(self) -> Kernel | None:
        entry = _KERNELS.get((self.name, self.distinct))
        if (
            self.factory is not None
            or entry is None
            or _REGISTRY.get(self.name) is not entry[0]
        ):
            return None
        if self.field is not None:
            return entry[1](self.field, None)
        return entry[1](None, self.argument or _one)

    def _accumulate(self, rows: Iterable[Any]) -> Any:
        if self.factory is None:
            agg = get_aggregate(self.name, distinct=self.distinct)
        elif self.distinct:
            agg = _DistinctWrapper(self.factory())
        else:
            agg = self.factory()
        field = self.field
        if field is not None:
            # ``StreamTuple.get`` inlined: this loop is the per-row cost
            # of a factory aggregate (the σ/MAD band) in a GROUP BY.
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


# Compiled builtin kernels: the specs the paper's Smooth and Merge
# stages evaluate per window (the windowed averages, the k-of-n vote).
# A factory takes where each row's argument comes from — ``key``, a
# field read inline as ``row._values.get(key)``, or else ``read(row)`` —
# and returns a kernel doing its accumulator's steps in its accumulator's
# order, so both give the same value, of the same type, and raise the
# same exception type. Every other spec keeps its accumulator.


def _one(row: Any) -> int:
    """``count(*)``'s argument: every row counts."""
    return 1


def _count_distinct(key: str | None, read: _Read | None) -> Kernel:
    def kernel(rows: Iterable[Any]) -> int:
        seen = {
            row._values.get(key) if read is None else read(row) for row in rows
        }
        seen.discard(None)
        return len(seen)

    return kernel


def _sum(key: str | None, read: _Read | None, mean: bool = False) -> Kernel:
    """``sum``, or ``avg`` when ``mean``: the same left-to-right total."""

    def kernel(rows: Iterable[Any]) -> float | None:
        total = 0.0
        n = 0
        for row in rows:
            value = row._values.get(key) if read is None else read(row)
            if value is not None:
                total += float(value)
                n += 1
        if not n:
            return None
        return total / n if mean else total

    return kernel


#: The ``(name, distinct)`` pairs a spec compiles: the class the registry
#: must still hold under the name, and the kernel factory.
_KERNELS: dict[tuple[str, bool], tuple[Callable[[], Aggregate], _Make]] = {
    ("count", True): (Count, _count_distinct),
    ("sum", False): (Sum, _sum),
    ("avg", False): (Avg, partial(_sum, mean=True)),
    ("mean", False): (Avg, partial(_sum, mean=True)),
}
