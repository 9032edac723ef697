"""The five ESP processing stages (paper §3.2).

A :class:`Stage` is a *description*: which of the five logical cleaning
tasks it implements (:class:`StageKind`) plus a factory that materializes
a fresh stream operator each time the processor instantiates the stage.
Fresh instantiation matters because the same stage definition is applied
independently to many scopes — Point and Smooth run once per receptor
stream, Merge once per proximity group, Arbitrate once per receptor kind,
Virtualize once per deployment — and each instance carries its own window
state.

Stages can be programmed three ways, in the paper's order of increasing
flexibility (§3.3):

- **declarative continuous queries** — :meth:`Stage.from_query`;
- **user-defined functions** — :meth:`Stage.from_function` (per-tuple
  UDFs) and user-defined aggregates registered with
  :func:`repro.streams.aggregates.register_aggregate`;
- **arbitrary code** — :meth:`Stage.from_operator`, wrapping any object
  implementing the :class:`repro.streams.operators.Operator` protocol.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.cql.planner import CompiledQuery, compile_query
from repro.core.granules import TemporalGranule
from repro.errors import PipelineError
from repro.streams.operators import MapOp, Operator
from repro.streams.tuples import StreamTuple


class StageKind(str, enum.Enum):
    """The five logical stages, in pipeline order."""

    POINT = "point"
    SMOOTH = "smooth"
    MERGE = "merge"
    ARBITRATE = "arbitrate"
    VIRTUALIZE = "virtualize"

    @property
    def order(self) -> int:
        """Position in the canonical Point→...→Virtualize cascade."""
        return _STAGE_ORDER[self]

    @property
    def scope(self) -> str:
        """The scope at which instances run: ``stream`` (per receptor),
        ``group`` (per proximity group), ``kind`` (per receptor type) or
        ``deployment`` (one instance overall)."""
        return _STAGE_SCOPE[self]


_STAGE_ORDER = {
    StageKind.POINT: 0,
    StageKind.SMOOTH: 1,
    StageKind.MERGE: 2,
    StageKind.ARBITRATE: 3,
    StageKind.VIRTUALIZE: 4,
}

_STAGE_SCOPE = {
    StageKind.POINT: "stream",
    StageKind.SMOOTH: "stream",
    StageKind.MERGE: "group",
    StageKind.ARBITRATE: "kind",
    StageKind.VIRTUALIZE: "deployment",
}


class StageContext:
    """Everything a stage factory may want to know about its scope.

    Attributes:
        kind: The stage kind being instantiated.
        temporal_granule: The application's temporal granule (may be
            ``None`` for granule-free stages such as pure Point filters).
        receptor_kind: The receptor technology whose pipeline the
            stage belongs to (``None`` for Virtualize).

    One context serves every scope instance of a stage: an instance is
    told nothing about its partition.
    """

    __slots__ = ("kind", "temporal_granule", "receptor_kind")

    def __init__(
        self,
        kind: StageKind,
        temporal_granule: TemporalGranule | None = None,
        receptor_kind: str | None = None,
    ):
        self.kind = kind
        self.temporal_granule = temporal_granule
        self.receptor_kind = receptor_kind

    def window_seconds(self, window: float | None, who: str) -> float:
        """A stage's window: ``window`` if given, else the granule's.

        Raises:
            PipelineError: With neither, naming the stage ``who``.
        """
        if window is not None:
            return float(window)
        if self.temporal_granule is None:
            raise PipelineError(
                f"{who} needs an explicit window or a pipeline temporal granule"
            )
        return self.temporal_granule.window_seconds

    def __repr__(self):
        bits = [self.kind.value]
        if self.receptor_kind:
            bits.append(f"kind={self.receptor_kind}")
        return f"StageContext({', '.join(bits)})"


#: A stage factory builds a fresh operator for one scope instance.
StageFactory = Callable[[StageContext], Operator]


class Stage:
    """One programmable ESP stage (see module docstring).

    Prefer the classmethod constructors; the raw constructor takes an
    explicit factory.

    Args:
        kind: Which of the five stages this implements.
        factory: Callable building a fresh operator per scope instance.
        name: Optional label for diagnostics; defaults to the kind.
    """

    def __init__(self, kind: StageKind, factory: StageFactory, name: str = ""):
        self.kind = StageKind(kind)
        self._factory = factory
        self.name = name or self.kind.value

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_query(
        cls, kind: "StageKind | str", query_text: str, name: str = ""
    ) -> "Stage":
        """A stage defined by a declarative CQL query.

        The query is compiled once per scope instance so window state is
        never shared between, say, two readers' Smooth stages.
        """
        compile_query(query_text)  # fail fast on syntax errors

        def factory(_ctx: StageContext) -> CompiledQuery:
            return compile_query(query_text)

        kind = StageKind(kind)
        return cls(kind, factory, name=name or f"query:{kind.value}")

    @classmethod
    def from_function(
        cls,
        kind: "StageKind | str",
        fn: Callable[[StreamTuple], "StreamTuple | list[StreamTuple] | None"],
        name: str = "",
    ) -> "Stage":
        """A stage defined by a per-tuple UDF (return None to drop)."""

        def factory(_ctx: StageContext) -> Operator:
            return MapOp(fn)

        kind = StageKind(kind)
        return cls(kind, factory, name=name or f"udf:{kind.value}")

    @classmethod
    def from_operator(
        cls, kind: "StageKind | str", factory: StageFactory, name: str = ""
    ) -> "Stage":
        """A stage defined by arbitrary code: any operator factory."""
        return cls(StageKind(kind), factory, name=name)

    # -- instantiation ------------------------------------------------------------

    def make(self, context: StageContext) -> Operator:
        """Build a fresh operator for one scope instance.

        Raises:
            PipelineError: If the factory returns something that is not a
                stream operator.
        """
        op = self._factory(context)
        if not isinstance(op, Operator):
            raise PipelineError(
                f"stage {self.name!r} factory returned {type(op).__name__}, "
                "expected a streams Operator"
            )
        return op

    def __repr__(self):
        return f"Stage({self.kind.value}, name={self.name!r})"


def PointStage(factory_or_query, name: str = "") -> Stage:
    """Convenience builder for a Point stage.

    Accepts a CQL string, a per-tuple function, or an operator factory —
    dispatching on the argument type.
    """
    return _dispatch(StageKind.POINT, factory_or_query, name)


def SmoothStage(factory_or_query, name: str = "") -> Stage:
    """Convenience builder for a Smooth stage (see :func:`PointStage`)."""
    return _dispatch(StageKind.SMOOTH, factory_or_query, name)


def MergeStage(factory_or_query, name: str = "") -> Stage:
    """Convenience builder for a Merge stage (see :func:`PointStage`)."""
    return _dispatch(StageKind.MERGE, factory_or_query, name)


def ArbitrateStage(factory_or_query, name: str = "") -> Stage:
    """Convenience builder for an Arbitrate stage (see :func:`PointStage`)."""
    return _dispatch(StageKind.ARBITRATE, factory_or_query, name)


def VirtualizeStage(factory_or_query, name: str = "") -> Stage:
    """Convenience builder for a Virtualize stage (see :func:`PointStage`)."""
    return _dispatch(StageKind.VIRTUALIZE, factory_or_query, name)


def _dispatch(kind: StageKind, spec, name: str) -> Stage:
    if isinstance(spec, Stage):
        if spec.kind is not kind:
            raise PipelineError(
                f"stage is a {spec.kind.value} stage, expected {kind.value}"
            )
        return spec
    if isinstance(spec, str):
        return Stage.from_query(kind, spec, name=name)
    if isinstance(spec, Operator):
        raise PipelineError(
            "pass an operator *factory* (lambda ctx: op), not an operator "
            "instance — stages are instantiated once per scope"
        )
    if callable(spec):
        # Factories take a StageContext; per-tuple UDFs take a tuple. We
        # cannot reliably introspect, so the convention is: factories are
        # the default; wrap UDFs explicitly via Stage.from_function.
        return Stage.from_operator(kind, spec, name=name)
    raise PipelineError(f"cannot build a stage from {type(spec).__name__}")
