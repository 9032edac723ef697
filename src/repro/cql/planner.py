"""Query planner: compiles a CQL AST onto :mod:`repro.streams` operators.

The compiled artifact is a :class:`CompiledQuery`: a plan, the list of
its operators with their upstream edges. It wires into a host Fjord as
ordinary nodes, so a declarative query can stand wherever an ESP stage
is expected (the paper's "stages may be implemented by declarative
continuous queries", §3.3).

Supported plan shapes, in the order the planner tries them:

1. **Stateless select** — no window aggregation: WHERE filter plus a
   projection evaluated per input tuple (paper Query 4, the Query 6
   subqueries without aggregates).
2. **Windowed aggregation** — one windowed stream, GROUP BY + aggregates,
   optional HAVING, including the correlated ``>= ALL(subquery)`` pattern
   (paper Queries 1, 2, 3, and the Query 6 subqueries with aggregates).
3. **Join** — multiple FROM sources (windowed streams and/or derived
   subqueries) combined at each time instant, then filtered / aggregated
   (paper Query 5).
4. **Outer combine** — the all-derived-sources special case where missing
   sides contribute no fields instead of suppressing output (paper
   Query 6's vote; use ``coalesce`` to default missing votes to 0).
5. **Union** — chains of selects merged into one output stream.

Known, documented restrictions: quantified (ALL/ANY) subqueries must be
correlated self-references of the outer stream following the paper's
Query 3 shape; nested aggregates are rejected; ORDER BY is not part of the
subset (continuous queries have no final order).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.cql import ast
from repro.cql.functions import get_function
from repro.cql.parser import parse
from repro.errors import PlanError
from repro.streams.aggregates import AggregateSpec, aggregate_names
from repro.streams.fjord import Fjord
from repro.streams.operators import (
    FilterOp,
    GroupKey,
    MapOp,
    Operator,
    UnionOp,
    WindowedGroupByOp,
    WindowJoinOp,
)
from repro.streams.telemetry import NULL_COLLECTOR
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec

#: Sentinel distinguishing "field absent" from a stored None.
_MISSING = object()


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


class Scope:
    """Resolves column references against runtime tuples.

    Args:
        bindings: FROM-clause binding names visible in this scope (stream
            aliases / subquery aliases). Qualifiers that match no binding
            are ignored and the bare column name is used instead — a
            leniency required by the paper's Query 6, which qualifies a
            column with ``sensors`` although the stream is bound as
            ``sensors_input``.
        qualified_fields: Whether runtime tuples carry ``binding.field``
            keys (join outputs) in addition to bare field names.
    """

    def __init__(self, bindings: Sequence[str], qualified_fields: bool = False):
        self.bindings = set(bindings)
        self.qualified_fields = qualified_fields

    def resolve(self, ref: ast.ColumnRef) -> Callable[[StreamTuple], Any]:
        """Compile a column reference into a tuple-reading closure.

        Missing fields evaluate to ``None`` (SQL NULL), which lets WHERE
        predicates over outer-combined rows behave sensibly.
        """
        name = self.field(ref)
        if name != ref.name:
            # Strict: a qualified reference reads only its own source's
            # field. Falling back to a bare name here would silently read
            # another source's column on outer-combined rows where this
            # source is absent (SQL NULL is the correct answer).
            return lambda t: t.get(name)

        def read_bare(t: StreamTuple) -> Any:
            value = t.get(name, _MISSING)
            if value is not _MISSING:
                return value
            # Fall back to a unique ``*.name`` qualified key.
            suffix = f".{name}"
            hits = [k for k in t.keys() if k.endswith(suffix)]
            if len(hits) == 1:
                return t.get(hits[0])
            return None

        return read_bare

    def field(self, ref: ast.ColumnRef) -> str:
        """The field :meth:`resolve`'s closure reads: it returns
        ``row[field]`` whenever the row has that field."""
        qualifier = ref.qualifier if ref.qualifier in self.bindings else None
        if qualifier and self.qualified_fields:
            return f"{qualifier}.{ref.name}"
        return ref.name


def _as_bool(value: Any) -> bool:
    """SQL-ish truthiness: NULL and false are false."""
    return bool(value) if value is not None else False


def compile_expr(
    expr: ast.Expr,
    scope: Scope,
    agg_fields: Mapping[ast.FuncCall, str] | None = None,
) -> Callable[[StreamTuple], Any]:
    """Compile an expression into a closure over a runtime tuple.

    Args:
        expr: Expression AST.
        scope: Column resolution scope.
        agg_fields: When compiling post-aggregation expressions (SELECT
            items / HAVING over grouped rows), maps each aggregate call to
            the output field carrying its value.

    Raises:
        PlanError: On aggregates outside an aggregation context, unknown
            scalar functions, or a bare ``*`` outside ``count(*)``.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda t: value
    if isinstance(expr, ast.ColumnRef):
        return scope.resolve(expr)
    if isinstance(expr, ast.Star):
        raise PlanError("'*' is only valid as count(*) or the full select list")
    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr(expr.operand, scope, agg_fields)
        if expr.op == "-":
            return lambda t: None if inner(t) is None else -inner(t)
        if expr.op == "NOT":
            return lambda t: not _as_bool(inner(t))
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, scope, agg_fields)
    if isinstance(expr, ast.FuncCall):
        if expr.name in aggregate_names():
            if agg_fields is None or expr not in agg_fields:
                raise PlanError(
                    f"aggregate {expr.name!r} used outside an aggregation "
                    "context (add a window and GROUP BY)"
                )
            field = agg_fields[expr]
            return lambda t, _f=field: t.get(_f)
        fn = get_function(expr.name)
        arg_fns = [compile_expr(a, scope, agg_fields) for a in expr.args]
        return lambda t: fn(*(f(t) for f in arg_fns))
    if isinstance(expr, ast.CaseExpr):
        compiled_whens = [
            (
                compile_expr(cond, scope, agg_fields),
                compile_expr(result, scope, agg_fields),
            )
            for cond, result in expr.whens
        ]
        compiled_default = (
            compile_expr(expr.default, scope, agg_fields)
            if expr.default is not None
            else None
        )

        def case(t: StreamTuple) -> Any:
            for cond_fn, result_fn in compiled_whens:
                if _as_bool(cond_fn(t)):
                    return result_fn(t)
            return compiled_default(t) if compiled_default else None

        return case
    if isinstance(expr, ast.QuantifiedComparison):
        raise PlanError(
            "ALL/ANY subqueries are only supported in HAVING following the "
            "paper's Query 3 shape"
        )
    raise PlanError(f"cannot compile expression node {expr!r}")


def _compile_binary(
    expr: ast.BinaryOp,
    scope: Scope,
    agg_fields: Mapping[ast.FuncCall, str] | None,
) -> Callable[[StreamTuple], Any]:
    left = compile_expr(expr.left, scope, agg_fields)
    right = compile_expr(expr.right, scope, agg_fields)
    op = expr.op
    if op == "AND":
        return lambda t: _as_bool(left(t)) and _as_bool(right(t))
    if op == "OR":
        return lambda t: _as_bool(left(t)) or _as_bool(right(t))
    if op == "IS NULL":
        return lambda t: left(t) is None
    if op in ("=", "<>"):
        def compare_eq(t: StreamTuple, _negate=(op == "<>")) -> Any:
            lhs, rhs = left(t), right(t)
            if lhs is None or rhs is None:
                return False
            return (lhs != rhs) if _negate else (lhs == rhs)

        return compare_eq
    if op in ("<", "<=", ">", ">="):
        import operator as _operator

        py_op = {
            "<": _operator.lt,
            "<=": _operator.le,
            ">": _operator.gt,
            ">=": _operator.ge,
        }[op]

        def compare_ord(t: StreamTuple) -> Any:
            lhs, rhs = left(t), right(t)
            if lhs is None or rhs is None:
                return False
            return py_op(lhs, rhs)

        return compare_ord
    if op == "LIKE":
        import re

        if not isinstance(expr.right, ast.Literal) or not isinstance(
            expr.right.value, str
        ):
            raise PlanError("LIKE requires a string literal pattern")
        # SQL wildcards: % -> any run, _ -> any single character.
        regex = re.compile(
            "^"
            + re.escape(expr.right.value).replace("%", ".*").replace("_", ".")
            + "$"
        )

        def like(t: StreamTuple) -> Any:
            value = left(t)
            if value is None:
                return False
            return regex.match(str(value)) is not None

        return like
    if op in ("+", "-", "*", "/", "%"):
        import operator as _operator

        py_arith = {
            "+": _operator.add,
            "-": _operator.sub,
            "*": _operator.mul,
            "/": _operator.truediv,
            "%": _operator.mod,
        }[op]

        def arith(t: StreamTuple) -> Any:
            lhs, rhs = left(t), right(t)
            if lhs is None or rhs is None:
                return None
            return py_arith(lhs, rhs)

        return arith
    raise PlanError(f"unknown binary operator {op!r}")


# ---------------------------------------------------------------------------
# Plan graph
# ---------------------------------------------------------------------------


#: One upstream edge of a plan node: an earlier node's plan index or an
#: input stream's name, and the input port on the node's operator.
PlanEdge = tuple[int | str, int]


class CompiledQuery:
    """An executable continuous query: a plan of stream operators.

    The plan lists its nodes in execution order, each an operator with
    its upstream edges (see :data:`PlanEdge`); every node comes after
    its inputs, and the last one is the output. :meth:`wire` adds the
    operators to a host :class:`~repro.streams.fjord.Fjord` as ordinary
    nodes, drained, swept and checkpointed like any other (so two
    stateless branches over one stream that rejoin emit branch by
    branch within a run, see ``docs/architecture.md`` §2); :meth:`run`
    evaluates the plan over in-memory streams in a Fjord of its own.

    Attributes:
        plan: The nodes, as ``(operator, upstream edges)`` pairs.
        text: Original query text, when compiled from text.
    """

    def __init__(
        self,
        plan: Sequence[tuple[Operator, Sequence[PlanEdge]]],
        text: str | None = None,
    ):
        self.plan = [(op, list(edges)) for op, edges in plan]
        self.text = text

    @property
    def input_streams(self) -> list[str]:
        """Names of the streams this query reads."""
        edges = (ref for _op, edges in self.plan for ref, _port in edges)
        return sorted({ref for ref in edges if isinstance(ref, str)})

    def wire(
        self, fjord: Fjord, name: str, feeds: Mapping[str, Sequence[str]]
    ) -> str:
        """Add the plan's operators to ``fjord`` as nodes ``name/0000``,
        ``name/0001``, …; returns the output node's name.

        Args:
            fjord: The host dataflow.
            name: Prefix of the plan's node names.
            feeds: Stream name → the host nodes (or sources) carrying
                it. A query over one stream reads every feed, whatever
                its key: its input is whatever its upstream emitted.

        Raises:
            PlanError: When a query over several streams has no feed
                for one of them.
        """
        streams = self.input_streams
        if len(streams) == 1:
            feeds = {streams[0]: [node for nodes in feeds.values() for node in nodes]}
        for stream in streams:
            if stream not in feeds:
                raise PlanError(f"{self!r} has no feed for stream {stream!r}")
        names = [f"{name}/{index:04d}" for index in range(len(self.plan))]
        for node, (op, edges) in zip(names, self.plan):
            inputs: list[tuple[str, int]] = []
            for ref, port in edges:
                if isinstance(ref, int):
                    inputs.append((names[ref], port))
                else:
                    inputs.extend((feed, port) for feed in feeds[ref])
            fjord.add_operator(node, op, inputs=inputs)
        return names[-1]

    def explain(self) -> str:
        """A human-readable description of the compiled plan.

        One line per plan node, in execution order, with its stream
        subscriptions and the output node marked — the streaming
        analogue of SQL EXPLAIN.

        Example output for ``SELECT * FROM s WHERE v > 1``::

            plan for: SELECT * FROM s WHERE v > 1
              [0] FilterOp <- stream 's'  -> output
        """
        label = (self.text or "<ast>").strip().replace("\n", " ")
        lines = [f"plan for: {label}"]
        for index, (op, edges) in enumerate(self.plan):
            line = f"  [{index}] {type(op).__name__}"
            streams = sorted({repr(ref) for ref, _ in edges if isinstance(ref, str)})
            if streams:
                line += " <- stream " + ", ".join(streams)
            if index == len(self.plan) - 1:
                line += "  -> output"
            lines.append(line)
        return "\n".join(lines)

    def run(
        self,
        sources: Mapping[str, Iterable[StreamTuple]],
        ticks: Iterable[float],
    ) -> list[StreamTuple]:
        """Evaluate the query over in-memory streams, in a Fjord of its
        own with one source per stream it reads. A query over one stream
        reads every source in ``sources``; one over several reads each
        stream's source and ignores the rest.

        Args:
            sources: Stream name to tuples. Tuples are re-labelled with
                their stream name, and each source is sorted by
                timestamp, ties kept in the order of ``sources``.
            ticks: Punctuation times, ascending.

        Returns:
            All output tuples, in emission order.
        """
        streams = self.input_streams
        rows: dict[str, list[StreamTuple]] = {stream: [] for stream in streams}
        for name, items in sources.items():
            target = streams[0] if len(streams) == 1 else name
            if target in rows:
                rows[target].extend(t.derive(stream=name) for t in items)
        fjord = Fjord()
        for stream, items in rows.items():
            items.sort(key=attrgetter("timestamp"))
            fjord.add_source(stream, items)
        output = self.wire(fjord, "plan", {stream: [stream] for stream in streams})
        sink = fjord.add_sink("plan/output", inputs=[output])
        fjord.run(ticks, telemetry=NULL_COLLECTOR)
        return sink.results

    def __repr__(self) -> str:
        label = self.text.strip().split("\n")[0] if self.text else "<ast>"
        return f"CompiledQuery({label!r}, streams={self.input_streams})"


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates one query's plan: nodes in the order they are added,
    each after its inputs, so plan order is an execution order."""

    def __init__(self):
        self.plan: list[tuple[Operator, list[PlanEdge]]] = []

    def add(self, op: Operator, upstream: Sequence[PlanEdge]) -> int:
        """Add an operator fed by ``upstream``; returns its plan index."""
        self.plan.append((op, list(upstream)))
        return len(self.plan) - 1


class _StreamifyOp(Operator):
    """CQL relation-to-stream operators ISTREAM / DSTREAM.

    The engine's default emission is RSTREAM-like: the full result
    relation at every instant. ISTREAM keeps only rows absent from the
    previous instant's relation; DSTREAM emits the rows that *left* the
    relation (timestamped at the instant they disappeared). Rows are
    compared by field values; timestamps are ignored for identity.
    """

    def __init__(self, mode: str):
        if mode not in ("ISTREAM", "DSTREAM"):
            raise PlanError(f"unknown stream operator {mode!r}")
        self._mode = mode
        self._previous: dict[frozenset, StreamTuple] = {}
        self._current: dict[frozenset, StreamTuple] = {}

    STATE_ATTRS = ("_previous", "_current")

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        current = self._current
        for item in items:
            current[frozenset(item.items())] = item
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        current, self._current = self._current, {}
        previous, self._previous = self._previous, current
        if self._mode == "ISTREAM":
            return [
                item for key, item in current.items() if key not in previous
            ]
        return [
            item.derive(timestamp=now)
            for key, item in previous.items()
            if key not in current
        ]


def compile_query(
    query: "str | ast.Select",
    output_stream: str = "",
) -> CompiledQuery:
    """Compile CQL text (or a parsed AST) into a :class:`CompiledQuery`.

    Args:
        query: Query text or AST.
        output_stream: Stream name stamped on output tuples, so compiled
            queries can be chained by name in a pipeline.

    Raises:
        CQLSyntaxError: On parse errors.
        PlanError: On constructs outside the supported subset.
    """
    text = query if isinstance(query, str) else None
    tree = parse(query) if isinstance(query, str) else query
    builder = _Builder()
    output = _plan_select(tree, builder, output_stream)
    if output != len(builder.plan) - 1:
        # The output is the last node; a query that passes a stream on
        # unchanged (``SELECT * FROM s``) is one identity node.
        builder.add(UnionOp(), upstream=[(output, 0)])
    return CompiledQuery(builder.plan, text=text)


def _plan_select(
    select: ast.Select, builder: _Builder, output_stream: str
) -> int | str:
    """Plan a select (with union chain); returns its output: a plan
    index, or the name of a stream it passes on unchanged."""
    if select.union_with is None:
        return _plan_single_select(select, builder, output_stream)
    branch_outputs = []
    node: ast.Select | None = select
    while node is not None:
        branch_outputs.append(_plan_single_select(node, builder, output_stream))
        node = node.union_with
    return builder.add(
        UnionOp(output_stream or None),
        upstream=[(name, 0) for name in branch_outputs],
    )


def _plan_single_select(
    select: ast.Select, builder: _Builder, output_stream: str
) -> int | str:
    if not select.sources:
        raise PlanError("FROM clause is required")
    if len(select.sources) == 1:
        output = _plan_one_source(select, builder, output_stream)
    else:
        output = _plan_join(select, builder, output_stream)
    if select.stream_op in ("ISTREAM", "DSTREAM"):
        output = builder.add(
            _StreamifyOp(select.stream_op), upstream=[(output, 0)]
        )
    return output  # RSTREAM / None: the default full-relation emission


# -- single-source plans -------------------------------------------------------


def _plan_one_source(
    select: ast.Select, builder: _Builder, output_stream: str
) -> int | str:
    source = select.sources[0]
    scope = Scope([_binding_of(source)])
    upstream, window = _plan_source_input(source, builder)
    aggregates = _collect_aggregates(select)
    if not aggregates and not select.group_by:
        return _plan_stateless(select, builder, scope, upstream, output_stream)
    if window is None:
        raise PlanError(
            "aggregation requires a window on the stream "
            "(e.g. [Range By '5 sec'])"
        )
    return _plan_aggregation(
        select, builder, scope, upstream, window, aggregates, output_stream
    )


def _plan_source_input(
    source: "ast.StreamRef | ast.SubquerySource", builder: _Builder
) -> tuple[int | str, WindowSpec | None]:
    """Plan a FROM source; returns (node feeding its tuples, its window)."""
    if isinstance(source, ast.StreamRef):
        return source.name, source.window
    # Derived table: plan the subquery; its rows are instant-valid.
    sub_output = _plan_select(source.select, builder, output_stream="")
    return sub_output, WindowSpec.now()


def _binding_of(source: "ast.StreamRef | ast.SubquerySource") -> str:
    binding = source.binding
    if binding is None:
        raise PlanError("subqueries in FROM must be aliased (\"AS name\")")
    return binding


def _plan_stateless(
    select: ast.Select,
    builder: _Builder,
    scope: Scope,
    upstream: int | str,
    output_stream: str,
) -> int | str:
    index = upstream
    if select.having is not None:
        raise PlanError("HAVING requires GROUP BY or aggregates")
    if select.where is not None:
        predicate = compile_expr(select.where, scope)
        index = builder.add(
            FilterOp(lambda t, _p=predicate: _as_bool(_p(t))),
            upstream=[(index, 0)],
        )
    if select.star:
        if output_stream:
            index = builder.add(
                MapOp(lambda t: t.derive(stream=output_stream)),
                upstream=[(index, 0)],
            )
        return index
    projections = [
        (item.output_name(pos), compile_expr(item.expr, scope))
        for pos, item in enumerate(select.items)
    ]

    def project(t: StreamTuple) -> StreamTuple:
        return StreamTuple(
            t.timestamp,
            {name: fn(t) for name, fn in projections},
            output_stream or t.stream,
        )

    return builder.add(MapOp(project), upstream=[(index, 0)])


def _collect_aggregates(select: ast.Select) -> list[ast.FuncCall]:
    """Unique aggregate calls in the SELECT list and HAVING clause."""
    names = aggregate_names()
    calls: list[ast.FuncCall] = []
    for item in select.items:
        calls.extend(ast.find_aggregates(item.expr, names))
    if select.having is not None and not isinstance(
        select.having, ast.QuantifiedComparison
    ):
        calls.extend(ast.find_aggregates(select.having, names))
    if isinstance(select.having, ast.QuantifiedComparison):
        calls.extend(ast.find_aggregates(select.having.left, names))
    unique: list[ast.FuncCall] = []
    for call in calls:
        if call not in unique:
            unique.append(call)
    return unique


def _aggregate_spec(
    call: ast.FuncCall, scope: Scope, output: str
) -> AggregateSpec:
    if len(call.args) > 1:
        raise PlanError(f"aggregate {call.name!r} takes at most one argument")
    if not call.args or isinstance(call.args[0], ast.Star):
        if call.distinct and not call.args:
            raise PlanError("count(distinct) needs an argument")
        argument = None
        if call.args and call.distinct:
            raise PlanError("count(distinct *) is not valid")
    else:
        arg_expr = call.args[0]
        if (
            isinstance(arg_expr, ast.ColumnRef)
            and not scope.qualified_fields
            and (arg_expr.qualifier is None or arg_expr.qualifier not in scope.bindings)
        ):
            # A bare column reference over non-join rows reads exactly
            # ``row.get(name)`` — declare it as ``field=`` so the
            # windowed evaluation reads the field inline instead of
            # calling a compiled closure per row.
            # Qualified references (join scopes) keep the compiled
            # closure: their dotted-key resolution has no field= analog.
            return AggregateSpec(
                call.name,
                field=arg_expr.name,
                distinct=call.distinct,
                output=output,
            )
        argument = compile_expr(arg_expr, scope)
    return AggregateSpec(
        call.name, argument=argument, distinct=call.distinct, output=output
    )


def _plan_aggregation(
    select: ast.Select,
    builder: _Builder,
    scope: Scope,
    upstream: int | str,
    window: WindowSpec,
    aggregate_calls: list[ast.FuncCall],
    output_stream: str,
) -> int:
    index = upstream
    if select.where is not None:
        predicate = compile_expr(select.where, scope)
        index = builder.add(
            FilterOp(lambda t, _p=predicate: _as_bool(_p(t))),
            upstream=[(index, 0)],
        )
    # Group keys: GROUP BY columns, plus bare SELECT-list columns not
    # already grouped. The implicit part is a deliberate leniency: the
    # paper's Query 5 subquery selects ``spatial_granule`` next to
    # aggregates without a GROUP BY clause (a typo in the listing); the
    # only sensible continuous-query reading is to group by it.
    group_refs = list(select.group_by)
    grouped_names = {ref.name for ref in group_refs}
    for item in select.items:
        expr = item.expr
        if isinstance(expr, ast.ColumnRef) and expr.name not in grouped_names:
            group_refs.append(expr)
            grouped_names.add(expr.name)
    keys = [
        GroupKey(ref.name, scope.resolve(ref), field=scope.field(ref))
        for ref in group_refs
    ]
    # Aggregates: stable output field per unique call.
    agg_fields: dict[ast.FuncCall, str] = {}
    specs: list[AggregateSpec] = []
    for position, call in enumerate(aggregate_calls):
        field = _preferred_agg_name(select, call, position)
        agg_fields[call] = field
        specs.append(_aggregate_spec(call, scope, field))
    having = _plan_having(select, scope, agg_fields)
    group_index = builder.add(
        WindowedGroupByOp(
            window,
            keys=keys,
            aggregates=specs,
            having=having,
            output_stream=output_stream,
        ),
        upstream=[(index, 0)],
    )
    return _plan_post_projection(
        select, builder, group_index, agg_fields, output_stream
    )


def _preferred_agg_name(
    select: ast.Select, call: ast.FuncCall, position: int
) -> str:
    """Pick the output field for an aggregate: the SELECT alias if the item
    is exactly this call, else a canonical derived name."""
    for item in select.items:
        if item.expr == call and item.alias:
            return item.alias
    return ast.SelectItem(call).output_name(position)


def _plan_having(
    select: ast.Select,
    scope: Scope,
    agg_fields: Mapping[ast.FuncCall, str],
) -> Callable[[StreamTuple, list[StreamTuple]], bool] | None:
    having = select.having
    if having is None:
        return None
    if isinstance(having, ast.QuantifiedComparison):
        return _plan_quantified_having(select, having, agg_fields)
    row_scope = Scope([], qualified_fields=False)
    predicate = compile_expr(having, row_scope, agg_fields)
    return lambda row, _all, _p=predicate: _as_bool(_p(row))


def _plan_quantified_having(
    select: ast.Select,
    having: ast.QuantifiedComparison,
    agg_fields: Mapping[ast.FuncCall, str],
) -> Callable[[StreamTuple, list[StreamTuple]], bool]:
    """Compile ``HAVING agg op ALL(SELECT agg FROM same ... WHERE outer.c =
    inner.c GROUP BY g)`` — the paper's Query 3 arbitration pattern.

    Validity conditions (checked, with actionable errors):

    - the outer select groups by at least the correlation column ``c`` and
      the subquery's grouping column ``g``;
    - the subquery reads the same stream with the same window;
    - both sides aggregate with the same call.

    Under those conditions the subquery's per-``g`` aggregate values for a
    given ``c`` are exactly the outer rows sharing that ``c``, so the
    quantifier reduces to a comparison across the rows emitted at this
    instant — which the HAVING callback receives as ``all_rows``.
    """
    if not isinstance(having.left, ast.FuncCall):
        raise PlanError("ALL/ANY HAVING must compare an aggregate call")
    if having.left not in agg_fields:
        raise PlanError("ALL/ANY HAVING aggregate must match an outer aggregate")
    sub = having.subquery
    if len(sub.sources) != 1 or not isinstance(sub.sources[0], ast.StreamRef):
        raise PlanError("ALL/ANY subquery must read a single stream")
    outer_source = select.sources[0]
    if not isinstance(outer_source, ast.StreamRef):
        raise PlanError("ALL/ANY HAVING requires the outer FROM to be a stream")
    inner_source = sub.sources[0]
    if inner_source.name != outer_source.name:
        raise PlanError(
            "ALL/ANY subquery must reference the same stream as the outer "
            f"query ({inner_source.name!r} != {outer_source.name!r})"
        )
    inner_window = inner_source.window or outer_source.window
    if inner_window != outer_source.window:
        raise PlanError("ALL/ANY subquery window must match the outer window")
    if len(sub.items) != 1 or not isinstance(sub.items[0].expr, ast.FuncCall):
        raise PlanError("ALL/ANY subquery must select a single aggregate")
    inner_call = sub.items[0].expr
    if (inner_call.name, inner_call.distinct) != (
        having.left.name,
        having.left.distinct,
    ):
        raise PlanError("ALL/ANY subquery aggregate must match the outer one")
    correlation = _extract_correlation(
        sub.where, outer_source.binding, inner_source.binding
    )
    if correlation is None:
        raise PlanError(
            "ALL/ANY subquery must be correlated with an equality like "
            "outer.tag_id = inner.tag_id"
        )
    if len(sub.group_by) != 1:
        raise PlanError("ALL/ANY subquery must GROUP BY exactly one column")
    outer_keys = {ref.name for ref in select.group_by}
    if correlation not in outer_keys:
        raise PlanError(
            f"correlation column {correlation!r} must be an outer group key"
        )
    if sub.group_by[0].name not in outer_keys:
        raise PlanError(
            f"subquery group column {sub.group_by[0].name!r} must be an "
            "outer group key"
        )
    agg_field = agg_fields[having.left]
    op = having.op
    quantifier = having.quantifier

    def satisfied(mine: Any, peer: Any) -> bool:
        if mine is None or peer is None:
            return False
        if op == ">=":
            return mine >= peer
        if op == ">":
            return mine > peer
        if op == "<=":
            return mine <= peer
        if op == "<":
            return mine < peer
        if op == "=":
            return mine == peer
        if op == "<>":
            return mine != peer
        raise PlanError(f"unsupported quantified comparison operator {op!r}")

    def having_callback(row: StreamTuple, all_rows: list[StreamTuple]) -> bool:
        mine = row.get(agg_field)
        peers = [
            peer.get(agg_field)
            for peer in all_rows
            if peer.get(correlation) == row.get(correlation)
        ]
        if quantifier == "ALL":
            return all(satisfied(mine, value) for value in peers)
        return any(satisfied(mine, value) for value in peers)

    return having_callback


def _extract_correlation(
    where: ast.Expr | None, outer_binding: str, inner_binding: str
) -> str | None:
    """Find the column name in ``outer.c = inner.c`` within the subquery
    WHERE (possibly among AND-ed terms). Returns None if absent."""
    if where is None:
        return None
    if isinstance(where, ast.BinaryOp) and where.op == "AND":
        return _extract_correlation(
            where.left, outer_binding, inner_binding
        ) or _extract_correlation(where.right, outer_binding, inner_binding)
    if not (isinstance(where, ast.BinaryOp) and where.op == "="):
        return None
    left, right = where.left, where.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    qualifiers = {left.qualifier, right.qualifier}
    if left.name == right.name and qualifiers == {outer_binding, inner_binding}:
        return left.name
    return None


def _plan_post_projection(
    select: ast.Select,
    builder: _Builder,
    group_index: int,
    agg_fields: Mapping[ast.FuncCall, str],
    output_stream: str,
) -> int:
    """Project grouped rows onto the SELECT list."""
    if select.star:
        return group_index
    row_scope = Scope([], qualified_fields=False)
    projections = [
        (
            item.alias or item.output_name(pos),
            compile_expr(item.expr, row_scope, agg_fields),
        )
        for pos, item in enumerate(select.items)
    ]
    # Skip the projection when it is an exact pass-through of grouped
    # output fields — the common Query 1/2 case.
    passthrough = all(
        isinstance(item.expr, ast.ColumnRef)
        and (item.alias or item.expr.name) == item.expr.name
        or (
            isinstance(item.expr, ast.FuncCall)
            and item.expr in agg_fields
            and (item.alias or agg_fields[item.expr]) == agg_fields[item.expr]
        )
        for item in select.items
    )
    if passthrough:
        return group_index

    def project(t: StreamTuple) -> StreamTuple:
        return StreamTuple(
            t.timestamp,
            {name: fn(t) for name, fn in projections},
            output_stream or t.stream,
        )

    return builder.add(MapOp(project), upstream=[(group_index, 0)])


# -- join plans ------------------------------------------------------------------


class _OuterCombineOp(Operator):
    """N-ary instant-combine with outer semantics (paper Query 6).

    Buffers rows per input port between punctuations. At each punctuation
    it emits the cross product of the non-empty ports' rows, with each
    row's fields stored under both ``binding.field`` and (when
    unambiguous) the bare field name. Ports that received nothing simply
    contribute no fields — combine missing-side handling with
    ``coalesce(x, 0)`` in WHERE.
    """

    def __init__(self, bindings: Sequence[str], output_stream: str = ""):
        self._bindings = list(bindings)
        self._buffers: list[list[StreamTuple]] = [[] for _ in bindings]
        self._output_stream = output_stream

    STATE_ATTRS = ("_buffers",)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        self._buffers[port].extend(items)
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        populated = [
            (binding, rows)
            for binding, rows in zip(self._bindings, self._buffers)
            if rows
        ]
        self._buffers = [[] for _ in self._bindings]
        if not populated:
            return []
        combos: list[dict[str, Any]] = [{}]
        field_counts: dict[str, int] = {}
        for binding, rows in populated:
            for field in rows[0].keys():
                field_counts[field] = field_counts.get(field, 0) + 1
        for binding, rows in populated:
            new_combos: list[dict[str, Any]] = []
            for base in combos:
                for row in rows:
                    merged = dict(base)
                    for field, value in row.items():
                        merged[f"{binding}.{field}"] = value
                        if field_counts.get(field, 0) == 1:
                            merged[field] = value
                    new_combos.append(merged)
            combos = new_combos
        return [
            StreamTuple(now, values, self._output_stream) for values in combos
        ]


def _qualified_merge(
    left_binding: str, right_binding: str
) -> Callable[[StreamTuple, StreamTuple], dict[str, Any]]:
    """A join's combine: every field under ``binding.field``, and bare.

    A bare name both sides carry is the left side's; a left field that
    is already qualified (an inner join's output) is kept as it is.
    """

    def combine(lhs: StreamTuple, rhs: StreamTuple) -> dict[str, Any]:
        merged: dict[str, Any] = {}
        left_fields = lhs.keys()
        for field, value in rhs.items():
            merged[f"{right_binding}.{field}"] = value
            if field not in left_fields:
                merged[field] = value
        for field, value in lhs.items():
            if "." in field:
                merged[field] = value
            else:
                merged[f"{left_binding}.{field}"] = value
                merged[field] = value
        return merged

    return combine


def _plan_join(
    select: ast.Select, builder: _Builder, output_stream: str
) -> int | str:
    bindings = []
    for source in select.sources:
        binding = source.binding
        if binding is None:
            raise PlanError(
                "every source in a multi-source FROM needs a name or alias"
            )
        bindings.append(binding)
    if len(set(bindings)) != len(bindings):
        raise PlanError(f"duplicate FROM bindings: {bindings}")
    scope = Scope(bindings, qualified_fields=True)
    all_derived = all(
        isinstance(source, ast.SubquerySource) for source in select.sources
    )
    where_fn = (
        compile_expr(select.where, scope) if select.where is not None else None
    )
    if all_derived:
        inputs = [
            _plan_source_input(source, builder)[0] for source in select.sources
        ]
        index = builder.add(
            _OuterCombineOp(bindings),
            upstream=[(name, port) for port, name in enumerate(inputs)],
        )
        if where_fn is not None:
            index = builder.add(
                FilterOp(lambda t, _p=where_fn: _as_bool(_p(t))),
                upstream=[(index, 0)],
            )
    else:
        index = _plan_inner_joins(
            select, builder, bindings, where_fn
        )
    aggregates = _collect_aggregates(select)
    if not aggregates and not select.group_by:
        # Stateless projection over combined rows.
        narrowed = ast.Select(
            select.items, [ast.StreamRef("__combined__")], star=select.star
        )
        return _plan_stateless(narrowed, builder, scope, index, output_stream)
    narrowed = ast.Select(
        select.items,
        [ast.StreamRef("__combined__")],
        star=select.star,
        group_by=select.group_by,
        having=select.having,
    )
    return _plan_aggregation(
        narrowed,
        builder,
        scope,
        index,
        WindowSpec.now(),
        aggregates,
        output_stream,
    )


def _plan_inner_joins(
    select: ast.Select,
    builder: _Builder,
    bindings: list[str],
    where_fn: Callable[[StreamTuple], Any] | None,
) -> int:
    """Left-fold the FROM sources through binary instant joins.

    The full WHERE predicate is evaluated on the final join's combined
    rows (earlier joins emit unfiltered combinations; at the paper's data
    rates the quadratic instant is tiny).
    """
    planned: list[tuple[int | str, WindowSpec, str]] = []
    for binding, source in zip(bindings, select.sources):
        node, window = _plan_source_input(source, builder)
        if window is None:
            raise PlanError(
                f"source {binding!r} in a join needs a window "
                "(e.g. [Range By '5 min'])"
            )
        planned.append((node, window, binding))
    left_node, left_window, left_binding = planned[0]
    for position, (right_node, right_window, right_binding) in enumerate(
        planned[1:]
    ):
        is_last = position == len(planned) - 2
        join_index = builder.add(
            WindowJoinOp(
                left_window,
                right_window,
                predicate=where_fn if is_last else None,
                combine=_qualified_merge(left_binding, right_binding),
            ),
            upstream=[(left_node, 0), (right_node, 1)],
        )
        left_node = join_index
        left_window = WindowSpec.now()
        left_binding = "__join__"
    return join_index  # a multi-source FROM has at least one join
