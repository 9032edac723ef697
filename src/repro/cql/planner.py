"""Query planner: compiles a CQL AST onto :mod:`repro.streams` operators.

The compiled artifact is a :class:`CompiledQuery` — itself a stream
:class:`~repro.streams.operators.Operator` — so a declarative query can be
dropped anywhere an ESP stage or a Fjord node is expected (the paper's
"stages may be implemented by declarative continuous queries", §3.3).

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
    SinkOp,
    UnionOp,
    WindowedGroupByOp,
    WindowJoinOp,
    run_operator,
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
        name = ref.name
        qualifier = ref.qualifier if ref.qualifier in self.bindings else None
        if qualifier and self.qualified_fields:
            # Strict: a qualified reference reads only its own source's
            # field. Falling back to a bare name here would silently read
            # another source's column on outer-combined rows where this
            # source is absent (SQL NULL is the correct answer).
            dotted = f"{qualifier}.{name}"
            return lambda t: t.get(dotted)

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


class CompiledQuery(Operator):
    """An executable continuous query, usable as a stream operator.

    The plan is a nested :class:`~repro.streams.fjord.Fjord` whose
    sources are the streams the query reads and whose last node is a
    sink; this operator feeds it and hands on what reaches the sink.
    Input tuples are routed to the plan's sources by their ``stream``
    attribute; punctuations sweep the plan exactly as the Fjord executor
    sweeps any dataflow. Use :meth:`run` for one-shot evaluation over
    in-memory streams, or plug the instance into a pipeline/Fjord for
    online use. Plan nodes are not reported to telemetry: the
    surrounding executor accounts this operator as one node.

    **Delivery order.** A compiled plan emits exactly what the same
    operators hand-wired into a Fjord emit. Each run of input is queued
    whole at the nodes subscribed to its stream and the plan is drained
    node by node, so two stateless branches that both reach the output
    (``SELECT ... FROM s WHERE a UNION SELECT ... FROM s WHERE b``)
    emit branch by branch within a run — all of the first branch's
    rows for the run, then all of the second's — not interleaved tuple
    by tuple. That is the one plan shape whose output order shows how
    the input was cut into runs, as it would for any Fjord with a
    fan-out that rejoins; every single-route plan is chunking-invariant
    (see :meth:`Operator.on_batch
    <repro.streams.operators.Operator.on_batch>`).

    Attributes:
        text: Original query text, when compiled from text.
        input_streams: The stream names this query subscribes to.
    """

    def __init__(self, fjord: Fjord, sink: SinkOp, text: str | None = None):
        self._fjord = fjord
        self._sink = sink
        #: plan node names in execution (= plan index) order
        self._order = fjord._topological_order()
        self.text = text

    @property
    def input_streams(self) -> list[str]:
        """Names of the streams this query reads."""
        return sorted(self._fjord._sources)

    # -- Operator protocol ------------------------------------------------------

    def checkpoint(self) -> "dict[str, Any] | None":
        nodes = self._fjord._checkpoint_nodes()
        # The sink (last in order) is emptied before every return.
        stateless = all(
            nodes[name]["state"] is None and not nodes[name]["pending"]
            for name in self._order[:-1]
        )
        return None if stateless else {"nodes": nodes}

    def restore(self, state: "Mapping[str, Any] | None") -> None:
        if state is not None:
            self._fjord._restore_nodes(state["nodes"])

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        fjord = self._fjord
        edges = fjord._source_edges
        nodes = fjord._nodes
        # (routes of the stream, sub-run) pairs; queued payloads are
        # lists, borrowed like ``items``: drained before we return.
        runs: list[tuple["list[tuple[str, int]] | None", list[StreamTuple]]]
        if len(edges) == 1:
            # Single-stream queries accept any input stream: an ESP
            # stage sees whatever labels its upstream emitted.
            (only,) = edges.values()
            runs = [(only, items if isinstance(items, list) else list(items))]
        else:
            runs = []
            for item in items:  # maximal same-stream sub-runs, in order
                routes = edges.get(item.stream)
                if runs and runs[-1][0] is routes:
                    runs[-1][1].append(item)
                else:
                    runs.append((routes, [item]))
        for routes, run in runs:
            for target, tport in routes or ():
                nodes[target].pending.append((run, tport))
        for name in self._order:
            node = nodes[name]
            if node.pending:
                fjord._drain_node(node)
        return self._take()

    def on_time(self, now: float) -> list[StreamTuple]:
        self._fjord._sweep(self._order, now, NULL_COLLECTOR, False)
        return self._take()

    def _take(self) -> list[StreamTuple]:
        """Everything that reached the sink since the last take."""
        out, self._sink.results = self._sink.results, []
        return out

    # -- convenience ----------------------------------------------------------------

    def explain(self) -> str:
        """A human-readable description of the compiled plan.

        One line per plan node, in execution order, with the stream
        subscriptions and the output node marked — the streaming
        analogue of SQL EXPLAIN.

        Example output for ``SELECT * FROM s WHERE v > 1``::

            plan for: SELECT * FROM s WHERE v > 1
              [0] FilterOp <- stream 's'
              [1] SinkOp  -> output
        """
        subscriptions: dict[str, list[str]] = {}
        for stream, routes in self._fjord._source_edges.items():
            for target, _port in routes:
                subscriptions.setdefault(target, []).append(stream)
        label = (self.text or "<ast>").strip().replace("\n", " ")
        lines = [f"plan for: {label}"]
        for index, name in enumerate(self._order):
            op = self._fjord._nodes[name].op
            parts = [f"  [{index}] {type(op).__name__}"]
            if name in subscriptions:
                streams = ", ".join(
                    f"{stream!r}" for stream in sorted(set(subscriptions[name]))
                )
                parts.append(f" <- stream {streams}")
            if op is self._sink:
                parts.append("  -> output")
            lines.append("".join(parts))
        return "\n".join(lines)

    def run(
        self,
        sources: Mapping[str, Iterable[StreamTuple]],
        ticks: Iterable[float],
    ) -> list[StreamTuple]:
        """Evaluate the query over in-memory streams.

        Args:
            sources: Stream name to timestamp-sorted tuples. Tuples are
                re-labelled with the source's stream name so routing works
                regardless of how they were constructed.
            ticks: Punctuation times, ascending.

        Returns:
            All output tuples, in emission order.
        """
        merged: list[StreamTuple] = []
        for name, items in sources.items():
            merged.extend(t.derive(stream=name) for t in items)
        return run_operator(self, merged, ticks)

    def __repr__(self) -> str:
        label = self.text.strip().split("\n")[0] if self.text else "<ast>"
        return f"CompiledQuery({label!r}, streams={self.input_streams})"


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates one query's plan as a Fjord.

    Operator nodes are named by their zero-padded plan index, so the
    Fjord's lexicographic topological order is plan order (every node
    is added after its inputs); sources are named by the stream they
    stand for.
    """

    def __init__(self):
        self.fjord = Fjord()

    def add(self, op: Operator, upstream: Sequence[tuple[str, int]]) -> str:
        """Add an operator fed by ``upstream`` (node or stream name,
        input port on ``op``); returns the new node's name."""
        name = f"{len(self.fjord._nodes):04d}"
        self.fjord.add_operator(name, op, inputs=upstream)
        return name

    def subscribe(self, stream: str) -> str:
        """The source node standing for ``stream`` (added on first use)."""
        if stream not in self.fjord._sources:
            self.fjord.add_source(stream, ())
        return stream


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
    sink = SinkOp()
    builder.add(sink, upstream=[(output, 0)])
    return CompiledQuery(builder.fjord, sink, text=text)


def _plan_select(
    select: ast.Select, builder: _Builder, output_stream: str
) -> str:
    """Plan a select (with union chain); returns the output node's name."""
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
) -> str:
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
) -> str:
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
) -> tuple[str, WindowSpec | None]:
    """Plan a FROM source; returns (node feeding its tuples, its window)."""
    if isinstance(source, ast.StreamRef):
        return builder.subscribe(source.name), source.window
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
    upstream: str,
    output_stream: str,
) -> str:
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
    upstream: str,
    window: WindowSpec,
    aggregate_calls: list[ast.FuncCall],
    output_stream: str,
) -> str:
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
    keys = [GroupKey(ref.name, scope.resolve(ref)) for ref in group_refs]
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
    group_index: str,
    agg_fields: Mapping[ast.FuncCall, str],
    output_stream: str,
) -> str:
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
) -> str:
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
) -> str:
    """Left-fold the FROM sources through binary instant joins.

    The full WHERE predicate is evaluated on the final join's combined
    rows (earlier joins emit unfiltered combinations; at the paper's data
    rates the quadratic instant is tiny).
    """
    planned: list[tuple[str, WindowSpec, str]] = []
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
    return left_node
