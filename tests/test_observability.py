"""Tests for observability surfaces: EXPLAIN, describe(), flow stats."""

import ast
import pathlib

from repro.cql import CompiledQuery, compile_query
from repro.streams.fjord import Fjord
from repro.streams.operators import FilterOp, Operator, UnionOp
from repro.streams.tuples import StreamTuple


def tup(ts, stream="s", **fields):
    return StreamTuple(ts, fields or {"v": ts}, stream)


class TestExplain:
    def test_stateless_plan(self):
        plan = compile_query("SELECT * FROM s WHERE v > 1").explain()
        assert "plan for: SELECT * FROM s WHERE v > 1" in plan
        assert "FilterOp" in plan
        assert "<- stream 's'" in plan
        assert "-> output" in plan

    def test_aggregation_plan_shows_groupby(self):
        plan = compile_query(
            "SELECT g, count(*) FROM s [Range By '5 sec'] GROUP BY g"
        ).explain()
        assert "WindowedGroupByOp" in plan

    def test_join_plan_shows_join_operator(self):
        plan = compile_query(
            "SELECT l.v AS x FROM a l [Range By 'NOW'], "
            "b r [Range By 'NOW'] WHERE l.k = r.k"
        ).explain()
        assert "WindowJoinOp" in plan
        assert "'a'" in plan and "'b'" in plan

    def test_outer_combine_plan(self):
        plan = compile_query(
            "SELECT 'x' FROM (SELECT 1 AS c FROM a [Range By 'NOW']) p, "
            "(SELECT 1 AS c FROM b [Range By 'NOW']) q, "
            "WHERE coalesce(p.c, 0) + coalesce(q.c, 0) >= 1"
        ).explain()
        assert "_OuterCombineOp" in plan

    def test_every_node_listed_once(self):
        query = compile_query("SELECT * FROM s WHERE v > 1")
        plan = query.explain()
        node_lines = [
            line for line in plan.splitlines() if line.startswith("  [")
        ]
        assert len(node_lines) == len(query.plan)


class TestFjordStats:
    def build(self):
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1), tup(1.0, v=5)])
        fjord.add_operator("f", FilterOp(lambda t: t["v"] > 2), inputs=["src"])
        sink = fjord.add_sink("out", inputs=["f"])
        return fjord, sink

    def test_stats_zero_before_run(self):
        fjord, _sink = self.build()
        assert fjord.stats() == {"f": (0, 0), "out": (0, 0)}

    def test_stats_count_flow(self):
        fjord, sink = self.build()
        fjord.run([0.0, 1.0])
        stats = fjord.stats()
        assert stats["f"] == (2, 1)  # filter dropped one tuple
        assert stats["out"] == (1, 0)  # sink consumes, emits nothing
        assert len(sink.results) == 1

    def test_describe_lists_wiring_and_counts(self):
        fjord, _sink = self.build()
        fjord.run([0.0, 1.0])
        text = fjord.describe()
        assert "f [FilterOp] <- source:src" in text
        assert "out [SinkOp] <- f" in text
        assert "(2 in / 1 out)" in text

    def test_describe_union_multiple_upstreams(self):
        fjord = Fjord()
        fjord.add_source("a", [tup(0.0, "a")])
        fjord.add_source("b", [tup(0.0, "b")])
        fjord.add_operator("u", UnionOp(), inputs=["a", "b"])
        fjord.add_sink("out", inputs=["u"])
        text = fjord.describe()
        assert "u [UnionOp] <- source:a, source:b" in text

    def test_point_stage_volume_reduction_visible(self, small_shelf):
        """The §3.2 'early elimination' claim, read off the flow stats."""
        from repro.pipelines.rfid_shelf import build_shelf_processor

        processor = build_shelf_processor(small_shelf, "smooth")
        run = processor.run(
            until=small_shelf.duration,
            tick=small_shelf.poll_period,
            sources=small_shelf.recorded_streams(),
            taps=("raw", "smooth"),
        )
        raw_volume = len(run.tap("rfid", "raw"))
        smooth_volume = len(run.tap("rfid", "smooth"))
        assert raw_volume > 0 and smooth_volume > 0


class TestFlowCountersMultiOperatorDag:
    """Exact tuples_in/tuples_out accounting across a branching DAG with
    a two-port window join — the counters the sharded engine sums."""

    def build(self):
        from repro.streams.operators import MapOp, WindowJoinOp
        from repro.streams.windows import WindowSpec

        fjord = Fjord()
        fjord.add_source(
            "left", [tup(0.0, v=1), tup(1.0, v=2), tup(2.0, v=3)]
        )
        fjord.add_source("right", [tup(0.0, w=10), tup(1.0, w=20)])
        fjord.add_operator(
            "f_left", FilterOp(lambda t: t["v"] > 1), inputs=["left"]
        )
        fjord.add_operator(
            "f_right", FilterOp(lambda t: True), inputs=["right"]
        )
        fjord.add_operator(
            "join",
            WindowJoinOp(WindowSpec.range_by(10.0), WindowSpec.range_by(10.0)),
            inputs=[("f_left", 0), ("f_right", 1)],
        )
        fjord.add_operator(
            "annotate",
            MapOp(lambda t: t.derive(values={"tagged": True})),
            inputs=["join"],
        )
        sink = fjord.add_sink("out", inputs=["annotate"])
        return fjord, sink

    def test_exact_counts_per_node(self):
        fjord, sink = self.build()
        fjord.run([0.0, 1.0, 2.0])
        stats = fjord.stats()
        # Filters: per-branch pass-through accounting.
        assert stats["f_left"] == (3, 2)  # v=1 dropped
        assert stats["f_right"] == (2, 2)
        # Join consumes both ports; emits the windows' cross product at
        # each punctuation: |L|*|R| = 0*1 + 1*2 + 2*2 = 6.
        assert stats["join"] == (4, 6)
        assert stats["annotate"] == (6, 6)
        assert stats["out"] == (6, 0)
        assert len(sink.results) == 6

    def test_counts_deterministic_across_builds(self):
        """Batched delivery accounts identically on every fresh build."""
        fjord, _sink = self.build()
        fjord.run([0.0, 1.0, 2.0])
        reference = fjord.stats()
        rebuilt, _ = self.build()
        rebuilt.run([0.0, 1.0, 2.0])
        assert rebuilt.stats() == reference

    def test_sharded_run_sums_counters(self):
        """ESPRun.stats equals the sequential per-node counters."""
        from repro.pipelines.rfid_shelf import build_shelf_processor
        from repro.scenarios.shelf import ShelfScenario

        scenario = ShelfScenario(duration=20.0, seed=5)
        sources = scenario.recorded_streams()

        def run(**kwargs):
            processor = build_shelf_processor(scenario, "smooth+arbitrate")
            return processor.run(
                until=scenario.duration,
                tick=scenario.poll_period,
                sources=sources,
                **kwargs,
            )

        sequential = run()
        sharded = run(shards=4, backend="serial", shard_key="tag_id")
        assert sequential.stats
        assert sharded.stats == sequential.stats
        total_in = sum(i for i, _o in sequential.stats.values())
        assert total_in > 0


class _TupleAtATime(Operator):
    """Shim that cuts every run into one-tuple runs.

    ``on_batch(items)`` is the concatenation of the wrapped operator's
    ``on_batch([item])`` outputs (and the shim has no column kernel), so
    a run through it is the finest chunking an executor could choose —
    the reference the whole-run delivery is compared against.
    """

    def __init__(self, inner):
        self._inner = inner

    def on_batch(self, items, port=0):
        out = []
        for item in items:
            out.extend(self._inner.on_batch([item], port))
        return out

    def on_time(self, timestamp):
        return self._inner.on_time(timestamp)


class TestBatchFastPathAccounting:
    """Chunking invariance, differentially: delivering whole runs emits
    exactly what delivering the same input one tuple at a time emits —
    same results, same flow counters — which is what keeps telemetry
    honest whatever run lengths the executor happens to produce."""

    def _sources(self):
        import random

        rng = random.Random(13)
        streams = {}
        for name in ("a", "b"):
            now = 0.0
            items = []
            for i in range(150):
                if rng.random() > 0.4:
                    now += rng.choice((0.25, 0.5, 1.0))
                items.append(
                    StreamTuple(now, {"v": rng.randrange(0, 40)}, name)
                )
            streams[name] = items
        return streams

    def _build(self, wrap):
        from repro.core.operators.adaptive_ops import (
            AdaptiveSmoother,
            HorvitzThompsonCounter,
        )
        from repro.core.operators.arbitrate_ops import MaxCountArbitrator
        from repro.core.operators.merge_ops import k_of_n_vote
        from repro.core.stages import StageContext, StageKind
        from repro.core.operators.virtualize_ops import (
            CorrelationModelCleaner,
            VotingDetector,
        )
        from repro.streams.aggregates import AggregateSpec
        from repro.streams.operators import (
            GroupKey,
            MapOp,
            StaticJoinOp,
            WindowedGroupByOp,
            WindowJoinOp,
        )
        from repro.streams.windows import WindowSpec

        sources = self._sources()
        fjord = Fjord()
        for name, items in sources.items():
            fjord.add_source(name, items)
        # name -> (operator, inputs); every node also feeds the union.
        graph = {
            "f": (FilterOp(lambda t: t["v"] % 3 != 0), ["a", "b"]),
            "m": (
                MapOp(
                    lambda t: t.derive(
                        values={"d": t["v"] * 2 + (t["v"] % 7) * 3}
                    )
                ),
                ["f"],
            ),
            "j": (
                StaticJoinOp(
                    [{"v": v, "label": f"L{v % 5}"} for v in range(40)],
                    on=lambda item, row: item["v"] == row["v"],
                ),
                ["m"],
            ),
            # Query 2's operator (per-stream window counts of each v)
            # feeding Query 3's (which stream saw a v the most).
            "g": (
                WindowedGroupByOp(
                    WindowSpec.range_by(2.0),
                    keys=[GroupKey("v"), GroupKey("src", lambda t: t.stream)],
                    aggregates=[AggregateSpec("count", output="count")],
                ),
                ["f"],
            ),
            "arb": (
                MaxCountArbitrator(
                    id_field="v", granule_field="src", tie_break="all"
                ),
                ["g"],
            ),
            "adapt": (AdaptiveSmoother(id_field="v", carry=()), ["f"]),
            "ht": (
                HorvitzThompsonCounter(
                    4, id_field="v", group_field="label"
                ),
                ["j"],
            ),
            "vote": (
                k_of_n_vote(
                    min_devices=2,
                    window=2.0,
                    device_field="v",
                    granule_field="label",
                ).make(StageContext(StageKind.MERGE)),
                ["j"],
            ),
            "detect": (
                VotingDetector(
                    {"a": None, "b": lambda t: t["v"] > 20}, threshold=2
                ),
                ["f"],
            ),
            "model": (
                CorrelationModelCleaner("v", "d", k=1.0, k_learn=0.5, warmup=5),
                ["m"],
            ),
            "wjoin": (
                WindowJoinOp(
                    WindowSpec.range_by(0.5),
                    WindowSpec.range_by(0.5),
                    predicate=lambda row: row["v"] == row["rv"],
                    combine=lambda lhs, rhs: {
                        **rhs.as_dict(), **lhs.as_dict(), "rv": rhs["v"]
                    },
                ),
                [("f", 0), ("m", 1)],
            ),
            # The two streams apart, for the queries over both.
            "fa": (FilterOp(lambda t: t.stream == "a"), ["f"]),
            "fb": (FilterOp(lambda t: t.stream == "b"), ["f"]),
        }
        # Compiled plans with one route from each stream to the output,
        # covering the planner's own operators: name -> (query, feeds).
        queries = {
            "q_select": (
                compile_query("SELECT v, v * 2 AS d FROM s WHERE v > 5"),
                {"s": ["f"]},
            ),
            "q_istream": (
                compile_query(
                    "SELECT ISTREAM v, count(*) AS n "
                    "FROM s [Range By '2 sec'] GROUP BY v"
                ),
                {"s": ["f"]},
            ),
            "q_join": (
                compile_query(
                    "SELECT l.v AS x FROM a l [Range By '1 sec'], "
                    "b r [Range By '1 sec'] WHERE l.v = r.v"
                ),
                {"a": ["fa"], "b": ["fb"]},
            ),
            "q_outer": (
                compile_query(
                    "SELECT 'seen' AS event FROM "
                    "(SELECT count(*) AS c FROM a [Range By 'NOW']) p, "
                    "(SELECT count(*) AS c FROM b [Range By 'NOW']) q "
                    "WHERE coalesce(p.c, 0) + coalesce(q.c, 0) >= 2"
                ),
                {"a": ["fa"], "b": ["fb"]},
            ),
        }
        for name, (op, inputs) in graph.items():
            fjord.add_operator(
                name, _TupleAtATime(op) if wrap else op, inputs=inputs
            )
        outputs = list(graph)
        for name, (query, feeds) in queries.items():
            if wrap:
                query = CompiledQuery(
                    [(_TupleAtATime(op), edges) for op, edges in query.plan]
                )
            outputs.append(query.wire(fjord, name, feeds))
        union = UnionOp(output_stream="merged")
        fjord.add_operator(
            "u", _TupleAtATime(union) if wrap else union, inputs=outputs
        )
        sink = fjord.add_sink("out", inputs=["u"])
        return fjord, sink

    def test_batched_equals_tuple_at_a_time(self):
        ticks = [0.5 * i for i in range(80)]
        fast_fjord, fast_sink = self._build(wrap=False)
        fast_fjord.run(ticks)
        slow_fjord, slow_sink = self._build(wrap=True)
        slow_fjord.run(ticks)
        assert fast_sink.results == slow_sink.results
        assert fast_fjord.stats() == slow_fjord.stats()

    def test_batched_telemetry_totals_match(self):
        from repro.streams.telemetry import InMemoryCollector

        ticks = [0.5 * i for i in range(80)]
        totals = []
        for wrap in (False, True):
            collector = InMemoryCollector()
            fjord, _sink = self._build(wrap=wrap)
            fjord.run(ticks, telemetry=collector)
            snapshot = collector.snapshot()
            totals.append({
                name: (entry["tuples_in"], entry["tuples_out"])
                for name, entry in snapshot["operators"].items()
            })
        assert totals[0] == totals[1]


class TestOneDataEntryPoint:
    """Structure: ``on_batch`` is what operators implement, ``on_tuple``
    exists once (on the base) — checked over every ``repro`` module."""

    def _operator_classes(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        found, stack = set(), [Operator]
        while stack:
            for cls in stack.pop().__subclasses__():
                if cls.__module__.startswith("repro."):
                    found.add(cls)
                stack.append(cls)
        return sorted(found, key=lambda cls: cls.__qualname__)

    def test_no_operator_overrides_on_tuple_and_all_define_on_batch(self):
        classes = self._operator_classes()
        assert len(classes) >= 15
        for cls in classes:
            assert "on_tuple" not in vars(cls), cls
            assert cls.on_batch is not Operator.on_batch, cls


class TestFjordInternalsStayInFjord:
    """Structure: no module under ``repro`` but ``streams/fjord.py``
    reads a private member of :class:`Fjord` or :class:`FjordSession`
    — a compiled plan, the processor and the network layer reach the
    executor through its public surface only."""

    def _private_members(self, tree):
        """The private names the two classes define: their methods and
        the attributes their methods set or read on ``self``."""
        names = set()
        for cls in tree.body:
            if not (
                isinstance(cls, ast.ClassDef)
                and cls.name in ("Fjord", "FjordSession")
            ):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    name = node.attr
                else:
                    continue
                if name.startswith("_") and not name.endswith("__"):
                    names.add(name)
        return names

    def test_no_module_reads_fjord_private_members(self):
        import repro

        root = pathlib.Path(repro.__file__).parent
        fjord_py = root / "streams" / "fjord.py"
        private = self._private_members(ast.parse(fjord_py.read_text()))
        assert {"_nodes", "_sources", "_source_edges", "_drain_node",
                "_sweep", "_topological_order", "_queues"} <= private
        reads = []
        for path in sorted(root.rglob("*.py")):
            if path == fjord_py:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in private
                    and not (
                        isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls")
                    )
                ):
                    reads.append(
                        f"{path.relative_to(root)}:{node.lineno} "
                        f"{ast.unparse(node)}"
                    )
        assert reads == []
