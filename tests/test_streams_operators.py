"""Unit tests for the relational stream operators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OperatorError, PipelineError, SchemaError
from repro.streams.aggregates import AggregateSpec
from repro.streams.operators import (
    ChainOp,
    FilterOp,
    GroupKey,
    MapOp,
    Operator,
    SinkOp,
    StaticJoinOp,
    UnionOp,
    WindowedGroupByOp,
    WindowJoinOp,
    run_operator,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import BaseWindow, WindowSpec


def tup(ts, stream="s", **fields):
    return StreamTuple(ts, fields, stream)


class TestFilterMap:
    def test_filter_keeps_matching(self):
        op = FilterOp(lambda t: t["v"] > 2)
        assert op.on_tuple(tup(0, v=3)) == [tup(0, v=3)]
        assert op.on_tuple(tup(0, v=1)) == []

    def test_filter_on_time_is_empty(self):
        assert FilterOp(lambda t: True).on_time(1.0) == []

    def test_map_transforms(self):
        op = MapOp(lambda t: t.derive(values={"v": t["v"] * 2}))
        assert op.on_tuple(tup(0, v=2))[0]["v"] == 4

    def test_map_none_drops(self):
        assert MapOp(lambda t: None).on_tuple(tup(0, v=1)) == []

    def test_map_list_fans_out(self):
        op = MapOp(lambda t: [t, t])
        assert len(op.on_tuple(tup(0, v=1))) == 2

    def test_union_passthrough(self):
        assert UnionOp().on_tuple(tup(0, v=1)) == [tup(0, v=1)]

    def test_union_renames_stream(self):
        out = UnionOp(output_stream="merged").on_tuple(tup(0, stream="a", v=1))
        assert out[0].stream == "merged"


class TestStaticJoin:
    TABLE = [{"tag_id": "a", "sku": 1}, {"tag_id": "b", "sku": 2}]

    def test_inner_join_enriches(self):
        op = StaticJoinOp(
            self.TABLE, on=lambda t, row: t["tag_id"] == row["tag_id"]
        )
        out = op.on_tuple(tup(0, tag_id="a"))
        assert out[0]["sku"] == 1

    def test_inner_join_stream_fields_win(self):
        op = StaticJoinOp(
            [{"tag_id": "a", "v": "table"}],
            on=lambda t, row: t["tag_id"] == row["tag_id"],
        )
        out = op.on_tuple(tup(0, tag_id="a", v="stream"))
        assert out[0]["v"] == "stream"

    def test_semi_join_filters(self):
        op = StaticJoinOp(
            self.TABLE,
            on=lambda t, row: t["tag_id"] == row["tag_id"],
            how="semi",
        )
        assert op.on_tuple(tup(0, tag_id="a")) == [tup(0, tag_id="a")]
        assert op.on_tuple(tup(0, tag_id="zzz")) == []

    def test_anti_join(self):
        op = StaticJoinOp(
            self.TABLE,
            on=lambda t, row: t["tag_id"] == row["tag_id"],
            how="anti",
        )
        assert op.on_tuple(tup(0, tag_id="a")) == []
        assert len(op.on_tuple(tup(0, tag_id="zzz"))) == 1

    def test_unknown_mode(self):
        with pytest.raises(OperatorError):
            StaticJoinOp([], on=lambda t, r: True, how="outer")


class TestWindowedGroupBy:
    def build(self, **kwargs):
        defaults = dict(
            window=WindowSpec.range_by(5.0),
            keys=[GroupKey("shelf")],
            aggregates=[
                AggregateSpec(
                    "count",
                    argument=lambda t: t["tag_id"],
                    distinct=True,
                    output="n",
                )
            ],
        )
        defaults.update(kwargs)
        return WindowedGroupByOp(**defaults)

    def test_counts_distinct_per_group(self):
        items = [
            tup(0.0, shelf=0, tag_id="a"),
            tup(0.0, shelf=0, tag_id="a"),
            tup(0.0, shelf=1, tag_id="b"),
        ]
        out = run_operator(self.build(), items, [0.0])
        by_shelf = {t["shelf"]: t["n"] for t in out}
        assert by_shelf == {0: 1, 1: 1}

    def test_window_eviction_reduces_count(self):
        items = [tup(0.0, shelf=0, tag_id="a"), tup(3.0, shelf=0, tag_id="b")]
        out = run_operator(self.build(), items, [0.0, 3.0, 6.0])
        ns = [t["n"] for t in out]
        assert ns == [1, 2, 1]  # 'a' evicted by t=6

    def test_empty_group_emits_nothing_and_is_dropped(self):
        op = self.build()
        out = run_operator(op, [tup(0.0, shelf=0, tag_id="a")], [0.0, 10.0])
        assert len(out) == 1
        assert op._windows == {}  # state cleaned up after eviction

    def test_global_aggregate_with_no_keys(self):
        op = WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[],
            aggregates=[AggregateSpec("count", output="c")],
        )
        out = run_operator(op, [tup(0.0, v=1), tup(0.0, v=2)], [0.0])
        assert out[0]["c"] == 2

    def test_having_filters_rows(self):
        op = self.build(having=lambda row, _all: row["n"] >= 2)
        items = [
            tup(0.0, shelf=0, tag_id="a"),
            tup(0.0, shelf=0, tag_id="b"),
            tup(0.0, shelf=1, tag_id="c"),
        ]
        out = run_operator(op, items, [0.0])
        assert [t["shelf"] for t in out] == [0]

    def test_having_sees_all_rows(self):
        # keep only the group(s) with the max count — Query 3's pattern
        op = self.build(
            having=lambda row, rows: row["n"] >= max(r["n"] for r in rows)
        )
        items = [
            tup(0.0, shelf=0, tag_id="a"),
            tup(0.0, shelf=0, tag_id="b"),
            tup(0.0, shelf=1, tag_id="c"),
        ]
        out = run_operator(op, items, [0.0])
        assert [t["shelf"] for t in out] == [0]

    def test_emit_every_suppresses_off_cycle_output(self):
        op = self.build(emit_every=2.0)
        items = [tup(0.0, shelf=0, tag_id="a")]
        out = run_operator(op, items, [0.0, 1.0, 2.0])
        assert [t.timestamp for t in out] == [0.0, 2.0]

    def test_requires_keys_or_aggregates(self):
        with pytest.raises(OperatorError):
            WindowedGroupByOp(WindowSpec.range_by(5.0))

    def test_invalid_emit_every(self):
        with pytest.raises(OperatorError):
            self.build(emit_every=0.0)

    def test_output_stream_stamped(self):
        op = self.build(output_stream="cleaned")
        out = run_operator(op, [tup(0.0, shelf=0, tag_id="a")], [0.0])
        assert out[0].stream == "cleaned"


class TestPartitionBy:
    """One group-by keyed by partition emits what one group-by per
    partition would, partitions in ``str`` order, each row labelled
    with its partition."""

    LABELS = {"r2": "r2", "r10": "r10", "x": "r2"}
    ITEMS = [
        tup(0.0, "r2", shelf=0, tag_id="a"),
        tup(0.0, "x", shelf=0, tag_id="b"),
        tup(0.0, "r10", shelf=0, tag_id="a"),
        tup(0.0, "r10", shelf=1, tag_id="c"),
    ]

    def build(self, **kwargs):
        return TestWindowedGroupBy().build(output_stream="cleaned", **kwargs)

    def partitioned(self, **kwargs):
        op = self.build(**kwargs)
        op.partition_by(self.LABELS, owner="stage 'smooth'")
        return run_operator(op, self.ITEMS, [0.0])

    def per_partition(self, **kwargs):
        out = []
        for partition in sorted(set(self.LABELS.values())):
            items = [t for t in self.ITEMS if self.LABELS[t.stream] == partition]
            out += [
                row.derive(stream=partition)
                for row in run_operator(self.build(**kwargs), items, [0.0])
            ]
        return out

    def test_equals_one_operator_per_partition(self):
        out = self.partitioned()
        assert out == self.per_partition()
        assert [(t.stream, t["shelf"], t["n"]) for t in out] == [
            ("r10", 0, 1), ("r10", 1, 1), ("r2", 0, 2),
        ]

    def test_having_sees_only_its_partition(self):
        kwargs = dict(
            having=lambda row, rows: row["n"] >= max(r["n"] for r in rows)
        )
        out = self.partitioned(**kwargs)
        assert out == self.per_partition(**kwargs)
        assert [(t.stream, t["shelf"]) for t in out] == [
            ("r10", 0), ("r10", 1), ("r2", 0),
        ]

    def test_unknown_label_fails_closed(self):
        op = self.build()
        op.partition_by(self.LABELS, owner="stage 'smooth'")
        with pytest.raises(PipelineError, match="stage 'smooth'.*'r7'"):
            op.on_batch([tup(0.0, "r7", shelf=0, tag_id="a")])


def outcome(fn):
    """``("ok", value)``, or ``("raise", type, message)``."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raise", type(exc), str(exc))


KEY_LABELS = {"r1": "p1", "r2": "p2"}


def count_by(keys, partitioned=False, window=5.0):
    op = WindowedGroupByOp(
        WindowSpec.range_by(window),
        keys=keys,
        aggregates=[
            AggregateSpec("count", output="n"),
            AggregateSpec("count", field="a", distinct=True, output="d"),
        ],
    )
    if partitioned:
        op.partition_by(KEY_LABELS, owner="stage 'smooth'")
    return op


def key_of(keys, row, partitioned=False):
    """The key a group-by over ``keys`` files ``row`` under."""
    op = count_by(keys, partitioned)
    op.on_batch([row])
    return list(op._windows)


def opaque(keys):
    """``keys`` read through their extractors alone."""
    return [GroupKey(key.name, key.extractor) for key in keys]


#: Every key shape the toolkit and the planner build, and then some.
KEY_SHAPES = {
    "strict": [GroupKey("a")],
    "strict, renamed": [GroupKey("out", field="a")],
    "optional": [GroupKey("a", optional=True)],
    "constant": [GroupKey("value", value="ON")],
    "strict + optional": [GroupKey("a"), GroupKey("b", optional=True)],
    "optional + constant": [
        GroupKey("a", optional=True), GroupKey("value", value="ON")
    ],
    "mixed, constant inside": [
        GroupKey("b", optional=True), GroupKey("c", value=1), GroupKey("a")
    ],
    "constant first": [GroupKey("c", value=None), GroupKey("a")],
    "declared extractor": [
        GroupKey("a", lambda t: t.get("a", "dflt"), field="a"),
        GroupKey("b", optional=True),
    ],
}

NAN = float("nan")
ABSENT = object()
CELLS = st.sampled_from([ABSENT, None, NAN, 1, 1.0, True, "x", [1]])


@st.composite
def key_rows(draw, fields=("a", "b", "c")):
    values = {}
    for field in fields:
        cell = draw(CELLS)
        if cell is not ABSENT:
            values[field] = cell
    return values


class TestDeclaredKeys:
    """A group-by reads its key with one getter compiled from the keys'
    declarations; the extractors only decide rows lacking a declared
    field. Either way the key, the groups and every emitted row are
    those of the same keys read through their extractors alone."""

    @given(
        shape=st.sampled_from(sorted(KEY_SHAPES)),
        partitioned=st.booleans(),
        stream=st.sampled_from(sorted(KEY_LABELS)),
        values=key_rows(),
    )
    def test_compiled_key_is_the_extractors_key(
        self, shape, partitioned, stream, values
    ):
        keys = KEY_SHAPES[shape]
        row = StreamTuple(0.0, values, stream)
        got = outcome(lambda: key_of(keys, row, partitioned))
        want = outcome(lambda: key_of(opaque(keys), row, partitioned))
        assert got == want
        if got[0] == "ok" and all(
            key.constant or key.field in values for key in keys
        ):
            # No extractor decided it: the compiled read alone did.
            prefix = (KEY_LABELS[stream],) if partitioned else ()
            assert got[1] == [
                prefix + tuple(key.extractor(row) for key in keys)
            ]

    @given(
        shape=st.sampled_from(sorted(KEY_SHAPES)),
        partitioned=st.booleans(),
        rows=st.lists(
            st.tuples(
                st.integers(0, 6), st.sampled_from(sorted(KEY_LABELS)), key_rows()
            ),
            max_size=12,
        ),
    )
    def test_group_by_emits_what_opaque_keys_emit(
        self, shape, partitioned, rows
    ):
        keys = KEY_SHAPES[shape]
        items = [
            StreamTuple(float(ts), values, stream)
            for ts, stream, values in sorted(rows, key=lambda r: r[0])
        ]
        ticks = [float(t) for t in range(9)]

        def run(keys):
            return run_operator(count_by(keys, partitioned, 2.0), items, ticks)

        assert outcome(lambda: run(keys)) == outcome(lambda: run(opaque(keys)))

    def test_missing_strict_field_names_the_field(self):
        op = count_by([GroupKey("b", optional=True), GroupKey("a")])
        with pytest.raises(SchemaError, match="no field 'a'"):
            op.on_batch([tup(0.0, b=1)])

    def test_heads_are_no_state(self):
        op = count_by([GroupKey("a")])
        run_operator(op, [tup(0.0, a=1), tup(4.0, a=2)], [0.0, 4.0])
        assert list(op._heads) == [(1,), (2,)]
        assert set(op.checkpoint()) == {"_windows"}
        # An emptied group's head goes with it; a restore clears them.
        assert [t["a"] for t in op.on_time(5.5)] == [2]
        assert list(op._heads) == [(2,)]
        op.restore({"_windows": dict(op._windows)})
        assert op._heads == {}
        assert [t["a"] for t in op.on_time(6.0)] == [2]
        assert list(op._heads) == [(2,)]

    def test_kernels_read_the_window_in_place(self, monkeypatch):
        def copy(self):
            raise AssertionError("window copied")

        monkeypatch.setattr(BaseWindow, "contents", copy)
        op = WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[GroupKey("a")],
            aggregates=[AggregateSpec("avg", field="v", output="m")],
        )
        out = run_operator(op, [tup(0.0, a=1, v=1.0), tup(0.0, a=1, v=3.0)], [0.0])
        assert [t["m"] for t in out] == [2.0]

    @pytest.mark.parametrize(
        "key, text",
        [
            (GroupKey("tag_id"), "GroupKey(tag_id)"),
            (
                GroupKey("spatial_granule", optional=True),
                "GroupKey(spatial_granule, optional)",
            ),
            (GroupKey("value", value="ON"), "GroupKey(value='ON')"),
            (GroupKey("out", field="a"), "GroupKey(out, field='a')"),
            (
                GroupKey("g", len, field="a.g"),
                "GroupKey(g, field='a.g', extractor=len)",
            ),
            (GroupKey("bucket", lambda t: 0), "GroupKey(bucket, extractor=<lambda>)"),
        ],
    )
    def test_repr_says_what_a_key_reads(self, key, text):
        assert repr(key) == text

    def test_declared_forms(self):
        assert GroupKey("a").field == "a" and not GroupKey("a").opaque
        assert GroupKey("v", value=None).constant
        assert GroupKey("v", value=None).field is None
        assert GroupKey("b", lambda t: 0).opaque
        with pytest.raises(OperatorError, match="constant"):
            GroupKey("v", value=1, optional=True)
        with pytest.raises(OperatorError, match="optional"):
            GroupKey("v", lambda t: 0, optional=True)


class TestWindowJoin:
    def test_joins_matching_pairs_at_punctuation(self):
        op = WindowJoinOp(
            WindowSpec.range_by(5.0),
            WindowSpec.range_by(5.0),
            predicate=lambda row: row["k"] == row["rk"],
            combine=lambda lhs, rhs: {
                **rhs.as_dict(), **lhs.as_dict(), "rk": rhs["k"]
            },
        )
        op.on_tuple(tup(0.0, k=1, left="L"), port=0)
        op.on_tuple(tup(0.0, k=1, right="R"), port=1)
        op.on_tuple(tup(0.0, k=2, right="R2"), port=1)
        out = op.on_time(0.0)
        assert len(out) == 1
        assert out[0]["left"] == "L" and out[0]["right"] == "R"

    def test_left_fields_win_on_conflict(self):
        op = WindowJoinOp(WindowSpec.now(), WindowSpec.now())
        op.on_tuple(tup(0.0, v="left"), port=0)
        op.on_tuple(tup(0.0, v="right"), port=1)
        assert op.on_time(0.0)[0]["v"] == "left"

    def test_invalid_port(self):
        op = WindowJoinOp(WindowSpec.now(), WindowSpec.now())
        with pytest.raises(OperatorError):
            op.on_tuple(tup(0.0), port=2)

    def test_custom_combine(self):
        op = WindowJoinOp(
            WindowSpec.now(),
            WindowSpec.now(),
            combine=lambda lhs, rhs: {"sum": lhs["v"] + rhs["v"]},
            output_stream="joined",
        )
        op.on_tuple(tup(1.0, v=1), port=0)
        op.on_tuple(tup(1.0, v=2), port=1)
        (row,) = op.on_time(1.0)
        assert row.as_dict() == {"sum": 3}
        assert (row.timestamp, row.stream) == (1.0, "joined")

    def test_predicate_sees_the_joined_row(self):
        seen = []
        op = WindowJoinOp(
            WindowSpec.now(),
            WindowSpec.now(),
            predicate=lambda row: seen.append(row.as_dict()) or row["v"] > 1,
            combine=lambda lhs, rhs: {"v": lhs["v"] + rhs["v"]},
        )
        op.on_tuple(tup(0.0, v=0), port=0)
        op.on_tuple(tup(0.0, v=1), port=0)
        op.on_tuple(tup(0.0, v=1), port=1)
        assert [row["v"] for row in op.on_time(0.0)] == [2]
        assert seen == [{"v": 1}, {"v": 2}]


class TestChainAndSink:
    def test_chain_applies_in_order(self):
        chain = ChainOp(
            [
                MapOp(lambda t: t.derive(values={"v": t["v"] + 1})),
                FilterOp(lambda t: t["v"] > 1),
            ]
        )
        assert chain.on_tuple(tup(0, v=1))[0]["v"] == 2
        assert chain.on_tuple(tup(0, v=0)) == []

    def test_chain_on_time_pipes_stage_outputs_forward(self):
        group = WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[],
            aggregates=[AggregateSpec("count", output="c")],
        )
        chain = ChainOp([group, MapOp(lambda t: t.derive(values={"x": 9}))])
        chain.on_tuple(tup(0.0, v=1))
        out = chain.on_time(0.0)
        assert out[0]["c"] == 1 and out[0]["x"] == 9

    def test_chain_requires_stages(self):
        with pytest.raises(OperatorError):
            ChainOp([])

    def test_sink_collects_and_calls_back(self):
        seen = []
        sink = SinkOp(callback=seen.append)
        sink.on_tuple(tup(0, v=1))
        assert sink.results == [tup(0, v=1)]
        assert seen == [tup(0, v=1)]


class TestRunOperator:
    def test_delivers_tuples_before_matching_tick(self):
        op = WindowedGroupByOp(
            WindowSpec.now(),
            keys=[],
            aggregates=[AggregateSpec("count", output="c")],
        )
        out = run_operator(op, [tup(1.0, v=1)], [0.0, 1.0])
        assert [(t.timestamp, t["c"]) for t in out] == [(1.0, 1)]

    def test_sorts_input_by_timestamp(self):
        op = FilterOp(lambda t: True)
        out = run_operator(op, [tup(2.0, v=2), tup(1.0, v=1)], [2.0])
        assert [t.timestamp for t in out] == [1.0, 2.0]


class TestOneDataEntryPoint:
    """``on_batch`` is what operators implement; ``on_tuple`` exists
    once, on the base, as ``on_batch([item], port)``."""

    def test_on_tuple_is_a_one_tuple_batch(self):
        op = FilterOp(lambda t: t["v"] > 1)
        assert op.on_tuple(tup(0, v=2)) == op.on_batch([tup(0, v=2)])
        assert op.on_tuple(tup(0, v=1)) == []

    def test_base_on_batch_names_the_class(self):
        class Bare(Operator):
            pass

        with pytest.raises(NotImplementedError, match="Bare"):
            Bare().on_batch([tup(0, v=1)])
