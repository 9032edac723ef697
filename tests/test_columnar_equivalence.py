"""Differential harness: row ≡ columnar ≡ fused, kernel by kernel.

Three layers of equivalence proof, mirroring the sharding harness in
``test_shard_equivalence.py``:

1. **Kernel level** — every operator's ``on_column_batch`` must emit
   exactly the tuples its ``on_batch`` emits, for the same input rows,
   including operators that only have the materialize-and-delegate
   default.
2. **Dataflow level** — whole Fjord runs in ``row``, ``columnar`` and
   ``fused`` modes produce identical sink output and identical
   per-node flow counters (fusion expands its per-stage counters).
3. **Sharded level** — every backend × shard count × mode combination
   reproduces the sequential row run bit-for-bit.

Randomized inputs come from the same generators the sharding harness
uses (duplicate-heavy timestamps, key skew), via hypothesis when
installed and a seeded fallback otherwise; edge cases (empty batches,
single-tuple batches, mixed-schema unions) are pinned explicitly.
"""

from __future__ import annotations

import random

import pytest

from repro.streams.aggregates import AggregateSpec
from repro.streams.columnar import (
    AddFields,
    ColumnBatch,
    FieldCompare,
    SetStream,
)
from repro.streams.fjord import MODES, Fjord, FusedStatelessOp
from repro.streams.operators import (
    ChainOp,
    FilterOp,
    GroupKey,
    MapOp,
    SinkOp,
    StaticJoinOp,
    UnionOp,
    WindowedGroupByOp,
)
from repro.streams.shard import BACKENDS, run_sharded
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec
try:
    from tests.test_shard_equivalence import (
        SHARD_COUNTS,
        build_five_stage,
        build_stateless,
        make_trace,
        trace_ticks,
    )
except ImportError:  # pragma: no cover - direct file invocation
    from test_shard_equivalence import (
        SHARD_COUNTS,
        build_five_stage,
        build_stateless,
        make_trace,
        trace_ticks,
    )

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    HAVE_HYPOTHESIS = False

from repro.streams import typedcols


@pytest.fixture(params=["typed", "list"])
def column_storage(request):
    """Run the differential under both column storage classes.

    ``typed`` lowers ``min_rows`` to 1 so even this suite's tiny
    batches get numpy-backed numeric columns (a no-op without numpy —
    the param then covers the fallback twice, which is still the
    correct behaviour to pin). ``list`` forces the pure-list fallback
    the no-numpy CI leg gets.
    """
    if request.param == "typed":
        previous = typedcols.set_typed_columns(True, 1)
    else:
        previous = typedcols.set_typed_columns(False)
    yield request.param
    typedcols.set_typed_columns(*previous)


# -- kernel-level differential -------------------------------------------------

#: name → zero-arg factory building a fresh operator (operators are
#: stateful; each mode must drive its own instance).
KERNELS = {
    "filter_lambda": lambda: FilterOp(lambda t: t["value"] < 30.0),
    "filter_field_compare": lambda: FilterOp(
        FieldCompare("value", "<", 30.0)
    ),
    "map_lambda": lambda: MapOp(
        lambda t: t.derive(values={"doubled": t["value"] * 2.0})
    ),
    "map_dropping": lambda: MapOp(
        lambda t: t if t["value"] >= 10.0 else None
    ),
    "map_fanout": lambda: MapOp(lambda t: [t, t.derive(timestamp=t.timestamp)]),
    "map_add_fields": lambda: MapOp(AddFields({"granule": "g0", "lvl": 3})),
    "map_set_stream": lambda: MapOp(SetStream("renamed")),
    "union_plain": lambda: UnionOp(),
    "union_relabel": lambda: UnionOp(output_stream="merged"),
    "static_join_semi": lambda: StaticJoinOp(
        table=[{"spatial_granule": "granule0"}, {"spatial_granule": "granule2"}],
        on=lambda t, row: t.get("spatial_granule")
        == row["spatial_granule"],
        how="semi",
    ),
    "windowed_group_by": lambda: WindowedGroupByOp(
        WindowSpec.range_by(3.0),
        keys=[GroupKey("spatial_granule")],
        aggregates=[AggregateSpec("count", output="n")],
    ),
    "windowed_group_by_custom_key": lambda: WindowedGroupByOp(
        WindowSpec.range_by(3.0),
        keys=[GroupKey("bucket", extractor=lambda t: int(t["value"]) // 10)],
        aggregates=[AggregateSpec("count", output="n")],
    ),
    "windowed_global": lambda: WindowedGroupByOp(
        WindowSpec.range_by(4.0),
        aggregates=[
            AggregateSpec("avg", argument=lambda t: t["value"], output="v")
        ],
    ),
    "chain": lambda: ChainOp(
        [
            FilterOp(FieldCompare("value", ">=", 5.0)),
            MapOp(AddFields({"tag": "ok"})),
            UnionOp(output_stream="chained"),
        ]
    ),
    "sink": lambda: SinkOp(),
    "fused": lambda: FusedStatelessOp(
        [
            ("a", FilterOp(lambda t: t["value"] < 40.0)),
            ("b", MapOp(SetStream("fused"))),
            ("c", UnionOp(output_stream="done")),
        ]
    ),
}


def drive_row(op, batches, ticks):
    """Row-mode reference: on_batch per batch, on_time per tick."""
    out = []
    for batch in batches:
        out.extend(op.on_batch(list(batch)))
    for tick in ticks:
        out.extend(op.on_time(tick))
    return out


def drive_columnar(op, batches, ticks):
    """Columnar twin: identical delivery through on_column_batch."""
    out = []
    for batch in batches:
        produced = op.on_column_batch(ColumnBatch.from_tuples(list(batch)))
        out.extend(produced.tuples())
    for tick in ticks:
        out.extend(op.on_time(tick))
    return out


def batches_from(sources, sizes=(0, 1, 3, 7)):
    """Slice a trace's rows into batches of mixed sizes (incl. empty)."""
    rows = sorted(
        (t for items in sources.values() for t in items),
        key=lambda t: t.timestamp,
    )
    batches, index, cycle = [], 0, 0
    while index < len(rows):
        size = sizes[cycle % len(sizes)]
        cycle += 1
        batches.append(rows[index:index + size])
        index += size
    batches.append([])  # trailing empty delivery
    return batches


def assert_kernel_equivalent(name, sources):
    factory = KERNELS[name]
    batches = batches_from(sources)
    ticks = trace_ticks(sources)
    row_op, col_op = factory(), factory()
    row_out = drive_row(row_op, batches, ticks)
    col_out = drive_columnar(col_op, batches, ticks)
    assert col_out == row_out, f"kernel {name!r} diverged"
    assert [t.stream for t in col_out] == [t.stream for t in row_out]
    assert [t.as_dict() for t in col_out] == [t.as_dict() for t in row_out]
    if isinstance(row_op, SinkOp):
        assert col_op.results == row_op.results


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel(self, name, seed, column_storage):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=60, n_sources=2)
        assert_kernel_equivalent(name, sources)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_on_empty_and_singleton(self, name):
        factory = KERNELS[name]
        single = [
            StreamTuple(
                0.5, {"spatial_granule": "granule0", "value": 7.0, "seq": 0}
            )
        ]
        for batches in ([[]], [single], [[], single, []]):
            row_op, col_op = factory(), factory()
            assert drive_columnar(col_op, batches, [1.0, 2.0]) == drive_row(
                row_op, batches, [1.0, 2.0]
            )

    def test_mixed_schema_union_batches(self):
        """Union over streams with disjoint fields — the MISSING path."""
        rows_a = [
            StreamTuple(float(i), {"temp": 20.0 + i}, "motes") for i in range(4)
        ]
        rows_b = [
            StreamTuple(float(i) + 0.25, {"tag_id": f"T{i}"}, "rfid")
            for i in range(4)
        ]
        batches = [rows_a, rows_b, rows_a[:1] + rows_b[:1]]
        for name in ("union_plain", "union_relabel", "sink"):
            row_op, col_op = KERNELS[name](), KERNELS[name]()
            assert drive_columnar(col_op, batches, []) == drive_row(
                row_op, batches, []
            )

    def test_windowed_group_by_partial_key_column(self):
        """Rows missing the key field must fail identically in both modes."""
        from repro.errors import SchemaError

        rows = [
            StreamTuple(0.0, {"spatial_granule": "g", "value": 1.0}),
            StreamTuple(1.0, {"value": 2.0}),  # key field absent
        ]
        row_op, col_op = (
            KERNELS["windowed_group_by"](),
            KERNELS["windowed_group_by"](),
        )
        with pytest.raises(SchemaError) as row_err:
            row_op.on_batch(rows)
        with pytest.raises(SchemaError) as col_err:
            col_op.on_column_batch(ColumnBatch.from_tuples(rows))
        assert str(col_err.value) == str(row_err.value)


# -- dataflow-level differential -----------------------------------------------


def run_mode(build, sources, ticks, mode):
    fjord, sink = build(sources)
    fjord.run(ticks, mode=mode)
    return sink.results, fjord.stats()


def assert_modes_equivalent(build, sources, ticks):
    reference, ref_stats = run_mode(build, sources, ticks, "row")
    for mode in ("columnar", "fused"):
        output, stats = run_mode(build, sources, ticks, mode)
        assert output == reference, f"mode {mode!r} output diverged"
        assert [t.stream for t in output] == [t.stream for t in reference]
        assert stats == ref_stats, f"mode {mode!r} counters diverged"


class TestDataflowEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_five_stage(self, seed, column_storage):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=120)
        assert_modes_equivalent(
            build_five_stage, sources, trace_ticks(sources)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stateless(self, seed, column_storage):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=150, n_sources=3)
        assert_modes_equivalent(
            build_stateless, sources, trace_ticks(sources)
        )

    def test_empty_sources(self):
        assert_modes_equivalent(
            build_five_stage, {"src0": [], "src1": []}, [0.0, 1.0, 2.0]
        )

    def test_single_tuple_source(self):
        sources = {
            "src0": [
                StreamTuple(
                    0.5,
                    {"spatial_granule": "granule1", "value": 5.0, "seq": 0},
                    "src0",
                )
            ],
            "src1": [],
        }
        assert_modes_equivalent(build_five_stage, sources, [0.0, 1.0, 2.0])

    def test_duplicate_timestamps_heavy(self):
        rng = random.Random(5)
        sources = make_trace(rng, n_tuples=80, duplicate_rate=0.95)
        assert_modes_equivalent(
            build_five_stage, sources, trace_ticks(sources)
        )

    def test_fusion_collapses_stateless_run(self):
        """The stateless pipeline's filter→map run actually fuses, and
        its stats still report the original node names exactly."""
        rng = random.Random(7)
        sources = make_trace(rng, n_tuples=50)
        ticks = trace_ticks(sources)
        reference, ref_stats = run_mode(build_stateless, sources, ticks, "row")
        fjord, sink = build_stateless(sources)
        assert fjord.fuse() > 0  # at least one node eliminated
        fjord.run(ticks, mode="fused")
        assert sink.results == reference
        assert fjord.stats() == ref_stats

    def test_unknown_mode_rejected(self):
        from repro.errors import OperatorError

        fjord, _sink = build_stateless({"src0": []})
        with pytest.raises(OperatorError, match="unknown execution mode"):
            fjord.run([0.0], mode="simd")


# -- sharded differential ------------------------------------------------------


class TestShardedModes:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_mode_matrix(self, backend, mode):
        rng = random.Random(23)
        sources = make_trace(rng, n_tuples=90)
        ticks = trace_ticks(sources)
        reference, ref_stats = run_mode(
            build_five_stage, sources, ticks, "row"
        )
        for shards in SHARD_COUNTS:
            sharded = run_sharded(
                sources,
                build_five_stage,
                ticks,
                shards=shards,
                backend=backend,
                mode=mode,
            )
            assert sharded.output == reference, (backend, shards, mode)
            assert sharded.stats == ref_stats, (backend, shards, mode)


# -- property-based sweep ------------------------------------------------------

if HAVE_HYPOTHESIS:

    @st.composite
    def traces(draw):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        n_tuples = draw(st.integers(min_value=0, max_value=60))
        n_keys = draw(st.integers(min_value=1, max_value=6))
        duplicate_rate = draw(st.sampled_from((0.0, 0.3, 0.9)))
        rng = random.Random(seed)
        return make_trace(
            rng,
            n_tuples=n_tuples,
            keys=tuple(f"k{i}" for i in range(n_keys)),
            duplicate_rate=duplicate_rate,
        )

    class TestPropertyBased:
        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            sources=traces(),
            mode=st.sampled_from(("columnar", "fused")),
            shards=st.sampled_from(SHARD_COUNTS),
            backend=st.sampled_from(BACKENDS),
        )
        def test_modes_and_shards_equal_row(
            self, sources, mode, shards, backend
        ):
            ticks = trace_ticks(sources)
            reference, ref_stats = run_mode(
                build_five_stage, sources, ticks, "row"
            )
            output, stats = run_mode(build_five_stage, sources, ticks, mode)
            assert output == reference
            assert stats == ref_stats
            sharded = run_sharded(
                sources,
                build_five_stage,
                ticks,
                shards=shards,
                backend=backend,
                mode=mode,
            )
            assert sharded.output == reference
            assert sharded.stats == ref_stats

        @settings(
            max_examples=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            sources=traces(),
            name=st.sampled_from(sorted(KERNELS)),
        )
        def test_kernels_differentially(self, sources, name):
            assert_kernel_equivalent(name, sources)

else:  # pragma: no cover - exercised only without hypothesis installed

    class TestPropertyBased:
        @pytest.mark.parametrize("seed", range(25))
        def test_modes_and_shards_equal_row(self, seed):
            rng = random.Random(seed)
            sources = make_trace(
                rng,
                n_tuples=rng.randrange(0, 60),
                keys=tuple(f"k{i}" for i in range(rng.randrange(1, 7))),
                duplicate_rate=rng.choice((0.0, 0.3, 0.9)),
            )
            ticks = trace_ticks(sources)
            mode = rng.choice(("columnar", "fused"))
            reference, ref_stats = run_mode(
                build_five_stage, sources, ticks, "row"
            )
            output, stats = run_mode(build_five_stage, sources, ticks, mode)
            assert output == reference
            assert stats == ref_stats
            sharded = run_sharded(
                sources,
                build_five_stage,
                ticks,
                shards=rng.choice(SHARD_COUNTS),
                backend=rng.choice(BACKENDS),
                mode=mode,
            )
            assert sharded.output == reference
            assert sharded.stats == ref_stats

        @pytest.mark.parametrize("seed", range(20))
        def test_kernels_differentially(self, seed):
            rng = random.Random(seed)
            sources = make_trace(rng, n_tuples=rng.randrange(0, 60))
            assert_kernel_equivalent(rng.choice(sorted(KERNELS)), sources)
