"""Differential harness: an operator's column kernel ≡ its row kernel.

The row kernels are the reference and nothing selects an executor; the
drain picks a kernel per run (``fjord.COLUMN_MIN_ROWS``), so the
differential is between *graphs* and between *thresholds*, mirroring
the sharding harness in ``test_shard_equivalence.py``:

1. **Kernel level** — every operator, handed a ``ColumnBatch`` payload
   by the drain, emits exactly what its ``on_batch`` emits for the same
   rows: through ``on_column_batch`` when it has a column kernel (for
   every vectorizable callable, the shipped ones and a hand-written
   map and mask), as flattened rows when it has none.
2. **Graph level** — a dataflow built from vectorizable callables
   equals the same dataflow with every callable hidden behind a plain
   lambda (no hook, so row kernels by construction) in sink output,
   ``stats()``, telemetry snapshot and event log — with the threshold
   patched to 1 (every run at a node with a kernel takes it), at its
   shipped value over short and long runs, and at a value no run
   reaches — sequentially and on every backend × shard count.
3. **Hand-offs** — the places a run changes representation: a batch
   reaching a row-only node, a fan-out with a consumer of each kind, a
   run mixing source tuples, a list and a batch, a long run of two
   schemas (no batch: the row kernel takes it), a filter shrinking a
   batch below the threshold, a checkpoint taken mid-run.

Randomized inputs come from the sharding harness's generators
(duplicate-heavy timestamps, key skew) and, for the kernels, from
hypothesis rows of one drawn schema with NaN, signed zeros, huge ints,
strings and ``None``; edge cases (empty batches, single-tuple batches)
are pinned explicitly.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.errors import SchemaError
from repro.streams import typedcols
from repro.streams.aggregates import AggregateSpec
from repro.streams.columnar import (
    AddFields,
    ColumnBatch,
    FieldCompare,
    SetStream,
)
from repro.streams.fjord import MODES, Fjord
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
from repro.streams.telemetry import InMemoryCollector
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
    from tests.test_telemetry import _scrub_wall_clock
except ImportError:  # pragma: no cover - direct file invocation
    from test_shard_equivalence import (
        SHARD_COUNTS,
        build_five_stage,
        build_stateless,
        make_trace,
        trace_ticks,
    )
    from test_telemetry import _scrub_wall_clock

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    HAVE_HYPOTHESIS = False


@pytest.fixture(params=["typed", "list"])
def storage(request, column_storage):
    """Run the differential under both column storages (see
    ``column_storage`` in conftest.py)."""
    column_storage(request.param)
    return request.param


# -- kernel-level differential -------------------------------------------------


class StampRank:
    """A map function with a hand-written column kernel: each row's
    timestamp as field ``rank``."""

    def __call__(self, item):
        return item.derive(values={"rank": item.timestamp})

    def columnar(self, batch):
        columns = {**batch.columns, "rank": list(batch.timestamps)}
        return ColumnBatch(batch.timestamps, batch.streams, columns)


class HasValue:
    """A predicate with a hand-written mask: ``value`` is present and
    not ``None``."""

    def __call__(self, item):
        return item.get("value") is not None

    def mask(self, batch):
        column = batch.columns.get("value")
        if column is None:
            return [False] * len(batch)
        return [v is not None for v in typedcols.to_list(column)]


#: The vectorizable callables, by the operator kind they drive: the
#: shipped ones and a hand-written one of each kind.
COLUMN_MAPS = {
    "add_fields": lambda: AddFields({"granule": "g0", "lvl": 3}),
    "set_stream": lambda: SetStream("renamed"),
    "column_map": StampRank,
}
COLUMN_PREDICATES = {
    "field_compare": lambda: FieldCompare("value", "<", 30.0),
    "column_predicate": HasValue,
}

#: name → zero-arg factory building a fresh operator (operators are
#: stateful; the reference and the candidate drive their own instance).
KERNELS = {
    "filter_lambda": lambda: FilterOp(lambda t: t["value"] < 30.0),
    "filter_field_compare": lambda: FilterOp(
        COLUMN_PREDICATES["field_compare"]()
    ),
    "filter_column_predicate": lambda: FilterOp(
        COLUMN_PREDICATES["column_predicate"]()
    ),
    "map_lambda": lambda: MapOp(
        lambda t: t.derive(values={"doubled": t["value"] * 2.0})
    ),
    "map_dropping": lambda: MapOp(
        lambda t: t if t["value"] >= 10.0 else None
    ),
    "map_fanout": lambda: MapOp(lambda t: [t, t.derive(timestamp=t.timestamp)]),
    "map_add_fields": lambda: MapOp(COLUMN_MAPS["add_fields"]()),
    "map_set_stream": lambda: MapOp(COLUMN_MAPS["set_stream"]()),
    "map_column_map": lambda: MapOp(COLUMN_MAPS["column_map"]()),
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
    "chain_nested": lambda: ChainOp(
        [ChainOp([MapOp(SetStream("inner")), UnionOp()]), UnionOp("outer")]
    ),
    "sink": lambda: SinkOp(),
    # Three stateless stages fused into one node by hand; the lambda
    # stage has no mask, so the chain as a whole has no column kernel.
    "fused": lambda: ChainOp(
        [
            FilterOp(lambda t: t["value"] < 40.0),
            MapOp(SetStream("fused")),
            UnionOp(output_stream="done"),
        ]
    ),
}

#: The KERNELS entries that own a column kernel; every other entry must
#: report none and be handed rows.
HAVE_COLUMN_KERNEL = {
    "filter_field_compare",
    "filter_column_predicate",
    "map_add_fields",
    "map_set_stream",
    "map_column_map",
    "union_plain",
    "union_relabel",
}


class DrainedNode:
    """One operator wired into a Fjord, fed through the real drain."""

    def __init__(self, op):
        self.fjord = Fjord()
        self.fjord.add_operator("op", op, inputs=[])
        self.sink = self.fjord.add_sink("out", inputs=["op"])

    def deliver(self, *payloads, port=0):
        """Queue ``payloads`` as one same-port run; return what it emits."""
        node = self.fjord._nodes["op"]
        node.pending.extend((payload, port) for payload in payloads)
        mark = len(self.sink.results)
        self.fjord._drain_node(node)
        self.fjord._drain_node(self.fjord._nodes["out"])
        return self.sink.results[mark:]


def drive_row(op, batches, ticks):
    """The reference: on_batch per batch, on_time per tick."""
    out = []
    for batch in batches:
        out.extend(op.on_batch(list(batch)))
    for tick in ticks:
        out.extend(op.on_time(tick))
    return out


def drive_drained(op, batches, ticks):
    """The same deliveries, each as a ColumnBatch payload at the drain."""
    node = DrainedNode(op)
    out = []
    for batch in batches:
        out.extend(node.deliver(ColumnBatch.from_tuples(list(batch))))
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


def assert_kernel_equivalent(name, batches, ticks):
    factory = KERNELS[name]
    row_op, col_op = factory(), factory()
    assert (col_op.column_kernel() is not None) == (
        name in HAVE_COLUMN_KERNEL
    ), f"{name!r} misreports whether it has a column kernel"
    row_out = drive_row(row_op, batches, ticks)
    col_out = drive_drained(col_op, batches, ticks)
    assert col_out == row_out, f"kernel {name!r} diverged"
    assert [t.stream for t in col_out] == [t.stream for t in row_out]
    assert [t.as_dict() for t in col_out] == [t.as_dict() for t in row_out]
    if isinstance(row_op, SinkOp):
        assert col_op.results == row_op.results
    if name in HAVE_COLUMN_KERNEL:
        # The kernel itself, without the drain in between.
        direct = factory()
        for batch in batches:
            encoded = ColumnBatch.from_tuples(list(batch))
            assert direct.on_column_batch(encoded).tuples() == direct.on_batch(
                list(batch)
            )


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel(self, name, seed, storage):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=60, n_sources=2)
        assert_kernel_equivalent(
            name, batches_from(sources), trace_ticks(sources)
        )

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_on_empty_and_singleton(self, name):
        single = [
            StreamTuple(
                0.5, {"spatial_granule": "granule0", "value": 7.0, "seq": 0}
            )
        ]
        for batches in ([[]], [single], [[], single, []]):
            assert_kernel_equivalent(name, batches, [1.0, 2.0])


# -- graph-level differential --------------------------------------------------


def hidden(fn):
    """``fn`` with its column hook out of sight: a plain lambda exposes
    no ``mask``/``columnar``/``rows``, so the operator holding it has no
    column kernel and calls it per tuple — the reference."""
    return lambda item: fn(item)


def build_vectorized(sources, wrap=lambda fn: fn):
    """Every vectorizable callable in one dataflow, around a windowed core.

    annotate (AddFields) → point (FieldCompare) → scale (StampRank) →
    keep (HasValue) → relabel (a row-only ChainOp of SetStream + union),
    which fans out to a row-only consumer — smooth (windowed group-by)
    → post (AddFields, fed punctuation output) → virtualize (union
    rename) → sink — and to a column consumer, tapmap (SetStream),
    whose output meets ``keep``'s in one run at the union feeding the
    ``tap`` sink. ``wrap=hidden`` builds the row-kernel reference.
    """
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator(
        "annot", MapOp(wrap(AddFields({"site": "lab"}))), inputs=list(sources)
    )
    fjord.add_operator(
        "point", FilterOp(wrap(FieldCompare("value", "<", 48.0))),
        inputs=["annot"],
    )
    fjord.add_operator(
        "scale", MapOp(wrap(StampRank())),
        inputs=["point"],
    )
    fjord.add_operator(
        "keep", FilterOp(wrap(HasValue())),
        inputs=["scale"],
    )
    fjord.add_operator(
        "relabel",
        ChainOp([MapOp(wrap(SetStream("pre"))), UnionOp()]),
        inputs=["keep"],
    )
    fjord.add_operator(
        "smooth",
        WindowedGroupByOp(
            WindowSpec.range_by(3.0),
            keys=[GroupKey("spatial_granule")],
            aggregates=[
                AggregateSpec("count", output="count"),
                AggregateSpec(
                    "avg", argument=lambda t: t["value"], output="value"
                ),
            ],
        ),
        inputs=["relabel"],
    )
    fjord.add_operator(
        "post", MapOp(wrap(AddFields({"attributed": True}))), inputs=["smooth"]
    )
    fjord.add_operator(
        "virtualize", UnionOp(output_stream="cleaned"), inputs=["post"]
    )
    sink = fjord.add_sink("out", inputs=["virtualize"])
    fjord.add_operator(
        "tapmap", MapOp(wrap(SetStream("tap"))), inputs=["relabel"]
    )
    fjord.add_operator("tapped", UnionOp(), inputs=["keep", "tapmap"])
    fjord.add_sink("tap", inputs=["tapped"])
    return fjord, sink


def build_hidden(sources):
    return build_vectorized(sources, wrap=hidden)


#: The threshold regimes the graph differential runs under (see
#: ``kernel_regime`` in conftest.py): every run at a node with a kernel
#: takes it, the shipped rule, and no run ever does.
REGIMES = ("columnar", "fused", "row")


def run_graph(build, sources, ticks, telemetry=None):
    fjord, sink = build(sources)
    fjord.run(ticks, telemetry=telemetry)
    tap = fjord._nodes["tap"].op.results if "tap" in fjord._nodes else []
    return sink.results, tap, fjord.stats()


def row_reference(kernel_regime, build, sources, ticks, telemetry=None):
    """``build``'s run with no run long enough for a column kernel."""
    kernel_regime("row")
    return run_graph(build, sources, ticks, telemetry)


def assert_same_run(candidate, reference, label):
    output, tap, stats = candidate
    ref_output, ref_tap, ref_stats = reference
    assert output == ref_output, f"{label}: output diverged"
    assert [t.stream for t in output] == [t.stream for t in ref_output]
    assert tap == ref_tap, f"{label}: tap diverged"
    assert stats == ref_stats, f"{label}: counters diverged"


def assert_regimes_equivalent(kernel_regime, sources, ticks):
    """The vectorized graph under every regime ≡ the hidden graph's
    row kernels, down to the telemetry snapshot and the event log."""
    ref_collector = InMemoryCollector()
    reference = row_reference(
        kernel_regime, build_hidden, sources, ticks, ref_collector
    )
    ref_snapshot = _scrub_wall_clock(ref_collector.snapshot())
    for regime in REGIMES:
        kernel_regime(regime)
        collector = InMemoryCollector()
        candidate = run_graph(build_vectorized, sources, ticks, collector)
        assert_same_run(candidate, reference, regime)
        snapshot = _scrub_wall_clock(collector.snapshot())
        assert snapshot["events"] == ref_snapshot["events"], regime
        assert snapshot == ref_snapshot, regime


class TestDataflowEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_five_stage(self, seed, storage, kernel_regime):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=120)
        assert_regimes_equivalent(
            kernel_regime, sources, trace_ticks(sources)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stateless(self, seed, storage, kernel_regime):
        """The lambda-only pipelines have one node with a kernel (the
        union) or none: every threshold is the row path, unchanged."""
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=150, n_sources=3)
        ticks = trace_ticks(sources)
        for build in (build_stateless, build_five_stage):
            reference = row_reference(kernel_regime, build, sources, ticks)
            for regime in REGIMES:
                kernel_regime(regime)
                assert_same_run(
                    run_graph(build, sources, ticks), reference, regime
                )

    @pytest.mark.parametrize("period", [5.0, 80.0])
    def test_shipped_threshold_on_short_and_long_runs(
        self, period, storage, kernel_regime
    ):
        """Ticks 5 s apart give the annotate node ≈20-row runs (all
        below the shipped threshold), 80 s apart ≈300-row runs (above
        it but for the lone tuple at t=0; two batches meet at ``tapped``)."""
        rng = random.Random(11)
        sources = make_trace(rng, n_tuples=400)
        ticks = trace_ticks(sources, period=period)
        collector = InMemoryCollector()
        run_graph(build_vectorized, sources, ticks, collector)
        runs = [
            event["n_in"]
            for event in collector.snapshot()["events"]
            if event["kind"] == "batch_drain" and event["node"] == "annot"
        ]
        long_share = sum(n for n in runs if n >= 64) / sum(runs)
        assert long_share == 0.0 if period == 5.0 else long_share > 0.99
        assert_regimes_equivalent(kernel_regime, sources, ticks)

    def test_empty_sources(self, kernel_regime):
        assert_regimes_equivalent(
            kernel_regime, {"src0": [], "src1": []}, [0.0, 1.0, 2.0]
        )

    def test_single_tuple_source(self, kernel_regime):
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
        assert_regimes_equivalent(kernel_regime, sources, [0.0, 1.0, 2.0])

    def test_duplicate_timestamps_heavy(self, kernel_regime):
        rng = random.Random(5)
        sources = make_trace(rng, n_tuples=80, duplicate_rate=0.95)
        assert_regimes_equivalent(
            kernel_regime, sources, trace_ticks(sources)
        )

    def test_unknown_mode_rejected(self):
        from repro.errors import OperatorError

        fjord, _sink = build_stateless({"src0": []})
        with pytest.raises(OperatorError, match="unknown execution mode"):
            fjord.run([0.0], mode="simd")

    def test_every_mode_value_runs_the_one_path(self):
        """``mode=`` is accepted and ignored: same calls, same result."""
        rng = random.Random(3)
        sources = make_trace(rng, n_tuples=200)
        ticks = trace_ticks(sources, period=80.0)
        reference = run_graph(build_vectorized, sources, ticks)
        for mode in (None, *MODES):
            fjord, sink = build_vectorized(sources)
            fjord.run(ticks, mode=mode)
            assert (sink.results, fjord.stats()) == (reference[0], reference[2])


# -- sharded differential ------------------------------------------------------


class TestShardedModes:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_mode_matrix(self, backend, mode, kernel_regime):
        """Every backend × shard count reproduces the sequential row
        kernels under each regime (``kernel_regime`` in conftest.py);
        per-shard runs are shorter, so under the shipped rule shards
        of one run mix both kernels."""
        rng = random.Random(23)
        sources = make_trace(rng, n_tuples=300)
        ticks = trace_ticks(sources, period=40.0)
        reference, _tap, ref_stats = row_reference(
            kernel_regime, build_hidden, sources, ticks
        )
        kernel_regime(mode)
        for shards in SHARD_COUNTS:
            sharded = run_sharded(
                sources,
                build_vectorized,
                ticks,
                shards=shards,
                backend=backend,
            )
            assert sharded.output == reference, (backend, shards, mode)
            assert sharded.stats == ref_stats, (backend, shards, mode)


# -- hand-offs -----------------------------------------------------------------


def _rows(n, start=0.0):
    return [
        StreamTuple(
            start + 0.01 * i,
            {"spatial_granule": f"granule{i % 3}", "value": float(i), "seq": i},
            "src0",
        )
        for i in range(n)
    ]


class Spying:
    """Logs which of the operator's kernels each run reached."""

    def __init__(self, fn):
        super().__init__(fn)
        self.calls = []

    def on_batch(self, items, port=0):
        self.calls.append(("rows", len(items)))
        return super().on_batch(items, port)

    def on_column_batch(self, batch, port=0):
        self.calls.append(("batch", len(batch)))
        return super().on_column_batch(batch, port)


class KernelSpy(Spying, MapOp):
    """A map that logs which of its kernels each run reached."""


class FilterSpy(Spying, FilterOp):
    """A filter that logs which of its kernels each run reached."""


class TestHandOffs:
    def test_batch_reaching_row_only_node_becomes_rows_once(self):
        rows = _rows(5)
        batch = ColumnBatch.from_tuples(rows)
        seen = []

        class Probe(SinkOp):
            def on_batch(self, items, port=0):
                seen.append(items)
                return super().on_batch(items, port)

        probe = Probe()
        assert DrainedNode(probe).deliver(batch) == []
        assert seen == [rows] and type(seen[0]) is list
        assert seen[0] is not batch.tuples()  # borrowed rows are copied
        assert probe.results == rows

    def test_fan_out_with_one_consumer_of_each_kind(self, kernel_regime):
        kernel_regime("columnar")
        rows = _rows(6)
        fjord = Fjord()
        fjord.add_source("src", rows)
        fjord.add_operator("up", MapOp(AddFields({"k": 1})), inputs=["src"])
        spy = KernelSpy(SetStream("col"))
        fjord.add_operator("col", spy, inputs=["up"])
        col_sink = fjord.add_sink("col_out", inputs=["col"])
        fjord.add_operator(
            "row", MapOp(lambda t: t.derive(stream="row")), inputs=["up"]
        )
        row_sink = fjord.add_sink("row_out", inputs=["row"])
        fjord.run([1.0])
        expected = [t.derive(values={"k": 1}) for t in rows]
        assert spy.calls == [("batch", 6)]
        assert col_sink.results == [t.derive(stream="col") for t in expected]
        assert row_sink.results == [t.derive(stream="row") for t in expected]

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("name", ["map_add_fields", "windowed_group_by"])
    def test_run_mixing_tuples_a_list_and_a_batch(
        self, name, regime, kernel_regime
    ):
        kernel_regime(regime)
        rows = _rows(9)
        row_op, col_op = KERNELS[name](), KERNELS[name]()
        mixed = DrainedNode(col_op).deliver(
            rows[0], rows[1], rows[2:5], ColumnBatch.from_tuples(rows[5:8]),
            rows[8],
        )
        assert mixed == row_op.on_batch(rows)
        assert col_op.on_time(1.0) == row_op.on_time(1.0)

    def test_run_of_two_schemas_takes_the_row_kernel(self, kernel_regime):
        """Two sources of different fields meet at a filter in one run
        long enough for its column kernel. The rows share no schema, so
        the run is no batch: the row kernel takes it whole, and the
        output and counters are the row regime's."""
        motes = [
            StreamTuple(0.01 * i, {"value": float(i), "seq": i}, "motes")
            for i in range(40)
        ]
        rfid = [
            StreamTuple(0.01 * i, {"value": float(i), "tag_id": f"T{i}"}, "rfid")
            for i in range(40)
        ]

        def run():
            fjord = Fjord()
            fjord.add_source("motes", motes)
            fjord.add_source("rfid", rfid)
            spy = FilterSpy(FieldCompare("value", "<", 30.0))
            fjord.add_operator("f", spy, inputs=["motes", "rfid"])
            sink = fjord.add_sink("out", inputs=["f"])
            fjord.run([1.0])
            return spy.calls, sink.results, fjord.stats()

        kernel_regime("row")
        _calls, reference, ref_stats = run()
        kernel_regime("fused")
        calls, output, stats = run()
        assert calls == [("rows", 80)]
        assert len(reference) == 60
        assert (output, stats) == (reference, ref_stats)

    def test_shrunk_batch_stays_a_batch_until_a_row_only_consumer(self):
        """100 rows meet the filter's kernel, 5 survive: the survivors
        reach the next column kernel as the batch they are, and the sink
        as rows — no re-encode, no threshold re-check."""
        rows = _rows(100)
        fjord = Fjord()
        fjord.add_source("src", rows)
        fjord.add_operator(
            "f", FilterOp(FieldCompare("value", "<", 5.0)), inputs=["src"]
        )
        spy = KernelSpy(AddFields({"kept": True}))
        fjord.add_operator("m", spy, inputs=["f"])
        sink = fjord.add_sink("out", inputs=["m"])
        fjord.run([2.0])
        assert spy.calls == [("batch", 5)]
        assert sink.results == [
            t.derive(values={"kept": True}) for t in rows[:5]
        ]
        # Below the threshold from the start, the same graph stays rows.
        fjord = Fjord()
        fjord.add_source("src", rows[:20])
        fjord.add_operator(
            "f", FilterOp(FieldCompare("value", "<", 5.0)), inputs=["src"]
        )
        spy = KernelSpy(AddFields({"kept": True}))
        fjord.add_operator("m", spy, inputs=["f"])
        fjord.add_sink("out", inputs=["m"])
        fjord.run([2.0])
        assert spy.calls == [("rows", 5)]

    @pytest.mark.parametrize("regime", REGIMES[:2])
    def test_mid_run_checkpoint_restores_exactly(self, regime, kernel_regime):
        kernel_regime(regime)
        rng = random.Random(17)
        sources = make_trace(rng, n_tuples=300)
        ticks = trace_ticks(sources, period=40.0)
        arrivals = sorted(
            (item.timestamp, name, seq, item)
            for name, items in sources.items()
            for seq, item in enumerate(items)
        )
        empty = {name: [] for name in sources}

        def drive(session, entries):
            for ts, name, _seq, item in entries:
                session.push(name, item)
                session.advance(ts)

        fjord, sink = build_vectorized(empty)
        whole = fjord.open_session(ticks)
        drive(whole, arrivals)
        whole.close()
        assert sink.results

        half = len(arrivals) // 2
        first_fjord, _first_sink = build_vectorized(empty)
        first = first_fjord.open_session(ticks)
        drive(first, arrivals[:half])
        state = pickle.loads(pickle.dumps(first.checkpoint()))
        resumed_fjord, resumed_sink = build_vectorized(empty)
        resumed = resumed_fjord.open_session(ticks)
        resumed.restore(state)
        drive(resumed, arrivals[half:])
        resumed.close()
        assert resumed_sink.results == sink.results
        assert resumed_fjord.stats() == fjord.stats()


# -- property-based sweep ------------------------------------------------------


def canon(rows):
    """Rows as comparable text: ``repr`` equates NaN with itself and
    tells -0.0 from 0.0 and 1 from 1.0, which ``==`` on tuples does not
    (field order within a row is not part of a tuple's value)."""
    return [
        (
            repr(t.timestamp),
            t.stream,
            sorted((k, repr(v)) for k, v in t.items()),
        )
        for t in rows
    ]


def outcome(call):
    """What ``call`` returned, or which error it raised (an absent
    field, a cell the comparison cannot order)."""
    try:
        return ("ok", canon(call()))
    except (SchemaError, TypeError) as error:
        return (type(error).__name__, str(error))


def column_operators():
    """Every operator with a column kernel × every vectorizable callable."""
    for make in COLUMN_MAPS.values():
        yield MapOp(make())
    for make in COLUMN_PREDICATES.values():
        yield FilterOp(make())
    yield UnionOp()
    yield UnionOp(output_stream="merged")


def assert_column_kernels_match_rows(rows, column_storage):
    """``rows`` share one schema; every column kernel over them, on
    either storage, ends as its row kernel does."""
    for name in ("typed", "list"):
        column_storage(name)
        for op in column_operators():
            assert op.column_kernel() is not None
            columnar = outcome(
                lambda: op.on_column_batch(
                    ColumnBatch.from_tuples(rows)
                ).tuples()
            )
            assert columnar == outcome(lambda: op.on_batch(rows)), (
                type(op).__name__, name,
            )


if HAVE_HYPOTHESIS:
    try:
        from tests.conftest import traces
    except ImportError:  # pragma: no cover - direct file invocation
        from conftest import traces

    #: A cell: floats with NaN, infinities and both zeros, ints beyond
    #: float exactness, strings, None.
    cells = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from((0.0, -0.0, math.nan, 30.0)),
        st.integers(min_value=-(2**63) - 1, max_value=2**63 + 1),
        st.text(max_size=3),
        st.none(),
    )

    @st.composite
    def hostile_rows(draw):
        """Up to 12 rows over two streams, all carrying one drawn field
        set (possibly empty), each cell drawn from ``cells``."""
        fields = draw(
            st.lists(
                st.sampled_from(("value", "seq", "tag_id")),
                unique=True,
                max_size=3,
            )
        )
        row = st.builds(
            StreamTuple,
            st.floats(min_value=0.0, max_value=100.0),
            st.fixed_dictionaries({field: cells for field in fields}),
            st.sampled_from(("motes", "rfid")),
        )
        return draw(st.lists(row, max_size=12))

    class TestPropertyBased:
        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.function_scoped_fixture,
            ],
        )
        @given(
            sources=traces(),
            regime=st.sampled_from(REGIMES[:2]),
            shards=st.sampled_from(SHARD_COUNTS),
            backend=st.sampled_from(BACKENDS),
        )
        def test_modes_and_shards_equal_row(
            self, sources, regime, shards, backend, kernel_regime
        ):
            ticks = trace_ticks(sources)
            reference = row_reference(
                kernel_regime, build_hidden, sources, ticks
            )
            kernel_regime(regime)
            assert_same_run(
                run_graph(build_vectorized, sources, ticks), reference, regime
            )
            sharded = run_sharded(
                sources,
                build_vectorized,
                ticks,
                shards=shards,
                backend=backend,
            )
            assert sharded.output == reference[0]
            assert sharded.stats == reference[2]

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
            assert_kernel_equivalent(
                name, batches_from(sources), trace_ticks(sources)
            )

        @settings(
            max_examples=150,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(rows=hostile_rows())
        def test_column_kernels_on_hostile_rows(self, rows, column_storage):
            assert_column_kernels_match_rows(rows, column_storage)

else:  # pragma: no cover - exercised only without hypothesis installed

    class TestPropertyBased:
        @pytest.mark.parametrize("seed", range(25))
        def test_modes_and_shards_equal_row(self, seed, kernel_regime):
            rng = random.Random(seed)
            sources = make_trace(
                rng,
                n_tuples=rng.randrange(0, 60),
                keys=tuple(f"k{i}" for i in range(rng.randrange(1, 7))),
                duplicate_rate=rng.choice((0.0, 0.3, 0.9)),
            )
            ticks = trace_ticks(sources)
            reference = row_reference(
                kernel_regime, build_hidden, sources, ticks
            )
            kernel_regime(rng.choice(REGIMES[:2]))
            assert_same_run(
                run_graph(build_vectorized, sources, ticks), reference, seed
            )
            sharded = run_sharded(
                sources,
                build_vectorized,
                ticks,
                shards=rng.choice(SHARD_COUNTS),
                backend=rng.choice(BACKENDS),
            )
            assert sharded.output == reference[0]
            assert sharded.stats == reference[2]

        @pytest.mark.parametrize("seed", range(20))
        def test_kernels_differentially(self, seed):
            rng = random.Random(seed)
            sources = make_trace(rng, n_tuples=rng.randrange(0, 60))
            assert_kernel_equivalent(
                rng.choice(sorted(KERNELS)),
                batches_from(sources),
                trace_ticks(sources),
            )

        @pytest.mark.parametrize("seed", range(40))
        def test_column_kernels_on_hostile_rows(self, seed, column_storage):
            rng = random.Random(seed)
            pool = (0.0, -0.0, math.nan, 30.0, 7, 2**63 + 1, "x", None)
            fields = [
                field
                for field in ("value", "seq", "tag_id")
                if rng.random() < 0.6
            ]
            rows = [
                StreamTuple(
                    float(i),
                    {field: rng.choice(pool) for field in fields},
                    rng.choice(("motes", "rfid")),
                )
                for i in range(rng.randrange(0, 12))
            ]
            assert_column_kernels_match_rows(rows, column_storage)
