"""Engine micro-benchmarks: the stream substrate and CQL compiler.

Not paper artifacts — these track the reproduction's own performance so
regressions in the substrate (which every experiment runs through) are
visible. Timed with real pytest-benchmark rounds, unlike the one-shot
experiment benches.
"""

import numpy as np

from repro.cql import compile_query
from repro.streams.aggregates import AggregateSpec
from repro.streams.fjord import Fjord
from repro.streams.operators import (
    FilterOp,
    GroupKey,
    MapOp,
    WindowedGroupByOp,
    run_operator,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec

QUERY_3 = """
SELECT spatial_granule, tag_id
FROM arbitrate_input ai1 [Range By 'NOW']
GROUP BY spatial_granule, tag_id
HAVING count(*) >= ALL(SELECT count(*)
                       FROM arbitrate_input ai2 [Range By 'NOW']
                       WHERE ai1.tag_id = ai2.tag_id
                       GROUP BY spatial_granule)
"""


def _rfid_batch(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return [
        StreamTuple(
            i * 0.2,
            {
                "tag_id": f"t{rng.integers(20)}",
                "spatial_granule": f"shelf{rng.integers(2)}",
            },
            "s",
        )
        for i in range(n)
    ]


def test_engine_filter_map_throughput(benchmark):
    items = _rfid_batch()
    pipeline = [
        FilterOp(lambda t: t["spatial_granule"] == "shelf0"),
        MapOp(lambda t: t.derive(values={"seen": True})),
    ]

    def run():
        out = items
        for op in pipeline:
            out = op.on_batch(out)
        return len(out)

    kept = benchmark(run)
    assert 0 < kept < len(items)


def test_engine_windowed_groupby_throughput(benchmark):
    """An aggregate evaluated over the window's rows at every slide
    (``count(tag_id)``; ``count(*)`` would read none, see
    test_engine_incremental_groupby_throughput)."""
    items = _rfid_batch()
    ticks = [i * 0.2 for i in range(0, 5000, 5)]

    def run():
        op = WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[GroupKey("tag_id"), GroupKey("spatial_granule")],
            aggregates=[AggregateSpec("count", field="tag_id", output="count")],
        )
        return len(run_operator(op, items, ticks))

    emitted = benchmark(run)
    assert emitted > 0


def test_engine_fjord_pipeline_throughput(benchmark):
    def run():
        fjord = Fjord()
        fjord.add_source("src", _rfid_batch(2000))
        fjord.add_operator(
            "group",
            WindowedGroupByOp(
                WindowSpec.range_by(5.0),
                keys=[GroupKey("spatial_granule")],
                aggregates=[
                    AggregateSpec(
                        "count",
                        argument=lambda t: t["tag_id"],
                        distinct=True,
                        output="n",
                    )
                ],
            ),
            inputs=["src"],
        )
        sink = fjord.add_sink("out", inputs=["group"])
        fjord.run(i * 1.0 for i in range(401))
        return len(sink.results)

    assert benchmark(run) > 0


def test_engine_incremental_groupby_throughput(benchmark):
    """Query 2's ``count(*)``, which is the window's length and reads no
    row (same workload as test_engine_windowed_groupby_throughput)."""
    items = _rfid_batch()
    ticks = [i * 0.2 for i in range(0, 5000, 5)]

    def run():
        op = WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[GroupKey("tag_id"), GroupKey("spatial_granule")],
            aggregates=[AggregateSpec("count", output="count")],
        )
        return len(run_operator(op, items, ticks))

    emitted = benchmark(run)
    assert emitted > 0


def test_engine_cql_compile_time(benchmark):
    query = benchmark(lambda: compile_query(QUERY_3))
    assert query.input_streams == ["arbitrate_input"]


import pytest


@pytest.mark.parametrize("n_tags", [10, 100, 1000])
def test_engine_groupby_scaling_with_tag_population(benchmark, n_tags):
    """Group-state scaling: per-slide cost grows with live groups, so a
    1000-tag warehouse door costs ~100x a 10-tag shelf per punctuation.
    Tracked so a state-management regression is visible."""
    rng = np.random.default_rng(1)
    items = [
        StreamTuple(
            i * 0.1,
            {"tag_id": f"t{rng.integers(n_tags)}", "spatial_granule": "g"},
            "s",
        )
        for i in range(3000)
    ]
    ticks = [i * 0.5 for i in range(601)]

    def run():
        op = WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[GroupKey("tag_id")],
            aggregates=[AggregateSpec("count", output="n")],
        )
        return len(run_operator(op, items, ticks))

    assert benchmark(run) > 0


def test_engine_reorder_buffer_throughput(benchmark):
    """Gateway reorder buffer over a delayed 5k-reading trace."""
    from repro.receptors.network import DelayModel
    from repro.streams.reorder import delayed_arrivals, reorder_arrivals

    readings = _rfid_batch()
    model = DelayModel(mean_delay=0.5, max_delay=3.0, rng=0)
    arrivals = list(delayed_arrivals(readings, model))

    def run():
        ordered, dropped = reorder_arrivals(arrivals, slack=3.0)
        return len(ordered), dropped

    released, dropped = benchmark(run)
    assert released == len(readings) and dropped == 0


def test_engine_trace_roundtrip_throughput(benchmark, tmp_path):
    """JSONL persistence round-trip of a 5k-reading trace."""
    from repro.streams.traceio import read_jsonl, write_jsonl

    readings = _rfid_batch()
    path = tmp_path / "trace.jsonl"

    def run():
        write_jsonl(readings, path)
        return len(read_jsonl(path))

    assert benchmark(run) == len(readings)


def test_engine_cql_execution_throughput(benchmark):
    items = [t.derive(stream="arbitrate_input") for t in _rfid_batch(2000)]
    ticks = [i * 0.2 for i in range(2001)]

    def run():
        return len(
            compile_query(QUERY_3).run({"arbitrate_input": items}, ticks)
        )

    assert benchmark(run) > 0
