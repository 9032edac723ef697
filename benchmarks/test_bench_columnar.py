"""Column-kernel benchmarks: what the drain's per-run choice buys and costs.

Three workloads:

- **Stateless chain (the acceptance gate).** A deep point-cleaning
  chain — annotate → gate → relabel, repeated — over the full shelf
  scenario's recorded RFID streams, punctuated every 2 s so every run
  is long enough (≈140 rows) for the drain to pick the column kernels.
  Every stage is vectorizable, so the row kernels pay a dict copy or
  tuple rebuild per tuple *per stage* while the column kernels pay one
  column operation per stage plus a single encode/decode at the edges.
  The gate asserts the chain ≥ 1.5× the same chain with every callable
  hidden behind a plain lambda (no column kernel, so row kernels by
  construction).

- **Numeric chain (the typed-column acceptance gate).** A deep
  filter chain over *numeric* fields (int and float constants seeded
  up front), punctuated coarsely so batches run ~1-2k rows. Every
  stage is a ``FieldCompare`` whose mask is a single C array
  comparison on typed columns but a per-element Python loop on list
  columns. The gate asserts typed columns ≥ 2× the list-column
  throughput here (``repro.streams.typedcols`` toggles the storage
  class; both run the identical operator graph).

- **Full shelf pipeline (reported, and gated by a count).** The
  paper's Smooth+Arbitrate pipeline at its native tick hands its
  annotate nodes and its one union node (``kindout:``) runs of at most
  25 rows: below the threshold, so a pass must perform zero
  rows→columns encodes — while the chain
  encodes every long run exactly once. Likewise one redwood and one
  digital-home pass leave ``typedcols.storage_stats()`` empty: their
  window aggregates read rows, so no column is ever built for them.
  Counts, not clocks: they repeat exactly on any host.
"""

from __future__ import annotations

import time

import pytest

from repro.streams import fjord as fjord_module
from repro.streams import typedcols
from repro.streams.columnar import (
    AddFields,
    ColumnBatch,
    FieldCompare,
    SetStream,
)
from repro.streams.fjord import Fjord
from repro.streams.operators import FilterOp, MapOp, UnionOp
from repro.streams.telemetry import InMemoryCollector

#: Depth of the stateless chain. Deep enough that per-stage row costs
#: dominate the one-off boundary costs; real deployments chain point
#: operations too (§3 of the paper runs them per reading).
CHAIN_STAGES = 12
#: Punctuation period for the chain workload, seconds of stream time.
CHAIN_TICK = 2.0
#: The acceptance bar: the chain's column kernels ≥ 1.5× its row
#: kernels. It was 2× until the row kernels themselves got faster
#: (whole-run delivery between operators, relabels sharing the value
#: mapping: 10.2 → 5.6 µs/tuple on this chain with the column side
#: unchanged at ≈3.1). The floor guards the *ratio* — a column kernel
#: quietly doing row work — while the chain's own speed is guarded by
#: the repo benchmark's ``chain_mem`` bound (BENCHMARK.json).
SPEEDUP_FLOOR = 1.5

#: Depth of the numeric chain. Deeper than the stateless chain on
#: purpose: the typed-vs-list contrast is per-stage mask work, so depth
#: amortizes the (storage-independent) encode/decode boundary.
NUMERIC_CHAIN_STAGES = 48
#: Punctuation period for the numeric chain, seconds of stream time:
#: coarse enough for ~1-2k-row batches, where array kernels dominate
#: numpy call overhead.
NUMERIC_CHAIN_TICK = 20.0
#: The typed-column acceptance bar: typed columns must at least double
#: list-columnar throughput on the numeric chain.
TYPED_SPEEDUP_FLOOR = 2.0


def hidden(fn):
    """``fn`` behind a plain lambda: no ``mask``/``columnar``/``rows``
    hook, so the operator holding it has only its row kernel."""
    return lambda item: fn(item)


def build_stateless_chain(
    sources, stages: int = CHAIN_STAGES, wrap=lambda fn: fn
):
    """Union the readers, then ``stages`` vectorizable point stages
    (``wrap=hidden``: the same stages on their row kernels)."""
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator("merge", UnionOp(), inputs=sorted(sources))
    # Lead with a vectorizable gate so the batch encodes to columns
    # once, up front; every later stage then runs purely columnar.
    fjord.add_operator(
        "gate0",
        FilterOp(wrap(FieldCompare("tag_id", ">=", ""))),
        inputs=["merge"],
    )
    prev = "gate0"
    for i in range(stages):
        kind = i % 3
        if kind == 0:
            op = MapOp(wrap(AddFields({f"f{i}": float(i), "site": "shelf_lab"})))
        elif kind == 1:
            op = FilterOp(wrap(FieldCompare(f"f{i - 1}", ">=", 0.0)))
        else:
            op = MapOp(wrap(SetStream(f"hop{i}")))
        fjord.add_operator(f"stage{i}", op, inputs=[prev])
        prev = f"stage{i}"
    sink = fjord.add_sink("out", inputs=[prev])
    return fjord, sink


def build_numeric_chain(sources, stages: int = NUMERIC_CHAIN_STAGES):
    """Union the readers, seed numeric columns, then ``stages`` filters.

    The seed stage annotates every tuple with int and float constants;
    from then on each stage is a ``FieldCompare`` over one of those
    numeric columns (all tautologies, so nothing is dropped and the
    gate can assert tuple conservation). On typed columns each mask is
    one vectorized comparison; on list columns it is a Python loop.
    """
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator("merge", UnionOp(), inputs=sorted(sources))
    fjord.add_operator(
        "seed",
        MapOp(AddFields({"reading": 0.5, "batch_no": 7, "gain": 1.25})),
        inputs=["merge"],
    )
    filters = [
        FieldCompare("reading", "<=", 1.0),
        FieldCompare("batch_no", ">=", 0),
        FieldCompare("gain", "!=", 2.0),
    ]
    prev = "seed"
    for i in range(stages):
        fjord.add_operator(f"num{i}", FilterOp(filters[i % 3]), inputs=[prev])
        prev = f"num{i}"
    sink = fjord.add_sink("out", inputs=[prev])
    return fjord, sink


def chain_ticks(duration: float, tick: float = CHAIN_TICK) -> list[float]:
    return [i * tick for i in range(int(duration / tick) + 2)]


def run_chain(sources, ticks, wrap=lambda fn: fn) -> int:
    fjord, sink = build_stateless_chain(sources, wrap=wrap)
    fjord.run(ticks)
    return len(sink.results)


def run_numeric_chain(sources, ticks) -> int:
    fjord, sink = build_numeric_chain(sources)
    fjord.run(ticks)
    return len(sink.results)


def run_shelf_pipeline(shelf, telemetry=None):
    from repro.pipelines.rfid_shelf import build_shelf_processor

    processor = build_shelf_processor(shelf, "smooth+arbitrate")
    return processor.run(
        until=shelf.duration,
        tick=shelf.poll_period,
        sources=shelf.recorded_streams(),
        telemetry=telemetry,
    )


def test_stateless_chain_throughput(benchmark, shelf):
    sources = shelf.recorded_streams()
    ticks = chain_ticks(shelf.duration)
    n_tuples = sum(len(items) for items in sources.values())

    emitted = benchmark(lambda: run_chain(sources, ticks))
    assert emitted == n_tuples  # every gate passes; nothing is dropped
    benchmark.extra_info["tuples_per_sec"] = round(
        n_tuples / benchmark.stats["mean"]
    )
    benchmark.extra_info["chain_stages"] = CHAIN_STAGES


def test_full_shelf_pipeline_throughput(benchmark, shelf):
    """The paper's pipeline: stateful, short runs, row kernels."""
    n_tuples = sum(len(items) for items in shelf.recorded_streams().values())
    result = benchmark.pedantic(
        lambda: run_shelf_pipeline(shelf), rounds=1, iterations=1
    )
    assert result.output
    benchmark.extra_info["tuples_per_sec"] = round(
        n_tuples / benchmark.stats["mean"]
    )


@pytest.fixture
def encodes(monkeypatch):
    """Row counts of every rows→columns encode performed in the test."""
    counted: list[int] = []
    encode = ColumnBatch._encode

    def counting(batch):
        counted.append(len(batch))
        return encode(batch)

    monkeypatch.setattr(ColumnBatch, "_encode", counting)
    return counted


def _runs_at(snapshot, nodes) -> list[int]:
    return [
        event["n_in"]
        for event in snapshot["events"]
        if event["kind"] == "batch_drain" and event["node"] in nodes
    ]


def test_shelf_pipeline_at_its_native_tick_never_encodes(shelf, encodes):
    """The short-run side of the drain's choice, as a count."""
    cells = typedcols.storage_stats()
    collector = InMemoryCollector()
    run = run_shelf_pipeline(shelf, telemetry=collector)
    assert run.output
    runs = _runs_at(run.telemetry, run.telemetry["operators"])
    assert runs and max(runs) < fjord_module.COLUMN_MIN_ROWS
    assert encodes == []
    assert typedcols.storage_stats() == cells


def test_redwood_and_home_passes_build_no_typed_arrays(
    redwood, office, encodes
):
    """The paper's two windowed-average pipelines at their native ticks:
    no run reaches the encode threshold and the window aggregates read
    rows, so nothing is detected, converted or counted as a column."""
    from repro.pipelines.digital_home import build_digital_home_processor
    from repro.pipelines.sensornet import build_redwood_processor

    typedcols.reset_storage_stats()
    for processor, scenario, tick in (
        (build_redwood_processor(redwood), redwood, redwood.epoch),
        (build_digital_home_processor(office), office, 0.5),
    ):
        run = processor.run(
            until=scenario.duration,
            tick=tick,
            sources=scenario.recorded_streams(),
        )
        assert run.output
    assert encodes == []
    assert typedcols.storage_stats() == {}


def test_chain_encodes_every_long_run_once(shelf, encodes):
    """The long-run side: each ≥ threshold run met by the chain's first
    column kernel is encoded exactly once, and by no later stage."""
    sources = shelf.recorded_streams()
    collector = InMemoryCollector()
    fjord, sink = build_stateless_chain(sources)
    fjord.run(chain_ticks(shelf.duration), telemetry=collector)
    runs = _runs_at(collector.snapshot(), {"merge"})
    long_runs = [n for n in runs if n >= fjord_module.COLUMN_MIN_ROWS]
    assert sum(long_runs) > 0.99 * len(sink.results)
    assert encodes == long_runs


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_beats_row_on_shelf_chain(shelf):
    """The acceptance bar, one-shot (benchmark rounds would re-time
    the warm-up): the chain's column kernels ≥ ``SPEEDUP_FLOOR`` × the
    same chain's row kernels, in tuples/sec."""
    sources = shelf.recorded_streams()
    ticks = chain_ticks(shelf.duration)
    run_chain(sources, ticks, hidden)  # warm caches once for both sides

    row = _best_of(3, lambda: run_chain(sources, ticks, hidden))
    columnar = _best_of(3, lambda: run_chain(sources, ticks))

    speedup = row / columnar
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar ran the shelf chain in {columnar:.3f}s vs row "
        f"{row:.3f}s — {speedup:.2f}x, below the {SPEEDUP_FLOOR}x floor"
    )


@pytest.mark.skipif(
    not typedcols.numpy_available(),
    reason="typed columns need numpy; the no-numpy leg skips this gate",
)
def test_typed_beats_list_columnar_2x_on_numeric_chain(shelf):
    """The typed-column acceptance bar: typed ≥ 2× list-columnar
    tuples/sec on the numeric filter chain. Both runs execute the
    identical operator graph on its column kernels; only the column
    storage class differs (toggled via ``set_typed_columns``)."""
    sources = shelf.recorded_streams()
    ticks = chain_ticks(shelf.duration, NUMERIC_CHAIN_TICK)
    n_tuples = sum(len(items) for items in sources.values())

    emitted = run_numeric_chain(sources, ticks)  # warm caches once
    assert emitted == n_tuples  # all filters are tautologies

    previous = typedcols.set_typed_columns(False)
    try:
        as_list = _best_of(3, lambda: run_numeric_chain(sources, ticks))
    finally:
        typedcols.set_typed_columns(*previous)
    typed = _best_of(3, lambda: run_numeric_chain(sources, ticks))

    speedup = as_list / typed
    assert speedup >= TYPED_SPEEDUP_FLOOR, (
        f"typed columns ran the numeric chain in {typed:.3f}s vs "
        f"list columns {as_list:.3f}s — {speedup:.2f}x, below the "
        f"{TYPED_SPEEDUP_FLOOR}x floor"
    )
