"""Columnar-vs-row execution benchmarks: tuples/sec per mode.

Three workloads:

- **Stateless chain (the acceptance gate).** A deep point-cleaning
  chain — annotate → gate → relabel, repeated — over the full shelf
  scenario's recorded RFID streams, punctuated every 2 s so batches
  are large enough to amortize the row↔column boundary. This is the
  shape the columnar kernels and operator fusion target: every stage
  is vectorizable, so the row path pays a dict copy or tuple rebuild
  per tuple *per stage* while the columnar path pays one column
  operation per stage plus a single encode/decode at the edges. The
  gate asserts columnar ≥ 1.5× row throughput here.

- **Numeric chain (the typed-column acceptance gate).** A deep
  filter chain over *numeric* fields (int and float constants seeded
  up front), punctuated coarsely so batches run ~1-2k rows. Every
  stage is a ``FieldCompare`` whose mask is a single C array
  comparison on typed columns but a per-element Python loop on list
  columns. The gate asserts typed columns ≥ 2× the list-columnar
  throughput here (``repro.streams.typedcols`` toggles the storage
  class; both run the identical operator graph).

- **Full cleaning pipelines (reported, not gated).** The paper's
  shelf Smooth+Arbitrate pipeline, dominated by stateful windowed
  aggregation where the columnar path degrades gracefully to row
  semantics at the window boundary — benchmarked to prove the modes
  do not regress the real pipelines, with no speed-up claimed.

``scripts/bench_snapshot.py`` runs the same workloads and pins the
trajectory in ``BENCH_columnar.json`` (see ``docs/columnar.md``).
"""

from __future__ import annotations

import time

import pytest

from repro.streams import typedcols
from repro.streams.columnar import AddFields, FieldCompare, SetStream
from repro.streams.fjord import MODES, Fjord
from repro.streams.operators import FilterOp, MapOp, UnionOp

#: Depth of the stateless chain. Deep enough that per-stage row costs
#: dominate the one-off boundary costs; real deployments chain point
#: operations too (§3 of the paper runs them per reading).
CHAIN_STAGES = 12
#: Punctuation period for the chain workload, seconds of stream time.
CHAIN_TICK = 2.0
#: The acceptance bar: columnar ≥ 1.5× row throughput. It was 2× until
#: the row path itself got faster (whole-run delivery between operators,
#: relabels sharing the value mapping: 10.2 → 5.6 µs/tuple on this chain
#: with the columnar side unchanged at ≈3.1), which took the recorded
#: 2.76× to 1.82×. The floor guards the *ratio* — a columnar kernel
#: falling back to rows — while the columnar path's own speed is guarded
#: by the repo benchmark's ``chain_mem`` bound (BENCHMARK.json).
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


def build_stateless_chain(sources, stages: int = CHAIN_STAGES):
    """Union the readers, then ``stages`` vectorizable point stages."""
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator("merge", UnionOp(), inputs=sorted(sources))
    # Lead with a vectorizable gate so the batch encodes to columns
    # once, up front; every later stage then runs purely columnar.
    fjord.add_operator(
        "gate0", FilterOp(FieldCompare("tag_id", ">=", "")), inputs=["merge"]
    )
    prev = "gate0"
    for i in range(stages):
        kind = i % 3
        if kind == 0:
            op = MapOp(AddFields({f"f{i}": float(i), "site": "shelf_lab"}))
        elif kind == 1:
            op = FilterOp(FieldCompare(f"f{i - 1}", ">=", 0.0))
        else:
            op = MapOp(SetStream(f"hop{i}"))
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


def run_chain(sources, ticks, mode: str) -> int:
    fjord, sink = build_stateless_chain(sources)
    fjord.run(ticks, mode=mode)
    return len(sink.results)


def run_numeric_chain(sources, ticks) -> int:
    fjord, sink = build_numeric_chain(sources)
    fjord.run(ticks, mode="columnar")
    return len(sink.results)


@pytest.mark.parametrize("mode", MODES)
def test_stateless_chain_throughput(benchmark, shelf, mode):
    sources = shelf.recorded_streams()
    ticks = chain_ticks(shelf.duration)
    n_tuples = sum(len(items) for items in sources.values())

    emitted = benchmark(lambda: run_chain(sources, ticks, mode))
    assert emitted == n_tuples  # every gate passes; nothing is dropped
    benchmark.extra_info["tuples_per_sec"] = round(
        n_tuples / benchmark.stats["mean"]
    )
    benchmark.extra_info["chain_stages"] = CHAIN_STAGES


@pytest.mark.parametrize("mode", MODES)
def test_full_shelf_pipeline_throughput(benchmark, shelf, mode):
    """The paper's pipeline: stateful, so parity is the expectation."""
    from repro.pipelines.rfid_shelf import build_shelf_processor

    sources = shelf.recorded_streams()
    n_tuples = sum(len(items) for items in sources.values())

    def run():
        processor = build_shelf_processor(shelf, "smooth+arbitrate")
        return processor.run(
            until=shelf.duration,
            tick=shelf.poll_period,
            sources=sources,
            mode=mode,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.output
    benchmark.extra_info["tuples_per_sec"] = round(
        n_tuples / benchmark.stats["mean"]
    )


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_beats_row_on_shelf_chain(shelf):
    """The acceptance bar, one-shot (benchmark rounds would re-time
    the warm-up): columnar ≥ ``SPEEDUP_FLOOR`` × row tuples/sec on the
    shelf chain."""
    sources = shelf.recorded_streams()
    ticks = chain_ticks(shelf.duration)
    run_chain(sources, ticks, "row")  # warm caches once for both paths

    row = _best_of(3, lambda: run_chain(sources, ticks, "row"))
    columnar = _best_of(3, lambda: run_chain(sources, ticks, "columnar"))

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
    identical operator graph in columnar mode; only the column storage
    class differs (toggled via ``set_typed_columns``)."""
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


def test_fused_no_slower_than_columnar(shelf):
    """Fusion removes per-stage drain bookkeeping; it must never cost
    throughput (allow 10% jitter — the two paths share all kernels)."""
    sources = shelf.recorded_streams()
    ticks = chain_ticks(shelf.duration)
    run_chain(sources, ticks, "columnar")  # warm

    columnar = _best_of(3, lambda: run_chain(sources, ticks, "columnar"))
    fused = _best_of(3, lambda: run_chain(sources, ticks, "fused"))

    assert fused <= columnar * 1.10, (
        f"fused took {fused:.3f}s vs columnar {columnar:.3f}s"
    )
