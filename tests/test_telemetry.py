"""Tests for the runtime telemetry subsystem.

Four layers of guarantees:

- **Histogram arithmetic** — fixed bucket edges, exact boundary
  placement, overflow sentinels and merge-by-addition.
- **Snapshot merging is associative** — any merge tree over the same
  per-shard snapshots yields the identical result (property-based with
  hypothesis when installed, seeded otherwise), which is what lets the
  sharded engine aggregate deterministically.
- **Shard-aware aggregation** — per-shard collectors absorbed in shard
  order produce the same per-operator tuple totals as the sequential
  run, on every backend at shard counts 1 and 4.
- **Kernel independence** — a run of the same pipeline with no run on
  a column kernel and one with every eligible run on it produce
  identical snapshots up to wall-clock fields (tuple and batch counters
  exactly, trace events byte-for-byte).
- **Surfacing** — the CLI's ``--stats``/``--trace-out`` round-trip and
  a golden trace-event log for the RFID shelf pipeline, pinned
  byte-for-byte (regenerate with
  ``PYTHONPATH=src python tests/test_telemetry.py --regenerate``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.streams.shard import run_sharded
from repro.streams.telemetry import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_NS,
    NULL_COLLECTOR,
    Histogram,
    InMemoryCollector,
    default_telemetry,
    empty_snapshot,
    format_table,
    merge_snapshots,
    resolve_telemetry,
    set_default_telemetry,
)

try:
    from tests.test_shard_equivalence import (
        build_five_stage,
        make_trace,
        trace_ticks,
    )
except ImportError:  # pragma: no cover - direct --regenerate invocation
    from test_shard_equivalence import (
        build_five_stage,
        make_trace,
        trace_ticks,
    )

GOLDEN_DIR = Path(__file__).parent / "golden"

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    HAVE_HYPOTHESIS = False


# -- histograms ----------------------------------------------------------------


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram((10, 20, 50))
        hist.record(10)  # exactly on an edge -> that bucket
        hist.record(11)  # just above -> next bucket
        hist.record(1)  # below the first edge -> first bucket
        hist.record(50)  # on the last edge -> last regular bucket
        hist.record(51)  # beyond -> overflow
        assert hist.counts == [2, 1, 1, 1]
        assert hist.total == 5

    def test_latency_bucket_edges_are_1_2_5_decades(self):
        assert LATENCY_BUCKETS_NS[0] == 1_000  # 1 µs
        assert LATENCY_BUCKETS_NS[-1] == 5_000_000_000
        assert 10_000_000_000 not in LATENCY_BUCKETS_NS
        ratios = [
            b / a for a, b in zip(LATENCY_BUCKETS_NS, LATENCY_BUCKETS_NS[1:])
        ]
        assert set(ratios) == {2.0, 2.5}

    def test_batch_size_buckets_are_powers_of_two(self):
        assert BATCH_SIZE_BUCKETS[0] == 1
        assert BATCH_SIZE_BUCKETS[-1] == 65536
        assert all(
            b == 2 * a
            for a, b in zip(BATCH_SIZE_BUCKETS, BATCH_SIZE_BUCKETS[1:])
        )

    def test_percentile_returns_upper_bucket_edge(self):
        hist = Histogram((10, 20, 50))
        for value in (5, 15, 15, 40):
            hist.record(value)
        assert hist.percentile(0.0) == 10.0
        assert hist.percentile(0.5) == 20.0
        assert hist.percentile(1.0) == 50.0

    def test_percentile_overflow_is_inf(self):
        hist = Histogram((10,))
        hist.record(99)
        assert hist.percentile(0.5) == float("inf")

    def test_percentile_empty_is_zero(self):
        assert Histogram((10,)).percentile(0.5) == 0.0

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ReproError, match="fraction"):
            Histogram((10,)).percentile(1.5)

    def test_merge_adds_counts(self):
        a = Histogram((10, 20))
        b = Histogram((10, 20))
        a.record(5)
        b.record(15)
        b.record(100)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.total == 3

    def test_merge_rejects_different_edges(self):
        with pytest.raises(ReproError, match="edges"):
            Histogram((10,)).merge(Histogram((20,)))

    def test_rejects_non_ascending_edges(self):
        with pytest.raises(ReproError, match="ascend"):
            Histogram((10, 10))

    def test_rejects_wrong_count_length(self):
        with pytest.raises(ReproError, match="counts"):
            Histogram((10, 20), counts=[1, 2])


class TestPercentileBoundaries:
    """Pinned quantile-edge semantics the ops plane renders from.

    ``percentile`` returns the upper edge of the bucket containing the
    quantile rank; these cases pin the boundary behaviour — rank landing
    exactly on a bucket's cumulative count, all-overflow distributions,
    and the 0.0/1.0 extremes — so a refactor cannot silently shift the
    p50/p95 columns in ``repro top``.
    """

    def test_rank_exactly_on_bucket_boundary_stays_in_lower_bucket(self):
        # Two observations per bucket: fraction 0.5 -> rank 2.0, which
        # the first bucket's cumulative count meets exactly (>=), so the
        # answer is the *lower* bucket's edge — not the next one up.
        hist = Histogram((10, 20), counts=[2, 2, 0])
        assert hist.percentile(0.5) == 10.0
        assert hist.percentile(0.5 + 1e-9) == 20.0

    def test_all_overflow_distribution_is_inf_at_every_fraction(self):
        hist = Histogram((10, 20), counts=[0, 0, 3])
        assert hist.percentile(0.0) == float("inf")
        assert hist.percentile(0.5) == float("inf")
        assert hist.percentile(1.0) == float("inf")

    def test_fraction_zero_is_first_nonempty_bucket_edge(self):
        hist = Histogram((10, 20, 50), counts=[0, 1, 4, 0])
        assert hist.percentile(0.0) == 20.0

    def test_fraction_one_is_last_nonempty_bucket_edge(self):
        hist = Histogram((10, 20, 50), counts=[3, 1, 0, 0])
        assert hist.percentile(1.0) == 20.0

    def test_single_observation_any_fraction(self):
        hist = Histogram((10, 20), counts=[0, 1, 0])
        for fraction in (0.0, 0.25, 0.5, 1.0):
            assert hist.percentile(fraction) == 20.0


# -- collector basics ----------------------------------------------------------


class TestCollector:
    def test_noop_base_is_disabled_and_empty(self):
        assert NULL_COLLECTOR.enabled is False
        NULL_COLLECTOR.record_batch("op", 3, 2, 100)
        NULL_COLLECTOR.event("anything", x=1)
        assert NULL_COLLECTOR.snapshot() == empty_snapshot()
        assert NULL_COLLECTOR.spawn() is NULL_COLLECTOR

    def test_record_batch_accumulates(self):
        col = InMemoryCollector()
        col.record_batch("op", 3, 2, 1_500)
        col.record_batch("op", 1, 1, 500)
        entry = col.snapshot()["operators"]["op"]
        assert entry["tuples_in"] == 4
        assert entry["tuples_out"] == 3
        assert entry["batches"] == 2
        assert entry["busy_ns"] == 2_000
        assert sum(entry["latency_ns"]) == 2
        assert sum(entry["batch_sizes"]) == 2

    def test_punctuation_counts_outputs_not_inputs(self):
        col = InMemoryCollector()
        col.record_punctuation("op", 5, 700)
        entry = col.snapshot()["operators"]["op"]
        assert entry["tuples_in"] == 0
        assert entry["tuples_out"] == 5
        assert entry["punctuations"] == 1
        assert entry["batches"] == 0

    def test_gauges_keep_maxima(self):
        col = InMemoryCollector()
        col.sample_queue_depth("op", 3)
        col.sample_queue_depth("op", 9)
        col.sample_queue_depth("op", 1)
        col.sample_watermark("src", 0.5)
        col.sample_watermark("src", 0.25)
        snap = col.snapshot()
        assert snap["operators"]["op"]["max_queue_depth"] == 9
        assert snap["sources"]["src"]["max_watermark_lag"] == 0.5

    def test_events_are_sequenced(self):
        col = InMemoryCollector()
        col.event("first", a=1)
        col.event("second")
        events = col.snapshot()["events"]
        assert [e["seq"] for e in events] == [0, 1]
        assert [e["kind"] for e in events] == ["first", "second"]
        assert events[0]["a"] == 1

    def test_absorb_tags_events_with_shard(self):
        child = InMemoryCollector()
        child.event("batch_drain", node="op")
        parent = InMemoryCollector()
        parent.absorb(child.snapshot(), shard=2)
        (event,) = parent.snapshot()["events"]
        assert event["shard"] == 2

    def test_spawn_is_isolated(self):
        parent = InMemoryCollector()
        child = parent.spawn()
        assert child is not parent
        child.record_batch("op", 1, 1, 10)
        assert parent.snapshot()["operators"] == {}

    def test_default_telemetry_install_and_restore(self):
        col = InMemoryCollector()
        previous = set_default_telemetry(col)
        try:
            assert default_telemetry() is col
            assert resolve_telemetry(None) is col
            other = InMemoryCollector()
            assert resolve_telemetry(other) is other
        finally:
            set_default_telemetry(previous)
        assert default_telemetry() is previous


# -- merge associativity -------------------------------------------------------


def random_snapshot(rng: random.Random) -> dict:
    """A structurally valid snapshot with random contents."""
    col = InMemoryCollector()
    for _ in range(rng.randrange(0, 20)):
        op = f"op{rng.randrange(3)}"
        action = rng.randrange(7)
        if action == 0:
            col.record_batch(
                op,
                rng.randrange(0, 50),
                rng.randrange(0, 50),
                rng.randrange(0, 10**8),
            )
        elif action == 1:
            col.record_punctuation(op, rng.randrange(0, 10), rng.randrange(0, 10**6))
        elif action == 2:
            col.sample_queue_depth(op, rng.randrange(0, 30))
        elif action == 3:
            col.count_source(f"src{rng.randrange(2)}", rng.randrange(1, 5))
            col.sample_watermark(f"src{rng.randrange(2)}", rng.random())
        elif action == 4:
            col.event("e", node=op, n=rng.randrange(100))
        elif action == 5:
            col.record_span(
                f"ingest.{rng.choice(['queue', 'e2e'])}", rng.randrange(10**7)
            )
            col.span(ingest_id=rng.randrange(100), e2e_ns=rng.randrange(10**7))
        else:
            col.count(f"gateway.{rng.choice(['offered', 'dropped'])}",
                      rng.randrange(1, 9))
    for _ in range(rng.randrange(0, 3)):
        col.count_tick()
    return col.snapshot()


#: (shard, node) tag pairs an absorb may carry: the batch engine tags
#: shards, the cluster rollup tags workers, plain absorbs tag nothing.
ABSORB_TAGS = [(None, None), (0, None), (3, None), (None, "w0"), (None, "w1"),
               (2, "w0")]


def tagged(snapshot: dict, shard, node) -> dict:
    """Reference tagging: the snapshot ``absorb(shard=, node=)`` merges."""
    out = dict(snapshot)
    events = [dict(event) for event in snapshot["events"]]
    if shard is not None:
        for event in events:
            event["shard"] = shard
    if node is not None:
        for event in events:
            event["node"] = node
        out["counters"] = {
            f"{node}.{key}": value
            for key, value in snapshot["counters"].items()
        }
        for section in ("sources", "spans"):
            out[section] = {
                f"{node}:{name}": entry
                for name, entry in snapshot[section].items()
            }
        out["span_log"] = [
            {**record, "node": node} for record in snapshot["span_log"]
        ]
    out["events"] = events
    return out


def assert_merge_associative(
    a: dict, b: dict, c: dict, tags=((None, None),) * 3
) -> None:
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    flat = merge_snapshots(a, b, c)
    assert left == right == flat
    # Absorbing in place is the pure merge of the tagged snapshots,
    # seq numbering included; the absorbed snapshots stay untouched.
    before = json.dumps([a, b, c], sort_keys=True)
    collector = InMemoryCollector()
    for snapshot, (shard, node) in zip((a, b, c), tags):
        collector.absorb(snapshot, shard=shard, node=node)
    assert collector.snapshot() == merge_snapshots(
        *(tagged(snap, *tag) for snap, tag in zip((a, b, c), tags))
    )
    assert json.dumps([a, b, c], sort_keys=True) == before


class TestMergeSnapshots:
    def test_empty_is_identity(self):
        rng = random.Random(7)
        snap = random_snapshot(rng)
        assert merge_snapshots(snap, empty_snapshot()) == merge_snapshots(snap)
        assert merge_snapshots(empty_snapshot(), snap) == merge_snapshots(snap)

    def test_merge_is_pure(self):
        rng = random.Random(8)
        a, b = random_snapshot(rng), random_snapshot(rng)
        a_before = json.dumps(a, sort_keys=True)
        merge_snapshots(a, b)
        assert json.dumps(a, sort_keys=True) == a_before

    def test_counters_sum_and_gauges_max(self):
        a = InMemoryCollector()
        a.record_batch("op", 2, 1, 100)
        a.sample_queue_depth("op", 5)
        a.count_tick()
        b = InMemoryCollector()
        b.record_batch("op", 3, 3, 200)
        b.sample_queue_depth("op", 2)
        b.count_tick()
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        entry = merged["operators"]["op"]
        assert entry["tuples_in"] == 5
        assert entry["busy_ns"] == 300
        assert entry["max_queue_depth"] == 5
        assert merged["counters"]["ticks"] == 2

    def test_events_concatenate_and_resequence(self):
        a = InMemoryCollector()
        a.event("x")
        b = InMemoryCollector()
        b.event("y")
        b.event("z")
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert [e["kind"] for e in merged["events"]] == ["x", "y", "z"]
        assert [e["seq"] for e in merged["events"]] == [0, 1, 2]

    if HAVE_HYPOTHESIS:

        @settings(max_examples=50, deadline=None)
        @given(seeds=st.tuples(st.integers(0, 2**32 - 1),
                               st.integers(0, 2**32 - 1),
                               st.integers(0, 2**32 - 1)),
               tags=st.tuples(*[st.sampled_from(ABSORB_TAGS)] * 3))
        def test_associative(self, seeds, tags):
            a, b, c = (random_snapshot(random.Random(s)) for s in seeds)
            assert_merge_associative(a, b, c, tags)

    else:  # pragma: no cover - exercised only without hypothesis

        @pytest.mark.parametrize("seed", range(50))
        def test_associative(self, seed):
            rng = random.Random(seed)
            a, b, c = (random_snapshot(rng) for _ in range(3))
            assert_merge_associative(
                a, b, c, [rng.choice(ABSORB_TAGS) for _ in range(3)]
            )


# -- shard-aware aggregation ---------------------------------------------------


def op_totals(snapshot: dict) -> dict:
    return {
        name: (entry["tuples_in"], entry["tuples_out"])
        for name, entry in snapshot["operators"].items()
    }


class TestShardedAggregation:
    @pytest.mark.parametrize("backend", ("serial", "processes"))
    @pytest.mark.parametrize("shards", (1, 4))
    def test_merged_totals_match_serial(self, backend, shards):
        rng = random.Random(21)
        sources = make_trace(rng, n_tuples=120)
        ticks = trace_ticks(sources)

        reference = InMemoryCollector()
        fjord, _sink = build_five_stage(sources)
        fjord.run(ticks, telemetry=reference)
        expected = op_totals(reference.snapshot())

        collector = InMemoryCollector()
        run_sharded(
            sources,
            build_five_stage,
            ticks,
            key="spatial_granule",
            shards=shards,
            backend=backend,
            telemetry=collector,
        )
        snap = collector.snapshot()
        assert op_totals(snap) == expected, (backend, shards)
        kinds = [e["kind"] for e in snap["events"]]
        assert kinds[0] == "shard_partition"
        assert kinds[-1] == "shard_merge"
        # Every absorbed shard's events carry its shard index.
        tagged = {e.get("shard") for e in snap["events"] if "shard" in e}
        assert tagged == set(range(shards))

    def test_absorb_order_determines_event_order(self):
        """Backends absorb in shard order, so merged logs are identical."""
        rng = random.Random(22)
        sources = make_trace(rng, n_tuples=80)
        ticks = trace_ticks(sources)
        logs = []
        for backend in ("serial", "processes"):
            collector = InMemoryCollector()
            run_sharded(
                sources,
                build_five_stage,
                ticks,
                key="spatial_granule",
                shards=4,
                backend=backend,
                telemetry=collector,
            )
            events = collector.snapshot()["events"]
            # Drop the partition/merge envelope's backend field; all
            # remaining fields are deterministic.
            logs.append([
                {k: v for k, v in e.items() if k != "backend"}
                for e in events
            ])
        assert logs[0] == logs[1]

    def test_uninstrumented_sharded_run_collects_nothing(self):
        rng = random.Random(23)
        sources = make_trace(rng, n_tuples=40)
        ticks = trace_ticks(sources)
        previous = set_default_telemetry(None)
        try:
            sharded = run_sharded(
                sources, build_five_stage, ticks, shards=2, backend="serial"
            )
        finally:
            set_default_telemetry(previous)
        assert sharded.output  # ran fine, nothing collected anywhere
        assert default_telemetry().snapshot() == empty_snapshot()


# -- executor integration ------------------------------------------------------


class TestExecutorIntegration:
    def test_flow_counters_absorbed_into_telemetry(self):
        """Collector tuple totals equal the Fjord's own flow counters."""
        rng = random.Random(31)
        sources = make_trace(rng, n_tuples=100)
        ticks = trace_ticks(sources)
        collector = InMemoryCollector()
        fjord, _sink = build_five_stage(sources)
        fjord.run(ticks, telemetry=collector)
        stats = fjord.stats()
        totals = op_totals(collector.snapshot())
        for name, (n_in, n_out) in stats.items():
            assert totals[name] == (n_in, n_out), name

    def test_out_of_order_source_emits_event_then_raises(self):
        from repro.errors import OperatorError
        from repro.streams.fjord import Fjord
        from repro.streams.operators import UnionOp
        from repro.streams.tuples import StreamTuple

        fjord = Fjord()
        fjord.add_source(
            "src",
            [StreamTuple(1.0, {"v": 1}), StreamTuple(0.5, {"v": 2})],
        )
        fjord.add_operator("u", UnionOp(), inputs=["src"])
        fjord.add_sink("out", inputs=["u"])
        collector = InMemoryCollector()
        with pytest.raises(OperatorError, match="out of order"):
            fjord.run([0.0, 1.0, 2.0], telemetry=collector)
        events = collector.snapshot()["events"]
        disorder = [e for e in events if e["kind"] == "source_out_of_order"]
        assert len(disorder) == 1
        assert disorder[0]["source"] == "src"
        assert disorder[0]["timestamp"] == 0.5
        assert disorder[0]["previous"] == 1.0

    def test_invalid_backend_emits_validation_event(self):
        from repro.errors import OperatorError
        from repro.streams.shard import run_shard_jobs

        collector = InMemoryCollector()
        previous = set_default_telemetry(collector)
        try:
            with pytest.raises(OperatorError, match="unknown backend"):
                run_shard_jobs([], [0.0], backend="gpu")
        finally:
            set_default_telemetry(previous)
        events = collector.snapshot()["events"]
        assert any(
            e["kind"] == "validation_error" and e["value"] == "gpu"
            for e in events
        )

    def test_invalid_shard_count_emits_validation_event(self):
        from repro.errors import OperatorError
        from repro.streams.shard import resolve_execution

        collector = InMemoryCollector()
        previous = set_default_telemetry(collector)
        try:
            with pytest.raises(OperatorError, match="shards"):
                resolve_execution(0, "serial")
        finally:
            set_default_telemetry(previous)
        events = collector.snapshot()["events"]
        assert any(e["kind"] == "validation_error" for e in events)


# -- kernel-choice accounting --------------------------------------------------


def _five_stage_snapshot() -> dict:
    """Instrumented five-stage run over a fixed trace."""
    rng = random.Random(41)
    sources = make_trace(rng, n_tuples=120)
    ticks = trace_ticks(sources)
    collector = InMemoryCollector()
    fjord, _sink = build_five_stage(sources)
    fjord.run(ticks, telemetry=collector)
    return collector.snapshot()


def _scrub_wall_clock(snapshot: dict) -> dict:
    """Drop the wall-clock fields; everything left must be kernel-blind."""
    scrubbed = json.loads(json.dumps(snapshot))
    for entry in scrubbed["operators"].values():
        assert entry.pop("busy_ns") > 0
        entry.pop("latency_ns")
    for entry in scrubbed["spans"].values():
        entry.pop("total_ns")
        entry.pop("latency_ns")
    scrubbed["span_log"] = []
    return scrubbed


class TestColumnarAccounting:
    """Row and column kernels account identically.

    The drain partitions pending entries into maximal same-port runs
    before it picks a kernel, so per-operator tuple counts are exact,
    batch counts are exact, and the trace-event log is byte-identical
    whether no run reaches a column kernel (``row``) or every run at a
    node that has one does (``columnar``, see ``kernel_regime`` in
    conftest.py); only the wall-clock accumulators (busy-ns and the
    latency histogram) may differ.
    """

    def test_columnar_counters_match_row_exactly(self, kernel_regime):
        kernel_regime("row")
        row = _five_stage_snapshot()
        kernel_regime("columnar")
        columnar = _five_stage_snapshot()
        assert set(row["operators"]) == set(columnar["operators"])
        for name, entry in row["operators"].items():
            other = columnar["operators"][name]
            for field in (
                "tuples_in", "tuples_out",        # tuples: exact
                "batches", "batch_sizes",          # batches: exact
                "punctuations", "max_queue_depth",
            ):
                assert other[field] == entry[field], (name, field)
            assert entry["busy_ns"] > 0
            assert other["busy_ns"] > 0  # present, but wall-clock
        assert _scrub_wall_clock(row) == _scrub_wall_clock(columnar)

    def test_golden_scenario_events_are_mode_blind(self, kernel_regime):
        """With every run at the shelf pipeline's annotate and
        ``kindout:`` nodes (its only column-kernel nodes) on the column
        kernel, the golden scenario replays the pinned trace-event log
        exactly."""
        from repro.streams.traceio import read_trace_events

        kernel_regime("columnar")
        golden = read_trace_events(GOLDEN_DIR / "rfid_shelf_trace_events.jsonl")
        assert _golden_shelf_events() == golden


class _DepthLog(InMemoryCollector):
    """Keeps every queue-depth sample, not just the maximum."""

    def __init__(self):
        super().__init__()
        self.depths = []

    def sample_queue_depth(self, name, depth):
        super().sample_queue_depth(name, depth)
        self.depths.append((name, depth))


class TestQueueDepthGauge:
    """``sample_queue_depth`` means *tuples* waiting, whatever shape the
    pending entries have."""

    def test_depth_counts_tuples_not_entries(self):
        from repro.streams.columnar import ColumnBatch
        from repro.streams.fjord import Fjord
        from repro.streams.tuples import StreamTuple

        rows = [StreamTuple(0.0, {"v": i}) for i in range(5)]
        fjord = Fjord()
        fjord.add_source("src", [])
        fjord.add_sink("out", inputs=["src"])
        node = fjord._nodes["out"]
        node.pending.append((rows[0], 0))
        node.pending.append((rows[1:3], 0))
        node.pending.append((ColumnBatch.from_tuples(rows[3:]), 0))
        collector = _DepthLog()
        fjord._sample_tick(["out"], 0.0, {}, collector)
        assert collector.depths == [("out", 5)]

    def test_golden_scenario_samples_are_mode_blind(self, kernel_regime):
        from repro.pipelines.rfid_shelf import build_shelf_processor
        from repro.scenarios.shelf import ShelfScenario

        scenario = ShelfScenario(duration=12.0, seed=3)
        samples = {}
        for regime in ("row", "columnar"):
            kernel_regime(regime)
            collector = _DepthLog()
            build_shelf_processor(scenario, "smooth+arbitrate").run(
                until=scenario.duration,
                tick=scenario.poll_period,
                sources=scenario.recorded_streams(),
                telemetry=collector,
            )
            samples[regime] = collector.depths
        assert samples["row"]
        assert samples["row"] == samples["columnar"]


# -- presentation --------------------------------------------------------------


class TestFormatTable:
    def test_contains_all_columns_and_rows(self):
        col = InMemoryCollector()
        col.record_batch("busy_op", 10, 8, 2_000_000)
        col.record_batch("idle_op", 1, 1, 1_000)
        col.sample_queue_depth("busy_op", 7)
        col.count_source("src", 11)
        col.sample_watermark("src", 0.125)
        col.count_tick()
        text = format_table(
            col.snapshot(),
            rollups={
                "point": {
                    "tuples_in": 11,
                    "tuples_out": 9,
                    "batches": 2,
                    "busy_ns": 2_001_000,
                }
            },
        )
        for token in (
            "operator", "tuples_in", "p50_us", "p95_us", "max_queue",
            "busy_op", "idle_op", "src", "point", "ticks=1",
        ):
            assert token in text, token
        # Busiest operator sorts first.
        assert text.index("busy_op") < text.index("idle_op")

    def test_empty_snapshot_renders_header_only(self):
        text = format_table(empty_snapshot())
        assert "operator" in text
        assert "\n\n" not in text  # no trailing sections


# -- surfacing: CLI and golden trace events ------------------------------------


def _golden_shelf_events() -> list[dict]:
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.scenarios.shelf import ShelfScenario

    scenario = ShelfScenario(duration=12.0, seed=3)
    processor = build_shelf_processor(scenario, "smooth+arbitrate")
    collector = InMemoryCollector()
    run = processor.run(
        until=scenario.duration,
        tick=scenario.poll_period,
        sources=scenario.recorded_streams(),
        telemetry=collector,
    )
    assert run.output  # the pipeline actually ran
    return run.telemetry["events"]


class TestGoldenTraceEvents:
    GOLDEN = GOLDEN_DIR / "rfid_shelf_trace_events.jsonl"

    def test_events_match_golden(self, tmp_path):
        from repro.streams.traceio import write_trace_events

        assert self.GOLDEN.exists(), (
            f"missing golden file {self.GOLDEN}; regenerate with "
            f"PYTHONPATH=src python {__file__} --regenerate"
        )
        fresh = tmp_path / "events.jsonl"
        write_trace_events(_golden_shelf_events(), fresh)
        assert fresh.read_bytes() == self.GOLDEN.read_bytes(), (
            "trace events of the RFID shelf pipeline drifted from the "
            "golden log; if the change is intentional, regenerate and "
            "review the diff"
        )

    def test_golden_roundtrips(self):
        from repro.streams.traceio import read_trace_events

        events = read_trace_events(self.GOLDEN)
        assert events
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "batch_drain" in kinds
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestTraceEventIO:
    def test_write_read_roundtrip(self, tmp_path):
        from repro.streams.traceio import read_trace_events, write_trace_events

        events = [
            {"seq": 0, "kind": "run_start", "nodes": 2},
            {"seq": 1, "kind": "batch_drain", "node": "op", "t": 1.5},
        ]
        path = tmp_path / "events.jsonl"
        assert write_trace_events(events, path) == 2
        assert read_trace_events(path) == events

    def test_read_rejects_malformed_json(self, tmp_path):
        from repro.streams.traceio import read_trace_events

        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok"}\nnot json\n')
        with pytest.raises(ReproError, match=":2"):
            read_trace_events(path)

    def test_read_rejects_missing_kind(self, tmp_path):
        from repro.streams.traceio import read_trace_events

        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(ReproError, match="kind"):
            read_trace_events(path)


class TestCliSurfacing:
    def test_stats_and_trace_out_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.streams.traceio import read_trace_events

        trace = tmp_path / "trace.jsonl"
        status = main([
            "run", "fig5", "--fast", "--stats", "--trace-out", str(trace)
        ])
        assert status == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # experiment JSON is untouched
        for token in (
            "operator", "tuples_in", "p50_us", "max_queue",
            "stage", "smooth", "arbitrate", "wrote",
        ):
            assert token in captured.err, token
        events = read_trace_events(trace)
        assert events
        assert all("kind" in e for e in events)
        # The flags must not leak a default collector into later runs.
        assert default_telemetry() is NULL_COLLECTOR

    def test_run_without_flags_collects_nothing(self, capsys):
        from repro.cli import main

        assert default_telemetry() is NULL_COLLECTOR
        status = main(["list"])
        assert status == 0
        assert default_telemetry() is NULL_COLLECTOR


def _regenerate() -> None:
    from repro.streams.traceio import write_trace_events

    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / "rfid_shelf_trace_events.jsonl"
    count = write_trace_events(_golden_shelf_events(), path)
    print(f"wrote {count} trace events to {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
