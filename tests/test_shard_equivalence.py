"""Differential test harness for the sharded execution engine.

The parallel rewrite's whole risk is correctness, so every test here is
an equivalence proof by construction: identical inputs are fed to the
single-threaded Fjord and to every sharded backend at several shard
counts, and the *ordered* outputs, per-node flow counters and
punctuation behavior must match bit-for-bit.

Coverage:

- randomized traces (seeded generators, plus hypothesis when installed)
  with duplicated timestamps, empty shards and single-key skew;
- pipelines exercising all five ESP stages (Point, Smooth, Merge,
  Arbitrate, Virtualize);
- the paper's RFID shelf and mote scenario pipelines end-to-end.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import OperatorError
from repro.streams.aggregates import AggregateSpec
from repro.streams.fjord import Fjord
from repro.streams.operators import (
    FilterOp,
    GroupKey,
    MapOp,
    UnionOp,
    WindowedGroupByOp,
)
from repro.streams.shard import (
    BACKENDS,
    merge_outputs,
    merge_stats,
    partition_sources,
    run_shard_jobs,
    run_sharded,
    shard_of,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec

SHARD_COUNTS = (1, 2, 4, 7)

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    HAVE_HYPOTHESIS = False


# -- trace generation ----------------------------------------------------------

try:
    from tests.conftest import make_trace
except ImportError:  # pragma: no cover - direct file invocation
    from conftest import make_trace


def trace_ticks(sources, period: float = 1.0) -> list[float]:
    horizon = max(
        (items[-1].timestamp for items in sources.values() if items),
        default=0.0,
    )
    return [i * period for i in range(int(horizon / period) + 2)]


# -- pipelines under test ------------------------------------------------------


def build_five_stage(sources):
    """A pipeline exercising all five ESP stage shapes in one dataflow.

    Point (filter) → Smooth (per-key windowed count) → Merge (per-key
    windowed average) → Arbitrate-style pass (map re-stamp) →
    Virtualize (union rename) → sink.
    """
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator(
        "point",
        FilterOp(lambda t: t["value"] < 48.0),
        inputs=list(sources),
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
        inputs=["point"],
    )
    fjord.add_operator(
        "merge",
        WindowedGroupByOp(
            WindowSpec.range_by(5.0),
            keys=[GroupKey("spatial_granule")],
            aggregates=[
                AggregateSpec(
                    "avg", argument=lambda t: t["value"], output="value"
                ),
                AggregateSpec("sum", argument=lambda t: t["count"], output="n"),
            ],
        ),
        inputs=["smooth"],
    )
    fjord.add_operator(
        "arbitrate",
        MapOp(lambda t: t.derive(values={"attributed": True})),
        inputs=["merge"],
    )
    fjord.add_operator(
        "virtualize", UnionOp(output_stream="cleaned"), inputs=["arbitrate"]
    )
    sink = fjord.add_sink("out", inputs=["virtualize"])
    return fjord, sink


def build_stateless(sources):
    """Filter + map only — per-tuple outputs keep source timestamps."""
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator(
        "f", FilterOp(lambda t: t["value"] >= 10.0), inputs=list(sources)
    )
    fjord.add_operator(
        "m",
        MapOp(lambda t: t.derive(values={"scaled": t["value"] * 2.0})),
        inputs=["f"],
    )
    sink = fjord.add_sink("out", inputs=["m"])
    return fjord, sink


PIPELINES = {
    "five_stage": build_five_stage,
    "stateless": build_stateless,
}


def run_sequential(build, sources, ticks):
    fjord, sink = build(sources)
    fjord.run(ticks)
    return sink.results, fjord.stats()


def canonical_per_tick(output, ticks):
    """Sequential reference order: per tick, stable-sorted by shard key.

    For the windowed pipelines the sequential emission is already
    key-sorted per tick, so this is the identity there; the stateless
    pipeline interleaves sources per tick, which the sharded merge
    canonicalizes by key.
    """
    # Outputs arrive tick-by-tick in timestamp order of emission; group
    # them by the tick that emitted them (timestamps are <= tick).
    out = []
    index = 0
    for tick in ticks:
        bucket = []
        while index < len(output) and output[index].timestamp <= tick + 1e-9:
            bucket.append(output[index])
            index += 1
        bucket.sort(key=lambda t: str(t.get("spatial_granule")))
        out.extend(bucket)
    return out


def assert_equivalent(build, sources, ticks, expect_order=None):
    """Assert every backend × shard count reproduces the sequential run."""
    seq_output, seq_stats = run_sequential(build, sources, ticks)
    reference = seq_output if expect_order is None else expect_order(seq_output)
    for backend in BACKENDS:
        for shards in SHARD_COUNTS:
            sharded = run_sharded(
                sources,
                build,
                ticks,
                key="spatial_granule",
                shards=shards,
                backend=backend,
            )
            assert sharded.output == reference, (
                f"output mismatch: backend={backend} shards={shards}"
            )
            assert sharded.stats == seq_stats, (
                f"counter mismatch: backend={backend} shards={shards}"
            )
            # Punctuation behavior: windowed emissions are stamped at
            # tick times and never exceed the final tick.
            if sharded.output:
                assert max(t.timestamp for t in sharded.output) <= ticks[-1] + 1e-9
            assert sum(sharded.tuples_per_shard) == sum(
                len(items) for items in sources.values()
            )


# -- randomized differential tests ---------------------------------------------


class TestRandomizedTraces:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_five_stage_pipeline(self, seed):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=120)
        assert_equivalent(build_five_stage, sources, trace_ticks(sources))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stateless_pipeline(self, seed):
        rng = random.Random(seed)
        sources = make_trace(rng, n_tuples=150, n_sources=3)
        assert_equivalent(
            build_stateless,
            sources,
            trace_ticks(sources),
            expect_order=lambda out: canonical_per_tick(
                out, trace_ticks(sources)
            ),
        )

    def test_single_key_skew(self):
        """All tuples on one key: N-1 shards run empty, output unchanged."""
        rng = random.Random(99)
        sources = make_trace(rng, n_tuples=100, keys=("lonely",))
        seq_output, seq_stats = run_sequential(
            build_five_stage, sources, trace_ticks(sources)
        )
        sharded = run_sharded(
            sources,
            build_five_stage,
            trace_ticks(sources),
            shards=4,
            backend="serial",
        )
        assert sharded.output == seq_output
        assert sharded.stats == seq_stats
        loaded = [n for n in sharded.tuples_per_shard if n > 0]
        assert len(loaded) == 1  # every tuple landed on one shard

    def test_empty_sources(self):
        sources = {"src0": [], "src1": []}
        assert_equivalent(build_five_stage, sources, [0.0, 1.0, 2.0])

    def test_duplicate_timestamps_heavy(self):
        rng = random.Random(5)
        sources = make_trace(rng, n_tuples=80, duplicate_rate=0.95)
        assert_equivalent(build_five_stage, sources, trace_ticks(sources))


if HAVE_HYPOTHESIS:
    try:
        from tests.conftest import traces
    except ImportError:  # pragma: no cover - direct file invocation
        from conftest import traces

    class TestPropertyBased:
        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            sources=traces(),
            shards=st.sampled_from(SHARD_COUNTS),
            backend=st.sampled_from(BACKENDS),
        )
        def test_sharded_equals_sequential(self, sources, shards, backend):
            ticks = trace_ticks(sources)
            seq_output, seq_stats = run_sequential(
                build_five_stage, sources, ticks
            )
            sharded = run_sharded(
                sources,
                build_five_stage,
                ticks,
                shards=shards,
                backend=backend,
            )
            assert sharded.output == seq_output
            assert sharded.stats == seq_stats

else:  # pragma: no cover - exercised only without hypothesis installed

    class TestPropertyBased:
        @pytest.mark.parametrize("seed", range(25))
        def test_sharded_equals_sequential(self, seed):
            rng = random.Random(seed)
            sources = make_trace(
                rng,
                n_tuples=rng.randrange(0, 60),
                keys=tuple(f"k{i}" for i in range(rng.randrange(1, 7))),
                duplicate_rate=rng.choice((0.0, 0.3, 0.9)),
            )
            ticks = trace_ticks(sources)
            seq_output, seq_stats = run_sequential(
                build_five_stage, sources, ticks
            )
            sharded = run_sharded(
                sources,
                build_five_stage,
                ticks,
                shards=rng.choice(SHARD_COUNTS),
                backend=rng.choice(BACKENDS),
            )
            assert sharded.output == seq_output
            assert sharded.stats == seq_stats


# -- backend invariance --------------------------------------------------------


class TestBackendInvariance:
    def test_all_backends_identical_outputs(self):
        """serial/processes agree bit-for-bit at every N."""
        rng = random.Random(17)
        sources = make_trace(rng, n_tuples=100)
        ticks = trace_ticks(sources)
        reference = None
        for backend in BACKENDS:
            for shards in SHARD_COUNTS:
                run = run_sharded(
                    sources,
                    build_five_stage,
                    ticks,
                    shards=shards,
                    backend=backend,
                )
                if reference is None:
                    reference = run.output
                assert run.output == reference, (backend, shards)

    def test_worker_failure_surfaces(self):
        def broken(_sources):
            raise RuntimeError("boom in shard builder")

        with pytest.raises(OperatorError, match="boom in shard builder"):
            run_sharded(
                {"s": [StreamTuple(0.0, {"spatial_granule": "a"})]},
                broken,
                [0.0],
                shards=2,
                backend="processes",
            )


# -- engine unit behavior ------------------------------------------------------


class TestPartitioning:
    def test_stable_assignment(self):
        assert shard_of("shelf0", 4) == shard_of("shelf0", 4)

    def test_every_shard_lists_every_source(self):
        rng = random.Random(3)
        sources = make_trace(rng, n_tuples=30)
        for slices in partition_sources(sources, "spatial_granule", 5):
            assert set(slices) == set(sources)

    def test_partition_preserves_order_and_multiset(self):
        rng = random.Random(4)
        sources = make_trace(rng, n_tuples=50)
        shards = partition_sources(sources, "spatial_granule", 3)
        for name, items in sources.items():
            recombined = [t for slices in shards for t in slices[name]]
            assert sorted(recombined, key=lambda t: (t.timestamp, t["seq"])) == items
            for slices in shards:
                seqs = [t["seq"] for t in slices[name]]
                assert seqs == sorted(seqs)  # order preserved per slice

    def test_callable_key_requires_order_key(self):
        with pytest.raises(OperatorError, match="order_key"):
            run_sharded(
                {"s": []}, build_stateless, [0.0], key=lambda name, t: name
            )

    def test_merge_outputs_is_tickwise(self):
        from repro.streams.shard import ShardResult

        a = ShardResult(
            [[StreamTuple(0.0, {"k": "a"})], [StreamTuple(1.0, {"k": "a"})]],
            {},
        )
        b = ShardResult(
            [[StreamTuple(0.0, {"k": "b"})], [StreamTuple(1.0, {"k": "b"})]],
            {},
        )
        merged = merge_outputs([b, a], order_key=lambda t: str(t.get("k")))
        assert [(t.timestamp, t["k"]) for t in merged] == [
            (0.0, "a"),
            (0.0, "b"),
            (1.0, "a"),
            (1.0, "b"),
        ]

    def test_merge_stats_sums(self):
        from repro.streams.shard import ShardResult

        a = ShardResult([], {"n": (2, 1)})
        b = ShardResult([], {"n": (3, 4), "m": (1, 0)})
        assert merge_stats([a, b]) == {"n": (5, 5), "m": (1, 0)}

    def test_run_shard_jobs_rejects_unknown_backend(self):
        with pytest.raises(OperatorError, match="unknown backend"):
            run_shard_jobs([], [0.0], backend="gpu")


# -- the paper's scenario pipelines --------------------------------------------


@pytest.fixture(scope="module")
def shelf_case():
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.scenarios.shelf import ShelfScenario

    scenario = ShelfScenario(duration=40.0, seed=11)
    sources = scenario.recorded_streams()

    def run(**kwargs):
        processor = build_shelf_processor(scenario, "smooth+arbitrate")
        return processor.run(
            until=scenario.duration,
            tick=scenario.poll_period,
            sources=sources,
            **kwargs,
        )

    return run


@pytest.fixture(scope="module")
def mote_case():
    from repro.pipelines.sensornet import build_redwood_processor
    from repro.scenarios.redwood import RedwoodScenario

    scenario = RedwoodScenario(duration=0.1 * 86400.0, n_groups=4, seed=11)
    sources = scenario.recorded_streams()

    def run(**kwargs):
        processor = build_redwood_processor(scenario)
        # Default tick (the motes' sample period): one reading per device
        # per punctuation, the ordering contract group-scope Merge needs.
        return processor.run(
            until=scenario.duration, sources=sources, **kwargs
        )

    return run


class TestScenarioPipelines:
    """End-to-end equivalence on the paper's RFID and mote deployments.

    The RFID pipeline shards on ``tag_id`` (Arbitrate resolves conflicts
    *across* granules but never across tags); the mote pipeline shards on
    ``spatial_granule`` (Merge aggregates within a proximity group).
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_rfid_shelf_equivalence(self, shelf_case, backend, shards):
        sequential = shelf_case()
        sharded = shelf_case(
            shards=shards, backend=backend, shard_key="tag_id"
        )
        assert sharded.output == sequential.output
        assert sharded.stats == sequential.stats

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_mote_equivalence(self, mote_case, backend, shards):
        sequential = mote_case()
        sharded = mote_case(shards=shards, backend=backend)
        assert sharded.output == sequential.output
        assert sharded.stats == sequential.stats

    def test_taps_rejected_on_sharded_runs(self, shelf_case):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="taps"):
            shelf_case(shards=2, taps=("raw",))
