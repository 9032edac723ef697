"""Failure-injection tests: malformed and adversarial inputs.

A cleaning framework's whole job is dirty data; these tests check that
*structurally* broken inputs (missing fields, wrong types, hostile
values) degrade gracefully — rows are skipped or errors are precise,
never silent corruption.
"""


import pytest

from repro.core.operators.arbitrate_ops import MaxCountArbitrator
from repro.core.operators.merge_ops import sigma_outlier_average
from repro.core.operators.smooth_ops import presence_smoother
from repro.core.stages import StageContext, StageKind
from repro.cql import compile_query
from repro.errors import SchemaError, WindowError
from repro.streams.operators import run_operator
from repro.streams.tuples import StreamTuple


def tup(ts, stream="s", **fields):
    return StreamTuple(ts, fields, stream)


class TestMalformedReadingsThroughStages:
    def test_presence_smoother_drops_readings_without_id(self):
        # Readings without the id field don't crash the stage and don't
        # form a junk None-group — they are simply dropped.
        op = presence_smoother(window=5.0).make(
            StageContext(StageKind.SMOOTH)
        )
        items = [
            tup(0.0, tag_id="a", spatial_granule="g"),
            tup(0.0, spatial_granule="g"),  # no tag_id
        ]
        out = run_operator(op, items, [0.0])
        assert [t["tag_id"] for t in out] == ["a"]
        assert out[0]["count"] == 1

    def test_presence_smoother_refuses_an_out_of_order_reading(self):
        # A reading behind its tag's window is refused, as every other
        # windowed stage refuses it — not counted in windows (here the
        # one at t=10) it is not in.
        op = presence_smoother(window=5.0).make(
            StageContext(StageKind.SMOOTH)
        )
        op.on_batch([tup(9.0, tag_id="a", spatial_granule="g")])
        with pytest.raises(WindowError):
            op.on_batch([tup(2.0, tag_id="a", spatial_granule="g")])

    def test_arbitrator_skips_rows_missing_identity(self):
        op = MaxCountArbitrator(tie_break="all")
        items = [
            tup(0.0, tag_id="a", spatial_granule="g", count=2),
            tup(0.0, count=9),  # no tag, no granule
            tup(0.0, tag_id="b", count=9),  # no granule
        ]
        out = run_operator(op, items, [0.0])
        assert [(t["spatial_granule"], t["tag_id"]) for t in out] == [
            ("g", "a")
        ]

    def test_merge_skips_rows_without_value(self):
        op = sigma_outlier_average(window=10.0).make(
            StageContext(StageKind.MERGE)
        )
        items = [
            tup(0.0, spatial_granule="g", temp=20.0),
            tup(0.0, spatial_granule="g"),  # no temp
        ]
        out = run_operator(op, items, [0.0])
        assert out[0]["readings"] == 1

    def test_merge_with_non_finite_values(self):
        # A sensor reporting NaN must not poison the whole granule
        # forever; NaN windows produce NaN (visible!) not a crash.
        op = sigma_outlier_average(window=1.0).make(
            StageContext(StageKind.MERGE)
        )
        items = [tup(0.0, spatial_granule="g", temp=float("nan"))]
        out = run_operator(op, items, [0.0, 5.0])
        assert all(
            t["temp"] is None or isinstance(t["temp"], float) for t in out
        )

    def test_tuple_access_error_names_the_field(self):
        with pytest.raises(SchemaError) as err:
            tup(0.0, a=1)["missing_field"]
        assert "missing_field" in str(err.value)


class TestAdversarialValues:
    def test_query_filter_with_mixed_types_equality(self):
        # '=' between str and int is False, not an exception.
        query = compile_query("SELECT * FROM s WHERE v = 5")
        out = query.run(
            {"s": [tup(0.0, v="5"), tup(0.0, v=5)]}, [0.0]
        )
        assert len(out) == 1 and out[0]["v"] == 5

    def test_extreme_timestamps(self):
        op = presence_smoother(window=5.0).make(
            StageContext(StageKind.SMOOTH)
        )
        items = [tup(1e12, tag_id="a", spatial_granule="g")]
        out = run_operator(op, items, [1e12])
        assert out[0]["count"] == 1

    def test_huge_tag_population_bounded_state(self):
        # Unique tags every poll (a ghost storm): group state must be
        # garbage-collected as windows drain, not accumulate forever.
        from repro.streams.operators import WindowedGroupByOp, GroupKey
        from repro.streams.aggregates import AggregateSpec
        from repro.streams.windows import WindowSpec

        op = WindowedGroupByOp(
            WindowSpec.range_by(1.0),
            keys=[GroupKey("tag_id")],
            aggregates=[AggregateSpec("count", output="n")],
        )
        for step in range(200):
            op.on_tuple(tup(float(step), tag_id=f"ghost_{step}"))
            op.on_time(float(step))
        assert len(op._windows) <= 3

    def test_empty_sources_produce_empty_output(self):
        query = compile_query(
            "SELECT tag_id, count(*) AS c FROM s [Range By '5 sec'] "
            "GROUP BY tag_id"
        )
        assert query.run({"s": []}, [0.0, 1.0]) == []

    def test_vote_detector_predicate_errors_surface_loudly(self):
        # Predicates are user code: a type-confused predicate raises
        # (errors should never pass silently), and the detector's state
        # machine stays consistent for subsequent well-formed input.
        from repro.core.operators.virtualize_ops import VotingDetector

        detector = VotingDetector(
            votes={"a": lambda t: t.get("noise", 0) > 500, "b": None},
            threshold=2,
        )
        with pytest.raises(TypeError):
            detector.on_tuple(tup(0.0, "a", noise="loud"))  # wrong type
        detector.on_tuple(tup(0.0, "a", noise=700))
        detector.on_tuple(tup(0.0, "b"))
        assert detector.on_time(0.0)  # still fires correctly


class TestScenarioEdgeCases:
    def test_zero_relocated_items(self):
        from repro.scenarios import ShelfScenario

        scenario = ShelfScenario(duration=10.0, relocated_items=0, seed=1)
        assert scenario.true_count(0.0, 0) == 10
        assert scenario.recorded_streams()

    def test_single_poll_experiment(self):
        from repro.scenarios import ShelfScenario
        from repro.pipelines.rfid_shelf import query1_counts

        scenario = ShelfScenario(duration=0.2, seed=1)
        counts = query1_counts(scenario, "smooth+arbitrate")
        assert len(counts["shelf0"]) == 2  # ticks 0.0 and 0.2

    def test_redwood_single_group(self):
        from repro.scenarios import RedwoodScenario
        from repro.experiments.redwood import section52

        scenario = RedwoodScenario(
            duration=0.25 * 86400.0, n_groups=1, seed=2
        )
        stats = section52(scenario)
        assert 0.0 < stats["raw_yield"] < 1.0
        assert stats["n_granules"] == 1

    def test_office_person_never_enters(self):
        from repro.scenarios import OfficeScenario
        from repro.experiments.office import figure9

        scenario = OfficeScenario(duration=60.0, seed=3)
        scenario.occupied = lambda now: False  # empty room throughout
        # Rebuild devices against the new truth.
        scenario.registry = scenario._build_registry()
        scenario._recorded = None
        result = figure9(scenario)
        # Nearly no detections in an empty room.
        assert result["detected"].mean() < 0.2
