"""Unit tests for Stage definitions and the three programming models."""

import pytest

from repro.core.stages import (
    ArbitrateStage,
    MergeStage,
    PointStage,
    SmoothStage,
    Stage,
    StageContext,
    StageKind,
    VirtualizeStage,
)
from repro.errors import PipelineError
from repro.streams.operators import FilterOp
from repro.streams.tuples import StreamTuple


class TestStageKind:
    def test_pipeline_order(self):
        kinds = [
            StageKind.POINT,
            StageKind.SMOOTH,
            StageKind.MERGE,
            StageKind.ARBITRATE,
            StageKind.VIRTUALIZE,
        ]
        assert [k.order for k in kinds] == [0, 1, 2, 3, 4]

    def test_scopes(self):
        assert StageKind.POINT.scope == "stream"
        assert StageKind.SMOOTH.scope == "stream"
        assert StageKind.MERGE.scope == "group"
        assert StageKind.ARBITRATE.scope == "kind"
        assert StageKind.VIRTUALIZE.scope == "deployment"


class TestProgrammingModels:
    def test_from_query(self):
        stage = Stage.from_query(StageKind.POINT, "SELECT * FROM s WHERE v > 1")
        op = stage.make(StageContext(StageKind.POINT))
        out = op.on_tuple(StreamTuple(0.0, {"v": 2}, "s"))
        assert len(out) == 1

    def test_from_query_validates_syntax_eagerly(self):
        from repro.errors import CQLSyntaxError

        with pytest.raises(CQLSyntaxError):
            Stage.from_query(StageKind.POINT, "SELECT FROM nothing")

    def test_from_query_instances_independent(self):
        stage = Stage.from_query(
            StageKind.SMOOTH,
            "SELECT count(*) AS c FROM s [Range By '10 sec']",
        )
        ctx = StageContext(StageKind.SMOOTH)
        first, second = stage.make(ctx), stage.make(ctx)
        first.on_tuple(StreamTuple(0.0, {"v": 1}, "s"))
        assert first.on_time(0.0)[0]["c"] == 1
        assert second.on_time(0.0) == []  # no shared window state

    def test_from_function(self):
        stage = Stage.from_function(
            StageKind.POINT,
            lambda t: t if t["v"] > 0 else None,
        )
        op = stage.make(StageContext(StageKind.POINT))
        assert op.on_tuple(StreamTuple(0, {"v": 1})) != []
        assert op.on_tuple(StreamTuple(0, {"v": -1})) == []

    def test_from_operator_factory(self):
        stage = Stage.from_operator(
            StageKind.POINT, lambda ctx: FilterOp(lambda t: True)
        )
        assert isinstance(stage.make(StageContext(StageKind.POINT)), FilterOp)

    def test_factory_returning_non_operator_rejected(self):
        stage = Stage.from_operator(StageKind.POINT, lambda ctx: "nope")
        with pytest.raises(PipelineError):
            stage.make(StageContext(StageKind.POINT))

    def test_factory_receives_context(self):
        seen = {}

        def factory(ctx):
            seen["ctx"] = ctx
            return FilterOp(lambda t: True)

        stage = Stage.from_operator(StageKind.SMOOTH, factory)
        context = StageContext(StageKind.SMOOTH, receptor_kind="rfid")
        stage.make(context)
        assert seen["ctx"].receptor_kind == "rfid"


class TestConvenienceBuilders:
    def test_builders_set_kind(self):
        assert PointStage("SELECT * FROM s").kind is StageKind.POINT
        assert SmoothStage("SELECT * FROM s").kind is StageKind.SMOOTH
        assert MergeStage("SELECT * FROM s").kind is StageKind.MERGE
        assert ArbitrateStage("SELECT * FROM s").kind is StageKind.ARBITRATE
        assert VirtualizeStage("SELECT * FROM s").kind is StageKind.VIRTUALIZE

    def test_builder_accepts_factory(self):
        stage = PointStage(lambda ctx: FilterOp(lambda t: True))
        assert stage.kind is StageKind.POINT

    def test_builder_passthrough_of_matching_stage(self):
        inner = Stage.from_query(StageKind.POINT, "SELECT * FROM s")
        assert PointStage(inner) is inner

    def test_builder_rejects_mismatched_stage(self):
        inner = Stage.from_query(StageKind.SMOOTH, "SELECT * FROM s")
        with pytest.raises(PipelineError):
            PointStage(inner)

    def test_builder_rejects_operator_instance(self):
        with pytest.raises(PipelineError) as err:
            PointStage(FilterOp(lambda t: True))
        assert "factory" in str(err.value)

    def test_builder_rejects_garbage(self):
        with pytest.raises(PipelineError):
            PointStage(42)

    def test_repr(self):
        assert "point" in repr(PointStage("SELECT * FROM s"))
