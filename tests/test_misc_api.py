"""Coverage of small API surfaces: reprs, exports, edge paths."""


import repro
from repro.core.granules import SpatialGranule, TemporalGranule
from repro.core.pipeline import ESPRun
from repro.cql import parse
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec


class TestPublicExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_streams_all_resolves(self):
        import repro.streams as streams

        for name in streams.__all__:
            assert getattr(streams, name) is not None

    def test_operator_toolkit_all_resolves(self):
        import repro.core.operators as ops

        for name in ops.__all__:
            assert getattr(ops, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_py_typed_marker_shipped(self):
        from pathlib import Path

        assert (Path(repro.__file__).parent / "py.typed").exists()


class TestReprs:
    def test_esp_run_repr(self):
        run = ESPRun()
        run.output = [StreamTuple(0.0, {"x": 1})]
        run.taps["rfid/raw"] = []
        text = repr(run)
        assert "1 tuples" in text and "rfid/raw" in text

    def test_select_repr_mentions_clauses(self):
        tree = parse(
            "SELECT a FROM s [Range By '5 sec'] WHERE a > 1 "
            "GROUP BY a HAVING count(*) > 1"
        )
        text = repr(tree)
        for fragment in ("items=", "sources=", "where=", "group_by=",
                         "having="):
            assert fragment in text

    def test_stream_ref_repr(self):
        tree = parse("SELECT * FROM s alias [Range By 'NOW']")
        assert "AS alias" in repr(tree.sources[0])

    def test_subquery_source_repr(self):
        tree = parse("SELECT * FROM (SELECT a FROM s) AS sub")
        assert "AS sub" in repr(tree.sources[0])

    def test_window_spec_reprs(self):
        assert "NOW" in repr(WindowSpec.now())
        assert "Rows 3" in repr(WindowSpec.rows(3))
        assert "5" in repr(WindowSpec.range_by(5.0))

    def test_case_expr_repr(self):
        tree = parse("SELECT CASE WHEN a THEN 1 ELSE 0 END AS x FROM s")
        text = repr(tree.items[0].expr)
        assert "WHEN" in text and "ELSE" in text

    def test_quantified_repr(self):
        tree = parse(
            "SELECT g, t FROM s x [Range By 'NOW'] GROUP BY g, t "
            "HAVING count(*) >= ALL(SELECT count(*) FROM s y "
            "[Range By 'NOW'] WHERE x.t = y.t GROUP BY g)"
        )
        assert "ALL" in repr(tree.having)

    def test_granule_reprs(self):
        assert "5s" in repr(TemporalGranule(5.0))
        assert "shelf0" in repr(SpatialGranule("shelf0"))


class TestSmallEdges:
    def test_union_chain_equality_semantics(self):
        first = parse("SELECT a FROM s UNION SELECT a FROM t")
        second = parse("SELECT a FROM s UNION SELECT a FROM t")
        assert first == second

    def test_select_not_equal_to_other_type(self):
        assert parse("SELECT a FROM s") != 42

    def test_compiled_query_ignores_unknown_streams_when_multi_input(self):
        from repro.cql import compile_query

        query = compile_query(
            "SELECT l.v AS x FROM a l [Range By 'NOW'], b r [Range By 'NOW'] "
            "WHERE l.k = r.k"
        )
        # A stream the query never mentions is not read.
        row = StreamTuple(0.0, {"k": 1, "v": 2})
        out = query.run({"a": [row], "b": [row], "mystery": [row] * 3}, [0.0])
        assert [t["x"] for t in out] == [2]

    def test_first_time_helper_none(self):
        import numpy as np

        from repro.experiments.intel_lab import _first_time

        assert _first_time(np.array([1.0, 2.0]), np.array([False, False])) is None
        assert _first_time(np.array([1.0, 2.0]), np.array([False, True])) == 2.0

    def test_receptor_kind_values(self):
        from repro.receptors.base import ReceptorKind

        assert {k.value for k in ReceptorKind} == {"rfid", "mote", "x10"}

    def test_duration_is_now_property(self):
        from repro.streams.time import Duration

        assert Duration(0.0).is_now
        assert not Duration(1.0).is_now
