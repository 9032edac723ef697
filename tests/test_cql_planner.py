"""Unit tests for the query planner: stateless, aggregation and HAVING."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cql import compile_query
from repro.errors import PlanError
from repro.streams.fjord import Fjord
from repro.streams.operators import UnionOp, WindowedGroupByOp
from repro.streams.tuples import StreamTuple
from tests.test_cql_paper_queries import ALL_QUERIES
from tests.test_streams_operators import key_of, key_rows, opaque, outcome


def tup(ts, stream="s", **fields):
    return StreamTuple(ts, fields, stream)


class TestStateless:
    def test_select_star_passthrough(self):
        query = compile_query("SELECT * FROM s")
        out = query.run({"s": [tup(0.0, v=1)]}, [0.0])
        assert out[0]["v"] == 1

    def test_where_filter(self):
        query = compile_query("SELECT * FROM s WHERE temp < 50")
        out = query.run(
            {"s": [tup(0.0, temp=30), tup(1.0, temp=80)]}, [0.0, 1.0]
        )
        assert [t["temp"] for t in out] == [30]

    def test_projection_with_alias(self):
        query = compile_query("SELECT temp AS celsius, 1 AS one FROM s")
        out = query.run({"s": [tup(0.0, temp=20)]}, [0.0])
        assert out[0].as_dict() == {"celsius": 20, "one": 1}

    def test_expression_projection(self):
        query = compile_query("SELECT temp * 2 + 1 AS x FROM s")
        out = query.run({"s": [tup(0.0, temp=10)]}, [0.0])
        assert out[0]["x"] == 21

    def test_missing_field_is_null(self):
        query = compile_query("SELECT * FROM s WHERE temp < 50")
        out = query.run({"s": [tup(0.0, other=1)]}, [0.0])
        assert out == []  # NULL comparison is false

    def test_qualifier_matching_alias_resolves(self):
        query = compile_query("SELECT * FROM s alias WHERE alias.v > 1")
        out = query.run({"s": [tup(0.0, v=2)]}, [0.0])
        assert len(out) == 1

    def test_unknown_qualifier_falls_back_to_bare(self):
        # Paper Query 6 writes sensors.noise over stream sensors_input.
        query = compile_query("SELECT * FROM sensors_input WHERE sensors.noise > 5")
        out = query.run({"sensors_input": [tup(0.0, noise=10)]}, [0.0])
        assert len(out) == 1

    def test_having_without_groupby_rejected(self):
        with pytest.raises(PlanError):
            compile_query("SELECT a FROM s HAVING a > 1")

    def test_single_stream_accepts_renamed_input(self):
        # The ESP processor renames streams; single-input queries adapt.
        query = compile_query("SELECT * FROM expected_name WHERE v > 0")
        out = query.run({"some_other_name": [tup(0.0, v=1)]}, [0.0])
        assert len(out) == 1


class TestAggregation:
    def test_windowed_count_distinct(self):
        query = compile_query(
            "SELECT shelf, count(distinct tag_id) AS n "
            "FROM s [Range By '5 sec'] GROUP BY shelf"
        )
        rows = [
            tup(0.0, shelf=0, tag_id="a"),
            tup(0.0, shelf=0, tag_id="a"),
            tup(0.0, shelf=1, tag_id="b"),
        ]
        out = query.run({"s": rows}, [0.0])
        assert {t["shelf"]: t["n"] for t in out} == {0: 1, 1: 1}

    def test_aggregate_without_window_rejected(self):
        with pytest.raises(PlanError) as err:
            compile_query("SELECT count(*) FROM s")
        assert "window" in str(err.value)

    def test_where_applies_before_window(self):
        query = compile_query(
            "SELECT count(*) AS c FROM s [Range By '10 sec'] WHERE v > 0"
        )
        out = query.run({"s": [tup(0.0, v=1), tup(0.0, v=-1)]}, [0.0])
        assert out[0]["c"] == 1

    def test_global_aggregate_empty_window_emits_nothing(self):
        query = compile_query(
            "SELECT count(*) AS c FROM s [Range By 'NOW']"
        )
        out = query.run({"s": [tup(0.0, v=1)]}, [0.0, 1.0])
        assert [t["c"] for t in out] == [1]  # nothing at t=1

    def test_having_over_aggregate(self):
        query = compile_query(
            "SELECT tag_id FROM s [Range By '5 sec'] "
            "GROUP BY tag_id HAVING count(*) >= 2"
        )
        rows = [tup(0.0, tag_id="a"), tup(0.0, tag_id="a"), tup(0.0, tag_id="b")]
        out = query.run({"s": rows}, [0.0])
        assert [t["tag_id"] for t in out] == ["a"]

    def test_having_aggregate_not_in_select(self):
        query = compile_query(
            "SELECT 1 AS cnt FROM s [Range By 'NOW'] "
            "HAVING count(distinct tag_id) > 1"
        )
        out = query.run(
            {"s": [tup(0.0, tag_id="a"), tup(0.0, tag_id="b")]}, [0.0]
        )
        assert out[0]["cnt"] == 1
        out2 = compile_query(
            "SELECT 1 AS cnt FROM s [Range By 'NOW'] "
            "HAVING count(distinct tag_id) > 1"
        ).run({"s": [tup(0.0, tag_id="a")]}, [0.0])
        assert out2 == []

    def test_implicit_group_by_bare_column(self):
        # Paper Query 5's subquery: bare column next to aggregates.
        query = compile_query(
            "SELECT g, avg(v) AS m FROM s [Range By '5 sec']"
        )
        rows = [tup(0.0, g="x", v=1.0), tup(0.0, g="y", v=3.0)]
        out = query.run({"s": rows}, [0.0])
        assert {t["g"]: t["m"] for t in out} == {"x": 1.0, "y": 3.0}

    def test_expression_over_aggregates(self):
        query = compile_query(
            "SELECT max(v) - min(v) AS spread FROM s [Range By '5 sec']"
        )
        rows = [tup(0.0, v=v) for v in (1.0, 5.0, 3.0)]
        out = query.run({"s": rows}, [0.0])
        assert out[0]["spread"] == 4.0

    def test_sliding_window_semantics_across_ticks(self):
        query = compile_query(
            "SELECT count(*) AS c FROM s [Range By '2 sec']"
        )
        rows = [tup(0.0, v=1), tup(1.0, v=1), tup(3.5, v=1)]
        out = query.run({"s": rows}, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert [t["c"] for t in out] == [1, 2, 2, 1, 1]

    def test_aggregate_argument_count_validation(self):
        with pytest.raises(PlanError):
            compile_query("SELECT avg(a, b) FROM s [Range By '1 sec']")


class TestQuantifiedHaving:
    QUERY = """
        SELECT spatial_granule, tag_id
        FROM arbitrate_input ai1 [Range By 'NOW']
        GROUP BY spatial_granule, tag_id
        HAVING count(*) >= ALL(SELECT count(*)
                               FROM arbitrate_input ai2 [Range By 'NOW']
                               WHERE ai1.tag_id = ai2.tag_id
                               GROUP BY spatial_granule)
    """

    def rows(self, counts: dict):
        out = []
        for (granule, tag), n in counts.items():
            out.extend(
                tup(0.0, spatial_granule=granule, tag_id=tag)
                for _ in range(n)
            )
        return out

    def test_attributes_to_max_count_granule(self):
        out = compile_query(self.QUERY).run(
            {"arbitrate_input": self.rows({("g0", "a"): 3, ("g1", "a"): 1})},
            [0.0],
        )
        assert [(t["spatial_granule"], t["tag_id"]) for t in out] == [("g0", "a")]

    def test_tie_keeps_both(self):
        out = compile_query(self.QUERY).run(
            {"arbitrate_input": self.rows({("g0", "a"): 2, ("g1", "a"): 2})},
            [0.0],
        )
        assert len(out) == 2  # >= ALL keeps ties on both sides

    def test_independent_tags(self):
        out = compile_query(self.QUERY).run(
            {
                "arbitrate_input": self.rows(
                    {("g0", "a"): 3, ("g1", "a"): 1, ("g1", "b"): 1}
                )
            },
            [0.0],
        )
        pairs = {(t["spatial_granule"], t["tag_id"]) for t in out}
        assert pairs == {("g0", "a"), ("g1", "b")}

    def test_mismatched_stream_rejected(self):
        with pytest.raises(PlanError):
            compile_query(
                "SELECT g, t FROM s x [Range By 'NOW'] GROUP BY g, t "
                "HAVING count(*) >= ALL(SELECT count(*) FROM other y "
                "[Range By 'NOW'] WHERE x.t = y.t GROUP BY g)"
            )

    def test_uncorrelated_subquery_rejected(self):
        with pytest.raises(PlanError) as err:
            compile_query(
                "SELECT g, t FROM s x [Range By 'NOW'] GROUP BY g, t "
                "HAVING count(*) >= ALL(SELECT count(*) FROM s y "
                "[Range By 'NOW'] GROUP BY g)"
            )
        assert "correlated" in str(err.value)

    def test_correlation_not_in_group_keys_rejected(self):
        with pytest.raises(PlanError):
            compile_query(
                "SELECT g FROM s x [Range By 'NOW'] GROUP BY g "
                "HAVING count(*) >= ALL(SELECT count(*) FROM s y "
                "[Range By 'NOW'] WHERE x.t = y.t GROUP BY g)"
            )

    def test_any_quantifier(self):
        query = compile_query(
            "SELECT spatial_granule, tag_id "
            "FROM s ai1 [Range By 'NOW'] GROUP BY spatial_granule, tag_id "
            "HAVING count(*) > ANY(SELECT count(*) FROM s ai2 "
            "[Range By 'NOW'] WHERE ai1.tag_id = ai2.tag_id "
            "GROUP BY spatial_granule)"
        )
        out = query.run(
            {"s": self.rows({("g0", "a"): 3, ("g1", "a"): 1})}, [0.0]
        )
        # g0 (3) > some count (1) -> passes; g1 (1) > nothing -> fails
        assert [(t["spatial_granule"]) for t in out] == ["g0"]


class TestUnion:
    def test_union_merges_streams(self):
        query = compile_query("SELECT v FROM a UNION SELECT v FROM b")
        out = query.run(
            {"a": [tup(0.0, v=1)], "b": [tup(0.0, v=2)]}, [0.0]
        )
        assert sorted(t["v"] for t in out) == [1, 2]

    def test_union_of_aggregates(self):
        query = compile_query(
            "SELECT count(*) AS c FROM a [Range By 'NOW'] "
            "UNION SELECT count(*) AS c FROM b [Range By 'NOW']"
        )
        out = query.run(
            {"a": [tup(0.0, v=1)], "b": [tup(0.0, v=1), tup(0.0, v=2)]},
            [0.0],
        )
        assert sorted(t["c"] for t in out) == [1, 2]


class TestPlanErrors:
    def test_from_required(self):
        from repro.cql.ast import Select

        with pytest.raises(PlanError):
            compile_query(Select([], []))

    def test_input_streams_listed(self):
        query = compile_query("SELECT * FROM stream_a")
        assert query.input_streams == ["stream_a"]

    def test_repr_mentions_query(self):
        assert "SELECT" in repr(compile_query("SELECT * FROM s"))


# -- a compiled plan's nodes are host Fjord nodes ------------------------------

DIFFERENTIAL_QUERIES = {
    **ALL_QUERIES,
    "union_one_stream": (
        "SELECT v, 'hi' AS side FROM s WHERE v > 3 "
        "UNION SELECT v, 'lo' AS side FROM s WHERE v < 6"
    ),
    "two_stream_join": (
        "SELECT l.v AS x, r.temp AS y "
        "FROM merge_input l [Range By '1 sec'], "
        "point_input r [Range By '1 sec'] WHERE l.v = r.v"
    ),
}


def _rows(seed):
    """Rows carrying every field the differential queries read."""
    import random

    rng = random.Random(seed)
    return [
        StreamTuple(
            0.25 * (i // 3),
            {
                "v": rng.randrange(10),
                "shelf": rng.choice("AB"),
                "spatial_granule": rng.choice("AB"),
                "tag_id": rng.choice("xyz"),
                "temp": rng.choice((18.5, 20.0, 21.25, 95.0)),
                "noise": rng.randrange(400, 700),
                "value": rng.choice(("ON", "OFF")),
            },
        )
        for i in range(120)
    ]


def _hosted(compiled, sources, via_nodes):
    """``compiled`` wired into a host Fjord as stage ``q``, each stream
    fed straight by its source or, with ``via_nodes``, through an
    identity node of the host; returns the host and its sink."""
    fjord = Fjord()
    feeds = {}
    for stream, items in sources.items():
        fjord.add_source(stream, items)
        feeds[stream] = [stream]
        if via_nodes:
            fjord.add_operator(f"feed:{stream}", UnionOp(), inputs=[stream])
            feeds[stream] = [f"feed:{stream}"]
    sink = fjord.add_sink("out", inputs=[compiled.wire(fjord, "q", feeds)])
    return fjord, sink


def _plan_stats(fjord):
    return {name: flow for name, flow in fjord.stats().items() if name.startswith("q/")}


class TestCompiledPlanIsAFjord:
    """The delivery-order contract: a compiled plan's operators are
    nodes of the host Fjord, and they emit what they emit in a Fjord of
    their own (:meth:`CompiledQuery.run`), whatever host nodes feed
    them."""

    TICKS = [0.5 * i for i in range(24)]

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_QUERIES))
    def test_output_and_stats_match_hand_wired_fjord(self, name):
        text = DIFFERENTIAL_QUERIES[name]
        compiled = compile_query(text)
        sources = {
            stream: [t.derive(stream=stream) for t in _rows(seed)]
            for seed, stream in enumerate(compiled.input_streams)
        }
        got = compiled.run(sources, self.TICKS)
        direct, direct_sink = _hosted(compile_query(text), sources, False)
        hosted, hosted_sink = _hosted(compile_query(text), sources, True)
        direct.run(self.TICKS)
        hosted.run(self.TICKS)
        assert got and got == direct_sink.results == hosted_sink.results
        assert len(_plan_stats(direct)) == len(compiled.plan)
        assert _plan_stats(direct) == _plan_stats(hosted)

    def test_same_stream_branches_emit_branch_by_branch_per_run(self):
        text = DIFFERENTIAL_QUERIES["union_one_stream"]
        run = [tup(0.0, v=1), tup(0.0, v=5), tup(0.0, v=9)]
        out = compile_query(text).run({"s": run}, [0.0])
        assert [(t["v"], t["side"]) for t in out] == [
            (5, "hi"), (9, "hi"), (1, "lo"), (5, "lo"),
        ]
        # ... so the cut into runs (here: one tick per tuple) shows, as
        # it does in any Fjord.
        spread = [tup(0.1 * i, v=item["v"]) for i, item in enumerate(run)]
        out = compile_query(text).run({"s": spread}, [0.0, 0.1, 0.2])
        assert [(t["v"], t["side"]) for t in out] == [
            (1, "lo"), (5, "hi"), (5, "lo"), (9, "hi"),
        ]

    def _session(self, text, stream):
        fjord = Fjord()
        fjord.add_source(stream, [])
        output = compile_query(text).wire(fjord, "q", {stream: [stream]})
        sink = fjord.add_sink("out", inputs=[output])
        return fjord, fjord.open_session(self.TICKS), sink

    def test_checkpoint_is_the_plan_nodes_state(self):
        import pickle

        rows = [t.derive(stream="merge_input") for t in _rows(0)]
        stateless, session, _sink = self._session(
            "SELECT v FROM s WHERE v > 3", "s"
        )
        session.push_run("s", rows[:60])
        session.advance(rows[59].timestamp)
        nodes = session.checkpoint()["nodes"]
        plan_nodes = _plan_stats(stateless)
        assert [nodes[name]["state"] for name in plan_nodes] == [None] * 2

        text = DIFFERENTIAL_QUERIES["query5"]
        baseline, session, sink = self._session(text, "merge_input")
        session.push_run("merge_input", rows[:60])
        session.advance(rows[59].timestamp)
        state = session.checkpoint()
        assert any(state["nodes"][name]["state"] for name in _plan_stats(baseline))
        resumed, resumed_session, resumed_sink = self._session(text, "merge_input")
        resumed_session.restore(pickle.loads(pickle.dumps(state)))
        for open_session in (session, resumed_session):
            open_session.push_run("merge_input", rows[60:])
            open_session.close()
        assert sink.results == resumed_sink.results != []
        assert _plan_stats(baseline) == _plan_stats(resumed)


#: GROUP BY shapes the planner compiles: bare references, a qualifier
#: the scope ignores, and qualified references over join rows.
GROUP_BY_QUERIES = {
    "bare": "SELECT g, count(*) AS c FROM s [Range By '5 sec'] GROUP BY g",
    "two bare": (
        "SELECT g, h, count(*) AS c FROM s [Range By '5 sec'] GROUP BY g, h"
    ),
    "implicit": "SELECT h, count(*) AS c FROM s [Range By '5 sec']",
    "unbound qualifier": (
        "SELECT x.g, count(*) AS c FROM s [Range By '5 sec'] GROUP BY x.g"
    ),
    "qualified": (
        "SELECT a.g, count(*) AS c FROM a [Range By 'NOW'], "
        "b [Range By 'NOW'] WHERE a.h = b.h GROUP BY a.g"
    ),
}


def _planned_keys(text):
    (keys,) = [
        op._keys for op, _edges in compile_query(text).plan
        if isinstance(op, WindowedGroupByOp)
    ]
    return keys


class TestDeclaredGroupKeys:
    """Each GROUP BY column reference declares the field its resolver
    reads, and a row's compiled key is the resolvers' key: a missing
    field, a ``*.name`` fallback (one hit or two) and a NULL alike."""

    @pytest.mark.parametrize("shape", sorted(GROUP_BY_QUERIES))
    def test_every_reference_declares_a_field(self, shape):
        keys = _planned_keys(GROUP_BY_QUERIES[shape])
        assert keys and not any(key.opaque for key in keys)

    def test_qualified_reference_reads_its_dotted_field(self):
        (key,) = _planned_keys(GROUP_BY_QUERIES["qualified"])
        assert (key.name, key.field) == ("g", "a.g")

    @given(
        shape=st.sampled_from(sorted(GROUP_BY_QUERIES)),
        values=key_rows(("g", "h", "a.g", "b.g", "x.g")),
    )
    def test_compiled_key_is_the_resolvers_key(self, shape, values):
        keys = _planned_keys(GROUP_BY_QUERIES[shape])
        row = StreamTuple(0.0, values, "s")
        assert outcome(lambda: key_of(keys, row)) == outcome(
            lambda: key_of(opaque(keys), row)
        )
