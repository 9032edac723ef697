"""Unit tests for the columnar batch representation.

Covers the ColumnBatch encoding itself — round-trips, one schema per
batch, lazy materialization, slice views, coalescing — plus the
vectorizable callables, the zero-copy regression through consecutive
column kernels, and ChainOp's row path. The row-kernel ≡ column-kernel
equivalence lives in ``tests/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import OperatorError, SchemaError
from repro.streams.columnar import (
    AddFields,
    ColumnBatch,
    FieldCompare,
    SetStream,
    coalesce,
)
from repro.streams.fjord import Fjord
from repro.streams.operators import ChainOp, FilterOp, MapOp, UnionOp
from repro.streams.tuples import StreamTuple


def make_rows(n=8, stream="s"):
    rng = random.Random(n)
    return [
        StreamTuple(
            float(i),
            {"tag_id": f"T{i % 3}", "value": round(rng.uniform(0, 50), 3)},
            stream,
        )
        for i in range(n)
    ]


# -- encode / decode round-trip ------------------------------------------------


class TestRoundTrip:
    def test_from_tuples_tuples_identity(self):
        rows = make_rows(10)
        batch = ColumnBatch.from_tuples(rows)
        assert batch.tuples() == rows
        assert len(batch) == 10
        assert list(batch) == rows

    def test_round_trip_through_columns(self):
        """Decoding a batch built column-wise yields equal tuples."""
        rows = make_rows(6)
        encoded = ColumnBatch.from_tuples(rows)
        rebuilt = ColumnBatch(
            list(encoded.timestamps),
            list(encoded.streams),
            {f: list(col) for f, col in encoded.columns.items()},
        )
        assert rebuilt.tuples() == rows
        assert rebuilt == encoded

    def test_rows_of_different_fields_are_refused(self):
        """A batch holds one schema: rows whose field sets differ are
        refused, whichever row differs. The same fields in another
        order are one schema, in the first row's column order."""
        a, b, ab, ba = (
            StreamTuple(0.0, {"a": 1}, "x"),
            StreamTuple(1.0, {"b": 2.5}, "y"),
            StreamTuple(2.0, {"a": 3, "b": 4.5}, "x"),
            StreamTuple(3.0, {"b": 5.5, "a": 6}, "y"),
        )
        for rows in ([a, b], [ab, a], [a, a, ab]):
            with pytest.raises(OperatorError, match="one schema"):
                ColumnBatch.from_tuples(rows)
        batch = ColumnBatch.from_tuples([ab, ba])
        assert list(batch.columns) == ["a", "b"]
        assert ColumnBatch(
            batch.timestamps, batch.streams, batch.columns
        ).tuples() == [ab, ba]

    def test_empty_batch(self):
        batch = ColumnBatch.empty()
        assert len(batch) == 0
        assert batch.tuples() == []
        assert ColumnBatch.from_tuples([]) == batch

    def test_ragged_columns_rejected(self):
        with pytest.raises(OperatorError, match="ragged"):
            ColumnBatch([0.0, 1.0], ["s", "s"], {"x": [1]})
        with pytest.raises(OperatorError, match="ragged"):
            ColumnBatch([0.0], ["s", "s"], {})


# -- lazy materialization ------------------------------------------------------


class TestLazyMaterialization:
    def test_from_tuples_caches_input_rows(self):
        rows = make_rows(4)
        batch = ColumnBatch.from_tuples(rows)
        # The cache is the very list/objects handed in — zero decode cost.
        assert batch.tuples()[0] is rows[0]

    def test_column_built_batch_is_lazy(self):
        batch = ColumnBatch([0.0, 1.0], ["s", "s"], {"x": [1, 2]})
        assert batch._tuples is None
        first = batch.tuples()
        assert batch.tuples() is first  # cached, not rebuilt

    def test_with_stream_shares_columns_and_defers(self):
        rows = make_rows(5)
        batch = ColumnBatch.from_tuples(rows)
        assert batch.columns  # force the encode: sharing is column-level
        relabeled = batch.with_stream("other")
        assert relabeled.columns is batch.columns  # shared, not copied
        assert relabeled._tuples is None
        assert [t.stream for t in relabeled.tuples()] == ["other"] * 5
        assert [t.as_dict() for t in relabeled.tuples()] == [
            t.as_dict() for t in rows
        ]

    def test_with_stream_unencoded_stays_lazy(self):
        rows = make_rows(5)
        batch = ColumnBatch.from_tuples(rows)
        relabeled = batch.with_stream("other")
        assert batch._columns is None  # relabeling never forces an encode
        assert relabeled._columns is None
        assert [t.stream for t in relabeled.tuples()] == ["other"] * 5
        # The relabeled rows share the originals' value dicts outright.
        assert relabeled.tuples()[0]._values is rows[0]._values

    def test_with_columns_shares_untouched_columns(self):
        batch = ColumnBatch.from_tuples(make_rows(5))
        assert batch.columns  # force the encode
        extended = batch.with_columns({"granule": "g0"})
        assert extended.columns["tag_id"] is batch.columns["tag_id"]
        assert extended.columns["granule"] == ["g0"] * 5
        expected = [
            t.derive(values={"granule": "g0"}) for t in batch.tuples()
        ]
        assert extended.tuples() == expected

    def test_with_columns_unencoded_stays_lazy(self):
        batch = ColumnBatch.from_tuples(make_rows(5))
        extended = batch.with_columns({"granule": "g0"})
        assert batch._columns is None  # adding constants derives rows
        assert extended._columns is None
        expected = [
            t.derive(values={"granule": "g0"}) for t in batch.tuples()
        ]
        assert extended.tuples() == expected
        assert extended.columns["granule"] == ["g0"] * 5


# -- slice views ---------------------------------------------------------------


class TestSliceViews:
    def test_take_subset(self):
        rows = make_rows(8)
        batch = ColumnBatch.from_tuples(rows)
        view = batch.take([1, 4, 6])
        assert view.tuples() == [rows[1], rows[4], rows[6]]
        # Cached rows slice through: same objects, no re-decode.
        assert view.tuples()[0] is rows[1]

    def test_take_all_returns_self(self):
        batch = ColumnBatch.from_tuples(make_rows(4))
        assert batch.take(range(4)) is batch

    def test_take_nothing_is_empty(self):
        batch = ColumnBatch.from_tuples(make_rows(4))
        assert len(batch.take([])) == 0

    def test_where_mask(self):
        rows = make_rows(8)
        batch = ColumnBatch.from_tuples(rows)
        mask = [t["value"] < 25.0 for t in rows]
        kept = batch.where(mask)
        assert kept.tuples() == [t for t in rows if t["value"] < 25.0]

    def test_where_all_truthy_returns_self(self):
        batch = ColumnBatch.from_tuples(make_rows(4))
        assert batch.where([1, True, "yes", 2]) is batch

    def test_where_wrong_length_rejected(self):
        batch = ColumnBatch.from_tuples(make_rows(4))
        with pytest.raises(OperatorError, match="mask"):
            batch.where([True])

    def test_concat_refuses_different_schemas(self):
        a = ColumnBatch.from_tuples([StreamTuple(0.0, {"x": 1}, "a")])
        b = ColumnBatch.from_tuples([StreamTuple(1.0, {"y": 2}, "b")])
        with pytest.raises(OperatorError, match="different schemas"):
            ColumnBatch.concat([a, b])
        same = ColumnBatch.from_tuples([StreamTuple(2.0, {"x": 3}, "b")])
        assert ColumnBatch.concat([a, same]).tuples() == (
            a.tuples() + same.tuples()
        )

    def test_coalesce_mixed_payloads(self):
        rows = make_rows(9)
        listed = rows[5:7]  # a row-list payload (on_time output)
        run = [
            rows[0],
            rows[1],
            ColumnBatch.from_tuples(rows[2:4]),
            rows[4],
            listed,
            ColumnBatch.from_tuples(rows[7:8]),
            rows[8:],
        ]
        assert coalesce(run).tuples() == rows
        assert listed == rows[5:7]  # borrowed, not extended in place
        assert coalesce([listed]).tuples() is not listed

    def test_coalesce_single_batch_is_identity(self):
        batch = ColumnBatch.from_tuples(make_rows(3))
        assert coalesce([batch]) is batch

    def test_coalesce_of_two_schemas_is_none(self):
        """A run whose rows do not share one schema is no batch: two
        encoded batches, a batch and rows, or loose rows."""
        rows = make_rows(4)
        other = [t.derive(values={"extra": 1}) for t in make_rows(4)]
        left = ColumnBatch.from_tuples(rows)
        right = ColumnBatch.from_tuples(other)
        assert left.columns and right.columns  # both encoded
        assert coalesce([left, right]) is None
        assert coalesce([left, other[0]]) is None
        assert coalesce([rows[0], other[1], rows[2]]) is None


# -- vectorizable callables ----------------------------------------------------


class TestVectorizableCallables:
    def test_add_fields_row_vs_columnar(self):
        rows = make_rows(5)
        fn = AddFields({"granule": "g1", "group": "p2"})
        row_out = [fn(t) for t in rows]
        col_out = fn.columnar(ColumnBatch.from_tuples(rows)).tuples()
        assert col_out == row_out

    def test_set_stream_row_vs_columnar(self):
        rows = make_rows(5)
        fn = SetStream("renamed")
        assert fn.columnar(ColumnBatch.from_tuples(rows)).tuples() == [
            fn(t) for t in rows
        ]

    def test_field_compare_mask(self):
        rows = make_rows(10)
        pred = FieldCompare("value", "<", 25.0)
        batch = ColumnBatch.from_tuples(rows)
        # list(...) because the mask may be a numpy bool array when the
        # column is typed; entries still compare equal element-wise.
        assert list(pred.mask(batch)) == [pred(t) for t in rows]

    def test_field_compare_missing_field_matches_row_error(self):
        pred = FieldCompare("absent", "<", 1.0)
        rows = [StreamTuple(0.0, {"x": 1}, "s")]
        with pytest.raises(SchemaError) as row_err:
            pred(rows[0])
        with pytest.raises(SchemaError) as mask_err:
            pred.mask(ColumnBatch.from_tuples(rows))
        assert str(mask_err.value) == str(row_err.value)

    def test_field_compare_rejects_unknown_op(self):
        with pytest.raises(OperatorError, match="unknown comparison"):
            FieldCompare("x", "~", 1)

    def test_column_access_errors(self):
        batch = ColumnBatch.from_tuples(make_rows(2))
        with pytest.raises(OperatorError, match="no field"):
            batch.column("nope")


# -- zero copies through consecutive column kernels ---------------------------


class BatchSpy(FilterOp):
    """A filter logging every batch its column kernel is handed."""

    def __init__(self, predicate):
        super().__init__(predicate)
        self.seen = []

    def on_column_batch(self, batch, port=0):
        self.seen.append(batch)
        return super().on_column_batch(batch, port)


class TestConsecutiveColumnKernels:
    def test_all_pass_nodes_build_no_new_batches(self, monkeypatch):
        """A batch every stage passes whole flows through consecutive
        column kernels as the very object it is: filters that reject
        nothing and a union without a relabel re-wrap nothing."""
        built = []
        init = ColumnBatch.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ColumnBatch, "__init__", counting)
        rows = make_rows(80)  # one run above fjord.COLUMN_MIN_ROWS
        fjord = Fjord()
        fjord.add_source("src", rows)
        gate = BatchSpy(FieldCompare("value", ">=", 0.0))
        fjord.add_operator("gate", gate, inputs=["src"])
        fjord.add_operator("union", UnionOp(), inputs=["gate"])
        keep = BatchSpy(FieldCompare("tag_id", ">=", ""))
        fjord.add_operator("keep", keep, inputs=["union"])
        sink = fjord.add_sink("out", inputs=["keep"])
        fjord.run([100.0])
        assert len(built) == 1  # the source run, coalesced once
        assert [id(batch) for batch in gate.seen + keep.seen] == [
            id(built[0])
        ] * 2
        assert sink.results == rows


# -- ChainOp's row path --------------------------------------------------------


class TestChainOpShortCircuit:
    def test_rejecting_stage_still_filters(self):
        chain = ChainOp(
            [
                FilterOp(lambda t: True),
                FilterOp(lambda t: t.timestamp < 3.0),
            ]
        )
        rows = make_rows(8)
        out = chain.on_batch(rows)
        assert out == [t for t in rows if t.timestamp < 3.0]

    def test_row_path_skips_upfront_copy(self):
        """The first stage must receive the caller's sequence itself,
        not a defensive copy (the fix this test pins)."""
        seen = []

        class Probe(MapOp):
            def __init__(self):
                super().__init__(lambda t: t)

            def on_batch(self, items, port=0):
                seen.append(items)
                return list(items)

        chain = ChainOp([Probe()])
        rows = make_rows(4)
        out = chain.on_batch(rows)
        assert seen[0] is rows
        assert out == rows
        assert out is not rows  # caller's list is never aliased back

    def test_empty_chain_input_short_circuits(self):
        chain = ChainOp([FilterOp(lambda t: True)])
        assert chain.on_batch([]) == []
