"""Dtype edge cases for the numpy-typed column storage layer.

The typed layer (:mod:`repro.streams.typedcols`) must be *invisible* in
results: every test here pins either a detection decision (which
columns become arrays, which stay lists and why) or an exactness
property (decode returns the same native objects, masks and reductions
match the sequential loop bit for bit). The whole module runs on the
no-numpy CI leg too — there the typed path is inert and the assertions
collapse onto list storage, which is precisely the behaviour the leg
exists to prove. With numpy installed, list storage is reached through
the ``column_storage`` fixture (conftest.py), which hides numpy from
the storage layer.
"""

from __future__ import annotations

import math
import pickle
import random
import struct

import pytest

from repro.streams import typedcols
from repro.streams.aggregates import AggregateSpec, get_aggregate
from repro.streams.columnar import ColumnBatch, FieldCompare
from repro.streams.tuples import StreamTuple

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    HAVE_HYPOTHESIS = False

needs_numpy = pytest.mark.skipif(
    not typedcols.numpy_available(),
    reason="typed columns need numpy; the fallback is covered by the "
    "same assertions degenerating to lists",
)


@pytest.fixture(autouse=True)
def eager_typed_columns(column_storage):
    """Typed storage with ``MIN_ROWS`` at 1, so tiny fixtures get arrays.

    Without numpy every test below exercises list storage instead.
    """
    column_storage("typed")
    typedcols.reset_storage_stats()


def rows_of(field, values, t0=0.0):
    return [
        StreamTuple(t0 + i, {field: v, "seq": i}, "s")
        for i, v in enumerate(values)
    ]


def batch_of(field, values):
    return ColumnBatch.from_tuples(rows_of(field, values))


def float_bits(x):
    return struct.pack("<d", x)


# -- detection ----------------------------------------------------------------


class TestDetection:
    @needs_numpy
    def test_int_column_becomes_int64(self):
        batch = batch_of("v", [1, 2, 3, 4])
        col = batch.column("v")
        assert typedcols.is_typed(col)
        assert col.dtype.kind == "i"

    @needs_numpy
    def test_float_column_becomes_float64(self):
        batch = batch_of("v", [0.5, 1.5, math.inf, -0.0])
        col = batch.column("v")
        assert typedcols.is_typed(col)
        assert col.dtype.kind == "f"

    def test_mixed_int_float_stays_list(self):
        """Mixing dtypes must not silently promote the ints."""
        batch = batch_of("v", [1, 2.0, 3, 4.0])
        assert isinstance(batch.column("v"), list)
        decoded = [t["v"] for t in batch.tuples()]
        assert [type(v) for v in decoded] == [int, float, int, float]

    def test_bool_stays_list(self):
        """bool is an int subclass but must never become int64 cells."""
        batch = batch_of("v", [True, False, True, True])
        assert isinstance(batch.column("v"), list)
        decoded = [t["v"] for t in batch.tuples()]
        assert decoded == [True, False, True, True]
        assert all(type(v) is bool for v in decoded)

    def test_none_stays_list(self):
        batch = batch_of("v", [1, None, 3, 4])
        assert isinstance(batch.column("v"), list)
        assert [t["v"] for t in batch.tuples()] == [1, None, 3, 4]

    def test_int64_overflow_stays_list(self):
        """Python ints beyond int64 must stay exact arbitrary precision."""
        big = 2**63  # INT64_MAX + 1
        batch = batch_of("v", [1, 2, big, -(2**70)])
        assert isinstance(batch.column("v"), list)
        decoded = [t["v"] for t in batch.tuples()]
        assert decoded == [1, 2, big, -(2**70)]

    @needs_numpy
    def test_min_rows_threshold(self, monkeypatch):
        monkeypatch.setattr(typedcols, "MIN_ROWS", 4)
        assert isinstance(batch_of("v", [1, 2, 3]).column("v"), list)
        assert typedcols.is_typed(batch_of("v", [1, 2, 3, 4]).column("v"))

    def test_disabled_stays_list(self, column_storage):
        """Where numpy does not import, every column is a list."""
        column_storage("list")
        assert isinstance(batch_of("v", [1, 2, 3, 4]).column("v"), list)

    @needs_numpy
    def test_storage_stats_counters(self):
        typedcols.reset_storage_stats()
        # column access forces the (lazy) encode that takes the decision
        batch_of("v", [1, 2, 3, 4]).column("v")
        batch_of("v", [0.5, 1.5, 2.5]).column("v")
        batch_of("v", [1, 2.0, 3, 4.0]).column("v")
        stats = typedcols.storage_stats()
        assert stats["typed_int"] >= 1
        assert stats["typed_float"] >= 1
        assert stats["list_mixed"] >= 1
        assert stats["typed_cells"] >= 7
        # the "seq" companion column is int-typed too; only relative
        # floors are asserted so the fixture schema can evolve


# -- exact round-trips ---------------------------------------------------------


class TestRoundTrip:
    def test_int_identity(self):
        values = [0, -1, 2**53, -(2**53), typedcols.INT64_MAX, typedcols.INT64_MIN]
        decoded = [t["v"] for t in batch_of("v", values).tuples()]
        assert decoded == values
        assert all(type(v) is int for v in decoded)

    def test_float_bit_identity(self):
        values = [0.0, -0.0, 1e-300, math.inf, -math.inf, 0.1 + 0.2]
        decoded = [t["v"] for t in batch_of("v", values).tuples()]
        assert [float_bits(v) for v in decoded] == [
            float_bits(v) for v in values
        ]
        assert all(type(v) is float for v in decoded)

    def test_nan_round_trip(self):
        decoded = [t["v"] for t in batch_of("v", [1.0, math.nan, 3.0]).tuples()]
        assert decoded[0] == 1.0 and decoded[2] == 3.0
        assert math.isnan(decoded[1])
        assert type(decoded[1]) is float

    def test_signed_zero_round_trip(self):
        decoded = [t["v"] for t in batch_of("v", [-0.0, 0.0]).tuples()]
        assert math.copysign(1.0, decoded[0]) == -1.0
        assert math.copysign(1.0, decoded[1]) == 1.0

    @needs_numpy
    def test_pickle_round_trip(self):
        """Typed batches cross the processes shard backend via pickle."""
        batch = batch_of("v", [1.5, 2.5, 3.5, 4.5])
        assert typedcols.is_typed(batch.column("v"))
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.tuples() == batch.tuples()


# -- mask equivalence ----------------------------------------------------------


class TestMaskEquivalence:
    CASES = [
        ("int col vs int", [1, 5, -3, 8, 5], "<", 5),
        ("int col vs int eq", [1, 5, -3, 8, 5], "==", 5),
        ("float col vs float", [0.5, 2.5, -1.0, math.nan], ">=", 0.5),
        ("float col vs int", [0.5, 2.0, 3.5, 2.0], "==", 2),
        ("int col vs float", [1, 2, 3, 4], "<", 2.5),
        ("float col vs huge int", [1e20, 2e20, 3.0, 4.0], ">", 2**60),
        ("int col vs huge int", [1, 2, 3, 4], "<", 2**70),
    ]

    @pytest.mark.parametrize("label,values,op,rhs", CASES)
    def test_mask_matches_per_row(self, label, values, op, rhs):
        field = "v"
        rows = rows_of(field, values)
        batch = ColumnBatch.from_tuples(rows)
        pred = FieldCompare(field, op, rhs)
        assert [bool(m) for m in pred.mask(batch)] == [pred(t) for t in rows]

    @needs_numpy
    def test_int_col_vs_float_value_falls_back(self):
        """int64 vs float comparison would promote the column lossily
        (2**53 + 1 == float(2**53)), so the mask must take the loop."""
        big = 2**53 + 1
        rows = rows_of("v", [big, 2, 3, 4])
        batch = ColumnBatch.from_tuples(rows)
        assert typedcols.is_typed(batch.column("v"))
        pred = FieldCompare("v", "==", float(2**53))
        mask = pred.mask(batch)
        assert isinstance(mask, list)  # fallback, not a numpy array
        assert mask == [pred(t) for t in rows]

    @needs_numpy
    def test_where_with_array_mask(self):
        batch = batch_of("v", [1, 7, 3, 9, 5])
        kept = batch.where(FieldCompare("v", ">", 4).mask(batch))
        assert [t["v"] for t in kept.tuples()] == [7, 9, 5]


# -- aggregate equivalence -----------------------------------------------------


def loop_result(name, values):
    agg = get_aggregate(name)
    for v in values:
        agg.add(v)
    return agg.result()


class TestAggregateEquivalence:
    NAMES = ["count", "sum", "avg", "min", "max", "first", "last", "stdev"]
    COLUMNS = [
        [1, 2, 3, 4, 5],
        [-7, 0, 7, 2**40],
        [0.5, 1.5, -2.5, 3.5],
        [math.nan, 1.0, 2.0],
        [-0.0, 0.0, 1.0],
        [2**53, 2**53, 2**53],  # partial sums leave the exact-int range
        [1, 2.0, 3],  # mixed int/float
    ]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("i", range(len(COLUMNS)))
    def test_field_spec_matches_loop(self, name, i):
        values = self.COLUMNS[i]
        rows = rows_of("v", values)
        spec = AggregateSpec(name, field="v")
        got, want = spec.evaluate(rows), loop_result(name, values)
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
            assert type(got) is type(want)

    def test_nan_min_max_match_loop(self):
        """A leading NaN propagates through the ``<``/``>`` scan, an
        interior one is skipped — ``field=`` must scan the same way."""
        values = [2.0, math.nan, 1.0]
        rows = rows_of("v", values)
        for name in ("min", "max"):
            got = AggregateSpec(name, field="v").evaluate(rows)
            want = loop_result(name, values)
            assert float_bits(got) == float_bits(want)

    def test_signed_zero_extremum_matches_loop(self):
        """min([-0.0, 0.0]) keeps the first-seen zero's sign bit."""
        for values in ([-0.0, 0.0, 0.5], [0.0, -0.0, 0.5]):
            rows = rows_of("v", values)
            got = AggregateSpec("min", field="v").evaluate(rows)
            want = loop_result("min", values)
            assert float_bits(got) == float_bits(want)

    def test_empty_window(self):
        for name in self.NAMES:
            spec = AggregateSpec(name, field="v")
            assert spec.evaluate([]) == loop_result(name, [])

    def test_distinct_takes_loop_path(self):
        rows = rows_of("v", [3, 3, 1, 1, 2])
        spec = AggregateSpec("count", field="v", distinct=True)
        assert spec.evaluate(rows) == 3


# -- property sweep ------------------------------------------------------------


def assert_typed_equals_list(values, column_storage):
    """One trace, both storage classes: masks and decoded rows agree.

    (Window aggregates are not part of the sweep: they evaluate one
    way, over rows, whatever the column storage.)
    """
    rows = rows_of("v", values)
    preds = [
        FieldCompare("v", "<", 2),
        FieldCompare("v", ">=", 0.5),
        FieldCompare("v", "==", 1),
    ]

    column_storage("typed")
    typed_batch = ColumnBatch.from_tuples(rows)
    typed_masks = [[bool(m) for m in p.mask(typed_batch)] for p in preds]

    column_storage("list")
    list_batch = ColumnBatch.from_tuples(rows)
    assert all(isinstance(col, list) for col in list_batch.columns.values())
    list_masks = [list(p.mask(list_batch)) for p in preds]

    assert typed_masks == list_masks
    assert typed_batch.tuples() == list_batch.tuples()


if HAVE_HYPOTHESIS:

    numeric_columns = st.one_of(
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=40),
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            max_size=40,
        ),
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=True, width=64),
            ),
            max_size=40,
        ),
    )

    class TestPropertyBased:
        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(values=numeric_columns)
        def test_typed_equals_list(self, values, column_storage):
            assert_typed_equals_list(values, column_storage)

else:  # pragma: no cover - exercised only without hypothesis installed

    class TestPropertyBased:
        @pytest.mark.parametrize("seed", range(60))
        def test_typed_equals_list(self, seed, column_storage):
            rng = random.Random(seed)
            n = rng.randrange(0, 40)
            kind = rng.choice(("int", "float", "mixed"))
            values = []
            for _ in range(n):
                if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                    values.append(rng.randrange(-(2**70), 2**70))
                else:
                    values.append(
                        rng.choice(
                            (math.nan, math.inf, -0.0, rng.uniform(-9, 9))
                        )
                    )
            assert_typed_equals_list(values, column_storage)
