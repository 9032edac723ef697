"""Unit tests for aggregate functions and the registry."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operators import merge_ops
from repro.errors import AggregateError
from repro.streams import aggregates
from repro.streams.aggregates import (
    Aggregate,
    AggregateSpec,
    Avg,
    Count,
    CountDistinct,
    First,
    Last,
    Mad,
    Max,
    Median,
    Min,
    Stdev,
    Sum,
    aggregate_names,
    get_aggregate,
    register_aggregate,
)
from repro.streams.operators import WindowedGroupByOp
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec


class TestBuiltins:
    def test_count_skips_none(self):
        assert Count.over([1, None, 2]) == 2

    def test_count_empty(self):
        assert Count.over([]) == 0

    def test_count_distinct(self):
        assert CountDistinct.over(["a", "a", "b", None]) == 2

    def test_sum(self):
        assert Sum.over([1, 2, 3.5]) == 6.5

    def test_sum_empty_is_none(self):
        assert Sum.over([]) is None

    def test_avg(self):
        assert Avg.over([1, 2, 3]) == 2.0

    def test_avg_empty_is_none(self):
        assert Avg.over([None, None]) is None

    def test_stdev_matches_sample_formula(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        mean = sum(values) / len(values)
        expected = math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )
        assert Stdev.over(values) == pytest.approx(expected)

    def test_stdev_single_value_is_zero(self):
        assert Stdev.over([5.0]) == 0.0

    def test_stdev_empty_is_none(self):
        assert Stdev.over([]) is None

    def test_stdev_numerical_stability(self):
        # Large offset with tiny variance: naive sum-of-squares fails here.
        base = 1e9
        values = [base + v for v in (0.0, 0.1, 0.2)]
        assert Stdev.over(values) == pytest.approx(0.1, rel=1e-6)

    def test_min_max(self):
        assert Min.over([3, 1, 2]) == 1
        assert Max.over([3, 1, 2]) == 3
        assert Min.over([]) is None
        assert Max.over([None]) is None

    def test_median_odd_even(self):
        assert Median.over([3, 1, 2]) == 2
        assert Median.over([4, 1, 2, 3]) == 2.5
        assert Median.over([]) is None

    def test_mad(self):
        # values 1,2,3,4,100 -> median 3, deviations 2,1,0,1,97 -> MAD 1
        assert Mad.over([1, 2, 3, 4, 100]) == 1.0
        assert Mad.over([]) is None

    def test_first_last(self):
        assert First.over([None, "a", "b"]) == "a"
        assert Last.over(["a", "b", None]) == "b"
        assert First.over([]) is None


class TestRegistry:
    def test_get_by_name_case_insensitive(self):
        agg = get_aggregate("AVG")
        agg.add(2)
        agg.add(4)
        assert agg.result() == 3.0

    def test_stddev_alias(self):
        assert isinstance(get_aggregate("stddev"), Stdev)

    def test_unknown_name(self):
        with pytest.raises(AggregateError) as err:
            get_aggregate("frobnicate")
        assert "frobnicate" in str(err.value)

    def test_count_distinct_via_flag(self):
        agg = get_aggregate("count", distinct=True)
        for value in ("a", "a", "b"):
            agg.add(value)
        assert agg.result() == 2

    def test_distinct_wrapper_on_sum(self):
        agg = get_aggregate("sum", distinct=True)
        for value in (2, 2, 3):
            agg.add(value)
        assert agg.result() == 5

    def test_register_custom_aggregate(self):
        class Product(Aggregate):
            def __init__(self):
                self._product = 1.0
                self._any = False

            def add(self, value):
                if value is not None:
                    self._product *= value
                    self._any = True

            def result(self):
                return self._product if self._any else None

        register_aggregate("product_test", Product)
        assert "product_test" in aggregate_names()
        assert get_aggregate("product_test").__class__ is Product
        assert Product.over([2, 3, 4]) == 24.0

    def test_aggregate_names_contains_builtins(self):
        names = aggregate_names()
        assert {"count", "avg", "stdev", "min", "max"} <= names


class TestAggregateSpec:
    def test_evaluate_with_argument(self):
        rows = [StreamTuple(0, {"x": v}) for v in (1, 2, 3)]
        spec = AggregateSpec("avg", argument=lambda t: t["x"], output="m")
        assert spec.evaluate(rows) == 2.0
        assert spec.output == "m"

    def test_count_star_semantics(self):
        rows = [StreamTuple(0, {"x": None}), StreamTuple(0, {"x": 1})]
        spec = AggregateSpec("count")  # argument None = count every row
        assert spec.evaluate(rows) == 2

    def test_distinct_evaluation(self):
        rows = [StreamTuple(0, {"x": v}) for v in ("a", "a", "b")]
        spec = AggregateSpec("count", argument=lambda t: t["x"], distinct=True)
        assert spec.evaluate(rows) == 2

    def test_default_output_names(self):
        assert AggregateSpec("count").output == "count_star"
        assert (
            AggregateSpec("count", argument=lambda t: 1, distinct=True).output
            == "count_distinct_expr"
        )

    def test_repr(self):
        assert "avg" in repr(AggregateSpec("avg", argument=lambda t: 1))


#: The ``(name, distinct)`` pairs a spec compiles to a kernel.
COMPILED = [("count", True), ("sum", False), ("avg", False), ("mean", False)]

#: An argument as a row holds it: absent and NULL both read as ``None``.
ABSENT = object()

_values = st.one_of(
    st.just(ABSENT),
    st.none(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, 0.0, -0.0, math.inf]),
    st.booleans(),
    st.sampled_from(["1", "-2.5", "1e3", "nan", "-0.0", "inf", "x"]),
)


def _outcome(evaluate):
    """What an evaluation gives: its value, or the type it raised."""
    try:
        return "value", evaluate()
    except Exception as exc:
        return "raise", type(exc)


def _same(a, b):
    """``==`` and the same type; NaN is NaN, and a zero keeps its sign."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


class TestCompiledKernels:
    """A compiled builtin kernel is its accumulator: the same value, of
    the same type, or the same exception type, whatever the argument
    source."""

    @pytest.mark.parametrize("source", ["field", "argument", "star"])
    @pytest.mark.parametrize("name, distinct", COMPILED)
    @given(cells=st.lists(_values, max_size=12))
    def test_kernel_equals_accumulator(self, name, source, distinct, cells):
        rows = [
            StreamTuple(float(i), {} if cell is ABSENT else {"v": cell})
            for i, cell in enumerate(cells)
        ]
        spec = AggregateSpec(name, distinct=distinct, **{
            "field": {"field": "v"},
            "argument": {"argument": lambda row: row.get("v")},
            "star": {},
        }[source])
        assert spec.compiled

        def accumulate():
            agg = get_aggregate(name, distinct=distinct)
            for row in rows:
                agg.add(1 if source == "star" else row.get("v"))
            return agg.result()

        got = _outcome(lambda: spec.evaluate(rows))
        want = _outcome(accumulate)
        assert got[0] == want[0], (got, want)
        if want[0] == "raise":
            assert got[1] is want[1]
        else:
            assert _same(got[1], want[1]), (got, want)

    @pytest.mark.parametrize(
        "spec",
        [
            AggregateSpec("median", field="v"),
            AggregateSpec("min", field="v"),
            AggregateSpec("stdev", field="v"),
            AggregateSpec("count", field="v"),
            AggregateSpec("count"),
            AggregateSpec("avg", field="v", distinct=True),
            AggregateSpec(Avg, field="v"),
        ],
        ids=repr,
    )
    def test_other_specs_keep_the_accumulator(self, spec):
        assert not spec.compiled
        rows = [StreamTuple(0.0, {"v": v}) for v in (3.0, 1.0, 2.0, 2.0)]
        agg = get_aggregate(spec.name, distinct=spec.distinct)
        for row in rows:
            agg.add(1 if spec.field is None else row.get("v"))
        assert spec.evaluate(rows) == agg.result()


class TestCompiledRegistry:
    """A name compiles only while its registry entry is the builtin
    class; re-registering any name makes each spec look again."""

    @pytest.fixture
    def avg_restored(self):
        yield
        register_aggregate("avg", Avg)

    def test_reregistered_builtin_reaches_evaluate_and_ticks(
        self, avg_restored
    ):
        spec = AggregateSpec("avg", field="x", output="m")
        op = WindowedGroupByOp(WindowSpec.range_by(100.0), aggregates=[spec])
        rows = [StreamTuple(0.0, {"x": v}) for v in (1.0, 5.0)]
        op.on_batch(rows)
        assert spec.compiled
        assert op.on_time(1.0)[0]["m"] == 3.0

        register_aggregate("avg", Max)
        assert op.on_time(2.0)[0]["m"] == 5.0
        assert spec.evaluate(rows) == 5.0
        assert not spec.compiled

        register_aggregate("avg", Avg)
        assert spec.compiled
        assert op.on_time(3.0)[0]["m"] == 3.0
        assert spec.evaluate(rows) == 3.0

    def test_unrelated_registration_keeps_kernels(self, monkeypatch):
        spec = AggregateSpec("avg", field="x")
        assert spec.compiled
        register_aggregate("unrelated_kernel_test", Sum)
        lookups = []
        monkeypatch.setattr(
            aggregates, "get_aggregate", lambda *args: lookups.append(args)
        )
        assert spec.compiled
        assert spec.evaluate([StreamTuple(0.0, {"x": 2.0})]) == 2.0
        assert lookups == []


@pytest.mark.parametrize("module", [aggregates, merge_ops])
def test_no_builtin_sum_or_statistics(module):
    """Builtin ``sum`` of floats is compensated from Python 3.12, and
    ``statistics`` sums exactly, so either would make an aggregate's
    last bits depend on the Python version."""
    tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            assert node.id != "sum", f"builtin sum at line {node.lineno}"
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not [
            n for n in names if n.split(".")[0] == "statistics"
        ], f"statistics imported at line {node.lineno}"
