"""Tests: incremental group-by is equivalent to the recompute operator."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.streams.aggregates import AggregateSpec
from repro.streams.incremental import IncrementalWindowedGroupByOp
from repro.streams.operators import GroupKey, WindowedGroupByOp, run_operator
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec


def specs():
    return [
        AggregateSpec("count", output="n"),
        AggregateSpec(
            "count", argument=lambda t: t["tag"], distinct=True, output="d"
        ),
        AggregateSpec("sum", argument=lambda t: t.get("v"), output="s"),
        AggregateSpec("avg", argument=lambda t: t.get("v"), output="m"),
    ]


def both_ops(window=5.0):
    shared = dict(
        keys=[GroupKey("g")],
        aggregates=specs(),
    )
    return (
        WindowedGroupByOp(WindowSpec.range_by(window), **shared),
        IncrementalWindowedGroupByOp(WindowSpec.range_by(window), **shared),
    )


def normalize(tuples):
    return sorted(
        (
            t.timestamp,
            t["g"],
            t["n"],
            t["d"],
            None if t["s"] is None else round(t["s"], 9),
            None if t["m"] is None else round(t["m"], 9),
        )
        for t in tuples
    )


class TestEquivalence:
    def test_simple_trace(self):
        items = [
            StreamTuple(0.0, {"g": 0, "tag": "a", "v": 1.0}),
            StreamTuple(1.0, {"g": 0, "tag": "a", "v": 2.0}),
            StreamTuple(1.0, {"g": 1, "tag": "b", "v": 3.0}),
            StreamTuple(7.0, {"g": 0, "tag": "c", "v": 4.0}),
        ]
        ticks = [0.0, 1.0, 5.0, 7.0, 20.0]
        reference, incremental = both_ops()
        assert normalize(run_operator(reference, items, ticks)) == normalize(
            run_operator(incremental, items, ticks)
        )

    def test_null_values_skipped_identically(self):
        items = [
            StreamTuple(0.0, {"g": 0, "tag": "a", "v": None}),
            StreamTuple(0.0, {"g": 0, "tag": "b", "v": 2.0}),
        ]
        reference, incremental = both_ops()
        assert normalize(run_operator(reference, items, [0.0])) == normalize(
            run_operator(incremental, items, [0.0])
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                st.integers(min_value=0, max_value=2),  # group
                st.integers(min_value=0, max_value=4),  # tag
                st.floats(min_value=-50, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ).map(lambda rows: sorted(rows, key=lambda r: r[0]))
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equivalence(self, rows):
        items = [
            StreamTuple(ts, {"g": g, "tag": f"t{tag}", "v": v})
            for ts, g, tag, v in rows
        ]
        last = rows[-1][0]
        ticks = sorted({0.0, last / 3, last / 2, last, last + 10.0})
        reference, incremental = both_ops(window=7.0)
        assert normalize(
            run_operator(reference, items, ticks)
        ) == normalize(run_operator(incremental, items, list(ticks)))


class TestValidation:
    def test_rejects_now_window(self):
        with pytest.raises(OperatorError):
            IncrementalWindowedGroupByOp(
                WindowSpec.now(), aggregates=[AggregateSpec("count")]
            )

    def test_rejects_row_window(self):
        with pytest.raises(OperatorError):
            IncrementalWindowedGroupByOp(
                WindowSpec.rows(5), aggregates=[AggregateSpec("count")]
            )

    def test_rejects_non_subtractable_aggregate(self):
        with pytest.raises(OperatorError) as err:
            IncrementalWindowedGroupByOp(
                WindowSpec.range_by(5.0),
                aggregates=[
                    AggregateSpec("max", argument=lambda t: t["v"])
                ],
            )
        assert "subtractable" in str(err.value)

    def test_rejects_distinct_sum(self):
        with pytest.raises(OperatorError):
            IncrementalWindowedGroupByOp(
                WindowSpec.range_by(5.0),
                aggregates=[
                    AggregateSpec(
                        "sum", argument=lambda t: t["v"], distinct=True
                    )
                ],
            )

    def test_requires_keys_or_aggregates(self):
        with pytest.raises(OperatorError):
            IncrementalWindowedGroupByOp(WindowSpec.range_by(5.0))

    def test_state_garbage_collected(self):
        op = IncrementalWindowedGroupByOp(
            WindowSpec.range_by(1.0),
            keys=[GroupKey("g")],
            aggregates=[AggregateSpec("count", output="n")],
        )
        run_operator(op, [StreamTuple(0.0, {"g": 0})], [0.0, 10.0])
        assert op._states == {}


def component_order(keys):
    return sorted(keys, key=lambda key: tuple(str(c) for c in key))


def order_ops(window=2.0):
    """Recompute and incremental twins over a two-component key whose
    ``str`` order differs from its natural order (10 < 2, "b" < 3)."""
    shared = dict(
        keys=[GroupKey("g"), GroupKey("site")],
        aggregates=[AggregateSpec("count", output="n")],
    )
    return (
        WindowedGroupByOp(WindowSpec.range_by(window), **shared),
        IncrementalWindowedGroupByOp(WindowSpec.range_by(window), **shared),
    )


def live_keys(op):
    groups = op._states if hasattr(op, "_states") else op._windows
    return list(groups)


#: One step per punctuation: the readings that arrive before it. Gaps
#: of several ticks (empty steps) are what make groups expire and, when
#: their key shows up again, reappear.
STEPS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 10, 11, "b"]),
            st.sampled_from(["x", "y"]),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=25,
)


class TestEmissionOrder:
    """The emission order is maintained, not recomputed — and must stay
    the pure function of the live key set that sharded execution relies
    on, across expiry, reappearance and restore."""

    def drive(self, op, steps, first_tick=0):
        """Feed ``steps`` tick by tick; returns each tick's emitted keys."""
        emitted = []
        for tick, readings in enumerate(steps, first_tick):
            now = float(tick)
            if readings:
                op.on_batch(
                    [StreamTuple(now, {"g": g, "site": site})
                     for g, site in readings]
                )
            rows = op.on_time(now)
            assert [(r["g"], r["site"]) for r in rows] == component_order(
                live_keys(op)
            )
            emitted.append([(r["g"], r["site"], r["n"]) for r in rows])
        return emitted

    @given(STEPS)
    @settings(max_examples=80, deadline=None)
    def test_order_is_sorted_live_keys_and_twins_agree(self, steps):
        reference, incremental = order_ops()
        assert self.drive(reference, steps) == self.drive(incremental, steps)

    @given(STEPS, st.integers(min_value=0, max_value=24))
    @settings(max_examples=80, deadline=None)
    def test_restore_mid_sequence_keeps_the_order(self, steps, cut):
        cut = min(cut, len(steps))
        for original, fresh in zip(order_ops(), order_ops()):
            expected = self.drive(original, steps[:cut])
            fresh.restore(pickle.loads(pickle.dumps(original.checkpoint())))
            expected += self.drive(original, steps[cut:], first_tick=cut)
            resumed = self.drive(fresh, steps[cut:], first_tick=cut)
            assert expected[cut:] == resumed

    def test_expired_group_reappears_in_sorted_position(self):
        for op in order_ops(window=1.0):
            steps = [[(2, "x"), (10, "x")], [], [], [(10, "x")], [(2, "x")]]
            emitted = self.drive(op, steps)
            assert emitted[2] == []  # both groups expired
            assert emitted[4] == [(10, "x", 1), (2, "x", 1)]

    def test_checkpoint_holds_only_the_group_state(self):
        reference, incremental = order_ops()
        for op, attr in ((reference, "_windows"), (incremental, "_states")):
            self.drive(op, [[(1, "x")], [(2, "y")]])
            assert list(op.checkpoint()) == [attr]
