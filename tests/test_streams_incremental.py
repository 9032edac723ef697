"""Tests: the windowed GROUP BY against a brute-force oracle.

``WindowedGroupByOp`` reads ``count(*)`` off the window's length and
evaluates every other aggregate over the window's rows. The oracle keeps
no window at all: at each punctuation it takes, per group, the delivered
rows whose timestamp is in ``[now - range, now]`` (the last N for
``[Rows N]``) and calls ``AggregateSpec.evaluate`` on them. The two must
agree exactly — same rows, same order, same float bits.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators.smooth_ops import presence_smoother
from repro.core.stages import StageContext, StageKind
from repro.errors import OperatorError
from repro.streams import operators
from repro.streams.aggregates import AggregateSpec
from repro.streams.operators import GroupKey, WindowedGroupByOp
from repro.streams.tuples import StreamTuple
from repro.streams.windows import BaseWindow, WindowSpec


def specs():
    return [
        AggregateSpec("count", output="n"),
        AggregateSpec("count", field="v", output="c"),
        AggregateSpec(
            "count", argument=lambda t: t["tag"], distinct=True, output="d"
        ),
        AggregateSpec("sum", argument=lambda t: t.get("v"), output="s"),
        AggregateSpec("avg", argument=lambda t: t.get("v"), output="m"),
        AggregateSpec("max", field="v", output="x"),
    ]


def component_order(keys):
    return sorted(keys, key=lambda key: tuple(str(c) for c in key))


def in_window(window, rows, now):
    if window.kind == "rows":
        return rows[-window.row_count:]
    return [t for t in rows if t.timestamp >= now - window.range_seconds - 1e-9]


def oracle(window, keys, aggregates, items, ticks):
    """What the group-by must emit, computed from the whole input."""
    out = []
    items = sorted(items, key=lambda t: t.timestamp)
    for now in ticks:
        groups = {}
        for item in items:
            if item.timestamp <= now + 1e-9:
                key = tuple(k.extractor(item) for k in keys)
                groups.setdefault(key, []).append(item)
        for key in component_order(groups):
            rows = in_window(window, groups[key], now)
            if rows:
                values = dict(zip([k.name for k in keys], key))
                values.update((a.output, a.evaluate(rows)) for a in aggregates)
                out.append(StreamTuple(now, values))
    return out


def drive(make_op, items, ticks, restore_at=None):
    """``run_operator``, except that before tick number ``restore_at``
    the operator is replaced by a fresh one restored from its pickled
    checkpoint."""
    op = make_op()
    out = []
    pending = sorted(items, key=lambda t: t.timestamp)
    index = 0
    for number, tick in enumerate(ticks):
        if number == restore_at:
            state = pickle.loads(pickle.dumps(op.checkpoint()))
            op = make_op()
            op.restore(state)
        start = index
        while index < len(pending) and pending[index].timestamp <= tick + 1e-9:
            index += 1
        out.extend(op.on_batch(pending[start:index]))
        out.extend(op.on_time(tick))
    return out


def normalize(tuples):
    return [(t.timestamp, t.stream, list(t.items())) for t in tuples]


def assert_exact(window, keys, aggregates, items, ticks, restore_at=None):
    def make_op():
        return WindowedGroupByOp(window, keys=keys, aggregates=aggregates)

    emitted = normalize(drive(make_op, items, ticks, restore_at))
    assert emitted == normalize(oracle(window, keys, aggregates, items, ticks))
    return emitted


WINDOWS = st.sampled_from(
    [WindowSpec.range_by(7.0), WindowSpec.now(), WindowSpec.rows(3)]
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
        emitted = assert_exact(
            WindowSpec.range_by(5.0), [GroupKey("g")], specs(), items, ticks
        )
        assert [(ts, dict(values)["n"]) for ts, _, values in emitted] == [
            (0.0, 1), (1.0, 2), (1.0, 1), (5.0, 2), (5.0, 1), (7.0, 1),
        ]

    def test_null_values_skipped_identically(self):
        items = [
            StreamTuple(0.0, {"g": 0, "tag": "a", "v": None}),
            StreamTuple(0.0, {"g": 0, "tag": "b", "v": 2.0}),
        ]
        emitted = assert_exact(
            WindowSpec.range_by(5.0), [GroupKey("g")], specs(), items, [0.0]
        )
        # count(*) counts the row whose v is null; count(v) does not.
        assert dict(emitted[0][2]) == {
            "g": 0, "n": 2, "c": 1, "d": 2, "s": 2.0, "m": 2.0, "x": 2.0,
        }

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                st.integers(min_value=0, max_value=2),  # group
                st.integers(min_value=0, max_value=4),  # tag
                st.none() | st.floats(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=60,
        ).map(lambda rows: sorted(rows, key=lambda r: r[0])),
        WINDOWS,
        st.none() | st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equivalence(self, rows, window, restore_at):
        items = [
            StreamTuple(ts, {"g": g, "tag": f"t{tag}", "v": v})
            for ts, g, tag, v in rows
        ]
        last = rows[-1][0]
        ticks = sorted({0.0, last / 3, last / 2, last, last + 10.0})
        assert_exact(
            window, [GroupKey("g")], specs(), items, ticks, restore_at
        )


#: Readings of one stream: a burst, a gap longer than any window below,
#: a second burst with a repeated value.
TRACE = [
    StreamTuple(ts, {"v": v})
    for ts, v in [(0.0, 3.0), (0.0, 1.0), (1.0, 3.0), (2.0, 0.5),
                  (9.0, 2.0), (9.0, 2.0), (10.0, 7.0)]
]
TRACE_TICKS = [0.0, 1.0, 2.0, 5.0, 8.0, 9.0, 10.0, 16.0]


class TestValidation:
    """The four ``test_rejects_*`` inputs are what the incremental
    operator (gone) refused: a window kind or an aggregate it could not
    maintain. Nothing is left that refuses them; the one operator
    accepts each and is exact on it."""

    def test_rejects_now_window(self):
        emitted = assert_exact(
            WindowSpec.now(), [], [AggregateSpec("count")],
            TRACE, TRACE_TICKS, restore_at=3,
        )
        assert [(ts, dict(values)) for ts, _, values in emitted] == [
            (0.0, {"count_star": 2}), (1.0, {"count_star": 1}),
            (2.0, {"count_star": 1}), (9.0, {"count_star": 2}),
            (10.0, {"count_star": 1}),
        ]

    def test_rejects_row_window(self):
        emitted = assert_exact(
            WindowSpec.rows(5), [], [AggregateSpec("count")],
            TRACE, TRACE_TICKS, restore_at=3,
        )
        # A row window never empties: it answers at every punctuation.
        assert [dict(values)["count_star"] for _, _, values in emitted] == [
            2, 3, 4, 4, 4, 5, 5, 5,
        ]

    def test_rejects_non_subtractable_aggregate(self):
        emitted = assert_exact(
            WindowSpec.range_by(5.0), [],
            [AggregateSpec("max", argument=lambda t: t["v"])],
            TRACE, TRACE_TICKS, restore_at=3,
        )
        assert [(ts, dict(values)["max_expr"]) for ts, _, values in emitted] == [
            (0.0, 3.0), (1.0, 3.0), (2.0, 3.0), (5.0, 3.0),
            (9.0, 2.0), (10.0, 7.0),
        ]

    def test_rejects_distinct_sum(self):
        emitted = assert_exact(
            WindowSpec.range_by(5.0), [],
            [AggregateSpec("sum", argument=lambda t: t["v"], distinct=True)],
            TRACE, TRACE_TICKS, restore_at=3,
        )
        assert [
            (ts, dict(values)["sum_distinct_expr"]) for ts, _, values in emitted
        ] == [
            (0.0, 4.0), (1.0, 4.0), (2.0, 4.5), (5.0, 4.5),
            (9.0, 2.0), (10.0, 9.0),
        ]

    def test_requires_keys_or_aggregates(self):
        with pytest.raises(OperatorError):
            WindowedGroupByOp(WindowSpec.range_by(5.0))

    def test_state_garbage_collected(self):
        op = WindowedGroupByOp(
            WindowSpec.range_by(1.0),
            keys=[GroupKey("g")],
            aggregates=[AggregateSpec("count", output="n")],
        )
        drive(lambda: op, [StreamTuple(0.0, {"g": 0})], [0.0, 10.0])
        assert op._windows == {}


#: Query 2 over a two-component key whose ``str`` order differs from
#: its natural order (10 < 2, "b" < 3).
ORDER_KEYS = [GroupKey("g"), GroupKey("site")]
ORDER_COUNT = [AggregateSpec("count", output="n")]


def order_op(window=2.0):
    return WindowedGroupByOp(
        WindowSpec.range_by(window), keys=ORDER_KEYS, aggregates=ORDER_COUNT
    )


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


def brute_force(steps, window=2.0):
    """Per tick, the oracle's ``(g, site, count)`` rows for ``steps``."""
    ticks = [float(tick) for tick in range(len(steps))]
    items = [
        StreamTuple(now, {"g": g, "site": site})
        for now, readings in zip(ticks, steps)
        for g, site in readings
    ]
    rows = oracle(
        WindowSpec.range_by(window), ORDER_KEYS, ORDER_COUNT, items, ticks
    )
    return [
        [(r["g"], r["site"], r["n"]) for r in rows if r.timestamp == now]
        for now in ticks
    ]


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
                op._windows
            )
            emitted.append([(r["g"], r["site"], r["n"]) for r in rows])
        return emitted

    @given(STEPS)
    @settings(max_examples=80, deadline=None)
    def test_order_is_sorted_live_keys_and_twins_agree(self, steps):
        assert self.drive(order_op(), steps) == brute_force(steps)

    @given(STEPS, st.integers(min_value=0, max_value=24))
    @settings(max_examples=80, deadline=None)
    def test_restore_mid_sequence_keeps_the_order(self, steps, cut):
        cut = min(cut, len(steps))
        original, fresh = order_op(), order_op()
        self.drive(original, steps[:cut])
        fresh.restore(pickle.loads(pickle.dumps(original.checkpoint())))
        resumed = self.drive(fresh, steps[cut:], first_tick=cut)
        assert resumed == self.drive(original, steps[cut:], first_tick=cut)
        assert resumed == brute_force(steps)[cut:]

    def test_expired_group_reappears_in_sorted_position(self):
        steps = [[(2, "x"), (10, "x")], [], [], [(10, "x")], [(2, "x")]]
        emitted = self.drive(order_op(window=1.0), steps)
        assert emitted[2] == []  # both groups expired
        assert emitted[4] == [(10, "x", 1), (2, "x", 1)]

    def test_checkpoint_holds_only_the_group_state(self):
        op = order_op()
        self.drive(op, [[(1, "x")], [(2, "y")]])
        assert list(op.checkpoint()) == ["_windows"]


#: Keys whose ``str`` forms collide (``1`` and ``"1"``) sort as equals,
#: so their order is the order their groups were created in.
TWIN_STEPS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["r1", "r2", "r3"]),
            st.sampled_from([1, "1", 2, "2", 10, "b"]),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=25,
)


def twin_op(partitioned):
    op = WindowedGroupByOp(
        WindowSpec.range_by(2.0), keys=[GroupKey("g")], aggregates=ORDER_COUNT
    )
    if partitioned:
        op.partition_by({"r1": "p1", "r2": "p2", "r3": "p1"}, "smooth")
    return op


class TestMaintainedOrder:
    """The group-by keeps its emission order by bisecting new keys in
    and filtering emptied ones out; a restored operator sorts afresh
    with ``emission_order``. The two must agree at every tick."""

    @given(TWIN_STEPS, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_maintained_order_equals_a_restored_twin_every_tick(
        self, steps, partitioned
    ):
        op = twin_op(partitioned)
        for tick, readings in enumerate(steps):
            now = float(tick)
            op.on_batch(
                [StreamTuple(now, {"g": g}, label) for label, g in readings]
            )
            twin = twin_op(partitioned)
            twin.restore(pickle.loads(pickle.dumps(op.checkpoint())))
            assert normalize(op.on_time(now)) == normalize(twin.on_time(now))

    def test_a_keyed_slide_makes_one_window_call_per_key_and_sorts_once(
        self, monkeypatch
    ):
        chain = presence_smoother(window=2.0).make(
            StageContext(StageKind.SMOOTH)
        )
        group = chain.stages[-1]
        group.partition_by({"r1": "r1", "r2": "r2"}, "rfid:1:smooth:stream")
        calls = {"len": 0, "emission_order": 0}
        sliding = [False]
        window_len, emission_order = BaseWindow.__len__, operators.emission_order

        def counted_len(window):
            calls["len"] += sliding[0]
            return window_len(window)

        def counted_order(groups):
            calls["emission_order"] += 1
            return emission_order(groups)

        monkeypatch.setattr(BaseWindow, "__len__", counted_len)
        monkeypatch.setattr(operators, "emission_order", counted_order)
        emitted = []
        for tick in range(20):
            now = float(tick)
            # r1 reads t0 every tick and one of t1-t3 in turn; r2 reads
            # t9 only early and late, so its group expires and returns.
            readings = [("r1", "t0"), ("r1", f"t{1 + tick % 3}")]
            if tick < 5 or tick >= 15:
                readings.append(("r2", "t9"))
            chain.on_batch(
                [
                    StreamTuple(now, {"tag_id": tag, "spatial_granule": "g"}, label)
                    for label, tag in readings
                ]
            )
            sliding[0] = True
            emitted.append([row["tag_id"] for row in chain.on_time(now)])
            sliding[0] = False
        assert emitted[4] == ["t0", "t1", "t2", "t3", "t9"]
        assert emitted[10] == ["t0", "t1", "t2", "t3"]
        assert emitted[19] == ["t0", "t1", "t2", "t3", "t9"]
        assert calls == {"len": 0, "emission_order": 1}
