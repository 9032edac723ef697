"""Unit tests for the CQL window machinery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WindowError
from repro.streams.tuples import StreamTuple
from repro.streams.windows import (
    NowWindow,
    RowWindow,
    SlidingWindow,
    WindowSpec,
)


def tup(ts, **fields):
    return StreamTuple(ts, fields or {"v": ts})


class TestWindowSpec:
    def test_range_by_parses_duration(self):
        assert WindowSpec.range_by("5 sec").range_seconds == 5.0

    def test_now_spec(self):
        spec = WindowSpec.now()
        assert spec.is_now
        assert isinstance(spec.make_window(), NowWindow)

    def test_rows_spec(self):
        spec = WindowSpec.rows(3)
        assert spec.row_count == 3
        assert isinstance(spec.make_window(), RowWindow)

    def test_range_spec_makes_sliding_window(self):
        assert isinstance(
            WindowSpec.range_by(5.0).make_window(), SlidingWindow
        )

    def test_rows_have_no_time_range(self):
        with pytest.raises(WindowError):
            WindowSpec.rows(3).range_seconds

    def test_range_has_no_row_count(self):
        with pytest.raises(WindowError):
            WindowSpec.range_by(5.0).row_count

    def test_invalid_kind(self):
        with pytest.raises(WindowError):
            WindowSpec("tumbling", 5)

    def test_nonpositive_rows_rejected(self):
        with pytest.raises(WindowError):
            WindowSpec.rows(0)

    def test_equality_and_hash(self):
        assert WindowSpec.range_by("5 sec") == WindowSpec.range_by(5.0)
        assert WindowSpec.rows(3) != WindowSpec.rows(4)
        assert hash(WindowSpec.now()) == hash(WindowSpec.now())


class TestSlidingWindow:
    def test_holds_range_exclusive_inclusive(self):
        window = SlidingWindow(5.0)
        window.insert(tup(0.0))
        window.insert(tup(3.0))
        window.advance(5.0)
        assert [t.timestamp for t in window] == [0.0, 3.0]
        window.advance(5.1)
        assert [t.timestamp for t in window] == [3.0]

    def test_tuple_visible_for_exactly_range(self):
        window = SlidingWindow(5.0)
        window.insert(tup(1.0))
        window.advance(6.0)
        assert len(window) == 1  # 6.0 - 5.0 = 1.0, boundary evicts
        window.advance(6.0 + 1e-6)
        assert len(window) == 0

    def test_insert_evicts_immediately(self):
        window = SlidingWindow(2.0)
        window.insert(tup(0.0))
        window.insert(tup(10.0))
        assert [t.timestamp for t in window] == [10.0]

    def test_out_of_order_insert_rejected(self):
        window = SlidingWindow(5.0)
        window.insert(tup(5.0))
        with pytest.raises(WindowError):
            window.insert(tup(1.0))

    def test_equal_timestamps_allowed(self):
        window = SlidingWindow(5.0)
        window.insert(tup(1.0))
        window.insert(tup(1.0))
        assert len(window) == 2

    def test_contents_returns_copy(self):
        window = SlidingWindow(5.0)
        window.insert(tup(1.0))
        window.contents().clear()
        assert len(window) == 1

    def test_nonpositive_range_rejected(self):
        with pytest.raises(WindowError):
            SlidingWindow(0.0)

    def test_advance_backwards_is_harmless(self):
        window = SlidingWindow(5.0)
        window.insert(tup(3.0))
        window.advance(4.0)
        window.advance(2.0)  # stale punctuation must not resurrect/evict
        assert len(window) == 1


class TestNowWindow:
    def test_keeps_only_current_instant(self):
        window = NowWindow()
        window.insert(tup(1.0))
        window.insert(tup(2.0))
        assert [t.timestamp for t in window] == [2.0]
        window.advance(2.0)
        assert len(window) == 1
        window.advance(3.0)
        assert len(window) == 0

    def test_multiple_tuples_same_instant(self):
        window = NowWindow()
        window.insert(tup(1.0, v=1))
        window.insert(tup(1.0, v=2))
        assert len(window) == 2


class TestRowWindow:
    def test_keeps_last_n(self):
        window = RowWindow(2)
        for ts in (1.0, 2.0, 3.0):
            window.insert(tup(ts))
        assert [t.timestamp for t in window] == [2.0, 3.0]

    def test_time_advance_does_not_evict(self):
        window = RowWindow(2)
        window.insert(tup(1.0))
        window.advance(100.0)
        assert len(window) == 1

    def test_invalid_count(self):
        with pytest.raises(WindowError):
            RowWindow(0)


KINDS = {
    "range": lambda: SlidingWindow(1.5),
    "now": NowWindow,
    "rows": lambda: RowWindow(3),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_advance_returns_the_length(kind):
    window = KINDS[kind]()
    assert window.advance(0.0) == 0
    for ts in (1.0, 1.0, 2.0):
        window.insert(tup(ts))
    for now in (2.0, 2.5, 3.5, 3.5, 10.0):
        assert window.advance(now) == len(window)


def definition(kind, inserted, clock):
    """What a window of ``kind`` holds: the inserted tuples still in
    range of the clock (the newest of every insert and advance)."""
    if kind == "rows":
        return inserted[-3:]
    width = 1.5 if kind == "range" else 0.0
    return [t for t in inserted if t.timestamp >= clock - width - 1e-9]


#: Inserts and advances on a dyadic grid, so every comparison is exact;
#: an insert older than the clock must be refused.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "advance"]),
        st.integers(0, 24).map(lambda quarters: quarters / 4),
    ),
    max_size=40,
)


@given(kind=st.sampled_from(sorted(KINDS)), steps=STEPS)
def test_contents_follow_the_definition(kind, steps):
    window = KINDS[kind]()
    inserted, clock = [], float("-inf")
    for number, (op, ts) in enumerate(steps):
        if op == "advance":
            clock = max(clock, ts)
            assert window.advance(ts) == len(definition(kind, inserted, clock))
        elif ts < clock:
            with pytest.raises(WindowError) as refused:
                window.insert(tup(ts, n=number))
            assert str(refused.value) == (
                f"out-of-order insert: {ts} after {clock}"
            )
        else:
            clock = ts
            inserted.append(tup(ts, n=number))
            window.insert(inserted[-1])
        assert window.contents() == definition(kind, inserted, clock)
