"""Tests for the reorder buffer and network delay model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError, ReceptorError
from repro.receptors.network import DelayModel
from repro.streams.reorder import (
    ReorderBuffer,
    delayed_arrivals,
    reorder_arrivals,
)
from repro.streams.tuples import StreamTuple


def tup(ts, **fields):
    return StreamTuple(ts, fields or {"v": ts})


class TestReorderBuffer:
    def test_in_order_stream_passes_through(self):
        buffer = ReorderBuffer(slack=0.0)
        out = []
        for ts in (0.0, 1.0, 2.0):
            out.extend(buffer.push(ts, tup(ts)))
        assert [t.timestamp for t in out] == [0.0, 1.0, 2.0]
        assert buffer.dropped == 0

    def test_reorders_within_slack(self):
        buffer = ReorderBuffer(slack=2.0)
        released = []
        # tuple ts=1 arrives after ts=2 (1s late), within slack
        released.extend(buffer.push(2.0, tup(2.0)))
        released.extend(buffer.push(2.5, tup(1.0)))
        released.extend(buffer.push(4.5, tup(3.0)))
        released.extend(buffer.flush())
        assert [t.timestamp for t in released] == [1.0, 2.0, 3.0]
        assert buffer.dropped == 0

    def test_holds_until_horizon(self):
        buffer = ReorderBuffer(slack=5.0)
        assert buffer.push(0.0, tup(0.0)) == []  # horizon = -5
        assert len(buffer) == 1
        out = buffer.push(5.0, tup(5.0))  # horizon = 0 -> releases ts 0
        assert [t.timestamp for t in out] == [0.0]

    def test_too_late_tuple_dropped(self):
        buffer = ReorderBuffer(slack=1.0)
        buffer.push(0.0, tup(0.0))
        buffer.push(5.0, tup(5.0))  # releases up to ts 4 -> frontier 0
        buffer.push(6.1, tup(6.0))  # releases ts 5 -> frontier 5
        out = buffer.push(7.0, tup(2.0))  # ts 2 < frontier: hopeless
        # The late arrival is shed, but its arrival time still advanced
        # the horizon to 6.0 — which uncovers the buffered ts-6 tuple.
        assert [t.timestamp for t in out] == [6.0]
        assert buffer.dropped == 1

    def test_flush_empties_buffer(self):
        buffer = ReorderBuffer(slack=100.0)
        buffer.push(0.0, tup(3.0))
        buffer.push(0.0, tup(1.0))
        assert [t.timestamp for t in buffer.flush()] == [1.0, 3.0]
        assert len(buffer) == 0

    def test_stable_for_equal_timestamps(self):
        buffer = ReorderBuffer(slack=0.0)
        first, second = tup(1.0, v="first"), tup(1.0, v="second")
        out = buffer.push(1.0, first) + buffer.push(1.0, second)
        assert [t["v"] for t in out] == ["first", "second"]

    def test_negative_slack_rejected(self):
        with pytest.raises(OperatorError):
            ReorderBuffer(slack=-1.0)

    def test_counters(self):
        buffer = ReorderBuffer(slack=0.0)
        buffer.push(0.0, tup(0.0))
        buffer.push(1.0, tup(1.0))
        assert buffer.released == 2


@st.composite
def arrival_traces(draw):
    """Sense times plus bounded random delays, in arrival order."""
    n = draw(st.integers(min_value=1, max_value=40))
    sense = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    pairs = sorted(
        ((ts + d, tup(ts, idx=i)) for i, (ts, d) in enumerate(zip(sense, delays))),
        key=lambda pair: pair[0],
    )
    return pairs, max(delays)


class TestReorderProperties:
    @given(arrival_traces())
    @settings(max_examples=60)
    def test_sufficient_slack_is_lossless_and_sorted(self, trace):
        pairs, max_delay = trace
        ordered, dropped = reorder_arrivals(pairs, slack=max_delay + 0.01)
        assert dropped == 0
        assert len(ordered) == len(pairs)
        times = [t.timestamp for t in ordered]
        assert times == sorted(times)

    @given(arrival_traces(), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60)
    def test_any_slack_output_is_sorted_and_complete_minus_drops(
        self, trace, slack
    ):
        pairs, _max_delay = trace
        ordered, dropped = reorder_arrivals(pairs, slack=slack)
        times = [t.timestamp for t in ordered]
        assert times == sorted(times)
        assert len(ordered) + dropped == len(pairs)


@st.composite
def promised_traces(draw):
    """Arrivals in wire order with the sender's exact promises.

    Sense times sit on a coarse grid so equal timestamps are common;
    ``seq`` is the sense-order rank. Each entry is ``(arrival, tuple,
    seq, low)`` where ``low`` is the least timestamp among the *later*
    arrivals (``None`` after the last) — what an honest sender that
    knows its whole schedule can promise.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    sense = sorted(
        float(t)
        for t in draw(
            st.lists(st.integers(0, 12), min_size=n, max_size=n)
        )
    )
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    wire = sorted(
        (ts + delay, seq, tup(ts, seq=seq))
        for seq, (ts, delay) in enumerate(zip(sense, delays))
    )
    entries = []
    for index, (arrival, seq, item) in enumerate(wire):
        later = [t.timestamp for _a, _s, t in wire[index + 1:]]
        entries.append((arrival, item, seq, min(later) if later else None))
    return entries, max(delays) + 0.01


def run_promised(entries, slack, lie_at=None, lie=None):
    """Push ``entries`` with their promises; returns the buffer, the
    released tuples and the push index at which each one left."""
    buffer = ReorderBuffer(slack)
    out, left_at = [], {}
    mark = buffer.watermark
    for index, (arrival, item, seq, low) in enumerate(entries):
        released = buffer.push(arrival, item, sequence=seq)
        if index == lie_at:
            low = lie
        if low is not None:
            released += buffer.promise(low)
            # Everything the promise proves complete has left.
            assert all(ts >= low - 1e-9 for ts, _s, _i in buffer._heap)
        assert buffer.watermark >= mark  # monotone
        mark = buffer.watermark
        for gone in released:
            left_at[gone["seq"]] = index
        out.extend(released)
    out.extend(buffer.flush())
    return buffer, out, left_at


class TestPromises:
    """``promise(low)``: the sender moves the horizon, not the next
    arrival."""

    def test_promise_releases_strictly_below_low_only(self):
        buffer = ReorderBuffer(slack=10.0)
        for seq, ts in enumerate((1.0, 2.0, 2.0, 3.0)):
            assert buffer.push(ts, tup(ts, seq=seq), sequence=seq) == []
        out = buffer.promise(2.0)
        # The tuples *at* 2.0 stay: a lower-seq twin may be in flight.
        assert [t.timestamp for t in out] == [1.0]
        assert buffer.watermark == pytest.approx(2.0, abs=1e-8)
        assert buffer.watermark < 2.0
        assert [t.timestamp for t in buffer.promise(3.0)] == [2.0, 2.0]

    def test_late_twin_at_low_still_leaves_in_seq_order(self):
        buffer = ReorderBuffer(slack=10.0)
        buffer.push(0.0, tup(2.0, v="second"), sequence=1)
        assert buffer.promise(2.0) == []
        assert buffer.push(0.1, tup(2.0, v="first"), sequence=0) == []
        out = buffer.promise(2.5)
        assert [t["v"] for t in out] == ["first", "second"]
        assert buffer.dropped == 0

    def test_repeated_or_stale_promise_is_a_no_op(self):
        buffer = ReorderBuffer(slack=10.0)
        buffer.push(0.0, tup(1.0))
        buffer.push(0.0, tup(5.0))
        assert [t.timestamp for t in buffer.promise(3.0)] == [1.0]
        mark = buffer.watermark
        assert buffer.promise(3.0) == []
        assert buffer.promise(-4.0) == []
        assert buffer.watermark == mark
        assert buffer.released == 1 and len(buffer) == 1

    def test_arrival_under_own_promise_is_late(self):
        buffer = ReorderBuffer(slack=10.0)
        buffer.push(0.0, tup(1.0))
        buffer.promise(4.0)
        assert buffer.push(0.5, tup(3.0)) == []  # broke its word
        assert buffer.dropped == 1
        assert buffer.push(0.6, tup(4.0)) == []  # at low: admitted
        assert buffer.dropped == 1
        assert [t.timestamp for t in buffer.flush()] == [4.0]

    def test_checkpoint_carries_the_promise_with_no_new_field(self):
        buffer = ReorderBuffer(slack=10.0)
        buffer.push(0.0, tup(6.0))
        buffer.promise(5.0)
        state = buffer.checkpoint()
        assert sorted(state) == [
            "dropped", "frontier", "heap", "horizon", "released", "sequence",
        ]
        resumed = ReorderBuffer(slack=10.0)
        resumed.restore(state)
        assert resumed.watermark == buffer.watermark
        assert resumed.push(0.1, tup(4.0)) == []  # still under the promise
        assert resumed.dropped == 1

    @given(promised_traces())
    @settings(max_examples=120)
    def test_exact_promises_change_when_not_what(self, trace):
        """With the sender's exact promises the released sequence is the
        promise-free one (sufficient slack on both sides), nothing is
        dropped, equal timestamps leave in ``seq`` order, and no tuple
        leaves later than it would have without them."""
        entries, slack = trace
        plain = [(a, i, s, None) for a, i, s, _low in entries]
        _buffer, expected, plain_left = run_promised(plain, slack)
        buffer, out, left_at = run_promised(entries, slack)
        assert buffer.dropped == 0
        assert out == expected
        assert [(t.timestamp, t["seq"]) for t in out] == sorted(
            (t.timestamp, t["seq"]) for _a, t, _s, _low in entries
        )
        never = len(entries)  # left at the final flush
        assert all(
            left_at.get(seq, never) <= plain_left.get(seq, never)
            for _a, _i, seq, _low in entries
        )

    @given(
        promised_traces(),
        st.integers(min_value=0, max_value=29),
        st.integers(min_value=0, max_value=13),
    )
    @settings(max_examples=120)
    def test_lying_promise_costs_exactly_the_tuples_under_it(
        self, trace, lie_at, lie
    ):
        """A promise the sender then breaks: every later arrival under
        it is dropped and counted, nothing else is, and the output is
        still sorted."""
        entries, slack = trace
        lie_at %= len(entries)
        lie += 0.5  # off the timestamp grid: no tolerance-edge cases
        buffer, out, _left = run_promised(entries, slack, lie_at, lie)
        under = [
            item
            for _a, item, _s, _low in entries[lie_at + 1:]
            if item.timestamp < lie
        ]
        assert buffer.dropped == len(under)
        assert len(out) + buffer.dropped == len(entries)
        times = [t.timestamp for t in out]
        assert times == sorted(times)
        assert not {t["seq"] for t in out} & {t["seq"] for t in under}


class TestDelayModel:
    def test_samples_bounded(self):
        model = DelayModel(mean_delay=2.0, max_delay=10.0, rng=0)
        draws = [model.sample() for _ in range(2000)]
        assert all(0.0 <= d <= 10.0 for d in draws)
        assert np.mean(draws) == pytest.approx(2.0, abs=0.3)

    def test_invalid_parameters(self):
        with pytest.raises(ReceptorError):
            DelayModel(mean_delay=0.0, max_delay=1.0)
        with pytest.raises(ReceptorError):
            DelayModel(mean_delay=5.0, max_delay=1.0)

    def test_delayed_arrivals_sorted_by_arrival(self):
        model = DelayModel(mean_delay=1.0, max_delay=5.0, rng=1)
        readings = [tup(float(i)) for i in range(30)]
        pairs = list(delayed_arrivals(readings, model))
        arrivals = [a for a, _t in pairs]
        assert arrivals == sorted(arrivals)
        assert all(a >= t.timestamp for a, t in pairs)


class TestEndToEndWithDelays:
    def test_delayed_redwood_trace_cleansable_with_slack(self):
        """Delayed readings reordered at the gateway feed the engine
        without violating the window order contract."""
        from repro.scenarios import RedwoodScenario
        from repro.pipelines.sensornet import build_redwood_processor

        scenario = RedwoodScenario(duration=86400.0 / 2, n_groups=2, seed=9)
        recorded = scenario.recorded_streams()
        model = DelayModel(mean_delay=60.0, max_delay=280.0, rng=4)
        delayed_sources = {}
        total_dropped = 0
        for mote_id, readings in recorded.items():
            ordered, dropped = reorder_arrivals(
                delayed_arrivals(readings, model), slack=280.0
            )
            delayed_sources[mote_id] = ordered
            total_dropped += dropped
        assert total_dropped == 0  # slack >= max delay
        run = build_redwood_processor(scenario).run(
            until=scenario.duration,
            tick=scenario.epoch,
            sources=delayed_sources,
        )
        assert run.output  # pipeline runs cleanly over reordered data


class TestReorderEdgeCases:
    """Boundary behavior the ingestion gateway leans on."""

    def test_duplicate_timestamps_release_in_sequence_order(self):
        """Equal-timestamp tuples come out in ascending explicit
        sequence, regardless of arrival interleaving — the gateway
        forwards sender sequence numbers for exactly this."""
        buffer = ReorderBuffer(slack=5.0)
        buffer.push(0.0, tup(1.0, v="third"), sequence=2)
        buffer.push(0.1, tup(1.0, v="first"), sequence=0)
        buffer.push(0.2, tup(1.0, v="second"), sequence=1)
        out = buffer.flush()
        assert [t["v"] for t in out] == ["first", "second", "third"]

    def test_duplicate_timestamps_default_to_arrival_order(self):
        buffer = ReorderBuffer(slack=5.0)
        for v in ("a", "b", "c"):
            buffer.push(0.0, tup(2.0, v=v))
        assert [t["v"] for t in buffer.flush()] == ["a", "b", "c"]

    def test_arrival_exactly_at_slack_horizon_admitted(self):
        """delay == slack sits exactly on the release horizon: it must
        be admitted (and released immediately), not dropped — even when
        the subtraction picks up float rounding."""
        slack = 1.0
        buffer = ReorderBuffer(slack=slack)
        ts = 0.1 + 0.2  # classic non-representable sum
        out = buffer.push(ts + slack, tup(ts))
        assert [t.timestamp for t in out] == [ts]
        assert buffer.dropped == 0

    def test_arrival_just_past_horizon_dropped(self):
        buffer = ReorderBuffer(slack=1.0)
        buffer.push(5.0, tup(5.0))  # horizon now 4.0
        out = buffer.push(5.0, tup(2.0))  # 2.0 << 4.0: hopeless
        assert out == []
        assert buffer.dropped == 1

    def test_drop_still_releases_uncovered_tuples(self):
        """A dropped arrival advances the horizon like any other; the
        tuples it uncovers must release on that same push, or a
        watermark-driven consumer would see them behind its
        punctuation."""
        buffer = ReorderBuffer(slack=1.0)
        assert buffer.push(0.5, tup(1.0)) == []  # buffered
        out = buffer.push(3.0, tup(0.5))  # late: dropped; horizon 2.0
        assert buffer.dropped == 1
        assert [t.timestamp for t in out] == [1.0]  # uncovered
        assert buffer.watermark == 2.0

    def test_flush_after_partial_release(self):
        buffer = ReorderBuffer(slack=2.0)
        buffer.push(0.0, tup(0.0))
        buffer.push(3.0, tup(3.0))  # releases ts 0.0 (horizon 1.0)
        buffer.push(3.5, tup(2.5))  # still buffered
        assert len(buffer) == 2
        out = buffer.flush()
        assert [t.timestamp for t in out] == [2.5, 3.0]
        assert len(buffer) == 0
        assert buffer.released == 3
        assert buffer.watermark == float("inf")
        # Post-flush arrivals are late by definition.
        assert buffer.push(10.0, tup(9.0)) == []
        assert buffer.dropped == 1

    def test_watermark_tracks_frontier_and_horizon(self):
        buffer = ReorderBuffer(slack=1.0)
        assert buffer.watermark == float("-inf")
        buffer.push(2.0, tup(1.5))  # horizon 1.0, ts 1.5 buffered
        assert buffer.watermark == 1.0
        out = buffer.push(3.0, tup(3.0))  # horizon 2.0: releases 1.5
        assert [t.timestamp for t in out] == [1.5]
        assert buffer.watermark == 2.0  # horizon leads the frontier

    def test_released_never_behind_watermark(self):
        """The gateway's core safety contract: once ``watermark``
        returns W, no later release carries a timestamp more than 1 ns
        below W — under any interleaving of admits and drops."""
        rng = np.random.default_rng(17)
        buffer = ReorderBuffer(slack=0.3)
        floor = float("-inf")
        for ts in np.cumsum(rng.exponential(0.2, size=300)):
            delay = min(1.5, rng.exponential(0.4))
            for item in buffer.push(float(ts + delay), tup(float(ts))):
                assert item.timestamp >= floor - 1e-9
            floor = max(floor, buffer.watermark)
        for item in buffer.flush():
            assert item.timestamp >= floor - 1e-9
