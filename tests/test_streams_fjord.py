"""Unit tests for the Fjord pipelined executor."""

import pytest

from repro.errors import OperatorError
from repro.streams.aggregates import AggregateSpec
from repro.streams.columnar import SetStream
from repro.streams.fjord import Fjord
from repro.streams.operators import (
    FilterOp,
    GroupKey,
    MapOp,
    Operator,
    UnionOp,
    WindowedGroupByOp,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec


def tup(ts, stream="s", **fields):
    return StreamTuple(ts, fields, stream)


def ticks(until, period=1.0):
    return [i * period for i in range(int(until / period) + 1)]


class TestWiring:
    def test_source_to_sink(self):
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1), tup(1.0, v=2)])
        sink = fjord.add_sink("out", inputs=["src"])
        fjord.run(ticks(2))
        assert [t["v"] for t in sink.results] == [1, 2]

    def test_operator_chain(self):
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1), tup(0.0, v=5)])
        fjord.add_operator("f", FilterOp(lambda t: t["v"] > 2), inputs=["src"])
        fjord.add_operator(
            "m", MapOp(lambda t: t.derive(values={"v": t["v"] * 10})),
            inputs=["f"],
        )
        sink = fjord.add_sink("out", inputs=["m"])
        fjord.run(ticks(1))
        assert [t["v"] for t in sink.results] == [50]

    def test_merges_sources_by_timestamp(self):
        fjord = Fjord()
        fjord.add_source("a", [tup(0.0, v="a0"), tup(2.0, v="a2")])
        fjord.add_source("b", [tup(1.0, v="b1")])
        fjord.add_operator("u", UnionOp(), inputs=["a", "b"])
        sink = fjord.add_sink("out", inputs=["u"])
        fjord.run(ticks(3))
        assert [t["v"] for t in sink.results] == ["a0", "b1", "a2"]

    def test_multi_port_inputs(self):
        class PortRecorder(Operator):
            def __init__(self):
                self.seen = []

            def on_batch(self, items, port=0):
                self.seen.extend((port, item["v"]) for item in items)
                return []

        recorder = PortRecorder()
        fjord = Fjord()
        fjord.add_source("a", [tup(0.0, v="left")])
        fjord.add_source("b", [tup(0.0, v="right")])
        fjord.add_operator("r", recorder, inputs=[("a", 0), ("b", 1)])
        fjord.run(ticks(1))
        assert sorted(recorder.seen) == [(0, "left"), (1, "right")]

    def test_duplicate_names_rejected(self):
        fjord = Fjord()
        fjord.add_source("x", [])
        with pytest.raises(OperatorError):
            fjord.add_source("x", [])
        fjord.add_operator("op", UnionOp(), inputs=["x"])
        with pytest.raises(OperatorError):
            fjord.add_operator("op", UnionOp(), inputs=["x"])

    def test_unknown_upstream_rejected(self):
        fjord = Fjord()
        with pytest.raises(OperatorError):
            fjord.add_operator("op", UnionOp(), inputs=["ghost"])

    def test_cycle_detected(self):
        fjord = Fjord()
        fjord.add_source("src", [])
        a = UnionOp()
        fjord.add_operator("a", a, inputs=["src"])
        fjord.add_operator("b", UnionOp(), inputs=["a"])
        # Manually wire b -> a to close a cycle.
        fjord._nodes["b"].downstream.append(("a", 0))
        fjord._order = None
        with pytest.raises(OperatorError):
            fjord.run(ticks(1))


class TestPunctuationSemantics:
    def test_same_instant_pipelining(self):
        """A downstream windowed op must see upstream on_time output at the
        same tick — the Smooth→Arbitrate requirement of Figure 4."""
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, shelf=0, tag_id="a")])
        fjord.add_operator(
            "smooth",
            WindowedGroupByOp(
                WindowSpec.range_by(5.0),
                keys=[GroupKey("tag_id"), GroupKey("shelf")],
                aggregates=[AggregateSpec("count", output="count")],
            ),
            inputs=["src"],
        )
        fjord.add_operator(
            "downstream",
            WindowedGroupByOp(
                WindowSpec.now(),
                keys=[GroupKey("shelf")],
                aggregates=[AggregateSpec("count", output="n")],
            ),
            inputs=["smooth"],
        )
        sink = fjord.add_sink("out", inputs=["downstream"])
        fjord.run([0.0])
        assert len(sink.results) == 1
        assert sink.results[0].timestamp == 0.0

    def test_tuples_later_than_final_tick_not_delivered(self):
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1), tup(99.0, v=2)])
        sink = fjord.add_sink("out", inputs=["src"])
        fjord.run([0.0, 1.0])
        assert [t["v"] for t in sink.results] == [1]

    def test_deterministic_across_runs(self):
        def build():
            fjord = Fjord()
            fjord.add_source("a", [tup(0.0, v=1), tup(1.0, v=2)])
            fjord.add_source("b", [tup(0.0, v=3)])
            fjord.add_operator("u", UnionOp(), inputs=["a", "b"])
            sink = fjord.add_sink("out", inputs=["u"])
            fjord.run(ticks(2))
            return [t["v"] for t in sink.results]

        assert build() == build()

    def test_fan_out_to_two_sinks(self):
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1)])
        sink1 = fjord.add_sink("s1", inputs=["src"])
        sink2 = fjord.add_sink("s2", inputs=["src"])
        fjord.run([0.0])
        assert len(sink1.results) == len(sink2.results) == 1


class TestSourceOrderValidation:
    """Out-of-order source tuples fail fast with a precise diagnostic."""

    def test_out_of_order_source_raises(self):
        fjord = Fjord()
        fjord.add_source("mote3", [tup(0.0, v=1), tup(5.0, v=2), tup(2.0, v=3)])
        fjord.add_sink("out", inputs=["mote3"])
        with pytest.raises(OperatorError) as excinfo:
            fjord.run(ticks(6))
        message = str(excinfo.value)
        assert "mote3" in message
        assert "2" in message and "5" in message
        assert message == (
            "source 'mote3' is out of order: timestamp 2 arrived after 5"
        )

    def test_regression_in_second_source_named_correctly(self):
        fjord = Fjord()
        fjord.add_source("clean", [tup(0.0, v=1), tup(1.0, v=2)])
        fjord.add_source("dirty", [tup(0.0, v=3), tup(3.0, v=4), tup(1.0, v=5)])
        fjord.add_sink("out", inputs=["clean", "dirty"])
        with pytest.raises(OperatorError, match="source 'dirty' is out of order"):
            fjord.run(ticks(4))

    def test_duplicate_timestamps_are_in_order(self):
        fjord = Fjord()
        fjord.add_source("src", [tup(1.0, v=1), tup(1.0, v=2), tup(1.0, v=3)])
        sink = fjord.add_sink("out", inputs=["src"])
        fjord.run(ticks(2))
        assert [t["v"] for t in sink.results] == [1, 2, 3]

    def test_tuples_before_regression_are_delivered(self):
        """The check fires lazily, at the pull that meets the bad tuple."""
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1), tup(4.0, v=2), tup(3.0, v=3)])
        sink = fjord.add_sink("out", inputs=["src"])
        with pytest.raises(OperatorError, match="out of order"):
            fjord.run(ticks(5))
        assert [t["v"] for t in sink.results] == [1]


class TestFjordSession:
    """Push-mode execution must replicate the pull-based run exactly."""

    def _windowed(self, sources):
        """A fjord with a stateful windowed aggregate over two sources."""
        fjord = Fjord()
        for name, items in sources.items():
            fjord.add_source(name, items)
        fjord.add_operator(
            "agg",
            WindowedGroupByOp(
                WindowSpec("range", 2.0),
                keys=(),
                aggregates=[AggregateSpec("count", None, output="n")],
            ),
            inputs=sorted(sources),
        )
        sink = fjord.add_sink("out", inputs=["agg"])
        return fjord, sink

    def _data(self):
        return {
            "a": [tup(0.0, "a", v=1), tup(1.5, "a", v=2), tup(3.0, "a", v=3)],
            "b": [tup(0.5, "b", v=4), tup(1.5, "b", v=5), tup(2.5, "b", v=6)],
        }

    def test_session_matches_run(self):
        data = self._data()
        ref_fjord, ref_sink = self._windowed(data)
        ref_fjord.run(ticks(4))

        empty = {name: [] for name in data}
        fjord, sink = self._windowed(empty)
        session = fjord.open_session(ticks(4))
        arrivals = sorted(
            ((item.timestamp, name, item) for name, items in data.items()
             for item in items),
            key=lambda e: (e[0], e[1]),
        )
        for ts, name, item in arrivals:
            session.push(name, item)
            session.advance(ts)  # everything strictly below ts is safe
        session.close()
        assert sink.results == ref_sink.results

    def test_advance_respects_watermark(self):
        fjord, _sink = self._windowed({"a": [], "b": []})
        session = fjord.open_session([0.0, 1.0, 2.0])
        assert session.advance(1.5) == [0.0, 1.0]
        assert session.safe_time == 1.0
        assert session.advance(1.5) == []  # stale watermark: no-op
        assert session.advance(float("inf")) == [2.0]

    def test_push_behind_cursor_raises(self):
        fjord, _sink = self._windowed({"a": [], "b": []})
        session = fjord.open_session([0.0, 1.0, 2.0])
        session.advance(1.5)
        with pytest.raises(OperatorError, match="behind the session"):
            session.push("a", tup(0.5, "a", v=1))

    def test_push_unknown_source_raises(self):
        fjord, _sink = self._windowed({"a": [], "b": []})
        session = fjord.open_session([0.0, 1.0])
        with pytest.raises(OperatorError, match="unknown session source"):
            session.push("nope", tup(0.5, "nope", v=1))

    def test_per_source_regression_raises(self):
        fjord, _sink = self._windowed({"a": [], "b": []})
        session = fjord.open_session([0.0, 5.0])
        session.push("a", tup(3.0, "a", v=1))
        with pytest.raises(OperatorError, match="out of order"):
            session.push("a", tup(1.0, "a", v=2))

    def test_close_flushes_and_is_idempotent(self):
        data = {"a": [tup(0.5, "a", v=1)], "b": []}
        ref_fjord, ref_sink = self._windowed(data)
        ref_fjord.run(ticks(3))

        fjord, sink = self._windowed({"a": [], "b": []})
        session = fjord.open_session(ticks(3))
        session.push("a", tup(0.5, "a", v=1))
        session.close()
        session.close()  # second close is a no-op
        assert sink.results == ref_sink.results
        with pytest.raises(OperatorError, match="closed"):
            session.push("a", tup(2.5, "a", v=9))
        with pytest.raises(OperatorError, match="closed"):
            session.advance(10.0)

    def test_descending_ticks_rejected(self):
        fjord, _sink = self._windowed({"a": [], "b": []})
        with pytest.raises(OperatorError, match="ascending"):
            fjord.open_session([2.0, 1.0])


class TestOrderWithinTheTolerance:
    """A reading up to 1 ns older than the one before it is in order —
    both drivers accept it — and it keeps its place in its source's
    order: replayed and pushed alike."""

    @staticmethod
    def outputs(sources):
        """``(Fjord.run's, a session's)`` output values over a union
        of ``sources``, ticks 0, 1, 2."""
        seen = []
        for pushed in (False, True):
            fjord = Fjord()
            for name, items in sources.items():
                fjord.add_source(name, [] if pushed else items)
            fjord.add_operator("u", UnionOp(), inputs=sorted(sources))
            sink = fjord.add_sink("out", inputs=["u"])
            if pushed:
                session = fjord.open_session([0.0, 1.0, 2.0])
                for name, items in sources.items():
                    for item in items:
                        session.push(name, item)
                session.close()
            else:
                fjord.run([0.0, 1.0, 2.0])
            seen.append([t["v"] for t in sink.results])
        return tuple(seen)

    def test_one_source_keeps_push_order(self):
        sources = {"s": [tup(1.0000000005, "s", v="a"), tup(1.0, "s", v="b")]}
        assert self.outputs(sources) == (["a", "b"], ["a", "b"])

    def test_a_second_source_merges_head_by_head(self):
        """``t``'s reading at 1.0 goes first (it is below ``s``'s head,
        1.0000000005); ``s``'s two follow in their own order."""
        sources = {
            "s": [tup(1.0000000005, "s", v="a"), tup(1.0, "s", v="b")],
            "t": [tup(1.0, "t", v="c")],
        }
        assert self.outputs(sources) == (["c", "a", "b"], ["c", "a", "b"])


class TestWholeRunDelivery:
    """A kernel's output list is queued whole at every consumer; what
    each consumer sees, the flow counters and the ``batch_drain``
    sequence are those of tuple-at-a-time delivery, whichever kernel
    the drain picks (see ``kernel_regime`` in conftest.py)."""

    REGIMES = ("row", "columnar", "fused")

    def _fan_out_with_reinjection(self):
        """``agg`` feeds a stage, a tap and a sink whose callback
        re-injects every row into ``echo`` — a node the sweep has
        already passed, so only the final drain pass reaches it."""
        fjord = Fjord()
        fjord.add_source(
            "a", [tup(0.5 * i, "a", v=i % 3) for i in range(6)]
        )
        fjord.add_source(
            "b", [tup(0.75 * i, "b", v=i % 2) for i in range(4)]
        )
        fjord.add_operator(
            "agg",
            WindowedGroupByOp(
                WindowSpec.range_by(1.0),
                keys=[GroupKey("v")],
                aggregates=[AggregateSpec("count", output="n")],
            ),
            inputs=["a", "b"],
        )
        fjord.add_operator("stage", MapOp(SetStream("clean")), inputs=["agg"])
        sinks = {
            "out": fjord.add_sink("out", inputs=["stage"]),
            "tap": fjord.add_sink("tap", inputs=["agg"]),
        }
        fjord.add_operator("echo", FilterOp(lambda t: t["n"] > 1), inputs=[])
        sinks["echoed"] = fjord.add_sink("echoed", inputs=["echo"])
        fjord.add_sink(
            "loop",
            inputs=["agg"],
            callback=lambda item: fjord._nodes["echo"].pending.append(
                (item.derive(stream="again"), 0)
            ),
        )
        return fjord, sinks

    @pytest.mark.parametrize("regime", REGIMES)
    def test_fan_out_and_callback_reinjection_match_per_tuple_delivery(
        self, regime, kernel_regime
    ):
        from repro.streams.telemetry import InMemoryCollector

        kernel_regime(regime)
        fjord, sinks = self._fan_out_with_reinjection()
        collector = InMemoryCollector()
        fjord.run([0.0, 1.0, 2.0, 3.0], telemetry=collector)
        # Every literal below was recorded from per-tuple delivery.
        rows = [(0.0, 0, 2), (1.0, 0, 2), (1.0, 1, 2), (1.0, 2, 1),
                (2.0, 0, 2), (2.0, 1, 1), (2.0, 2, 1), (3.0, 1, 2),
                (3.0, 2, 1)]
        seen = {
            name: [(t.timestamp, t.stream, t["v"], t["n"])
                   for t in sink.results]
            for name, sink in sinks.items()
        }
        assert seen == {
            "out": [(ts, "clean", v, n) for ts, v, n in rows],
            "tap": [(ts, "", v, n) for ts, v, n in rows],
            "echoed": [(ts, "again", v, n) for ts, v, n in rows if n > 1],
        }
        assert fjord.stats() == {
            "agg": (10, 9), "stage": (9, 9), "out": (9, 0), "tap": (9, 0),
            "echo": (9, 5), "echoed": (5, 0), "loop": (9, 0),
        }
        per_tick = {0.0: (2, 1, 1), 1.0: (3, 3, 2), 2.0: (3, 3, 1),
                    3.0: (2, 2, 1)}
        expected = []
        for now, (injected, emitted, echoed) in per_tick.items():
            expected += [
                ("agg", now, injected, 0),
                ("loop", now, emitted, 0),
                ("stage", now, emitted, emitted),
                ("out", now, emitted, 0),
                ("tap", now, emitted, 0),
                ("echo", now, emitted, echoed),  # the final drain pass
                ("echoed", now, echoed, 0),
            ]
        drains = [
            (e["node"], e["t"], e["n_in"], e["n_out"])
            for e in collector.snapshot()["events"]
            if e["kind"] == "batch_drain"
        ]
        assert drains == expected

    @pytest.mark.parametrize("regime", REGIMES)
    def test_stage_tap_sees_what_the_next_stage_sees(
        self, regime, kernel_regime, small_shelf
    ):
        """The processor's ``taps=("smooth",)`` sink and Arbitrate share
        every Smooth output run."""
        from repro.pipelines.rfid_shelf import build_shelf_processor

        kernel_regime(regime)

        def run(**kwargs):
            return build_shelf_processor(small_shelf, "smooth+arbitrate").run(
                until=small_shelf.duration,
                tick=small_shelf.poll_period,
                sources=small_shelf.recorded_streams(),
                **kwargs,
            )

        plain = run()
        tapped = run(taps=("smooth",))
        assert tapped.output == plain.output
        assert {k: v for k, v in tapped.stats.items()
                if not k.startswith("tap:")} == plain.stats
        smoothed = tapped.tap("rfid", "smooth")
        assert len(smoothed) == tapped.stats["tap:rfid/smooth"][0]
        assert len(smoothed) == sum(
            out for name, (_in, out) in plain.stats.items()
            if name.startswith("rfid:1:smooth:")
        )

    @pytest.mark.parametrize("regime", REGIMES)
    def test_pass_through_kernel_does_not_couple_siblings(
        self, regime, kernel_regime
    ):
        """``UnionOp()`` may return the very list it was handed; the
        sibling that was handed the same list must not see what happens
        to it downstream (here: concatenation with another run)."""
        run = [tup(0.0, v=1), tup(0.0, v=2)]
        assert UnionOp().on_batch(run) is run

        kernel_regime(regime)
        fjord = Fjord()
        fjord.add_source("src", [tup(0.0, v=1), tup(0.0, v=2), tup(0.0, v=3)])
        fjord.add_operator("x", FilterOp(lambda t: t["v"] < 3), inputs=["src"])
        fjord.add_operator("u", UnionOp(), inputs=["x"])
        sibling = fjord.add_sink("sibling", inputs=["x"])
        fjord.add_operator("y", FilterOp(lambda t: t["v"] > 2), inputs=["src"])
        merged = fjord.add_sink("zz_merged", inputs=["u", "y"])
        fjord.run([0.0, 1.0])
        assert [t["v"] for t in sibling.results] == [1, 2]
        assert [t["v"] for t in merged.results] == [1, 2, 3]
        assert fjord.stats()["zz_merged"] == (3, 0)
