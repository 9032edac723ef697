"""A session fed run by run is the in-memory run.

``Fjord.run`` is a :class:`~repro.streams.fjord.FjordSession` whose
queues hold its sources; the gateway feeds the same session one run per
source per drain. These tests pin that
the cut does not matter: any cut of each source's readings into
``push_run`` calls, interleaved with any ``advance`` the watermark
contract allows, gives ``Fjord.run``'s sink output, flow counters and
trace-event log (every ``batch_drain`` included) — at a node fed by one
source, by two sources on one port, by two sources on two ports, and by
one source on two ports; under the row and the column kernels; with
both column storages. A failing run queues nothing.

No simulator is imported (a processor's receptors here are bare
registry entries fed recordings), so the suite also runs where numpy is
not installed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.granules import SpatialGranule
from repro.core.pipeline import ESPProcessor
from repro.errors import OperatorError
from repro.receptors.base import Receptor, ReceptorKind
from repro.receptors.registry import DeviceRegistry
from repro.streams.aggregates import AggregateSpec
from repro.streams.fjord import Fjord
from repro.streams.operators import (
    FilterOp,
    GroupKey,
    Operator,
    UnionOp,
    WindowedGroupByOp,
)
from repro.streams.telemetry import InMemoryCollector
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec

try:
    from tests.conftest import traces
    from tests.test_shard_equivalence import trace_ticks
except ImportError:  # pragma: no cover - direct file invocation
    from conftest import traces
    from test_shard_equivalence import trace_ticks


class PortTag(Operator):
    """Emits every tuple it is handed, tagged with its port: delivery
    order and port interleaving become output."""

    def on_batch(self, items, port=0):
        return [item.derive(values={"port": port}) for item in items]


class CountingUnion(UnionOp):
    """A union that counts the rows of each column-kernel call."""

    def __init__(self):
        super().__init__()
        self.column_runs = []

    def on_column_batch(self, batch, port=0):
        self.column_runs.append(len(batch))
        return super().on_column_batch(batch, port)


#: The two port-tagging nodes' source edges, in edge order.
TAGGED = {
    "join": [("src0", 0), ("src1", 1)],
    "twice": [("src1", 1), ("src0", 0), ("src1", 0)],
}


def build(sources):
    """One graph with each way a node can be fed by sources."""
    fjord = Fjord()
    for name, items in sources.items():
        fjord.add_source(name, items)
    fjord.add_operator(
        "alone", FilterOp(lambda t: t["value"] < 40.0), inputs=["src0"]
    )
    fjord.add_operator("union", CountingUnion(), inputs=["src0", "src1"])
    for name, edges in TAGGED.items():
        fjord.add_operator(name, PortTag(), inputs=edges)
    fjord.add_operator(
        "smooth",
        WindowedGroupByOp(
            WindowSpec.range_by(3.0),
            keys=[GroupKey("spatial_granule")],
            aggregates=[AggregateSpec("count", output="n")],
        ),
        inputs=["union"],
    )
    sinks = {
        name: fjord.add_sink(f"out:{name}", inputs=[name])
        for name in ("alone", "union", "join", "twice", "smooth")
    }
    return fjord, sinks


def canon(rows):
    """Rows as text: ``repr`` tells 1 from 1.0, which ``==`` does not."""
    return [
        (repr(t.timestamp), t.stream, sorted((k, repr(v)) for k, v in t.items()))
        for t in rows
    ]


def observed(fjord, sinks, collector):
    return (
        {name: canon(sink.results) for name, sink in sinks.items()},
        fjord.stats(),
        collector.snapshot()["events"],
    )


def delivered(sources, edges):
    """The reference, by brute force: a node fed by ``edges`` gets every
    reading of sorted ``sources`` in ``(timestamp, source name, source
    order)`` order, on each of its source's ports in edge order — as a
    port-tagging node emits it."""
    readings = sorted(
        (item.timestamp, name, index, item)
        for name, items in sources.items()
        for index, item in enumerate(items)
    )
    return canon([
        item.derive(values={"port": port})
        for _ts, name, _index, item in readings
        for source, port in edges
        if source == name
    ])


def replayed(sources, ticks):
    fjord, sinks = build(sources)
    collector = InMemoryCollector()
    fjord.run(ticks, telemetry=collector)
    return observed(fjord, sinks, collector)


def tup(ts, v, stream="s"):
    return StreamTuple(ts, {"v": v}, stream)


class TestAnyCutIsTheRun:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        sources=traces(),
        regime=st.sampled_from(("row", "columnar")),
        data=st.data(),
    )
    def test_pushed_runs_equal_fjord_run(
        self, sources, regime, data, kernel_regime
    ):
        kernel_regime(regime)
        ticks = trace_ticks(sources)
        fjord, sinks = build({name: [] for name in sources})
        collector = InMemoryCollector()
        session = fjord.open_session(ticks, telemetry=collector)
        sent = {name: 0 for name in sources}
        while True:
            open_sources = sorted(
                name for name in sources if sent[name] < len(sources[name])
            )
            if not open_sources:
                break
            name = data.draw(st.sampled_from(open_sources), label="source")
            start = sent[name]
            size = data.draw(
                st.integers(1, len(sources[name]) - start), label="run"
            )
            session.push_run(name, sources[name][start:start + size])
            sent[name] = start + size
            # The contract: no later push lies more than 1 ns below it.
            allowed = min(
                (sources[n][sent[n]].timestamp for n in sources
                 if sent[n] < len(sources[n])),
                default=float("inf"),
            )
            if allowed < float("inf") and data.draw(
                st.booleans(), label="advance"
            ):
                session.advance(data.draw(
                    st.floats(allowed - 3.0, allowed), label="watermark"
                ))
        session.close()
        outputs, stats, events = observed(fjord, sinks, collector)
        assert (outputs, stats, events) == replayed(sources, ticks)
        for name, edges in TAGGED.items():
            assert outputs[name] == delivered(sources, edges), name


class TestPulledSources:
    """A source that is not a list is pulled as its ticks come due, and
    runs as the same readings in a list do — the out-of-order raise
    included, at the same tick."""

    @pytest.mark.parametrize(
        "stamps", [(0.0, 1.0, 1.0, 2.5, 7.0), (0.0, 4.0, 3.0, 5.0)],
        ids=["in-order", "out-of-order"],
    )
    def test_a_generator_runs_as_its_list(self, stamps):
        def run(feed):
            fjord = Fjord()
            fjord.add_source("s", feed)
            sink = fjord.add_sink("out", inputs=["s"])
            try:
                fjord.run([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
            except OperatorError as error:
                return [t["v"] for t in sink.results], str(error)
            return [t["v"] for t in sink.results], None

        readings = [tup(ts, index) for index, ts in enumerate(stamps)]
        pulled = run(reading for reading in readings)
        assert pulled == run(readings)
        if stamps[2] < stamps[1]:
            assert pulled == ([0], "source 's' is out of order: timestamp 3 "
                                   "arrived after 4")
        else:
            assert pulled == ([0, 1, 2, 3], None)


class TestLongMergedRuns:
    """Two sources' due runs reach a union as one merged payload, so a
    tick with 64 or more rows between them meets the column kernel."""

    @pytest.mark.parametrize("storage", ["typed", "list"])
    def test_merged_run_takes_the_column_kernel_on_either_storage(
        self, storage, kernel_regime, column_storage
    ):
        sources = {
            name: [
                StreamTuple(
                    float(i // 40),
                    {"spatial_granule": f"g{i % 3}", "value": float(i)},
                    name,
                )
                for i in range(80)
            ]
            for name in ("src0", "src1")
        }
        ticks = [0.0, 1.0, 2.0]
        kernel_regime("row")
        reference = replayed(sources, ticks)
        kernel_regime("fused")
        column_storage(storage)
        fjord, sinks = build(sources)
        collector = InMemoryCollector()
        fjord.run(ticks, telemetry=collector)
        assert fjord._nodes["union"].op.column_runs == [80, 80]
        assert observed(fjord, sinks, collector) == reference


class TestFailingRunQueuesNothing:
    """``push_run`` checks every reading as ``push`` does and raises
    what ``push`` raises for the first one that fails, after the same
    trace event; the session is then as if the run was never offered."""

    CASES = {
        "closed": (
            "src0", [tup(3.0, "x")], None,
            "push on a closed FjordSession",
        ),
        "unknown": (
            "nope", [tup(3.0, "x")], None,
            "unknown session source 'nope'",
        ),
        "regression": (
            "src0", [tup(3.0, "x"), tup(2.0, "y"), tup(4.0, "z")],
            "source_out_of_order",
            "session source 'src0' is out of order: timestamp 2 arrived "
            "after 3",
        ),
        "late": (
            "src1", [tup(0.5, "x"), tup(1.5, "y")], "session_late_push",
            "tuple from 'src1' at t=0.5 arrived behind the session's "
            "punctuation cursor (safe_time=1); increase the ingress "
            "reorder slack",
        ),
    }

    @staticmethod
    def opened(case):
        fjord = Fjord()
        fjord.add_source("src0", [])
        fjord.add_source("src1", [])
        fjord.add_operator("join", PortTag(), inputs=[("src0", 0), ("src1", 1)])
        sink = fjord.add_sink("out", inputs=["join"])
        collector = InMemoryCollector()
        session = fjord.open_session([0.0, 1.0, 2.0, 3.0], telemetry=collector)
        session.push_run("src0", [tup(1.5, "a"), tup(2.5, "b")])
        session.advance(1.5)  # sweeps 0 and 1: safe_time is 1
        if case == "closed":
            session.close()
        return session, sink, collector

    @pytest.mark.parametrize("case", CASES)
    def test_raises_as_push_and_leaves_the_session_as_it_was(self, case):
        source, run, event, message = self.CASES[case]
        session, sink, collector = self.opened(case)
        pending = session.pending
        with pytest.raises(OperatorError) as raised:
            session.push_run(source, run)
        assert str(raised.value) == message
        kinds = [e["kind"] for e in collector.snapshot()["events"]]
        assert kinds.count("source_out_of_order") == (event == "source_out_of_order")
        assert kinds.count("session_late_push") == (event == "session_late_push")
        assert session.pending == pending

        lone, _sink, _collector = self.opened(case)
        with pytest.raises(OperatorError) as by_push:
            for item in run:
                lone.push(source, item)
        assert str(by_push.value) == message

        untouched, untouched_sink, _collector = self.opened(case)
        session.close()
        untouched.close()
        assert canon(sink.results) == canon(untouched_sink.results)
        assert [t["v"] for t in sink.results] == ["a", "b"]


class TestSourcesMeetInSessionOrder:
    """A processor's sources feed its first node straight from the
    session: where they meet, a tick's rows arrive merged on
    ``(timestamp, source name)``, and a source's name is ``src:`` and
    its receptor id. A shelf recording with one reader shifted off the
    tick grid keeps each tick's rows and reorders them within it."""

    def test_raw_rows_merge_on_timestamp_then_receptor(self):
        registry = DeviceRegistry()
        for index in range(2):
            group = registry.add_group(
                f"shelf{index}_readers", SpatialGranule(f"shelf{index}"),
                receptor_kind="rfid",
            )
            registry.assign(
                Receptor(f"reader{index}", ReceptorKind.RFID, 1.0), group.name
            )

        def poll(reader, stamp, tags):
            # The feed's own label is not the receptor's: it is replaced.
            return [
                StreamTuple(stamp, {"tag_id": tag, "reader_id": reader}, "feed")
                for tag in tags
            ]

        # reader0 polls on the 1 s grid; reader1 a quarter second early,
        # so its rows come due at the same tick with smaller stamps.
        recording = {
            "reader0": [
                row for k in range(6) for row in poll("reader0", float(k), ["a", "b"])
            ],
            "reader1": [
                row for k in range(1, 6)
                for row in poll("reader1", k - 0.25, ["c", "a"])
            ],
        }
        run = ESPProcessor(registry).run(
            until=5.0, sources=recording, taps=["raw"]
        )
        out = [
            (row.timestamp, row.stream, row["tag_id"], row["spatial_granule"],
             row["proximity_group"])
            for row in run.tap("rfid", "raw")
        ]
        expected = [
            (row.timestamp, reader, row["tag_id"], f"shelf{reader[-1]}",
             f"shelf{reader[-1]}_readers")
            for reader, rows in recording.items() for row in rows
        ]
        # Each 1 s tick keeps its rows, ordered by timestamp, then
        # receptor id, each receptor's rows in poll order (a stable sort).
        assert out == sorted(expected, key=lambda row: row[:2])
        assert out[2:4] == [
            (0.75, "reader1", "c", "shelf1", "shelf1_readers"),
            (0.75, "reader1", "a", "shelf1", "shelf1_readers"),
        ]
