"""Loopback tests for the ingestion gateway.

Everything runs over real sockets on 127.0.0.1 with ephemeral ports,
but *no* real time: wire timestamps are simulation-axis values, feeders
replay full-tilt, liveness uses an injected fake clock, and the only
``asyncio.sleep`` ever awaited is ``sleep(0)`` (a bare event-loop
yield). ``asyncio.wait_for`` guards are hang insurance, not pacing.

The headline assertions are the differential ones: a pipeline fed over
the network — delays, reordering, credit stalls and all — produces
byte-identical cleaned output to the in-memory batch run of the same
scenario, on both the serial and the sharded reference backends.
"""

import asyncio
import contextlib
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetError, OperatorError
from repro.net import protocol
from repro.net.feeder import ReplayFeeder
from repro.net.feeder_core import low_marks
from repro.net.gateway import IngestGateway
from repro.net.overload import BoundedIngressQueue
from repro.net.protocol import read_frame, write_frame
from repro.receptors.network import DelayModel, GilbertElliottChannel
from repro.streams.telemetry import InMemoryCollector
from repro.streams.tuples import StreamTuple

WAIT = 20.0  # hang guard for awaits; never approached on a healthy run


def shelf_case(duration=12.0):
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.scenarios.shelf import ShelfScenario

    scenario = ShelfScenario(duration=duration, seed=3)
    streams = scenario.recorded_streams()

    def factory():
        return build_shelf_processor(scenario, "smooth+arbitrate")

    return factory, streams, scenario.duration, scenario.poll_period


def redwood_case(days=0.05):
    from repro.pipelines.sensornet import build_redwood_processor
    from repro.scenarios.redwood import RedwoodScenario

    scenario = RedwoodScenario(duration=days * 86400.0, n_groups=2, seed=3)
    streams = scenario.recorded_streams()

    def factory():
        return build_redwood_processor(scenario)

    return factory, streams, scenario.duration, None


def redwood_half_day():
    """Long enough for the lossy motes to fall silent for hours."""
    return redwood_case(days=0.5)


def home_case():
    from repro.pipelines.digital_home import build_digital_home_processor
    from repro.scenarios.office import OfficeScenario

    scenario = OfficeScenario(duration=300.0, seed=3)

    def factory():
        return build_digital_home_processor(scenario)

    return factory, scenario.recorded_streams(), scenario.duration, 0.5


class SilentFeeder(ReplayFeeder):
    """A feeder that predates the ``low`` key: it never declares one.
    The frames it sends are also what a gateway that predates the key
    makes of a declaring feeder's (it would read past the key)."""

    async def run(self):
        self.core.plan()
        self.core.lows = [None] * len(self.core.lows)
        return await super().run()


class RawFeeder:
    """A hand-driven feeder connection against a gateway or router.

    :meth:`send` writes one data frame and waits for its credit, so on
    return the drain (or forward) that took the frame is over and
    nothing later has been sent: what the server did with exactly that
    frame can be read off deterministically.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host, port, sources, version=protocol.PROTOCOL_VERSION):
        reader, writer = await asyncio.open_connection(host, port)
        await write_frame(writer, protocol.hello(sources, version))
        ack = await asyncio.wait_for(read_frame(reader), WAIT)
        assert ack["type"] == "hello_ack", ack
        assert ack["version"] == version
        return cls(reader, writer)

    async def _read_until(self, kind):
        while True:
            frame = await asyncio.wait_for(read_frame(self.reader), WAIT)
            assert frame is not None, f"EOF while waiting for {kind}"
            assert kind == "error" or frame["type"] != "error", frame
            if frame["type"] == kind:
                return frame

    async def send(self, frame):
        await write_frame(self.writer, frame)
        await self._read_until("credit")

    async def send_rows(self, entries):
        """:meth:`send` for a whole block: on return every row has
        been drained (or forwarded) and earned its credit."""
        await write_frame(self.writer, protocol.block_frame(entries))
        owed = len(entries)
        while owed:
            owed -= (await self._read_until("credit"))["credits"]
        assert owed == 0

    async def send_refused(self, frame):
        """Write a frame the server must refuse; returns the reason
        once the ``error`` frame *and* the hang-up have arrived."""
        await write_frame(self.writer, frame)
        error = await self._read_until("error")
        assert await asyncio.wait_for(self.reader.read(), WAIT) == b""
        self.writer.close()
        return error["reason"]

    async def bye(self, source):
        await write_frame(self.writer, protocol.bye(source))
        await self._read_until("bye_ack")

    async def replay(self, streams, on_frame=None, strip=(), blocks=False):
        """Replay ``streams`` in a feeder's own order, a reading at a
        time — each a ``data`` frame without the keys in ``strip``, or
        (``blocks``) a one-row block; then say bye for each."""
        planner = ReplayFeeder("unused", 0, streams)
        schedule = planner.core.plan()
        lows = low_marks(schedule)
        for (arrival, source, seq, item), low in zip(schedule, lows):
            if blocks:
                await self.send_rows([(source, seq, arrival, low, item, None)])
            else:
                frame = protocol.data_frame(source, seq, arrival, item, low)
                for key in strip:
                    frame.pop(key, None)
                await self.send(frame)
            if on_frame is not None:
                on_frame(arrival)
        for name in sorted(streams):
            await self.bye(name)
        self.writer.close()


class SweepLog:
    """A session proxy remembering every tick the gateway swept."""

    def __init__(self, session):
        self._session = session
        self.swept = []

    def __getattr__(self, name):
        return getattr(self._session, name)

    def advance(self, watermark):
        swept = self._session.advance(watermark)
        self.swept.extend(swept)
        return swept


async def loopback(
    factory,
    streams,
    until,
    tick,
    *,
    slack,
    policy="block",
    queue_bound=64,
    delay_model=None,
    telemetry=None,
    feeder_kwargs=None,
    feeder_class=ReplayFeeder,
):
    """Serve ``factory()``'s pipeline, replay ``streams`` into it."""
    session = factory().open_session(
        until=until, tick=tick, telemetry=telemetry
    )
    gateway = IngestGateway(
        session,
        slack=slack,
        policy=policy,
        queue_bound=queue_bound,
        telemetry=telemetry,
    )
    host, port = await gateway.start()
    feeder = feeder_class(
        host, port, streams,
        delay_model=delay_model,
        **(feeder_kwargs or {}),
    )
    report = await asyncio.wait_for(feeder.run(), timeout=WAIT)
    await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
    run = await gateway.close()
    return run, gateway, report


class TestLoopbackDifferential:
    """Network-fed output == in-memory output, byte for byte."""

    @pytest.mark.parametrize("case", [shelf_case, redwood_case])
    def test_matches_serial_and_sharded_backends(self, case):
        factory, streams, until, tick = case()
        serial = factory().run(until=until, tick=tick, sources=streams)
        shard_key = (
            "tag_id" if case is shelf_case else "spatial_granule"
        )
        sharded = factory().run(
            until=until, tick=tick, sources=streams,
            shards=3, backend="processes", shard_key=shard_key,
        )

        run, gateway, report = asyncio.run(
            loopback(factory, streams, until, tick, slack=0.0)
        )
        assert run.output == serial.output
        assert run.output == sharded.output
        assert run.output  # non-vacuous
        stats = gateway.stats()["sources"]
        assert sum(report["sent"].values()) == sum(
            s["delivered"] for s in stats.values()
        )
        assert all(s["dropped_late"] == 0 for s in stats.values())

    @pytest.mark.parametrize("case", [shelf_case, redwood_case])
    def test_a_row_naming_another_receptor_changes_nothing(self, case):
        """A block row's stream cell is whatever the feeder sent. The
        keyed stages partition by the source the row is queued under
        (the session stamps that source's receptor id on it as it
        injects it), so readings that label every row with another
        receptor's id give the honest run's output, byte for byte: over
        the gateway, as a batch recording and sharded."""
        factory, streams, until, tick = case()
        honest = factory().run(until=until, tick=tick, sources=streams)
        names = sorted(streams)
        other = dict(zip(names, names[1:] + names[:1]))
        spoofed = {
            name: [item.derive(stream=other[name]) for item in items]
            for name, items in streams.items()
        }
        shard_key = "tag_id" if case is shelf_case else "spatial_granule"
        runs = {
            "gateway": asyncio.run(
                loopback(factory, spoofed, until, tick, slack=0.0)
            )[0],
            "batch": factory().run(until=until, tick=tick, sources=spoofed),
            "sharded": factory().run(
                until=until, tick=tick, sources=spoofed,
                shards=2, backend="serial", shard_key=shard_key,
            ),
        }
        for path, run in runs.items():
            assert run.output == honest.output, path
        assert honest.output  # non-vacuous

    def test_matches_with_network_delay_and_reordering(self):
        """Delayed, reordered arrivals with slack >= max delay: still
        byte-identical — the reorder buffer plus watermark gating is
        exactly sufficient."""
        factory, streams, until, tick = shelf_case()
        ref = factory().run(until=until, tick=tick, sources=streams)
        run, gateway, _report = asyncio.run(
            loopback(
                factory, streams, until, tick,
                slack=1.0,
                delay_model=DelayModel(
                    mean_delay=0.2, max_delay=1.0, rng=5
                ),
            )
        )
        assert run.output == ref.output
        stats = gateway.stats()["sources"]
        assert all(s["dropped_late"] == 0 for s in stats.values())


class TestPromises:
    """Sources declare their low watermark: same output, swept sooner."""

    @pytest.mark.parametrize(
        "case,delay,slack",
        [
            (shelf_case, (0.3, 1.2), 1.2),
            (redwood_half_day, (60.0, 280.0), 280.0),
        ],
    )
    def test_on_stripped_and_in_memory_agree_under_delay_and_loss(
        self, case, delay, slack
    ):
        """Promises on ≡ promises stripped (either peer predates the
        key) ≡ the in-memory run over the readings the channel let
        through — with the reorder buffers doing real work under both
        the slack rule and the promise rule at once."""
        factory, streams, until, tick = case()

        def impairments():
            return {
                "delay_model": DelayModel(*delay, rng=5),
                "feeder_kwargs": {
                    "channel": GilbertElliottChannel(
                        0.1, 0.4, deliver_good=0.95, deliver_bad=0.3, rng=9
                    )
                },
            }

        planner = ReplayFeeder(
            "unused", 0, streams, **impairments()["feeder_kwargs"]
        )
        survivors = {name: [] for name in streams}
        for _arrival, name, _seq, item in sorted(
            planner.core.plan(), key=lambda entry: entry[1:3]
        ):
            survivors[name].append(item)
        assert sum(planner.lost.values()) > 0  # the channel really lost
        ref = factory().run(until=until, tick=tick, sources=survivors)
        assert ref.output  # non-vacuous

        for feeder_class in (ReplayFeeder, SilentFeeder):
            run, gateway, report = asyncio.run(
                loopback(
                    factory, streams, until, tick, slack=slack,
                    feeder_class=feeder_class, **impairments(),
                )
            )
            assert run.output == ref.output, feeder_class.__name__
            assert report["lost"] == planner.lost
            stats = gateway.stats()["sources"]
            assert all(s["dropped_late"] == 0 for s in stats.values())

    @staticmethod
    async def _sweep_lags(
        factory, streams, until, tick, strip=(), blocks=False
    ):
        """The freshness oracle: replay in order, slack 0, one frame
        per drain; per tick swept before the byes, the sensor-time
        stamp of the frame whose drain swept it, minus the tick (0 when
        the tick was swept no later than its own last reading)."""
        session = SweepLog(factory().open_session(until=until, tick=tick))
        gateway = IngestGateway(session, slack=0.0)
        host, port = await gateway.start()
        feeder = await RawFeeder.open(host, port, streams)
        lags = []

        def on_frame(stamp):
            lags.extend(
                max(0.0, stamp - swept) for swept in session.swept[len(lags):]
            )

        await feeder.replay(streams, on_frame, strip, blocks)
        await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
        run = await gateway.close()
        return run, lags, len(session.ticks)

    def test_in_order_shelf_sweeps_each_tick_with_its_own_last_reading(self):
        """Every tick but the last (which waits for the byes, as no
        frame can promise past a source's end) is swept in the drain of
        its own last reading; without promises none is — each waits one
        poll period for the next poll to arrive."""
        factory, streams, until, tick = shelf_case()
        ref = factory().run(until=until, tick=tick, sources=streams)
        run, lags, n_ticks = asyncio.run(
            self._sweep_lags(factory, streams, until, tick)
        )
        assert run.output == ref.output
        assert lags == [0.0] * (n_ticks - 1)
        run, lags, n_ticks = asyncio.run(
            self._sweep_lags(factory, streams, until, tick, strip=["low"])
        )
        assert run.output == ref.output
        assert len(lags) == n_ticks - 1
        assert min(lags) == pytest.approx(tick)

    def test_one_row_blocks_sweep_exactly_as_data_frames_do(self):
        """The freshness counts are the frame's spelling's business
        not at all: a ``low`` cell acts as the ``low`` key did."""
        factory, streams, until, tick = shelf_case()
        ref = factory().run(until=until, tick=tick, sources=streams)
        run, lags, n_ticks = asyncio.run(
            self._sweep_lags(factory, streams, until, tick, blocks=True)
        )
        assert run.output == ref.output
        assert lags == [0.0] * (n_ticks - 1)

    def test_a_low_inside_a_block_acts_right_after_its_own_row(self):
        """Slack far above every arrival, so only promises release: a
        row's ``low`` must not act before the row itself (it would drop
        it as late) and does release everything below it — from inside
        the block, not from its end."""

        class Session:
            receptor_ids = ("a",)
            safe_time = float("-inf")

            def __init__(self):
                self.pushed, self.watermarks = [], []

            def push_run(self, source, items, traces=None):
                self.pushed.extend(item.timestamp for item in items)

            def advance(self, watermark):
                self.watermarks.append(watermark)
                return []

            def close(self):
                return self

        stamps = [(1.0, None), (1.0, 2.0), (2.0, None), (2.0, 3.0), (3.0, None)]

        async def scenario():
            session = Session()
            gateway = IngestGateway(session, slack=100.0)
            host, port = await gateway.start()
            feeder = await RawFeeder.open(host, port, ["a"])
            await feeder.send_rows([
                ("a", seq, ts, low, StreamTuple(ts, {"v": seq}), None)
                for seq, (ts, low) in enumerate(stamps)
            ])
            held = (list(session.pushed), list(session.watermarks))
            stats = gateway.stats()["sources"]["a"]
            feeder.writer.close()
            await gateway.close()
            return stats, held

        stats, (pushed, watermarks) = asyncio.run(scenario())
        assert stats["dropped_late"] == 0
        assert pushed == [1.0, 1.0, 2.0, 2.0]  # 3.0 is still held
        assert watermarks == [pytest.approx(3.0)]

    @pytest.mark.parametrize("case", [redwood_half_day, home_case])
    def test_a_quiet_source_no_longer_sets_everyone_s_staleness(self, case):
        """Redwood's lossy motes and the home's silent X10 detectors
        held every tick until *they* next reported; declared promises
        bring the median sweep lag to zero, output unchanged."""
        factory, streams, until, tick = case()
        ref = factory().run(until=until, tick=tick, sources=streams)
        run, lags, _n = asyncio.run(
            self._sweep_lags(factory, streams, until, tick)
        )
        assert run.output == ref.output
        assert len(lags) > 100  # non-vacuous
        assert statistics.median(lags) == 0.0
        run, stale, _n = asyncio.run(
            self._sweep_lags(factory, streams, until, tick, strip=["low"])
        )
        assert run.output == ref.output
        assert len(stale) == len(lags)
        assert statistics.median(stale) > 0.0
        assert all(now <= then for now, then in zip(lags, stale))

    def test_broken_promise_is_a_counted_late_drop_for_that_source_only(self):
        """A source that sends under its own promise loses exactly that
        reading to the lateness rule: counted, the run completes, and
        the neighbour source is untouched."""
        a = [StreamTuple(float(ts), {"v": ts}) for ts in (1, 2, 3, 6)]
        b = [StreamTuple(float(ts), {"v": ts}) for ts in (1, 2, 3, 4)]

        class Session:
            receptor_ids = ("a", "b")
            safe_time = float("-inf")

            def __init__(self):
                self.pushed = []

            def push_run(self, source, items, traces=None):
                self.pushed.extend((source, item.timestamp) for item in items)

            def advance(self, watermark):
                return []

            def close(self):
                return self

        async def scenario():
            session = Session()
            gateway = IngestGateway(session, slack=0.0)
            host, port = await gateway.start()
            feeder = await RawFeeder.open(host, port, ["a", "b"])
            for seq, item in enumerate(a[:2]):
                low = 5.0 if seq == 1 else None  # the lie: a[2] is at 3.0
                await feeder.send(protocol.data_frame(
                    "a", seq, item.timestamp, item, low
                ))
            for seq, item in enumerate(b):
                await feeder.send(protocol.data_frame(
                    "b", seq, item.timestamp, item
                ))
            for seq, item in enumerate(a[2:], start=2):
                await feeder.send(protocol.data_frame(
                    "a", seq, item.timestamp, item
                ))
            await feeder.bye("a")
            await feeder.bye("b")
            await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
            feeder.writer.close()
            await gateway.close()
            return session, gateway.stats()["sources"]

        session, stats = asyncio.run(scenario())
        assert stats["a"]["dropped_late"] == 1
        assert stats["b"]["dropped_late"] == 0
        assert [ts for name, ts in session.pushed if name == "a"] == [
            1.0, 2.0, 6.0
        ]
        assert [ts for name, ts in session.pushed if name == "b"] == [
            1.0, 2.0, 3.0, 4.0
        ]


class TestBlockPartitions:
    """However a schedule is cut into frames, the gateway takes the
    same readings: a block is framing, not a unit of delivery."""

    CASES = {
        "shelf": (shelf_case, (0.3, 1.2), 1.2),
        "redwood": (redwood_half_day, (60.0, 280.0), 280.0),
    }
    _baselines = {}

    @classmethod
    def baseline(cls, name):
        """``(case, slack, entries, reference output, what the gateway
        made of the schedule sent as hand-written data frames)`` for a
        delayed, lossy replay of ``name``."""
        if name not in cls._baselines:
            case, delay, slack = cls.CASES[name]
            factory, streams, until, tick = case()
            planner = ReplayFeeder(
                "unused", 0, streams,
                delay_model=DelayModel(*delay, rng=5),
                channel=GilbertElliottChannel(
                    0.1, 0.4, deliver_good=0.95, deliver_bad=0.3, rng=9
                ),
            )
            schedule = planner.core.plan()
            assert sum(planner.lost.values()) > 0
            assert [e[0] for e in schedule] != sorted(
                item.timestamp for _a, _s, _q, item in schedule
            )  # delayed for real
            entries = [
                (source, seq, arrival, low, item, None)
                for (arrival, source, seq, item), low in zip(
                    schedule, low_marks(schedule)
                )
            ]
            survivors = {name: [] for name in streams}
            for source, _seq, _arrival, _low, item, _trace in sorted(
                entries, key=lambda entry: entry[:2]
            ):
                survivors[source].append(item)
            ref = factory().run(until=until, tick=tick, sources=survivors)
            assert ref.output
            as_data = asyncio.run(cls.feed(
                (factory, until, tick), slack, sorted(streams),
                [([entry], True) for entry in entries],
            ))
            assert as_data[0] == ref.output
            cls._baselines[name] = (
                (factory, until, tick), slack, entries, sorted(streams),
                as_data,
            )
        return cls._baselines[name]

    @staticmethod
    async def feed(case, slack, sources, parts):
        """Send ``parts`` — ``(entries, as_data)``: one block each, or
        (one entry, ``as_data``) a ``data`` frame — each drained before
        the next leaves. Returns the output, every queue entry in offer
        order per source, and the stats (less ``max_depth``, which is
        the size of the largest frame by construction)."""
        factory, until, tick = case
        offers = {name: [] for name in sources}
        offer = BoundedIngressQueue.offer

        def logged(queue, entry):
            offers[queue.label].append(entry)
            return offer(queue, entry)

        session = factory().open_session(until=until, tick=tick)
        # Room for any block: this is about framing, not backpressure.
        gateway = IngestGateway(session, slack=slack, queue_bound=1 << 14)
        host, port = await gateway.start()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BoundedIngressQueue, "offer", logged)
            feeder = await RawFeeder.open(host, port, sources)
            for entries, as_data in parts:
                if as_data:
                    ((source, seq, arrival, low, item, _trace),) = entries
                    await feeder.send(
                        protocol.data_frame(source, seq, arrival, item, low)
                    )
                else:
                    await feeder.send_rows(entries)
            for name in sources:
                await feeder.bye(name)
            await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
        feeder.writer.close()
        run = await gateway.close()
        stats = gateway.stats()
        for source in stats["sources"].values():
            del source["max_depth"]
        return run.output, offers, stats

    @staticmethod
    def cut(entries, cuts, singletons_as_data=False):
        bounds = [0, *sorted(set(cuts)), len(entries)]
        return [
            (entries[a:b], singletons_as_data and b - a == 1)
            for a, b in zip(bounds, bounds[1:]) if a < b
        ]

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize(
        "size", [1, 7, 256, None], ids=["singletons", "7", "256", "one-block"]
    )
    def test_fixed_partitions(self, name, size):
        case, slack, entries, sources, as_data = self.baseline(name)
        cuts = range(size, len(entries), size) if size else ()
        assert asyncio.run(self.feed(
            case, slack, sources, self.cut(entries, cuts)
        )) == as_data

    @pytest.mark.parametrize("name", CASES)
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_any_partition_leaves_the_same_entries_stats_and_output(
        self, name, data
    ):
        case, slack, entries, sources, as_data = self.baseline(name)
        cuts = data.draw(st.lists(
            st.integers(1, len(entries) - 1), max_size=40
        ), label="cuts")
        parts = self.cut(
            entries, cuts, data.draw(st.booleans(), label="data singletons")
        )
        assert asyncio.run(
            self.feed(case, slack, sources, parts)
        ) == as_data


#: Case id → (keys overridden on a good data frame, the field the
#: refusal must name). ``json.loads`` accepts ``NaN`` and ``Infinity``.
MALFORMED = {
    "arrival-string": ({"arrival": "x"}, "arrival"),
    "arrival-nan": ({"arrival": float("nan")}, "arrival"),
    "seq-string": ({"seq": "seven"}, "seq"),
    "low-infinity": ({"low": float("inf")}, "low"),
    "low-list": ({"low": [1.0]}, "low"),
    "record-list": ({"record": [1, 2]}, "record"),
    "timestamp-nan": ({"record": {"_ts": float("nan"), "v": 1}}, "_ts"),
}


class TestMalformedNumbers:
    """Numbers that are not numbers end in a typed refusal the peer is
    told about — never a bare exception, never a neighbour's state."""

    @pytest.mark.parametrize(
        "overrides,named", MALFORMED.values(), ids=MALFORMED
    )
    def test_peer_gets_an_error_frame_and_the_neighbour_is_untouched(
        self, overrides, named
    ):
        factory, streams, until, tick = shelf_case(duration=3.0)
        ref = factory().run(until=until, tick=tick, sources=streams)
        first = streams["reader1"][0]

        async def scenario():
            session = factory().open_session(until=until, tick=tick)
            gateway = IngestGateway(session, slack=0.0)
            host, port = await gateway.start()
            good = await RawFeeder.open(host, port, ["reader0"])
            head = streams["reader0"][:5]
            for seq, item in enumerate(head):
                await good.send(protocol.data_frame(
                    "reader0", seq, item.timestamp, item
                ))
            before = gateway.stats()["sources"]["reader0"]
            mark = gateway.core.states["reader0"].reorder.watermark

            bad = await RawFeeder.open(host, port, ["reader1"])
            frame = protocol.data_frame("reader1", 0, first.timestamp, first)
            reason = await bad.send_refused({**frame, **overrides})

            assert gateway.stats()["sources"]["reader0"] == before
            assert gateway.core.states["reader0"].reorder.watermark == mark
            assert gateway.stats()["sources"]["reader1"]["offered"] == 0
            # Both sources carry on: the neighbour on its connection,
            # the refused one on a fresh one.
            for seq, item in enumerate(streams["reader0"][5:], start=5):
                await good.send(protocol.data_frame(
                    "reader0", seq, item.timestamp, item
                ))
            await good.bye("reader0")
            again = await RawFeeder.open(host, port, ["reader1"])
            await again.replay({"reader1": streams["reader1"]})
            await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
            good.writer.close()
            run = await gateway.close()
            return reason, run

        reason, run = asyncio.run(scenario())
        assert named in reason
        assert run.output == ref.output


@contextlib.asynccontextmanager
async def front_door(front, collector=None):
    """The 3 s shelf behind a bare gateway, or behind a router over one
    worker; yields ``(host, port, neighbour, finish)``: ``neighbour()``
    is everything held about source ``reader0`` (queue, buffer,
    watermark; at the router its counts and retained history), and
    ``await finish()`` the output once every source has said bye."""
    factory, _streams, until, tick = shelf_case(duration=3.0)
    if front == "gateway":
        session = factory().open_session(until=until, tick=tick)
        gateway = IngestGateway(session, slack=0.0, telemetry=collector)
        host, port = await gateway.start()

        def neighbour():
            state = gateway.core.states["reader0"]
            return (
                gateway.stats()["sources"]["reader0"], len(state.queue),
                len(state.reorder), state.reorder.watermark,
            )

        async def finish():
            await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
            return (await gateway.close()).output

        try:
            yield host, port, neighbour, finish
        finally:
            await gateway.close()
    else:
        # Imported here: that module imports this one.
        from tests.test_cluster_equivalence import one_worker_cluster

        async with one_worker_cluster("shelf", 3.0, collector) as (
            router, host, port
        ):
            def neighbour():
                stats = router.stats()
                return (
                    stats["sources"]["reader0"], stats["data_frames"],
                    stats["retained_frames"],
                    router.core.max_arrival.get("reader0"),
                )

            async def finish():
                await asyncio.wait_for(router.run_until_complete(), WAIT)
                return router.result()

            yield host, port, neighbour, finish


def _bad_block(source):
    frame = protocol.block_frame(
        [("reader1", 0, 0.0, None, StreamTuple(0.0, {"v": 1}), None)]
    )
    frame["rows"][0][1] = source
    return frame


#: Case id → the frame a peer sends with a name that is not a name.
#: A ``hello`` opens its own connection; the rest follow a good
#: ``hello`` for ``reader1``.
MALFORMED_NAMES = {
    "hello-sources-number": {"type": "hello", "version": 3, "sources": 5},
    "hello-sources-string": {
        "type": "hello", "version": 3, "sources": "reader1",
    },
    "hello-sources-mixed": {
        "type": "hello", "version": 3, "sources": ["reader1", 5],
    },
    "hello-sources-nested": {
        "type": "hello", "version": 3, "sources": [["reader1"]],
    },
    "hello-version-true": {
        "type": "hello", "version": True, "sources": ["reader1"],
    },
    "data-source-list": {
        **protocol.data_frame("x", 0, 0.0, StreamTuple(0.0, {"v": 1})),
        "source": [],
    },
    "data-source-object": {
        **protocol.data_frame("x", 0, 0.0, StreamTuple(0.0, {"v": 1})),
        "source": {},
    },
    "block-source-list": _bad_block([]),
    "block-source-number": _bad_block(5),
    "heartbeat-sources-number": {"type": "heartbeat", "sources": 5},
    "heartbeat-sources-string": {"type": "heartbeat", "sources": "reader1"},
    "bye-source-list": {"type": "bye", "source": []},
    "bye-source-absent": {"type": "bye"},
}


class TestMalformedNames:
    """Names that are not names end as malformed numbers do: a typed
    refusal the peer is told about, at either front door — never a bare
    ``TypeError`` out of the serve loop, never a neighbour's state."""

    @pytest.mark.parametrize("front", ["gateway", "router"])
    @pytest.mark.parametrize(
        "frame", MALFORMED_NAMES.values(), ids=MALFORMED_NAMES
    )
    def test_peer_gets_an_error_frame_and_the_neighbour_is_untouched(
        self, front, frame
    ):
        factory, streams, until, tick = shelf_case(duration=3.0)
        ref = factory().run(until=until, tick=tick, sources=streams)
        collector = InMemoryCollector()

        async def scenario():
            async with front_door(front, collector) as (
                host, port, neighbour, finish
            ):
                good = await RawFeeder.open(host, port, ["reader0"])
                for seq, item in enumerate(streams["reader0"][:5]):
                    await good.send(protocol.data_frame(
                        "reader0", seq, item.timestamp, item
                    ))
                before = neighbour()

                if frame["type"] == "hello":
                    reader, writer = await asyncio.open_connection(host, port)
                    bad = RawFeeder(reader, writer)
                else:
                    bad = await RawFeeder.open(host, port, ["reader1"])
                reason = await bad.send_refused(frame)
                assert neighbour() == before

                # Both sources carry on: the neighbour on its
                # connection, the refused one on a fresh one.
                for seq, item in enumerate(streams["reader0"][5:], start=5):
                    await good.send(protocol.data_frame(
                        "reader0", seq, item.timestamp, item
                    ))
                await good.bye("reader0")
                again = await RawFeeder.open(host, port, ["reader1"])
                await again.replay({"reader1": streams["reader1"]})
                output = await finish()
                good.writer.close()
                return reason, output

        reason, output = asyncio.run(scenario())
        assert output == ref.output
        counters = collector.snapshot()["counters"]
        if frame["type"] != "hello":
            assert "source" in reason
        elif frame["version"] is True:
            assert "True" in reason
            assert counters[f"{front}.version_mismatch"] == 1
        else:
            assert "sources" in reason
            assert counters[f"{front}.bad_hello"] == 1

    @pytest.mark.parametrize("front", ["gateway", "router"])
    def test_block_on_a_connection_that_negotiated_v2_is_refused(self, front):
        """The ack echoed 2, so the peer promised the v2 dialect; a
        ``data`` frame is served on that connection, a block is not."""
        _factory, streams, _until, _tick = shelf_case(duration=3.0)
        first, second = streams["reader1"][:2]

        async def scenario():
            async with front_door(front) as (host, port, neighbour, _finish):
                old = await RawFeeder.open(host, port, ["reader1"], version=2)
                await old.send(protocol.data_frame(
                    "reader1", 0, first.timestamp, first
                ))
                return await old.send_refused(protocol.block_frame([
                    ("reader1", 1, second.timestamp, None, second, None)
                ]))

        reason = asyncio.run(scenario())
        assert "negotiated protocol 2" in reason and "3" in reason


class TestBlockPolicyBackpressure:
    def test_overdriven_feeder_is_credit_gated(self):
        """A feeder replaying full-tilt into queues of eight must be held
        back by credit frames: the bounded queue never exceeds its cap,
        nothing is dropped, and the output is still exact. (Held drains
        are driven socket-free in ``tests/test_gateway_core.py``.)"""
        factory, streams, until, tick = shelf_case(duration=8.0)
        ref = factory().run(until=until, tick=tick, sources=streams)

        bound = 8
        run, gateway, report = asyncio.run(
            loopback(
                factory, streams, until, tick,
                slack=0.0, policy="block", queue_bound=bound,
            )
        )
        assert report["credit_frames"] > 0  # backpressure frames emitted
        assert report["blocked_waits"] > 0  # the feeder actually stalled
        stats = gateway.stats()["sources"]
        for s in stats.values():
            assert s["max_depth"] <= bound
            assert s["dropped_overload"] == 0
            assert s["blocked"] == 0  # credits kept the client honest
        assert run.output == ref.output


class TestDropPolicies:
    @pytest.mark.parametrize("policy", ["drop-oldest", "drop-newest"])
    def test_drops_exactly_accounted(self, policy):
        """A creditless feeder's blocks of up to 256 rows into queues of
        sixteen, drained once per socket read: the bounded queue must
        shed; every shed tuple shows up in both the queue counters and
        the telemetry counters, and offered == delivered + dropped holds
        per source."""
        factory, streams, until, tick = shelf_case(duration=6.0)
        collector = InMemoryCollector()

        async def scenario():
            session = factory().open_session(
                until=until, tick=tick, telemetry=collector
            )
            gateway = IngestGateway(
                session, slack=0.0, policy=policy, queue_bound=16,
                telemetry=collector,
            )
            host, port = await gateway.start()
            feeder = ReplayFeeder(host, port, streams)
            report = await asyncio.wait_for(feeder.run(), timeout=WAIT)
            await asyncio.wait_for(
                gateway.run_until_drained(), timeout=WAIT
            )
            run = await gateway.close()
            return run, gateway, report

        run, gateway, report = asyncio.run(scenario())
        counters = collector.snapshot()["counters"]
        stats = gateway.stats()["sources"]
        total_dropped = 0
        for name, s in stats.items():
            assert s["offered"] == s["delivered"] + s["dropped_overload"]
            assert counters.get(f"gateway.{name}.offered", 0) == s["offered"]
            assert counters.get(f"gateway.{name}.dropped", 0) == (
                s["dropped_overload"]
            )
            assert counters.get(f"gateway.{name}.delivered", 0) == (
                s["delivered"]
            )
            assert s["offered"] == report["sent"][name]
            total_dropped += s["dropped_overload"]
        assert total_dropped > 0  # the overload was real
        assert run.output  # survivors still flow through cleanly
        times = [t.timestamp for t in run.output]
        assert times == sorted(times)


    @pytest.mark.parametrize(
        "policy,kept",
        [("drop-oldest", range(24, 40)), ("drop-newest", range(16))],
    )
    def test_one_block_is_shed_row_by_row(self, policy, kept):
        """Forty rows in one frame into a queue of sixteen, drained
        only after the frame: each row is offered on its own, so the
        policy sheds rows — not the frame, and not nothing."""

        class Session:
            receptor_ids = ("a",)
            safe_time = float("-inf")

            def __init__(self):
                self.pushed = []

            def push_run(self, source, items, traces=None):
                self.pushed.extend(item.get("v") for item in items)

            def advance(self, watermark):
                return []

            def close(self):
                return self

        async def scenario():
            session = Session()
            gateway = IngestGateway(
                session, slack=0.0, policy=policy, queue_bound=16,
            )
            host, port = await gateway.start()
            feeder = await RawFeeder.open(host, port, ["a"])
            await write_frame(feeder.writer, protocol.block_frame([
                ("a", seq, float(seq), None, StreamTuple(float(seq), {"v": seq}),
                 None)
                for seq in range(40)
            ]))
            await feeder.bye("a")  # acked: the block has been served
            await asyncio.wait_for(gateway.run_until_drained(), timeout=WAIT)
            feeder.writer.close()
            await gateway.close()
            return session.pushed, gateway.stats()["sources"]["a"]

        pushed, stats = asyncio.run(scenario())
        assert pushed == list(kept)
        assert (stats["offered"], stats["delivered"]) == (40, 16)
        assert stats["dropped_overload"] == 24


class TestLivenessEviction:
    def test_silent_source_is_evicted_with_fake_clock(self):
        """A source that stops reporting (no bye) stalls punctuation
        until the liveness sweep evicts it; the run then completes as
        if the recording had simply ended early for that source."""
        factory, streams, until, tick = shelf_case(duration=6.0)
        partial = 5  # reader1 readings delivered before it goes silent
        truncated = dict(streams)
        truncated["reader1"] = streams["reader1"][:partial]
        ref = factory().run(until=until, tick=tick, sources=truncated)

        now = [0.0]

        async def scenario():
            session = factory().open_session(until=until, tick=tick)
            gateway = IngestGateway(
                session, slack=0.0, clock=lambda: now[0],
                liveness_timeout=30.0,
            )
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(
                writer, protocol.hello(["reader0", "reader1"])
            )
            ack = await read_frame(reader)
            assert ack["type"] == "hello_ack"
            for seq, item in enumerate(streams["reader1"][:partial]):
                await write_frame(writer, protocol.data_frame(
                    "reader1", seq, item.timestamp, item
                ))
            for seq, item in enumerate(streams["reader0"]):
                await write_frame(writer, protocol.data_frame(
                    "reader0", seq, item.timestamp, item
                ))
            await write_frame(writer, protocol.bye("reader0"))
            while True:  # drain credits until the bye lands
                frame = await asyncio.wait_for(
                    read_frame(reader), timeout=WAIT
                )
                if frame["type"] == "bye_ack":
                    break
            # reader1 now goes silent. Advance the fake wall clock past
            # the liveness timeout and sweep.
            now[0] = 31.0
            assert gateway.check_liveness() == ["reader1"]
            await asyncio.wait_for(
                gateway.run_until_drained(), timeout=WAIT
            )
            writer.close()
            run = await gateway.close()
            return run, gateway

        run, gateway = asyncio.run(scenario())
        stats = gateway.stats()["sources"]
        assert stats["reader1"]["evicted"]
        assert not stats["reader0"]["evicted"]
        assert run.output == ref.output

    def test_heartbeats_defer_eviction(self):
        factory, streams, until, tick = shelf_case(duration=6.0)
        now = [0.0]

        async def scenario():
            session = factory().open_session(until=until, tick=tick)
            gateway = IngestGateway(
                session, slack=0.0, clock=lambda: now[0],
                liveness_timeout=10.0,
            )
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(writer, protocol.hello(["reader0"]))
            await read_frame(reader)
            now[0] = 8.0
            await write_frame(writer, protocol.heartbeat(["reader0"]))
            await write_frame(writer, protocol.bye("reader0"))
            await read_frame(reader)  # bye_ack: heartbeat processed too
            assert gateway.check_liveness() == []  # heartbeat reset it
            writer.close()
            await gateway.close()

        asyncio.run(scenario())


class TestHandshakeRejections:
    def _gateway_case(self):
        factory, streams, until, tick = shelf_case(duration=3.0)
        session = factory().open_session(until=until, tick=tick)
        return IngestGateway(session, slack=0.0), streams

    def test_version_mismatch_rejected(self):
        async def scenario():
            gateway, _streams = self._gateway_case()
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(
                writer, protocol.hello(["reader0"], version=99)
            )
            frame = await read_frame(reader)
            writer.close()
            await gateway.close()
            return frame

        frame = asyncio.run(scenario())
        assert frame["type"] == "error"
        assert "version" in frame["reason"]

    def test_unknown_source_rejected_via_feeder(self):
        async def scenario():
            gateway, streams = self._gateway_case()
            host, port = await gateway.start()
            feeder = ReplayFeeder(
                host, port, {"bogus": list(streams["reader0"])}
            )
            try:
                with pytest.raises(NetError, match="unknown sources"):
                    await feeder.run()
            finally:
                await gateway.close()

        asyncio.run(scenario())

    def test_second_connection_for_live_source_rejected(self):
        async def scenario():
            gateway, _streams = self._gateway_case()
            host, port = await gateway.start()
            r1, w1 = await asyncio.open_connection(host, port)
            await write_frame(w1, protocol.hello(["reader0"]))
            assert (await read_frame(r1))["type"] == "hello_ack"
            r2, w2 = await asyncio.open_connection(host, port)
            await write_frame(w2, protocol.hello(["reader0"]))
            frame = await read_frame(r2)
            w1.close()
            w2.close()
            await gateway.close()
            return frame

        frame = asyncio.run(scenario())
        assert frame["type"] == "error"
        assert "already connected" in frame["reason"]

    def test_refused_hello_claims_none_of_its_sources(self):
        async def scenario():
            gateway, _streams = self._gateway_case()
            host, port = await gateway.start()
            r1, w1 = await asyncio.open_connection(host, port)
            await write_frame(w1, protocol.hello(["reader1"]))
            assert (await read_frame(r1))["type"] == "hello_ack"
            # reader1 is live, so this hello is refused as a whole...
            r2, w2 = await asyncio.open_connection(host, port)
            await write_frame(w2, protocol.hello(["reader0", "reader1"]))
            refused = await read_frame(r2)
            # ...and must not leave reader0 owned by the refused peer.
            r3, w3 = await asyncio.open_connection(host, port)
            await write_frame(w3, protocol.hello(["reader0"]))
            accepted = await read_frame(r3)
            for writer in (w1, w2, w3):
                writer.close()
            await gateway.close()
            return refused, accepted

        refused, accepted = asyncio.run(scenario())
        assert refused["type"] == "error"
        assert "already connected" in refused["reason"]
        assert accepted["type"] == "hello_ack"

    def test_misconfigured_gateway_rejected(self):
        factory, _streams, until, tick = shelf_case(duration=3.0)
        session = factory().open_session(until=until, tick=tick)
        with pytest.raises(NetError, match="overload policy"):
            IngestGateway(session, policy="drop-sideways")


class TestLateDropsAccounting:
    def test_insufficient_slack_drops_are_counted_not_fatal(self):
        """With slack far below the max delay, hopelessly late tuples
        are shed at the reorder buffer — counted per source, never
        crashing the session — and the output stays sorted."""
        factory, streams, until, tick = shelf_case(duration=8.0)
        run, gateway, _report = asyncio.run(
            loopback(
                factory, streams, until, tick,
                slack=0.05,
                delay_model=DelayModel(
                    mean_delay=0.5, max_delay=2.0, rng=11
                ),
            )
        )
        stats = gateway.stats()["sources"]
        assert sum(s["dropped_late"] for s in stats.values()) > 0
        times = [t.timestamp for t in run.output]
        assert times == sorted(times)


class TestStreamTupleOnTheWire:
    def test_equal_timestamp_order_is_preserved(self):
        """RFID readers emit bursts of identical timestamps; per-source
        sequence numbers must reproduce the original order even when
        the burst is shuffled by network delay."""
        from repro.core.pipeline import ESPProcessor  # noqa: F401 - doc

        factory, streams, until, tick = shelf_case(duration=4.0)
        counts = {
            name: len({i.timestamp for i in items}) < len(items)
            for name, items in streams.items()
        }
        assert any(counts.values())  # the scenario really has ties
        ref = factory().run(until=until, tick=tick, sources=streams)
        run, _gateway, _report = asyncio.run(
            loopback(
                factory, streams, until, tick,
                slack=0.6,
                delay_model=DelayModel(
                    mean_delay=0.15, max_delay=0.6, rng=7
                ),
            )
        )
        assert run.output == ref.output


class TestSessionFailure:
    def test_a_failing_session_fails_the_feeder_and_the_drain(self):
        """The session raises inside a drain: the gateway fails closed.
        The feeder is told why (an ``error`` frame, so it raises rather
        than waiting for credits forever), ``run_until_drained`` raises
        the session's error, and ``close`` closes the server, then
        raises it too."""

        class Session:
            receptor_ids = ("a",)
            safe_time = float("-inf")

            def push_run(self, source, items, traces=None):
                raise OperatorError("the pipeline broke")

            def advance(self, watermark):
                return []

            def close(self):
                return self

        bound = 5.0  # seconds, far above a healthy run's few ms

        async def scenario():
            gateway = IngestGateway(Session(), slack=0.0, queue_bound=4)
            host, port = await gateway.start()
            feeder = ReplayFeeder(
                host, port, {"a": [StreamTuple(float(i), {"v": i})
                                   for i in range(50)]},
            )
            with pytest.raises(NetError, match="gateway error: .*broke"):
                await asyncio.wait_for(feeder.run(), bound)
            with pytest.raises(OperatorError, match="broke"):
                await asyncio.wait_for(gateway.run_until_drained(), bound)
            # A feeder arriving now is refused with the same reason.
            late = ReplayFeeder(host, port, {"a": []})
            with pytest.raises(NetError, match="rejected session: .*broke"):
                await asyncio.wait_for(late.run(), bound)
            with pytest.raises(OperatorError, match="broke"):
                await gateway.close()
            assert not gateway._server.is_serving()

        asyncio.run(scenario())


def test_gateway_requires_expected_sources():
    class _FakeSession:
        receptor_ids = ()

        def close(self):
            return None

    with pytest.raises(NetError, match="at least one expected source"):
        IngestGateway(_FakeSession())


def test_wire_roundtrip_preserves_tuple_fidelity():
    item = StreamTuple(1.25, {"count": 3, "tag_id": "s0_01"}, stream="rfid")
    frame = protocol.data_frame("reader0", 4, 1.5, item)
    assert protocol.record_to_tuple(frame["record"]) == item
