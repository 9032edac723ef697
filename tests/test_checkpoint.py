"""Operator-state checkpointing: snapshot mid-run, resume elsewhere.

The recovery layer's core claim: a checkpoint taken at a quiesced point
and restored into a *freshly built identical pipeline* continues the
computation exactly — same outputs, same order — as the session that
never stopped. These tests pin that at every layer the cluster
composes: the reorder buffer, the Fjord session, the ESP session
facade, and the wire codec the blob rides in.
"""

import hashlib
import pickle
from collections import deque

import pytest

from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import Stage, StageKind
from repro.errors import OperatorError
from repro.net.recovery import (
    STATE_BLOB_BUDGET,
    decode_state,
    encode_state,
)
from repro.net.service import ScenarioBundle, build_bundle
from repro.net.worker import TickLedger
from repro.pipelines.digital_home import build_declarative_home_processor
from repro.scenarios.office import OfficeScenario
from repro.streams.reorder import ReorderBuffer
from repro.streams.tuples import StreamTuple

SEED = 3

#: (scenario, duration) — shelf is record-sharded RFID cleaning,
#: redwood is source-sharded mote calibration; between them every
#: stateful operator family holds a checkpointable mid-window state.
#: shelf_cql swaps the shelf pipeline for a declarative Smooth (paper
#: Query 2 as text), so the state to carry sits inside a CompiledQuery's
#: plan nodes rather than in a top-level operator; home is the
#: declarative digital home, whose Virtualize is paper Query 6 compiled
#: over three streams (an outer combine of three windowed subqueries).
CASES = [
    ("shelf", 12.0), ("redwood", None), ("shelf_cql", 12.0), ("home", 150.0),
]
#: The cases whose checkpoint must carry compiled-plan state.
CQL_CASES = ("shelf_cql", "home")

CQL_SMOOTH = """
    SELECT spatial_granule, tag_id, count(*) AS reads
    FROM rfid_input [Range By '5 sec']
    GROUP BY spatial_granule, tag_id
"""


def make_bundle(name, duration):
    if name == "home":
        scenario = OfficeScenario(duration=duration, seed=SEED)
        return ScenarioBundle(
            "home",
            build_declarative_home_processor(scenario),
            scenario.recorded_streams(),
            scenario.duration,
            0.5,
            shard_key="spatial_granule",
        )
    if name != "shelf_cql":
        return build_bundle(name, duration, SEED)
    bundle = build_bundle("shelf", duration, SEED)
    processor = ESPProcessor(bundle.processor.registry)
    processor.add_pipeline(
        ESPPipeline(
            "rfid",
            sequence=[Stage.from_query(StageKind.SMOOTH, CQL_SMOOTH)],
        )
    )
    bundle.processor = processor
    return bundle


def arrival_schedule(bundle):
    """Every reading of every stream, in (timestamp, source) order."""
    entries = [
        (item.timestamp, name, item)
        for name, stream in bundle.streams.items()
        for item in stream
    ]
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def drive(session, schedule, start, stop, advance_every=7):
    """Push schedule[start:stop], punctuating every few arrivals."""
    for index in range(start, stop):
        timestamp, name, item = schedule[index]
        session.push(name, item)
        if index % advance_every == 0:
            session.advance(timestamp)


class TestSessionCheckpoint:
    """FjordSession/ESPStreamSession snapshot + restore mid-stream."""

    @pytest.mark.parametrize("name,duration", CASES)
    @pytest.mark.parametrize("fraction", [0.25, 0.6])
    def test_restore_resumes_identical_output(self, name, duration, fraction):
        bundle = make_bundle(name, duration)
        schedule = arrival_schedule(bundle)
        cut = max(1, int(len(schedule) * fraction))

        baseline = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        drive(baseline, schedule, 0, cut)
        state = baseline.checkpoint()
        # Mid-run: pushed tuples still wait for their tick, and a
        # compiled plan's state rides as its nodes' snapshots.
        assert any(state["queued"].values())
        carries_plan = any(
            "nodes" in (entry["state"] or ())
            for entry in state["nodes"].values()
        )
        assert carries_plan == (name in CQL_CASES)
        blob, size = encode_state(state)
        assert blob is not None and 0 < size <= STATE_BLOB_BUDGET

        resumed = make_bundle(name, duration).processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        resumed.restore(decode_state(blob))
        # Checkpointing is pure: the baseline continues unbothered, the
        # restored clone continues from the same instant — identically.
        drive(baseline, schedule, cut, len(schedule))
        drive(resumed, schedule, cut, len(schedule))
        assert baseline.close().output == resumed.close().output

    def test_checkpoint_matches_uninterrupted_reference(self):
        bundle = build_bundle("shelf", 12.0, SEED)
        reference = bundle.processor.run(
            bundle.until, bundle.tick, sources=bundle.streams
        ).output
        schedule = arrival_schedule(bundle)
        cut = len(schedule) // 3

        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        drive(session, schedule, 0, cut)
        blob, _size = encode_state(session.checkpoint())
        resumed = build_bundle("shelf", 12.0, SEED).processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        resumed.restore(decode_state(blob))
        drive(resumed, schedule, cut, len(schedule))
        assert resumed.close().output == reference

    def test_restore_requires_fresh_session(self):
        bundle = build_bundle("shelf", 8.0, SEED)
        schedule = arrival_schedule(bundle)
        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        drive(session, schedule, 0, 5)
        state = session.checkpoint()
        with pytest.raises(OperatorError):
            session.restore(state)  # not fresh: it has pushed already
        session.close()

    def test_restore_rejects_mismatched_pipeline(self):
        shelf = build_bundle("shelf", 8.0, SEED)
        state = shelf.processor.open_session(
            until=shelf.until, tick=shelf.tick
        ).checkpoint()
        redwood = build_bundle("redwood", None, SEED)
        other = redwood.processor.open_session(
            until=redwood.until, tick=redwood.tick
        )
        with pytest.raises(OperatorError):
            other.restore(state)


class TestLedgerCheckpoint:
    """A worker checkpoint costs what the operators hold, not what the
    epoch has emitted: the ledger takes each tick's output out of the
    session's sink, and shipped ticks live at the router."""

    INTERVAL = 300  # data frames between checkpoints, as the bench twin

    @staticmethod
    def open_ledger(bundle):
        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        return session, TickLedger(session)

    def test_blob_is_bounded_and_last_checkpoint_resumes(self):
        bundle = build_bundle("shelf", 120.0, SEED)
        reference = bundle.processor.run(
            bundle.until, bundle.tick, sources=bundle.streams
        ).output
        schedule = arrival_schedule(bundle)
        session, ledger = self.open_ledger(bundle)
        shipped = []  # the router's copy of the reported ticks
        sizes = []
        for index, (timestamp, name, item) in enumerate(schedule, 1):
            ledger.push(name, item)
            ledger.advance(timestamp)
            assert session.take_emitted() == []  # the ledger took it all
            if index % self.INTERVAL == 0:
                # What ship_ticks does ahead of every checkpoint.
                shipped.extend(ledger.per_tick[ledger.reported:])
                ledger.reported = len(ledger.per_tick)
                blob, size = encode_state({"ledger": ledger.checkpoint()})
                sizes.append(size)
                cut, held = index, len(shipped)
        assert len(sizes) == len(schedule) // self.INTERVAL >= 20
        steady = sizes[2:]  # the 5 s Smooth windows are full by then
        assert max(steady) <= 2 * min(steady), sizes

        _session, resumed = self.open_ledger(
            build_bundle("shelf", 120.0, SEED)
        )
        resumed.restore(decode_state(blob)["ledger"])
        assert resumed.reported == held
        for timestamp, name, item in schedule[cut:]:
            resumed.push(name, item)
            resumed.advance(timestamp)
        resumed.close()
        buckets = shipped[:held] + resumed.per_tick[held:]
        assert [t for bucket in buckets for t in bucket] == reference


class TestReorderBufferCheckpoint:
    def tuples(self):
        return [
            StreamTuple(float(ts), {"v": ts}, stream="s")
            for ts in (3, 1, 5, 2, 8, 4)
        ]

    def test_restore_reproduces_release_sequence(self):
        items = self.tuples()
        baseline = ReorderBuffer(slack=2.0)
        clone_feed = []
        for index, item in enumerate(items[:3]):
            baseline.push(float(index), item)
        state = baseline.checkpoint()

        restored = ReorderBuffer(slack=2.0)
        restored.restore(state)
        assert len(restored) == len(baseline)
        assert restored.watermark == baseline.watermark
        for index, item in enumerate(items[3:], start=3):
            a = baseline.push(float(index) + 3.0, item)
            b = restored.push(float(index) + 3.0, item)
            assert a == b
            clone_feed.extend(b)
        assert baseline.flush() == restored.flush()
        assert baseline.dropped == restored.dropped
        assert baseline.released == restored.released

    def test_restore_needs_fresh_buffer(self):
        buffer = ReorderBuffer(slack=1.0)
        buffer.push(5.0, StreamTuple(0.5, {}, stream="s"))
        with pytest.raises(OperatorError):
            buffer.restore(
                {
                    "dropped": 0,
                    "released": 0,
                    "heap": [],
                    "sequence": 0,
                    "frontier": float("-inf"),
                    "horizon": float("-inf"),
                }
            )


class TestStateCodec:
    def test_roundtrip_preserves_structures(self):
        state = {
            "heap": [(1.0, 0, StreamTuple(1.0, {"x": 1}, stream="s"))],
            "counts": {"a": 1, "b": 2},
            "cursor": 17,
        }
        blob, size = encode_state(state)
        assert blob is not None and size == len(blob)
        decoded = decode_state(blob)
        assert decoded["counts"] == state["counts"]
        assert decoded["cursor"] == 17
        assert decoded["heap"][0][2].get("x") == 1

    def test_oversized_state_is_refused_not_shipped(self):
        huge = {"blob": "x" * (2 * STATE_BLOB_BUDGET)}
        # Incompressible payloads overflow the frame budget: the codec
        # must refuse (blob=None) so the worker can ack ok=false.
        import os

        huge = {"blob": os.urandom(2 * STATE_BLOB_BUDGET)}
        blob, size = encode_state(huge)
        assert blob is None
        assert size > STATE_BLOB_BUDGET


def canonical(value):
    """A checkpoint state as plain data: what equality of two decoded
    states means, independent of object identity and pickle memo order."""
    if isinstance(value, StreamTuple):
        return ("tuple", value.timestamp, value.stream,
                sorted((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, dict):
        return sorted(
            ((repr(k), canonical(v)) for k, v in value.items()),
            key=lambda pair: pair[0],
        )
    if isinstance(value, (list, tuple, deque)):
        return [canonical(v) for v in value]
    slots = [
        name for klass in type(value).__mro__
        for name in getattr(klass, "__slots__", ())
    ]
    if slots or hasattr(value, "__dict__"):
        fields = {name: getattr(value, name) for name in slots}
        fields.update(getattr(value, "__dict__", {}))
        return (type(value).__name__, canonical(fields))
    return value


class TestCheckpointContents:
    """Maintained emission order and shared value mappings are derived
    or incidental — neither may show in what a checkpoint holds."""

    #: sha256 of ``repr(canonical(state))`` and the size of the state's
    #: pickle (what the blob compresses; the zlib'd size depends on the
    #: zlib build). Re-pinned once, deliberately, when the shelf Smooth
    #: moved onto ``WindowedGroupByOp``: its state is ``_windows``
    #: (deques of the readings) where it was ``_states`` (deques of
    #: ``(ts, reading, arguments)`` plus counters). With each group-by
    #: state reduced to ``key -> readings in the window`` the two
    #: commits' states are equal; the pickle went 298,542 -> 291,813 B.
    #: Re-pinned once more, deliberately, when the session queued its
    #: not-yet-injected readings per source (``queued``: source -> run)
    #: instead of on one heap of ``(timestamp, source, seq, reading)``
    #: with a ``push_seq`` counter: the operators' node states are
    #: unchanged, and the pickle went 291,813 -> 291,609 B. Re-pinned
    #: once more, deliberately, when the processor stopped appending a
    #: stateless ``…:rename`` relabel node after every stage instance:
    #: the state is the previous one with its five rename entries
    #: dropped from ``nodes``, and the pickle went 291,609 -> 291,351 B.
    #: Re-pinned once more, deliberately, when scope widening became
    #: wiring (the Arbitrate instance takes both Smooth instances as
    #: inputs): the state is the previous one with the stateless, empty
    #: ``rfid:2:union:kind`` entry dropped from ``nodes``, and the
    #: pickle went 291,351 -> 291,310 B.
    STATE_DIGEST = (
        "5df194946a4a07b93b6e0a61928e38c9eb96518668466820fdd553e87b8034ef"
    )
    PICKLE_SIZE = 291310

    def test_pinned_shelf_session_state_is_unchanged_and_no_larger(self):
        bundle = build_bundle("shelf", 60.0, SEED)
        schedule = arrival_schedule(bundle)
        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        drive(session, schedule, 0, len(schedule) * 2 // 3)
        snapshot = session.checkpoint()
        blob, _size = encode_state(snapshot)
        state = canonical(decode_state(blob))
        digest = hashlib.sha256(repr(state).encode()).hexdigest()
        assert digest == self.STATE_DIGEST
        pickled = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(pickled) <= self.PICKLE_SIZE
        session.close()

    def test_restore_between_expiry_and_reappearance(self):
        """A tag's Smooth group expires, the session is checkpointed and
        restored elsewhere, the tag reappears: its rows must come back
        in the position the uninterrupted run gives them."""
        bundle = build_bundle("shelf", 40.0, SEED)
        present = sorted(
            {item["tag_id"] for stream in bundle.streams.values()
             for item in stream if item.timestamp < 8.0}
        )
        tag = present[len(present) // 2]  # mid-order: a reorder would show
        for name, stream in bundle.streams.items():
            bundle.streams[name] = [
                item for item in stream
                if item["tag_id"] != tag or not 8.0 <= item.timestamp < 24.0
            ]
        reference = bundle.processor.run(
            bundle.until, bundle.tick, sources=bundle.streams
        ).output
        seen = [t.timestamp for t in reference if t["tag_id"] == tag]
        assert any(ts < 8.0 for ts in seen) and any(ts >= 24.0 for ts in seen)
        assert not any(15.0 <= ts < 24.0 for ts in seen)  # expired by then

        schedule = arrival_schedule(bundle)
        cut = next(i for i, entry in enumerate(schedule) if entry[0] >= 20.0)
        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        drive(session, schedule, 0, cut, advance_every=1)
        blob, _size = encode_state(session.checkpoint())
        resumed = build_bundle("shelf", 40.0, SEED).processor.open_session(
            until=bundle.until, tick=bundle.tick
        )
        resumed.restore(decode_state(blob))
        drive(resumed, schedule, cut, len(schedule), advance_every=1)
        assert resumed.close().output == reference
