"""Unit tests for ESPPipeline assembly and the ESPProcessor wiring."""

import pytest

from repro.core.granules import SpatialGranule, TemporalGranule
from repro.core.operators.arbitrate_ops import max_count_arbitrate
from repro.core.operators.merge_ops import spatial_average
from repro.core.operators.point_ops import range_filter
from repro.core.operators.smooth_ops import presence_smoother
from repro.core.operators.virtualize_ops import voting_detector
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import Stage, StageKind
from repro.errors import OperatorError, PipelineError
from repro.receptors.motes import Mote
from repro.receptors.registry import DeviceRegistry
from repro.receptors.rfid import DetectionField, RFIDReader, TagPlacement
from repro.streams.fjord import MODES
from repro.streams.tuples import StreamTuple


def certain_field():
    return DetectionField([(0.0, 1.0), (99.0, 1.0)])


def build_rfid_registry(n_readers=2):
    registry = DeviceRegistry()
    for index in range(n_readers):
        granule = SpatialGranule(f"shelf{index}")
        group = registry.add_group(
            f"shelf{index}_readers", granule, receptor_kind="rfid"
        )
        tags = [TagPlacement(f"tag{index}", lambda r, t: 3.0)]
        reader = RFIDReader(
            f"reader{index}",
            shelf=f"shelf{index}",
            tags=tags,
            field=certain_field(),
            sample_period=1.0,
            rng=index,
        )
        registry.assign(reader, group.name)
    return registry


class TestESPPipeline:
    def test_canonical_order(self):
        pipeline = ESPPipeline(
            "rfid",
            temporal_granule=TemporalGranule(5.0),
            point=range_filter("v", high=10),
            smooth=presence_smoother(),
            arbitrate=max_count_arbitrate(tie_break="all"),
        )
        kinds = [s.kind for s in pipeline.sequence]
        assert kinds == [StageKind.POINT, StageKind.SMOOTH, StageKind.ARBITRATE]

    def test_stage_lists_allowed(self):
        pipeline = ESPPipeline(
            "rfid",
            point=[range_filter("v", high=10), range_filter("v", low=0)],
        )
        assert len(pipeline.sequence) == 2

    def test_explicit_sequence(self):
        pipeline = ESPPipeline(
            "rfid",
            sequence=[
                max_count_arbitrate(tie_break="all"),
                presence_smoother(window=5.0),
            ],
        )
        kinds = [s.kind for s in pipeline.sequence]
        assert kinds == [StageKind.ARBITRATE, StageKind.SMOOTH]

    def test_sequence_and_kwargs_mutually_exclusive(self):
        with pytest.raises(PipelineError):
            ESPPipeline(
                "rfid",
                point=range_filter("v", high=1),
                sequence=[presence_smoother(window=1.0)],
            )

    def test_wrong_kind_argument_rejected(self):
        with pytest.raises(PipelineError):
            ESPPipeline("rfid", point=presence_smoother(window=5.0))

    def test_virtualize_rejected_in_kind_pipeline(self):
        with pytest.raises(PipelineError):
            ESPPipeline("rfid", sequence=[voting_detector({"a": None}, 1)])

    def test_repr(self):
        pipeline = ESPPipeline("rfid", smooth=presence_smoother(window=1.0))
        assert "rfid" in repr(pipeline)


class TestESPProcessorWiring:
    def test_empty_pipeline_passes_annotated_readings(self):
        registry = build_rfid_registry(1)
        processor = ESPProcessor(registry)
        run = processor.run(until=2.0, tick=1.0)
        assert len(run.output) == 3  # ticks 0,1,2 with certain detection
        first = run.output[0]
        assert first["spatial_granule"] == "shelf0"
        assert first["proximity_group"] == "shelf0_readers"
        assert first["tag_id"] == "tag0"

    def test_no_devices_rejected(self):
        with pytest.raises(PipelineError):
            ESPProcessor(DeviceRegistry()).run(until=1.0)

    def test_duplicate_pipeline_rejected(self):
        processor = ESPProcessor(build_rfid_registry(1))
        processor.add_pipeline(ESPPipeline("rfid"))
        with pytest.raises(PipelineError):
            processor.add_pipeline(ESPPipeline("rfid"))

    def test_point_stage_filters_per_stream(self):
        registry = build_rfid_registry(1)
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "rfid",
                point=Stage.from_function(
                    StageKind.POINT, lambda t: None  # drop everything
                ),
            )
        )
        run = processor.run(until=2.0, tick=1.0)
        assert run.output == []

    def test_smooth_stage_per_stream_instances(self):
        registry = build_rfid_registry(2)
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "rfid",
                temporal_granule=TemporalGranule(5.0),
                smooth=presence_smoother(),
            )
        )
        run = processor.run(until=0.0, tick=1.0)
        granules = {t["spatial_granule"] for t in run.output}
        assert granules == {"shelf0", "shelf1"}

    def test_taps_capture_intermediate_streams(self):
        registry = build_rfid_registry(1)
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "rfid",
                temporal_granule=TemporalGranule(5.0),
                smooth=presence_smoother(),
            )
        )
        run = processor.run(until=1.0, tick=1.0, taps=("raw", "smooth"))
        assert run.tap("rfid", "raw")
        assert run.tap("rfid", "smooth")
        assert run.tap("rfid", "nonexistent") == []

    def test_sources_override_replays_identically(self):
        registry = build_rfid_registry(1)
        recorded = {
            "reader0": [
                StreamTuple(0.0, {"tag_id": "x", "shelf": "shelf0",
                                  "reader_id": "reader0"}, "reader0")
            ]
        }
        processor = ESPProcessor(registry)
        run1 = processor.run(until=1.0, tick=1.0, sources=recorded)
        run2 = ESPProcessor(registry).run(until=1.0, tick=1.0, sources=recorded)
        assert run1.output == run2.output
        assert run1.output[0]["tag_id"] == "x"

    def test_invalid_tick(self):
        processor = ESPProcessor(build_rfid_registry(1))
        with pytest.raises(PipelineError):
            processor.run(until=1.0, tick=0.0)

    def test_default_tick_is_min_sample_period(self):
        registry = build_rfid_registry(1)
        run = ESPProcessor(registry).run(until=2.0)  # period 1.0
        assert len(run.output) == 3


class TestScopeWidening:
    def build_mote_registry(self):
        registry = DeviceRegistry()
        granule = SpatialGranule("room")
        group = registry.add_group("room_motes", granule, receptor_kind="mote")
        for index in (1, 2):
            mote = Mote(
                f"m{index}",
                field=lambda now: 20.0 + index,
                sample_period=1.0,
                noise_std=0.0,
                rng=index,
            )
            registry.assign(mote, group.name)
        return registry

    def test_merge_unions_group_streams(self):
        registry = self.build_mote_registry()
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "mote",
                merge=spatial_average(window=5.0, value_field="temp"),
            )
        )
        run = processor.run(until=0.0, tick=1.0)
        assert len(run.output) == 1  # one row per granule, both motes merged
        assert run.output[0]["readings"] == 2

    def test_arbitrate_unions_all_kind_streams(self):
        registry = build_rfid_registry(2)
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "rfid",
                arbitrate=max_count_arbitrate(tie_break="all"),
            )
        )
        run = processor.run(until=0.0, tick=1.0)
        pairs = {(t["spatial_granule"], t["tag_id"]) for t in run.output}
        assert pairs == {("shelf0", "tag0"), ("shelf1", "tag1")}

    def test_stream_stage_after_widening_runs_once(self):
        # Arbitrate (kind scope) then Smooth: smooth applies at kind level.
        registry = build_rfid_registry(2)
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "rfid",
                sequence=[
                    max_count_arbitrate(tie_break="all"),
                    presence_smoother(window=5.0),
                ],
            )
        )
        run = processor.run(until=0.0, tick=1.0)
        assert {t["spatial_granule"] for t in run.output} == {
            "shelf0",
            "shelf1",
        }


class TestVirtualize:
    def test_virtualize_requires_virtualize_stage(self):
        processor = ESPProcessor(build_rfid_registry(1))
        with pytest.raises(PipelineError):
            processor.set_virtualize(presence_smoother(window=1.0))

    def test_virtualize_combines_kinds(self):
        registry = build_rfid_registry(1)
        granule = SpatialGranule("shelf0")
        group = registry.add_group("motes", granule, receptor_kind="mote")
        registry.assign(
            Mote("m1", field=lambda now: 600.0, quantity="noise",
                 sample_period=1.0, noise_std=0.0, rng=0),
            "motes",
        )
        processor = ESPProcessor(registry)
        processor.set_virtualize(
            voting_detector(
                votes={
                    "rfid_in": lambda t: "tag_id" in t,
                    "mote_in": lambda t: t.get("noise", 0) > 500,
                },
                threshold=2,
                event="both-agree",
            ),
            stream_names={"rfid": "rfid_in", "mote": "mote_in"},
        )
        run = processor.run(until=0.0, tick=1.0)
        assert run.output and run.output[0]["event"] == "both-agree"


def two_kind_processor():
    """One RFID reader and one noise mote in the same granule."""
    registry = build_rfid_registry(1)
    registry.add_group("motes", SpatialGranule("shelf0"), receptor_kind="mote")
    registry.assign(
        Mote("m1", field=lambda now: 600.0, quantity="noise",
             sample_period=1.0, noise_std=0.0, rng=0),
        "motes",
    )
    return ESPProcessor(registry)


def vote_query(rfid_stream, mote_stream):
    """Paper Query 6's shape over two streams."""
    return Stage.from_query(
        StageKind.VIRTUALIZE,
        f"SELECT 'both' AS event "
        f"FROM (SELECT 1 AS c FROM {rfid_stream} [Range By 'NOW']) r, "
        f"(SELECT 1 AS c FROM {mote_stream} [Range By 'NOW']) m "
        f"WHERE coalesce(r.c, 0) + coalesce(m.c, 0) >= 2",
        name="vote",
    )


STREAM_NAMES = {"rfid": "rfid_in", "mote": "mote_in"}


class TestVirtualizeStreamsFailClosed:
    """A Virtualize stage that routes rows by stream name names only
    streams a kind emits, as SQL rejects an unknown table: a name
    nothing carries would silently never match."""

    def test_query_reads_the_streams_the_kinds_emit(self):
        processor = two_kind_processor()
        processor.set_virtualize(
            vote_query("rfid_in", "mote_in"), stream_names=STREAM_NAMES
        )
        run = processor.run(until=2.0, tick=1.0)
        assert [t["event"] for t in run.output] == ["both"] * 3

    def test_misspelt_stream_in_a_query_raises(self):
        processor = two_kind_processor()
        processor.set_virtualize(
            vote_query("rfid_in", "mote_inn"), stream_names=STREAM_NAMES
        )
        with pytest.raises(
            PipelineError,
            match=r"'vote' reads stream 'mote_inn'.*\['mote_in', 'rfid_in'\]",
        ):
            processor.run(until=2.0, tick=1.0)

    def test_query_without_stream_names_raises(self):
        processor = two_kind_processor()
        processor.set_virtualize(vote_query("rfid_in", "mote_in"))
        with pytest.raises(
            PipelineError, match=r"'mote_in'.*\['mote', 'rfid'\]"
        ):
            processor.run(until=2.0, tick=1.0)

    def test_voting_detector_on_a_stream_no_kind_emits_raises(self):
        processor = two_kind_processor()
        processor.set_virtualize(
            voting_detector(
                votes={"rfid_in": None, "mote_in": None}, threshold=2
            ),
            stream_names={"rfid": "rfid_in", "mote": "motes_in"},
        )
        with pytest.raises(
            PipelineError, match=r"reads stream 'mote_in'.*'motes_in'"
        ):
            processor.open_session(until=2.0, tick=1.0)

    def test_query_over_several_streams_behind_virtualize_raises(self):
        processor = two_kind_processor()
        processor.set_virtualize(
            [
                Stage.from_query(StageKind.VIRTUALIZE, "SELECT * FROM rfid_in"),
                vote_query("rfid_in", "mote_in"),
            ],
            stream_names=STREAM_NAMES,
        )
        with pytest.raises(PipelineError, match="'vote'.*not known"):
            processor.run(until=2.0, tick=1.0)


class TestStreamSession:
    """Push-mode (``open_session``) equivalence with the batch run."""

    def _recorded(self):
        def reading(ts, reader):
            shelf = f"shelf{reader[-1]}"
            return StreamTuple(
                ts,
                {"tag_id": f"tag{reader[-1]}", "shelf": shelf,
                 "reader_id": reader},
                reader,
            )

        return {
            "reader0": [reading(t, "reader0") for t in (0.0, 1.0, 2.0, 3.0)],
            "reader1": [reading(t, "reader1") for t in (0.0, 1.5, 2.5)],
        }

    def _processor(self, **stages):
        registry = build_rfid_registry(2)
        processor = ESPProcessor(registry)
        processor.add_pipeline(
            ESPPipeline(
                "rfid",
                temporal_granule=TemporalGranule(2.0),
                smooth=presence_smoother(),
                **stages,
            )
        )
        return processor

    def test_session_matches_batch_run(self):
        recorded = self._recorded()
        ref = self._processor().run(until=4.0, tick=1.0, sources=recorded)

        session = self._processor().open_session(until=4.0, tick=1.0)
        assert session.receptor_ids == ("reader0", "reader1")
        arrivals = sorted(
            ((item.timestamp, name, item)
             for name, items in recorded.items() for item in items),
            key=lambda e: (e[0], e[1]),
        )
        for ts, name, item in arrivals:
            session.push(name, item)
            session.advance(ts)
        run = session.close()
        assert run.output == ref.output
        assert run.output  # the comparison is not vacuous

    def test_unknown_receptor_rejected(self):
        session = self._processor().open_session(until=1.0, tick=1.0)
        with pytest.raises(PipelineError, match="unknown receptor"):
            session.push("reader9", StreamTuple(0.0, {"tag_id": "t"}))

    def test_close_is_idempotent(self):
        session = self._processor().open_session(until=1.0, tick=1.0)
        first = session.close()
        second = session.close()
        assert second.output == first.output

    def test_safe_time_tracks_punctuation(self):
        session = self._processor().open_session(until=3.0, tick=1.0)
        assert session.safe_time == float("-inf")
        session.advance(1.5)
        assert session.safe_time == 1.0

    def test_mode_is_validated_then_ignored(self):
        """The deprecated keyword selects nothing on either entry point:
        every accepted value wires the same graph and cleans the same."""
        recorded = self._recorded()
        point = Stage.from_function(StageKind.POINT, lambda item: item)

        def drive(**kwargs):
            session = self._processor(point=point).open_session(
                until=4.0, tick=1.0, **kwargs
            )
            for name, items in recorded.items():
                for item in items:
                    session.push(name, item)
            return set(session._fjord._nodes), session.close().output

        nodes, output = drive()
        assert output
        ref = self._processor(point=point).run(
            until=4.0, tick=1.0, sources=recorded
        )
        for mode in MODES:
            assert drive(mode=mode) == (nodes, output)
            run = self._processor(point=point).run(
                until=4.0, tick=1.0, sources=recorded, mode=mode
            )
            assert run.output == ref.output and run.stats == ref.stats
        for entry in (
            lambda: self._processor().run(until=1.0, tick=1.0, mode="simd"),
            lambda: self._processor().open_session(
                until=1.0, tick=1.0, mode="simd"
            ),
        ):
            with pytest.raises(OperatorError, match="unknown execution mode"):
                entry()
