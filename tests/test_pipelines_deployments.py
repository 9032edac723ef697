"""Integration tests for the three prebuilt deployment pipelines."""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.core.granules import TemporalGranule
from repro.core.operators.point_ops import ghost_filter, whitelist
from repro.core.operators.smooth_ops import presence_smoother
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import Stage, StageKind
from repro.errors import PipelineError
from repro.metrics import average_relative_error, detection_accuracy
from repro.pipelines.digital_home import (
    build_declarative_home_processor,
    build_digital_home_processor,
)
from repro.pipelines.rfid_shelf import (
    ADAPTIVE_CONFIG,
    SHELF_CONFIGS,
    build_shelf_processor,
    count_series,
    query1_counts,
)
from repro.pipelines.sensornet import (
    build_outlier_processor,
    build_redwood_processor,
)
from repro.scenarios import OfficeScenario, RedwoodScenario, ShelfScenario
from repro.streams.columnar import SetStream
from repro.streams.operators import MapOp, UnionOp
from repro.streams.telemetry import InMemoryCollector
from repro.streams.traceio import write_jsonl
from repro.streams.tuples import StreamTuple
from tests.test_checkpoint import make_bundle


def shelf_error(scenario, counts):
    truth = scenario.truth_series()
    reported = np.concatenate([counts["shelf0"], counts["shelf1"]])
    actual = np.concatenate([truth["shelf0"], truth["shelf1"]])
    return average_relative_error(reported, actual)


class TestShelfPipeline:
    def test_unknown_config_rejected(self, small_shelf):
        with pytest.raises(PipelineError):
            build_shelf_processor(small_shelf, "bogus")

    @pytest.mark.parametrize("config", SHELF_CONFIGS)
    def test_all_configs_run(self, small_shelf, config):
        counts = query1_counts(small_shelf, config)
        assert set(counts) == {"shelf0", "shelf1"}
        assert len(counts["shelf0"]) == len(small_shelf.ticks())

    def test_smooth_reads_no_window_rows(self, small_shelf, monkeypatch):
        """Query 2's ``count(*)`` is each tag window's length: a shelf
        pass never lists the rows of a Smooth window (the only windows
        the ``smooth`` configuration has)."""
        from repro.streams.windows import BaseWindow

        listed = []
        contents = BaseWindow.contents
        monkeypatch.setattr(
            BaseWindow,
            "contents",
            lambda window: listed.append(window) or contents(window),
        )
        run = build_shelf_processor(small_shelf, "smooth").run(
            until=small_shelf.duration,
            tick=small_shelf.poll_period,
            sources=small_shelf.recorded_streams(),
            taps=("smooth",),
        )
        assert len(run.tap("rfid", "smooth")) > 0
        assert listed == []

    def test_cleaning_improves_on_raw(self, small_shelf):
        raw_error = shelf_error(
            small_shelf, query1_counts(small_shelf, "raw")
        )
        clean_error = shelf_error(
            small_shelf, query1_counts(small_shelf, "smooth+arbitrate")
        )
        assert clean_error < raw_error / 3

    def test_smooth_alone_insufficient(self, small_shelf):
        smooth_error = shelf_error(
            small_shelf, query1_counts(small_shelf, "smooth")
        )
        clean_error = shelf_error(
            small_shelf, query1_counts(small_shelf, "smooth+arbitrate")
        )
        assert clean_error < smooth_error

    def test_arbitrate_alone_close_to_raw(self, small_shelf):
        raw_error = shelf_error(small_shelf, query1_counts(small_shelf, "raw"))
        arb_error = shelf_error(
            small_shelf, query1_counts(small_shelf, "arbitrate")
        )
        assert arb_error > raw_error * 0.6

    def test_granule_override(self, small_shelf):
        counts = query1_counts(
            small_shelf, "smooth+arbitrate", granule=TemporalGranule(2.0)
        )
        assert len(counts["shelf0"]) == len(small_shelf.ticks())

    def test_identical_data_across_configs(self, small_shelf):
        # query1_counts replays the cached recording: raw twice is equal.
        first = query1_counts(small_shelf, "raw")
        second = query1_counts(small_shelf, "raw")
        assert np.array_equal(first["shelf0"], second["shelf0"])

    def test_count_series_bucketing(self):
        rows = [
            StreamTuple(0.0, {"tag_id": "a", "spatial_granule": "g"}),
            StreamTuple(0.0, {"tag_id": "b", "spatial_granule": "g"}),
            StreamTuple(1.0, {"tag_id": "a", "spatial_granule": "g"}),
            StreamTuple(1.0, {"tag_id": "x", "spatial_granule": "other"}),
        ]
        series = count_series(
            rows, np.array([0.0, 1.0]), ["g"], tick_period=1.0
        )
        assert series["g"].tolist() == [2.0, 1.0]

    def test_count_series_ignores_out_of_range(self):
        rows = [StreamTuple(99.0, {"tag_id": "a", "spatial_granule": "g"})]
        series = count_series(
            rows, np.array([0.0, 1.0]), ["g"], tick_period=1.0
        )
        assert series["g"].tolist() == [0.0, 0.0]


class TestOutlierPipeline:
    def test_esp_tracks_functioning_motes(self, small_intel_lab):
        scenario = small_intel_lab
        recorded = scenario.recorded_streams()
        processor = build_outlier_processor(scenario)
        run = processor.run(
            until=scenario.duration,
            tick=scenario.sample_period,
            sources=recorded,
        )
        late = [
            t["temp"]
            for t in run.output
            if t.timestamp > scenario.failure_onset + 3600.0
        ]
        assert late and max(late) < 30.0  # outlier excluded

    def test_without_merge_average_is_dragged(self, small_intel_lab):
        scenario = small_intel_lab
        recorded = scenario.recorded_streams()
        processor = build_outlier_processor(
            scenario, use_point=False, use_merge=False
        )
        run = processor.run(
            until=scenario.duration,
            tick=scenario.sample_period,
            sources=recorded,
        )
        # No cleaning at all: the fail-dirty readings are still present.
        late = [
            t["temp"]
            for t in run.output
            if t.timestamp > scenario.duration * 0.9
        ]
        assert max(late) > 40.0

    def test_point_only_caps_at_50(self, small_intel_lab):
        scenario = small_intel_lab
        recorded = scenario.recorded_streams()
        processor = build_outlier_processor(scenario, use_merge=False)
        run = processor.run(
            until=scenario.duration,
            tick=scenario.sample_period,
            sources=recorded,
        )
        assert all(t["temp"] < 50.0 for t in run.output)

    def test_robust_variant_runs(self, small_intel_lab):
        scenario = small_intel_lab
        processor = build_outlier_processor(scenario, robust=True, sigma_k=3.0)
        run = processor.run(
            until=scenario.duration,
            tick=scenario.sample_period,
            sources=scenario.recorded_streams(),
        )
        late = [
            t["temp"]
            for t in run.output
            if t.timestamp > scenario.failure_onset + 3600.0
        ]
        assert late and max(late) < 30.0


class TestRedwoodPipeline:
    def test_smooth_raises_yield(self, small_redwood):
        scenario = small_redwood
        recorded = scenario.recorded_streams()
        n_epochs = len(scenario.epochs())
        raw_slots = sum(len(v) for v in recorded.values())
        run = build_redwood_processor(
            scenario, use_smooth=True, use_merge=False
        ).run(until=scenario.duration, tick=scenario.epoch, sources=recorded)
        smooth_slots = {
            (t["mote_id"], int(round(t.timestamp / scenario.epoch)))
            for t in run.output
        }
        assert len(smooth_slots) > raw_slots

    def test_merge_fills_further(self, small_redwood):
        scenario = small_redwood
        recorded = scenario.recorded_streams()
        smooth_run = build_redwood_processor(
            scenario, use_smooth=True, use_merge=False
        ).run(until=scenario.duration, tick=scenario.epoch, sources=recorded)
        merge_run = build_redwood_processor(
            scenario, use_smooth=True, use_merge=True
        ).run(until=scenario.duration, tick=scenario.epoch, sources=recorded)
        n_epochs = len(scenario.epochs())
        smooth_granule_slots = {
            (t["spatial_granule"], int(round(t.timestamp / scenario.epoch)))
            for t in smooth_run.output
        }
        merge_slots = {
            (t["spatial_granule"], int(round(t.timestamp / scenario.epoch)))
            for t in merge_run.output
        }
        assert len(merge_slots) >= len(smooth_granule_slots)

    def test_merge_output_one_row_per_granule_epoch(self, small_redwood):
        scenario = small_redwood
        run = build_redwood_processor(scenario).run(
            until=scenario.duration,
            tick=scenario.epoch,
            sources=scenario.recorded_streams(),
        )
        slots = [
            (t["spatial_granule"], int(round(t.timestamp / scenario.epoch)))
            for t in run.output
        ]
        assert len(slots) == len(set(slots))


class TestDigitalHome:
    def test_accuracy_beats_chance(self, small_office):
        scenario = small_office
        processor = build_digital_home_processor(scenario)
        run = processor.run(
            until=scenario.duration,
            tick=0.5,
            sources=scenario.recorded_streams(),
        )
        ticks = scenario.ticks()
        detected = np.zeros(len(ticks), dtype=bool)
        for event in run.output:
            index = int(event.timestamp // 1.0)
            if index < len(detected):
                detected[index] = True
        truth = scenario.truth_series() > 0.5
        assert detection_accuracy(detected, truth) > 0.8

    def test_three_of_three_is_stricter(self, small_office):
        scenario = small_office
        recorded = scenario.recorded_streams()
        loose = build_digital_home_processor(scenario, threshold=1).run(
            until=scenario.duration, tick=0.5, sources=recorded
        )
        strict = build_digital_home_processor(scenario, threshold=3).run(
            until=scenario.duration, tick=0.5, sources=recorded
        )
        assert len(strict.output) < len(loose.output)

    def test_detection_tuples_carry_votes(self, small_office):
        scenario = small_office
        run = build_digital_home_processor(scenario).run(
            until=scenario.duration,
            tick=0.5,
            sources=scenario.recorded_streams(),
        )
        assert run.output
        event = run.output[0]
        assert event["event"] == "Person-in-room"
        assert event["votes"] >= 2

    def test_declarative_query6_matches_toolkit_detector(self, small_office):
        """The literal CQL Query 6 as Virtualize produces the same
        detection instants as the VotingDetector toolkit operator."""
        from repro.pipelines.digital_home import (
            build_declarative_home_processor,
        )

        scenario = small_office
        recorded = scenario.recorded_streams()

        def detection_instants(builder):
            run = builder(scenario).run(
                until=scenario.duration, tick=0.5, sources=recorded
            )
            return sorted({round(t.timestamp, 3) for t in run.output})

        toolkit = detection_instants(build_digital_home_processor)
        declarative = detection_instants(build_declarative_home_processor)
        assert toolkit == declarative

    def test_declarative_query6_output_shape(self, small_office):
        from repro.pipelines.digital_home import (
            build_declarative_home_processor,
        )

        run = build_declarative_home_processor(small_office).run(
            until=small_office.duration,
            tick=0.5,
            sources=small_office.recorded_streams(),
        )
        assert run.output
        assert run.output[0]["event"] == "Person-in-room"


class TestStageTaps:
    def test_kind_with_two_stages_is_tapped_after_its_last(self, small_shelf):
        """``point=[a, b]`` with ``taps=("point",)`` adds one tap, on the
        stream leaving ``b``; output and flow stats are unchanged."""
        streams = small_shelf.recorded_streams()
        tags = sorted({t["tag_id"] for run in streams.values() for t in run})

        def run(**kwargs):
            processor = ESPProcessor(small_shelf.registry)
            processor.add_pipeline(ESPPipeline(
                "rfid", point=[ghost_filter(), whitelist("tag_id", tags[::2])]
            ))
            return processor.run(
                until=small_shelf.duration,
                tick=small_shelf.poll_period,
                sources=streams,
                **kwargs,
            )

        plain = run()
        tapped = run(taps=("point",))
        assert tapped.output == plain.output
        assert {k: v for k, v in tapped.stats.items()
                if not k.startswith("tap:")} == plain.stats
        assert [k for k in tapped.stats if k.startswith("tap:")] == [
            "tap:rfid/point"
        ]

        def outs(prefix):
            return sum(out for name, (_in, out) in plain.stats.items()
                       if name.startswith(prefix))

        point = tapped.tap("rfid", "point")
        assert len(point) == outs("rfid:1:point:") < outs("rfid:0:point:")
        # The kind's output is the second Point's stream under one label.
        assert [(t.timestamp, t.as_dict()) for t in point] == [
            (t.timestamp, t.as_dict()) for t in plain.output
        ]


def _processor_nodes(processor, until, tick=None):
    """The processor-wired nodes of a deployment's graph, name → node."""
    session = processor.open_session(until=until, tick=tick)
    return session._fjord._nodes


class TestGraphShape:
    """A raw reading carries its receptor id and ``kindout:`` stamps the
    kind's output name; no node exists only to relabel. Widening the
    scope is wiring: a group- or kind-scope instance takes its
    partition's upstream nodes as inputs, so ``kindout:`` is the only
    fan-in node the processor adds."""

    def test_node_counts_and_no_relabel_nodes(self):
        shelf = ShelfScenario(duration=12.0, seed=3)
        office = OfficeScenario(duration=150.0, seed=3)
        graphs = {
            "shelf": _processor_nodes(
                build_shelf_processor(shelf, "smooth+arbitrate"),
                shelf.duration, shelf.poll_period,
            ),
            "redwood": _processor_nodes(
                build_redwood_processor(RedwoodScenario(seed=3)), 3600.0
            ),
            "home": _processor_nodes(
                build_digital_home_processor(office), office.duration, 0.5
            ),
            "home_declarative": _processor_nodes(
                build_declarative_home_processor(office), office.duration, 0.5
            ),
        }
        sizes = {name: len(nodes) for name, nodes in graphs.items()}
        assert sizes == {
            "shelf": 9, "redwood": 82, "home": 26, "home_declarative": 25,
        }
        for name, nodes in graphs.items():
            relabels = [
                node_name for node_name, node in nodes.items()
                if isinstance(node.op, MapOp)
                and isinstance(node.op._fn, SetStream)
            ]
            assert relabels == [], name
            unions = [
                node_name for node_name, node in nodes.items()
                if isinstance(node.op, UnionOp)
            ]
            assert unions, name
            assert all(
                node_name.startswith("kindout:") for node_name in unions
            ), (name, unions)

    def test_no_virtualize_row_without_a_virtualize_stage(self):
        """Three kinds with no Virtualize meet at the sink's fan-in: the
        rollup has no ``virtualize`` row."""
        office = OfficeScenario(duration=150.0, seed=3)
        run = ESPProcessor(office.registry).run(
            until=office.duration, tick=0.5,
            sources=office.recorded_streams(), telemetry=InMemoryCollector(),
        )
        assert list(run.stage_rollup()) == ["ingest", "union", "output"]


class TestMultiStreamQueryBelowVirtualize:
    """A query that routes its input by stream name sees receptor ids
    below Virtualize, so the processor refuses it at wiring time
    instead of emitting nothing."""

    QUERY = (
        "SELECT tag_id, spatial_granule FROM rfid WHERE count > 0 "
        "UNION SELECT tag_id, spatial_granule FROM other WHERE count > 100"
    )

    def _processor(self, scenario):
        processor = ESPProcessor(scenario.registry)
        processor.add_pipeline(ESPPipeline(
            "rfid",
            smooth=presence_smoother(window=2.0),
            arbitrate=Stage.from_query(StageKind.ARBITRATE, self.QUERY),
        ))
        return processor

    def test_run_and_open_session_raise(self):
        scenario = ShelfScenario(duration=20.0, seed=3)
        with pytest.raises(PipelineError, match=r"\['other', 'rfid'\]"):
            self._processor(scenario).run(
                until=scenario.duration, tick=scenario.poll_period,
                sources=scenario.recorded_streams(),
            )
        with pytest.raises(PipelineError, match="query:arbitrate"):
            self._processor(scenario).open_session(
                until=scenario.duration, tick=scenario.poll_period,
            )


def _shelf_config_run(config):
    scenario = ShelfScenario(duration=40.0, seed=3)
    return build_shelf_processor(scenario, config).run(
        until=scenario.duration,
        tick=scenario.poll_period,
        sources=scenario.recorded_streams(),
    )


def _shelf_cql_run():
    bundle = make_bundle("shelf_cql", 40.0)
    return bundle.processor.run(
        until=bundle.until, tick=bundle.tick, sources=bundle.streams
    )


def _home_run(builder):
    scenario = OfficeScenario(duration=150.0, seed=3)
    return builder(scenario).run(
        until=scenario.duration, tick=0.5, sources=scenario.recorded_streams()
    )


#: Pipelines no golden trace covers, by how they are run.
OUTPUT_CASES = {
    **{
        config: partial(_shelf_config_run, config)
        for config in SHELF_CONFIGS + (ADAPTIVE_CONFIG,)
        if config != "smooth+arbitrate"
    },
    "shelf_cql": _shelf_cql_run,
    "home": partial(_home_run, build_digital_home_processor),
    "home_declarative": partial(_home_run, build_declarative_home_processor),
    "home_no_pipelines": partial(
        _home_run, lambda scenario: ESPProcessor(scenario.registry)
    ),
}

#: sha256 of each case's ``write_jsonl`` output, taken while every stage
#: instance was still followed by a relabel node: labels and tuples
#: reach the output exactly as they did then.
OUTPUT_DIGESTS = {
    "adaptive+arbitrate":
        "6bd7023038792c05b6191110a364da34941e8caadded3300f63a74da1edd40fd",
    "arbitrate":
        "e88f038a4d25882cebd9bc10b1c86d4e4e16f1896d067b026921032bcf9ba823",
    "arbitrate+smooth":
        "18e7846661550a35f522929ee0f8a427bdaab2b8f5441a97a102bb7cc86296bb",
    "home":
        "a909331d88c033d578c5418b66d9ed0ad20e554be57068f277fe141fea252853",
    "home_declarative":
        "f1f486e5075310952af6a8573e95acd2e7207b739c3674ca0a344d8d2d2cd394",
    # Taken later, while three kinds with no Virtualize still met at a
    # union node before the sink.
    "home_no_pipelines":
        "e1785c09b6ce71f3fe4fb015ba57f888c4deebe24f83996f0a037ff0add4fe9c",
    "raw":
        "7001056cc243565f34abeba23ee4f5c4781889d4d680daff9b125946551e6134",
    "shelf_cql":
        "38c1f6e1ed29aac43309c0e927c9889913b88ef4ed1642db121cdc5ae2b5dad5",
    "smooth":
        "ed5a8909bb30e990a7e00b9a2d1e29a46a38e63bcd980b23378a7c78c28194c1",
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_identity(case, tmp_path):
    path = tmp_path / "out.jsonl"
    assert write_jsonl(OUTPUT_CASES[case]().output, path) > 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == OUTPUT_DIGESTS[case]
