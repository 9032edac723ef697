"""Unit tests for the Merge, Arbitrate and Virtualize toolkit operators."""

import pytest

from repro.core.operators.arbitrate_ops import (
    MaxCountArbitrator,
    max_count_arbitrate,
)
from repro.core.operators.merge_ops import (
    k_of_n_vote,
    mad_outlier_average,
    sigma_outlier_average,
    spatial_average,
)
from repro.core.operators.virtualize_ops import VotingDetector, voting_detector
from repro.core.stages import StageContext, StageKind
from repro.errors import OperatorError
from repro.streams.tuples import StreamTuple


def ctx(kind=StageKind.MERGE):
    return StageContext(kind)


def tup(ts, stream="s", **fields):
    return StreamTuple(ts, fields, stream)


def drive(op, items, ticks):
    out = []
    items = sorted(items, key=lambda t: t.timestamp)
    index = 0
    for tick in ticks:
        while index < len(items) and items[index].timestamp <= tick + 1e-9:
            out.extend(op.on_tuple(items[index]))
            index += 1
        out.extend(op.on_time(tick))
    return out


class TestSigmaOutlierAverage:
    def stage_op(self, **kwargs):
        defaults = dict(window=300.0, value_field="temp")
        defaults.update(kwargs)
        return sigma_outlier_average(**defaults).make(ctx())

    def test_rejects_deviant_reading(self):
        op = self.stage_op()
        items = [
            tup(0.0, spatial_granule="room", temp=v)
            for v in (20.0, 21.0, 100.0)
        ]
        out = drive(op, items, [0.0])
        assert out[0]["temp"] == pytest.approx(20.5)
        assert out[0]["readings"] == 2

    def test_keeps_all_when_agreeing(self):
        op = self.stage_op()
        items = [
            tup(0.0, spatial_granule="room", temp=v) for v in (20.0, 20.5, 21.0)
        ]
        out = drive(op, items, [0.0])
        assert out[0]["readings"] == 3
        assert out[0]["temp"] == pytest.approx(20.5)

    def test_identical_readings_survive(self):
        # Unlike the literal Query 5 strict band, the toolkit operator
        # uses an inclusive band so zero-variance groups pass through.
        op = self.stage_op()
        items = [tup(0.0, spatial_granule="room", temp=20.0)] * 3
        out = drive(op, items, [0.0])
        assert out[0]["readings"] == 3

    def test_single_reading_passes(self):
        op = self.stage_op()
        out = drive(op, [tup(0.0, spatial_granule="room", temp=20.0)], [0.0])
        assert out[0]["temp"] == 20.0

    def test_empty_window_emits_nothing(self):
        op = self.stage_op()
        assert drive(op, [], [0.0]) == []

    def test_window_eviction(self):
        op = self.stage_op(window=10.0)
        items = [tup(0.0, spatial_granule="room", temp=20.0)]
        out = drive(op, items, [0.0, 10.0, 20.0])
        assert [t.timestamp for t in out] == [0.0, 10.0]

    def test_three_motes_geometry_guarantee(self):
        # With 3 readings, a lone deviant is always outside 1 sigma once
        # its deviation exceeds the others' spread (see merge_ops doc).
        op = self.stage_op()
        items = [
            tup(0.0, spatial_granule="room", temp=v)
            for v in (20.0, 20.4, 26.0)
        ]
        out = drive(op, items, [0.0])
        assert out[0]["readings"] == 2
        assert out[0]["temp"] == pytest.approx(20.2)

    def test_min_survivors_suppresses_output(self):
        op = self.stage_op(min_survivors=3)
        items = [
            tup(0.0, spatial_granule="room", temp=v)
            for v in (20.0, 21.0, 100.0)
        ]
        assert drive(op, items, [0.0]) == []

    def test_invalid_k(self):
        with pytest.raises(OperatorError):
            sigma_outlier_average(window=10.0, k=-1.0).make(ctx())

    def test_groups_isolated(self):
        op = self.stage_op()
        items = [
            tup(0.0, spatial_granule="a", temp=10.0),
            tup(0.0, spatial_granule="b", temp=50.0),
        ]
        out = drive(op, items, [0.0])
        assert {t["spatial_granule"]: t["temp"] for t in out} == {
            "a": 10.0,
            "b": 50.0,
        }

    def test_non_numeric_rows_skipped(self):
        op = self.stage_op()
        items = [
            tup(0.0, spatial_granule="a", other="x"),
            tup(0.0, spatial_granule="a", temp=10.0),
        ]
        out = drive(op, items, [0.0])
        assert out[0]["readings"] == 1

    @pytest.mark.parametrize("stage", [sigma_outlier_average, mad_outlier_average])
    def test_null_values_are_skipped(self, stage):
        # A NULL reading is skipped like every aggregate's NULL, and a
        # granule with nothing but NULLs reports nothing.
        op = stage(window=10.0).make(ctx())
        items = [
            tup(0.0, spatial_granule="a", temp=v) for v in (None, 20.0, 21.0)
        ] + [tup(1.0, spatial_granule="b", temp=None)]
        out = drive(op, items, [0.0, 1.0])
        assert [(t.timestamp, t.as_dict()) for t in out] == [
            (0.0, {"spatial_granule": "a", "temp": 20.5, "readings": 2}),
            (1.0, {"spatial_granule": "a", "temp": 20.5, "readings": 2}),
        ]

    def test_min_survivors_counts_an_unbanded_reading(self):
        op = self.stage_op(min_survivors=2)
        assert drive(op, [tup(0.0, spatial_granule="a", temp=20.0)], [0.0]) == []

    @pytest.mark.parametrize("stage", [sigma_outlier_average, mad_outlier_average])
    def test_band_mean_sums_left_to_right(self, stage):
        # Every value survives a band this wide. Left to right,
        # 1e16 + 1.0 rounds back to 1e16, so the mean is 0.0 on every
        # Python; a compensated sum (builtin ``sum`` from 3.12) gives 1/3.
        op = stage(window=10.0, k=10.0).make(ctx())
        items = [
            tup(0.0, spatial_granule="a", temp=v) for v in (1e16, 1.0, -1e16)
        ]
        out = drive(op, items, [0.0])
        assert out[0]["readings"] == 3
        assert out[0]["temp"] == 0.0


class TestMadOutlierAverage:
    def test_resists_masking_better_than_sigma(self):
        # Two outliers in five readings inflate sigma enough that the
        # 1-sigma rule keeps one of them; the MAD rule rejects both.
        values = (20.0, 20.2, 20.4, 29.0, 30.0)
        sigma_op = sigma_outlier_average(window=10.0, k=1.0).make(ctx())
        mad_op = mad_outlier_average(window=10.0, k=3.0).make(ctx())
        items = [tup(0.0, spatial_granule="g", temp=v) for v in values]
        sigma_out = drive(sigma_op, list(items), [0.0])
        mad_out = drive(mad_op, list(items), [0.0])
        assert mad_out[0]["temp"] == pytest.approx(20.2)
        assert mad_out[0]["readings"] == 3
        assert sigma_out[0]["temp"] > mad_out[0]["temp"]


class TestSpatialAverage:
    def test_averages_across_granule(self):
        op = spatial_average(window=300.0, value_field="temp").make(ctx())
        items = [
            tup(0.0, spatial_granule="g", temp=10.0, mote_id="a"),
            tup(0.0, spatial_granule="g", temp=20.0, mote_id="b"),
        ]
        out = drive(op, items, [0.0])
        assert out[0]["temp"] == 15.0
        assert out[0]["readings"] == 2

    def test_fills_when_one_mote_silent(self):
        op = spatial_average(window=300.0, value_field="temp").make(ctx())
        items = [tup(0.0, spatial_granule="g", temp=10.0, mote_id="a")]
        out = drive(op, items, [0.0])
        assert out[0]["temp"] == 10.0


class TestKofNVote:
    def test_fires_at_threshold(self):
        op = k_of_n_vote(min_devices=2, window=10.0).make(ctx())
        items = [
            tup(0.0, sensor_id="x1", spatial_granule="g", value="ON"),
            tup(1.0, sensor_id="x2", spatial_granule="g", value="ON"),
        ]
        out = drive(op, items, [1.0])
        assert out[0]["votes"] == 2
        assert out[0]["value"] == "ON"
        assert out[0]["spatial_granule"] == "g"

    def test_single_device_insufficient(self):
        op = k_of_n_vote(min_devices=2, window=10.0).make(ctx())
        items = [
            tup(0.0, sensor_id="x1", spatial_granule="g", value="ON"),
            tup(1.0, sensor_id="x1", spatial_granule="g", value="ON"),
        ]
        assert drive(op, items, [1.0]) == []

    def test_votes_expire_with_window(self):
        op = k_of_n_vote(min_devices=2, window=5.0).make(ctx())
        items = [
            tup(0.0, sensor_id="x1", spatial_granule="g", value="ON"),
            tup(8.0, sensor_id="x2", spatial_granule="g", value="ON"),
        ]
        assert drive(op, items, [8.0]) == []

    def test_invalid_min_devices(self):
        with pytest.raises(OperatorError):
            k_of_n_vote(min_devices=0, window=5.0).make(ctx())

    def test_each_granule_votes_separately(self):
        # One kitchen detector cannot lend its vote to the office, and
        # the office's detection carries the office's label.
        op = k_of_n_vote(min_devices=2, window=10.0).make(ctx())
        items = [
            tup(0.0, sensor_id="k1", spatial_granule="kitchen", value="ON"),
            tup(1.0, sensor_id="o1", spatial_granule="office", value="ON"),
            tup(1.0, sensor_id="o2", spatial_granule="office", value="ON"),
        ]
        out = drive(op, items, [1.0])
        assert [t.as_dict() for t in out] == [
            {"spatial_granule": "office", "value": "ON", "votes": 2}
        ]


class TestMaxCountArbitrator:
    def rows(self, counts):
        return [
            tup(0.0, spatial_granule=granule, tag_id=tag, count=n)
            for (granule, tag), n in counts.items()
        ]

    def test_max_count_wins(self):
        op = MaxCountArbitrator(tie_break="all")
        out = drive(op, self.rows({("g0", "a"): 9, ("g1", "a"): 2}), [0.0])
        assert [(t["spatial_granule"], t["tag_id"]) for t in out] == [
            ("g0", "a")
        ]

    def test_tie_all_keeps_both(self):
        op = MaxCountArbitrator(tie_break="all")
        out = drive(op, self.rows({("g0", "a"): 3, ("g1", "a"): 3}), [0.0])
        assert len(out) == 2

    def test_tie_weakest_wins(self):
        op = MaxCountArbitrator(
            tie_break="weakest", strength={"g0": 1.0, "g1": 0.6}
        )
        out = drive(op, self.rows({("g0", "a"): 3, ("g1", "a"): 3}), [0.0])
        assert [t["spatial_granule"] for t in out] == ["g1"]

    def test_tie_first_deterministic(self):
        op = MaxCountArbitrator(tie_break="first")
        out = drive(op, self.rows({("g1", "a"): 3, ("g0", "a"): 3}), [0.0])
        assert [t["spatial_granule"] for t in out] == ["g0"]

    def test_missing_count_defaults_to_one(self):
        # Arbitrate over raw streams: each reading counts once.
        op = MaxCountArbitrator(tie_break="all")
        raw = [
            tup(0.0, spatial_granule="g0", tag_id="a"),
            tup(0.0, spatial_granule="g0", tag_id="a"),
            tup(0.0, spatial_granule="g1", tag_id="a"),
        ]
        out = drive(op, raw, [0.0])
        assert [t["spatial_granule"] for t in out] == ["g0"]
        assert out[0]["count"] == 2

    def test_null_counts_are_skipped(self):
        # A NULL count competes with nothing; a missing one counts once.
        op = MaxCountArbitrator(tie_break="all")
        rows = [
            tup(0.0, spatial_granule="s1", tag_id="a", count=None),
            tup(0.0, spatial_granule="s2", tag_id="a"),
            tup(0.0, spatial_granule="s1", tag_id="b", count=None),
            tup(0.0, spatial_granule="s1", tag_id="c", count=None),
            tup(0.0, spatial_granule="s2", tag_id="c", count=None),
            tup(0.0, spatial_granule="s1", tag_id="d", count=None),
            tup(0.0, spatial_granule="s1", tag_id="d", count=2),
            tup(0.0, spatial_granule="s2", tag_id="d", count=2),
        ]
        out = drive(op, rows, [0.0])
        assert [
            (t["spatial_granule"], t["tag_id"], t["count"]) for t in out
        ] == [("s2", "a", 1), ("s1", "d", 2), ("s2", "d", 2)]

    def test_state_clears_between_instants(self):
        op = MaxCountArbitrator(tie_break="all")
        drive(op, self.rows({("g0", "a"): 5}), [0.0])
        assert op.on_time(1.0) == []

    def test_tags_independent(self):
        op = MaxCountArbitrator(tie_break="all")
        out = drive(
            op,
            self.rows({("g0", "a"): 5, ("g1", "b"): 5}),
            [0.0],
        )
        pairs = {(t["spatial_granule"], t["tag_id"]) for t in out}
        assert pairs == {("g0", "a"), ("g1", "b")}

    def test_weakest_requires_strength(self):
        with pytest.raises(OperatorError):
            MaxCountArbitrator(tie_break="weakest")

    def test_unknown_tie_break(self):
        with pytest.raises(OperatorError):
            MaxCountArbitrator(tie_break="random")

    def test_stage_builder(self):
        stage = max_count_arbitrate(tie_break="all")
        assert stage.kind is StageKind.ARBITRATE
        assert isinstance(
            stage.make(StageContext(StageKind.ARBITRATE)), MaxCountArbitrator
        )


class TestVotingDetector:
    def make(self, threshold=2):
        return VotingDetector(
            votes={
                "sensors_input": lambda t: t.get("noise", 0) > 525,
                "rfid_input": lambda t: t.get("n_tags", 0) > 1,
                "motion_input": None,
            },
            threshold=threshold,
        )

    def test_two_votes_fire(self):
        op = self.make()
        op.on_tuple(tup(0.0, "sensors_input", noise=600))
        op.on_tuple(tup(0.0, "rfid_input", n_tags=2))
        out = op.on_time(0.0)
        assert out[0]["votes"] == 2
        assert out[0]["event"] == "Person-in-room"
        assert out[0]["vote_sensors_input"] is True
        assert out[0]["vote_motion_input"] is False

    def test_one_vote_insufficient(self):
        op = self.make()
        op.on_tuple(tup(0.0, "sensors_input", noise=600))
        assert op.on_time(0.0) == []

    def test_predicate_false_is_not_a_vote(self):
        op = self.make()
        op.on_tuple(tup(0.0, "sensors_input", noise=100))
        op.on_tuple(tup(0.0, "rfid_input", n_tags=1))
        assert op.on_time(0.0) == []

    def test_none_predicate_counts_any_tuple(self):
        op = self.make()
        op.on_tuple(tup(0.0, "motion_input", value="ON"))
        op.on_tuple(tup(0.0, "rfid_input", n_tags=3))
        assert op.on_time(0.0) != []

    def test_unconfigured_stream_ignored(self):
        op = self.make()
        op.on_tuple(tup(0.0, "mystery", noise=9999))
        assert op.on_time(0.0) == []

    def test_votes_reset_each_instant(self):
        op = self.make()
        op.on_tuple(tup(0.0, "sensors_input", noise=600))
        op.on_tuple(tup(0.0, "rfid_input", n_tags=2))
        assert op.on_time(0.0) != []
        assert op.on_time(1.0) == []

    def test_threshold_bounds_validated(self):
        with pytest.raises(OperatorError):
            self.make(threshold=4)
        with pytest.raises(OperatorError):
            VotingDetector(votes={}, threshold=1)

    def test_stage_builder(self):
        stage = voting_detector({"a": None}, threshold=1)
        assert stage.kind is StageKind.VIRTUALIZE
