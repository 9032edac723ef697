"""Tests for trace persistence (JSONL / CSV round-trips)."""

import pytest

from repro.errors import ReproError
from repro.streams.traceio import (
    load_recording,
    read_csv,
    read_jsonl,
    save_recording,
    write_csv,
    write_jsonl,
)
from repro.streams.tuples import StreamTuple


def sample_trace():
    return [
        StreamTuple(0.0, {"tag_id": "a", "shelf": 0}, "reader0"),
        StreamTuple(0.2, {"tag_id": "b", "shelf": 0}, "reader0"),
        StreamTuple(0.2, {"temp": 21.5, "mote_id": "m1"}, "mote1"),
    ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(sample_trace(), path) == 3
        assert read_jsonl(path) == sample_trace()

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl([], path)
        assert read_jsonl(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_trace()[:1], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_jsonl(path)) == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_ts": 0.0}\nnot json\n')
        with pytest.raises(ReproError) as err:
            read_jsonl(path)
        assert ":2:" in str(err.value)

    def test_missing_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": 1}\n')
        with pytest.raises(ReproError):
            read_jsonl(path)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = [
            StreamTuple(0.0, {"tag_id": "a", "count": 3}, "s"),
            StreamTuple(1.0, {"tag_id": "b", "count": 4}, "s"),
        ]
        assert write_csv(trace, path) == 2
        assert read_csv(path) == trace

    def test_type_inference(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv([StreamTuple(0.0, {"i": 3, "f": 2.5, "s": "x"}, "")], path)
        item = read_csv(path)[0]
        assert item["i"] == 3 and isinstance(item["i"], int)
        assert item["f"] == 2.5 and isinstance(item["f"], float)
        assert item["s"] == "x"

    def test_heterogeneous_fields_sparse(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample_trace(), path)
        loaded = read_csv(path)
        assert "temp" not in loaded[0]  # empty cell dropped
        assert loaded[2]["temp"] == 21.5

    def test_explicit_field_order_and_converters(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(
            [StreamTuple(0.0, {"code": "007"}, "")], path, fields=["code"]
        )
        loaded = read_csv(path, field_types={"code": str})
        assert loaded[0]["code"] == "007"  # not coerced to int

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ReproError):
            read_csv(path)

    def test_missing_timestamp_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ReproError):
            read_csv(path)


class TestReservedColumns:
    """A field named ``_ts`` or ``_stream`` would come back as the
    tuple's own timestamp or stream: the writers refuse it instead."""

    EVIL = StreamTuple(1.0, {"_ts": 5.0, "_stream": "evil", "x": 1}, "reader0")

    def test_write_jsonl_refuses(self, tmp_path):
        with pytest.raises(ReproError, match="reserved"):
            write_jsonl([sample_trace()[0], self.EVIL], tmp_path / "t.jsonl")

    def test_write_csv_refuses(self, tmp_path):
        with pytest.raises(ReproError, match="reserved"):
            write_csv([sample_trace()[0], self.EVIL], tmp_path / "t.csv")
        with pytest.raises(ReproError, match="reserved"):
            write_csv([sample_trace()[0]], tmp_path / "t.csv", fields=["_ts"])


class TestRecordingRoundTrip:
    def test_save_and_load_recording(self, tmp_path):
        recording = {
            "reader0": sample_trace()[:2],
            "mote1": sample_trace()[2:],
        }
        written = save_recording(recording, tmp_path / "rec")
        assert set(written) == {"reader0", "mote1"}
        loaded = load_recording(tmp_path / "rec")
        assert loaded == recording

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(ReproError):
            load_recording(tmp_path / "nope")

    def test_load_empty_directory(self, tmp_path):
        (tmp_path / "rec").mkdir()
        with pytest.raises(ReproError):
            load_recording(tmp_path / "rec")

    def test_scenario_recording_replays_identically(self, tmp_path, small_shelf):
        """A persisted scenario recording drives the pipeline to the
        exact same result as the in-memory recording."""
        from repro.pipelines.rfid_shelf import query1_counts
        import numpy as np

        recording = small_shelf.recorded_streams()
        save_recording(recording, tmp_path / "shelf")
        loaded = load_recording(tmp_path / "shelf")
        native = query1_counts(small_shelf, "smooth+arbitrate")
        replayed = query1_counts(
            small_shelf, "smooth+arbitrate", sources=loaded
        )
        for granule in native:
            assert np.array_equal(native[granule], replayed[granule])
