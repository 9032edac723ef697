"""Trace persistence: write and replay receptor streams.

Real deployments of a cleaning framework live on recorded traces — for
regression-testing pipelines against yesterday's data, sharing a
problematic trace with the vendor, or feeding this library's pipelines
with data from actual hardware. Two formats:

- **JSONL** — one JSON object per tuple, lossless for any field types
  JSON can carry (the recommended interchange format);
- **CSV** — flat and spreadsheet-friendly; field types are inferred on
  read (int, then float, then string) unless overridden.

Both formats carry the tuple timestamp and stream name in reserved
columns (``_ts``, ``_stream``); a tuple with a field of either name
cannot be written (the field would come back as the tuple's own
timestamp or stream) and is refused.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.streams.tuples import StreamTuple

#: Reserved column names in both formats.
TIMESTAMP_COLUMN = "_ts"
STREAM_COLUMN = "_stream"


def has_reserved_column(names: Any) -> bool:
    """Whether ``names`` (a tuple, or a column list) holds a field a
    trace would read back as the tuple's own timestamp or stream."""
    return TIMESTAMP_COLUMN in names or STREAM_COLUMN in names


def write_jsonl(tuples: Iterable[StreamTuple], path: "str | Path") -> int:
    """Write tuples as JSON lines; returns the number written.

    Raises:
        ReproError: On a tuple with a field named like a reserved column.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for item in tuples:
            if has_reserved_column(item):
                raise ReproError(
                    f"tuple at {item.timestamp} from stream "
                    f"{item.stream!r} has a field named {TIMESTAMP_COLUMN!r} "
                    f"or {STREAM_COLUMN!r}; both are reserved trace columns"
                )
            record = {
                TIMESTAMP_COLUMN: item.timestamp,
                STREAM_COLUMN: item.stream,
                **item.as_dict(),
            }
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: "str | Path") -> list[StreamTuple]:
    """Read tuples written by :func:`write_jsonl`.

    Raises:
        ReproError: On malformed lines or missing reserved columns, with
            the offending line number.
    """
    tuples: list[StreamTuple] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            if TIMESTAMP_COLUMN not in record:
                raise ReproError(
                    f"{path}:{line_number}: missing {TIMESTAMP_COLUMN!r}"
                )
            timestamp = record.pop(TIMESTAMP_COLUMN)
            stream = record.pop(STREAM_COLUMN, "")
            tuples.append(StreamTuple(timestamp, record, stream))
    return tuples


def write_csv(
    tuples: Sequence[StreamTuple],
    path: "str | Path",
    fields: Sequence[str] | None = None,
) -> int:
    """Write tuples as CSV; returns the number written.

    Args:
        tuples: The trace (materialized; the header needs the field set).
        path: Output file.
        fields: Column order; defaults to the union of all field names,
            sorted. Tuples missing a column write an empty cell.

    Raises:
        ReproError: On a column named like a reserved one.
    """
    items = list(tuples)
    if fields is None:
        names: set[str] = set()
        for item in items:
            names.update(item.keys())
        fields = sorted(names)
    if has_reserved_column(fields):
        raise ReproError(
            f"CSV trace has a field named {TIMESTAMP_COLUMN!r} or "
            f"{STREAM_COLUMN!r}; both are reserved trace columns"
        )
    header = [TIMESTAMP_COLUMN, STREAM_COLUMN, *fields]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for item in items:
            row: list[Any] = [item.timestamp, item.stream]
            row.extend(item.get(field, "") for field in fields)
            writer.writerow(row)
    return len(items)


def _infer(text: str) -> Any:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(
    path: "str | Path",
    field_types: Mapping[str, Callable[[str], Any]] | None = None,
) -> list[StreamTuple]:
    """Read tuples written by :func:`write_csv`.

    Args:
        path: Input file.
        field_types: Optional per-column converters overriding the
            default int→float→string inference (empty cells always read
            as None).

    Raises:
        ReproError: On a missing header or timestamp column.
    """
    converters = dict(field_types or {})
    tuples: list[StreamTuple] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ReproError(f"{path}: empty CSV trace") from None
        if TIMESTAMP_COLUMN not in header:
            raise ReproError(
                f"{path}: header lacks the {TIMESTAMP_COLUMN!r} column"
            )
        ts_index = header.index(TIMESTAMP_COLUMN)
        stream_index = (
            header.index(STREAM_COLUMN) if STREAM_COLUMN in header else None
        )
        for row in reader:
            values: dict[str, Any] = {}
            for index, column in enumerate(header):
                if index in (ts_index, stream_index):
                    continue
                cell = row[index] if index < len(row) else ""
                if column in converters:
                    values[column] = converters[column](cell) if cell else None
                else:
                    values[column] = _infer(cell)
            # Drop columns that were empty for this row entirely? No —
            # None carries "field absent in this reading" faithfully
            # enough, but sparse traces read tighter without them.
            values = {k: v for k, v in values.items() if v is not None}
            stream = row[stream_index] if stream_index is not None else ""
            tuples.append(StreamTuple(float(row[ts_index]), values, stream))
    return tuples


def write_trace_events(
    events: Iterable[Mapping[str, Any]],
    path: "str | Path",
) -> int:
    """Write telemetry trace events as JSON lines; returns the count.

    Events come from a telemetry snapshot's ``"events"`` list (see
    :mod:`repro.streams.telemetry`). Keys are sorted so the output is
    byte-stable for deterministic event streams.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(dict(event), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_trace_events(path: "str | Path") -> list[dict[str, Any]]:
    """Read trace events written by :func:`write_trace_events`.

    Raises:
        ReproError: On malformed lines or events lacking a ``kind``
            field, with the offending line number.
    """
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            if not isinstance(event, dict) or "kind" not in event:
                raise ReproError(
                    f"{path}:{line_number}: trace event lacks a 'kind' field"
                )
            events.append(event)
    return events


def save_recording(
    recording: Mapping[str, Sequence[StreamTuple]],
    directory: "str | Path",
) -> dict[str, Path]:
    """Persist a scenario recording (receptor id → readings) as JSONL.

    Returns:
        Receptor id → written file path (``<id>.jsonl`` in ``directory``).
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for receptor_id, readings in recording.items():
        target = base / f"{receptor_id}.jsonl"
        write_jsonl(readings, target)
        written[receptor_id] = target
    return written


def load_recording(directory: "str | Path") -> dict[str, list[StreamTuple]]:
    """Load a recording saved by :func:`save_recording`."""
    base = Path(directory)
    if not base.is_dir():
        raise ReproError(f"{base} is not a directory")
    recording: dict[str, list[StreamTuple]] = {}
    for path in sorted(base.glob("*.jsonl")):
        recording[path.stem] = read_jsonl(path)
    if not recording:
        raise ReproError(f"no .jsonl traces found in {base}")
    return recording
