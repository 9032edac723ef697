"""Stream-processing substrate for the ESP reproduction.

This subpackage implements the infrastructure the paper inherits from the
HiFi / TelegraphCQ ecosystem:

- :mod:`repro.streams.tuples` — the timestamped tuple data model.
- :mod:`repro.streams.time` — simulation clock, durations and epochs.
- :mod:`repro.streams.windows` — CQL-style ``Range By`` / ``Rows`` / ``NOW``
  sliding-window machinery.
- :mod:`repro.streams.aggregates` — aggregate functions
  (``count``, ``count distinct``, ``avg``, ``stdev``, ...) and a registry
  for user-defined aggregates.
- :mod:`repro.streams.operators` — relational operators over streams
  (filter, map, windowed group-by, join, union, static-relation join).
- :mod:`repro.streams.columnar` — the columnar ``ColumnBatch`` encoding
  (one schema per batch, parallel columns, lazy tuple materialization)
  the column kernels of filter, map and union consume, plus the
  vectorizable callables that give a filter or a map its column kernel.
- :mod:`repro.streams.typedcols` — numpy-typed storage for homogeneous
  numeric columns (int64/float64, picked at encode time from the cells
  and the column length), with plain lists wherever numpy does not
  import or the cells do not qualify; every result is bit-identical
  either way.
- :mod:`repro.streams.fjord` — a Fjord-style pipelined executor that pushes
  tuples and time punctuations through an operator DAG, picking each
  run's kernel (row or column) from the node, the run length and the
  run's schema.
- :mod:`repro.streams.shard` — a sharded, batch-pipelined execution engine
  running N independent Fjords (serial or processes backend) with
  a deterministic time-axis merge.
- :mod:`repro.streams.telemetry` — zero-dependency runtime instrumentation:
  per-operator metrics, latency/batch-size histograms, queue-depth gauges
  and a structured trace-event log, with shard-aware snapshot merging.
"""

from repro.streams.aggregates import (
    Aggregate,
    AggregateSpec,
    get_aggregate,
    register_aggregate,
)
from repro.streams.columnar import (
    AddFields,
    ColumnBatch,
    FieldCompare,
    SetStream,
)
from repro.streams.fjord import MODES, Fjord
from repro.streams.operators import (
    FilterOp,
    MapOp,
    Operator,
    StaticJoinOp,
    UnionOp,
    WindowedGroupByOp,
)
from repro.streams.reorder import ReorderBuffer, reorder_arrivals
from repro.streams.shard import (
    BACKENDS,
    ShardedRun,
    partition_sources,
    run_sharded,
    set_default_execution,
)
from repro.streams.telemetry import (
    Histogram,
    InMemoryCollector,
    TelemetryCollector,
    empty_snapshot,
    format_table,
    merge_snapshots,
    set_default_telemetry,
)
from repro.streams.time import Duration, SimClock, parse_duration
from repro.streams.typedcols import numpy_available, storage_stats
from repro.streams.traceio import (
    read_jsonl,
    read_trace_events,
    write_jsonl,
    write_trace_events,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import NowWindow, RowWindow, SlidingWindow, WindowSpec

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "AddFields",
    "BACKENDS",
    "ColumnBatch",
    "Duration",
    "FieldCompare",
    "FilterOp",
    "Fjord",
    "Histogram",
    "InMemoryCollector",
    "MODES",
    "MapOp",
    "NowWindow",
    "Operator",
    "ReorderBuffer",
    "RowWindow",
    "SetStream",
    "ShardedRun",
    "SimClock",
    "SlidingWindow",
    "StaticJoinOp",
    "StreamTuple",
    "TelemetryCollector",
    "UnionOp",
    "WindowSpec",
    "WindowedGroupByOp",
    "empty_snapshot",
    "format_table",
    "get_aggregate",
    "merge_snapshots",
    "numpy_available",
    "parse_duration",
    "partition_sources",
    "read_jsonl",
    "read_trace_events",
    "register_aggregate",
    "reorder_arrivals",
    "run_sharded",
    "set_default_execution",
    "set_default_telemetry",
    "storage_stats",
    "write_jsonl",
    "write_trace_events",
]
