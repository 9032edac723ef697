"""ESP pipeline assembly and execution (paper §3.3).

An :class:`ESPPipeline` declares the stage cascade for one receptor kind
(Point → Smooth → Merge → Arbitrate by default; an explicit ``sequence``
overrides the order, which the paper's own Figure 5 ablation needs). An
:class:`ESPProcessor` owns a :class:`~repro.receptors.registry.DeviceRegistry`,
wires every registered device's stream through the matching pipeline in a
Fjord, applies the deployment-wide Virtualize stage, and runs the whole
dataflow on a simulation clock.

The processor performs the plumbing the paper attributes to ESP itself:

- it "initiates data flow from the appropriate receptors" and applies
  stages in a Fjord-style manner (§3.3);
- it annotates every reading with its spatial granule, "corresponding to
  each proximity group" (§4, footnote 2);
- it instantiates stream-scoped stages once per receptor, group-scoped
  stages once per proximity group, kind-scoped stages once per receptor
  technology, and Virtualize once.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.granules import TemporalGranule
from repro.core.stages import Stage, StageContext, StageKind
from repro.cql.planner import CompiledQuery
from repro.errors import PipelineError
from repro.receptors.base import Receptor
from repro.receptors.registry import DeviceRegistry
from repro.streams import shard as shard_engine
from repro.streams.columnar import AddFields
from repro.streams.fjord import Fjord, _check_mode
from repro.streams.operators import MapOp, UnionOp
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple

#: Scope hierarchy, narrowest to widest.
_SCOPE_RANK = {"stream": 0, "group": 1, "kind": 2, "deployment": 3}


class ESPPipeline:
    """The stage cascade cleaning one receptor kind's streams.

    Args:
        receptor_kind: Technology this pipeline cleans (``"rfid"``,
            ``"mote"``, ``"x10"``).
        temporal_granule: The application's temporal granule, made
            available to stage factories via :class:`StageContext`.
        point, smooth, merge, arbitrate: Stage definitions (or ``None`` to
            skip — "not all stages need be implemented", §3.3). Each may
            also be a list of stages, applied in order ("multiple
            operations may be implemented for one stage").
        sequence: Explicit stage order overriding the canonical cascade.
            Used by ablations such as the paper's Arbitrate-before-Smooth
            configuration (Figure 5). Mutually exclusive with the
            per-stage arguments.
    """

    def __init__(
        self,
        receptor_kind: str,
        temporal_granule: TemporalGranule | None = None,
        point: "Stage | Sequence[Stage] | None" = None,
        smooth: "Stage | Sequence[Stage] | None" = None,
        merge: "Stage | Sequence[Stage] | None" = None,
        arbitrate: "Stage | Sequence[Stage] | None" = None,
        sequence: Sequence[Stage] | None = None,
    ):
        self.receptor_kind = receptor_kind
        self.temporal_granule = temporal_granule
        if sequence is not None:
            if any(s is not None for s in (point, smooth, merge, arbitrate)):
                raise PipelineError(
                    "pass either per-stage arguments or an explicit "
                    "sequence, not both"
                )
            self.sequence = list(sequence)
        else:
            self.sequence = []
            for stage_arg, kind in (
                (point, StageKind.POINT),
                (smooth, StageKind.SMOOTH),
                (merge, StageKind.MERGE),
                (arbitrate, StageKind.ARBITRATE),
            ):
                for stage in _as_stage_list(stage_arg):
                    if stage.kind is not kind:
                        raise PipelineError(
                            f"{kind.value} argument got a "
                            f"{stage.kind.value} stage"
                        )
                    self.sequence.append(stage)
        for stage in self.sequence:
            if stage.kind is StageKind.VIRTUALIZE:
                raise PipelineError(
                    "Virtualize is deployment-wide; set it on the "
                    "ESPProcessor, not a per-kind pipeline"
                )

    def __repr__(self):
        stages = " -> ".join(s.name for s in self.sequence) or "<identity>"
        return f"ESPPipeline({self.receptor_kind}: {stages})"


def _as_stage_list(arg: "Stage | Sequence[Stage] | None") -> list[Stage]:
    if arg is None:
        return []
    if isinstance(arg, Stage):
        return [arg]
    return list(arg)


#: Rollup keys for nodes the processor itself wires around the stages.
_PLUMBING_STAGES = {"annot": "ingest", "kindout": "union", "tap": "output"}

#: Presentation order of rollup rows: the network edge, the ESP
#: cascade, then plumbing.
_ROLLUP_ORDER = (
    "gateway", "ingest", "point", "smooth", "merge", "arbitrate",
    "virtualize", "union", "output", "other",
)


def classify_node(name: str) -> str:
    """Map a processor-wired DAG node name to its pipeline-stage label.

    The processor's node-naming scheme encodes the stage kind
    (``{kind}:{position}:{stage}:{label}``, with ``annot:``/``kindout:``
    /``virtualize:``/``tap:`` prefixes for its own plumbing); this is
    the inverse, used to roll per-operator telemetry up to the paper's
    Point/Smooth/Merge/Arbitrate/Virtualize vocabulary. Unknown names
    (hand-wired Fjords) classify as ``"other"``.
    """
    head, _sep, _rest = name.partition(":")
    if head in _PLUMBING_STAGES:
        return _PLUMBING_STAGES[head]
    if head == "gateway":
        # The ingestion gateway's per-source queue gauges (depth under
        # operator name "gateway:<source>") roll up as their own row.
        return "gateway"
    if head == "virtualize":
        return "virtualize"
    if name == "__output__":
        return "output"
    parts = name.split(":")
    if len(parts) >= 3:
        if parts[2] in StageKind._value2member_map_:
            return parts[2]
        if parts[2] == "union":
            # No processor node is named so (its only fan-in node is
            # ``kindout:``), but hand-wired chains name theirs this way,
            # e.g. the benchmark's ``rfid:0:union:kind``.
            return "union"
    return "other"


def stage_rollups(
    snapshot: Mapping[str, Any],
) -> dict[str, dict[str, int]]:
    """Aggregate a telemetry snapshot's per-operator metrics by stage.

    Args:
        snapshot: A collector snapshot (see
            :func:`repro.streams.telemetry.empty_snapshot`) taken from a
            processor run.

    Returns:
        Stage label → summed counters (``tuples_in``, ``tuples_out``,
        ``batches``, ``punctuations``, ``busy_ns``) plus the max queue
        depth across the stage's operators, in pipeline order.
    """
    totals: dict[str, dict[str, int]] = {}
    for name, entry in snapshot.get("operators", {}).items():
        stage = classify_node(name)
        target = totals.setdefault(
            stage,
            {
                "tuples_in": 0,
                "tuples_out": 0,
                "batches": 0,
                "punctuations": 0,
                "busy_ns": 0,
                "max_queue_depth": 0,
            },
        )
        for field in (
            "tuples_in", "tuples_out", "batches", "punctuations", "busy_ns",
        ):
            target[field] += entry[field]
        target["max_queue_depth"] = max(
            target["max_queue_depth"], entry["max_queue_depth"]
        )
    ordered = [stage for stage in _ROLLUP_ORDER if stage in totals]
    ordered += sorted(set(totals) - set(_ROLLUP_ORDER))
    return {stage: totals[stage] for stage in ordered}


class ESPRun:
    """The result of one :meth:`ESPProcessor.run`.

    Attributes:
        output: The deployment's single cleaned output stream, in
            emission order.
        taps: Intermediate streams captured at stage boundaries, keyed
            ``"{receptor_kind}/{tap}"`` where ``tap`` is ``"raw"`` or a
            stage kind value (the stream leaving that kind's last stage).
            Only the taps requested at run time are present.
        stats: Per-node flow counters, name → (tuples in, tuples out).
            For sharded runs the counters are summed across shards, so
            they match the sequential run's counters exactly.
        telemetry: The run's telemetry snapshot (see
            :func:`repro.streams.telemetry.empty_snapshot`), taken from
            the collector after the run; empty when the run was
            uninstrumented. For sharded runs this holds the per-shard
            collectors merged in shard order.
    """

    def __init__(self):
        self.output: list[StreamTuple] = []
        self.taps: dict[str, list[StreamTuple]] = {}
        self.stats: dict[str, tuple[int, int]] = {}
        self.telemetry: dict[str, Any] = {}

    def tap(self, receptor_kind: str, tap_name: str) -> list[StreamTuple]:
        """A captured intermediate stream (empty if not requested)."""
        return self.taps.get(f"{receptor_kind}/{tap_name}", [])

    def stage_rollup(self) -> dict[str, dict[str, int]]:
        """Telemetry rolled up by pipeline stage (see
        :func:`stage_rollups`); empty for uninstrumented runs."""
        return stage_rollups(self.telemetry)

    def __repr__(self):
        return (
            f"ESPRun(output={len(self.output)} tuples, "
            f"taps={sorted(self.taps)})"
        )


class ESPStreamSession:
    """A live ESP run fed incrementally (push mode).

    Opened by :meth:`ESPProcessor.open_session`; the network ingestion
    gateway (:mod:`repro.net`) is the canonical driver. Push raw device
    readings with :meth:`push_run` or :meth:`push` (annotation and the
    stage cascade happen inside the dataflow exactly as in a batch run),
    advance punctuation time with :meth:`advance` as the ingress
    watermark moves, then :meth:`close` to flush the remaining ticks and
    collect the :class:`ESPRun`.

    The output equals a batch :meth:`ESPProcessor.run` over the same
    readings whenever every reading is pushed before its punctuation
    tick is swept — the :class:`~repro.streams.fjord.FjordSession`
    equivalence guarantee, which the gateway upholds by gating
    :meth:`advance` on its reorder buffers' watermark.
    """

    def __init__(
        self,
        fjord_session,
        sink,
        fjord,
        result: ESPRun,
        source_names: Mapping[str, str],
        collector: TelemetryCollector,
    ):
        self._session = fjord_session
        self._sink = sink
        self._fjord = fjord
        self._result = result
        self._source_names = dict(source_names)
        self._collector = collector

    @property
    def receptor_ids(self) -> tuple[str, ...]:
        """The receptor ids this session accepts pushes for."""
        return tuple(sorted(self._source_names))

    @property
    def safe_time(self) -> float:
        """Last punctuation time swept (see
        :attr:`repro.streams.fjord.FjordSession.safe_time`)."""
        return self._session.safe_time

    @property
    def ticks(self) -> tuple[float, ...]:
        """The session's full punctuation tick schedule."""
        return self._session.ticks

    def take_emitted(self) -> list[StreamTuple]:
        """Remove and return what the terminal sink holds: everything
        emitted since the last take, the sink left empty.

        For a driver that hands output on as ticks are swept (the
        cluster worker's :class:`repro.net.worker.TickLedger`): the
        sink then never holds output a second time, so
        :meth:`checkpoint` stays bounded by operator state. Taken
        tuples are gone from the run :meth:`close` returns.
        """
        taken = self._sink.results
        self._sink.results = []
        return taken

    def push(
        self,
        receptor_id: str,
        item: StreamTuple,
        trace: Any = None,
    ) -> None:
        """Feed one raw reading from the named receptor.

        Args:
            receptor_id: The receptor the reading came from.
            item: The raw reading.
            trace: Optional span-correlation state
                (:class:`~repro.streams.telemetry.IngestTrace`),
                forwarded to :meth:`FjordSession.push` — how the
                ingestion gateway's wire-to-emit latency decomposition
                reaches the executor.

        Raises:
            PipelineError: For an unknown receptor id.
            OperatorError: On timestamp regressions or pushes behind the
                punctuation cursor (see :meth:`FjordSession.push`).
        """
        self._session.push(self._source(receptor_id), item, trace=trace)

    def push_run(
        self,
        receptor_id: str,
        items: Sequence[StreamTuple],
        traces: Any = None,
    ) -> None:
        """Feed a run of raw readings from the named receptor, in order
        (see :meth:`FjordSession.push_run`: a failing run queues
        nothing). ``traces``, when given, holds one span-correlation
        entry or ``None`` per reading.

        Raises:
            PipelineError: For an unknown receptor id.
            OperatorError: As :meth:`push`, for any reading of the run.
        """
        self._session.push_run(self._source(receptor_id), items, traces)

    def _source(self, receptor_id: str) -> str:
        source = self._source_names.get(receptor_id)
        if source is None:
            raise PipelineError(
                f"unknown receptor {receptor_id!r}; session sources: "
                f"{self.receptor_ids}"
            )
        return source

    def advance(self, watermark: float) -> list[float]:
        """Sweep every pending tick strictly below ``watermark``."""
        return self._session.advance(watermark)

    @property
    def span_sink(self):
        """The Fjord session's cluster span sink (see
        :attr:`FjordSession.span_sink`); settable runtime wiring."""
        return self._session.span_sink

    @span_sink.setter
    def span_sink(self, sink) -> None:
        self._session.span_sink = sink

    def checkpoint(self) -> dict:
        """Snapshot executor state (see :meth:`FjordSession.checkpoint`).

        Everything returned is live references — serialize synchronously,
        before the next :meth:`push` or :meth:`advance`.
        """
        return self._session.checkpoint()

    def restore(self, state: Mapping) -> None:
        """Install a :meth:`checkpoint` snapshot into this fresh session.

        The session must have been opened from the same pipeline
        configuration with the same tick schedule and must not have seen
        any pushes or advances yet (see :meth:`FjordSession.restore`).
        """
        self._session.restore(state)

    def close(self) -> ESPRun:
        """Flush remaining ticks; return the completed run. Idempotent."""
        self._session.close()
        result = self._result
        result.output = self._sink.results
        result.stats = self._fjord.stats()
        if self._collector.enabled and not result.telemetry:
            result.telemetry = self._collector.snapshot()
        return result


class ESPProcessor:
    """Wires receptor streams through ESP pipelines and runs them.

    Args:
        registry: Deployment metadata (devices, groups, granules).

    Example (single-kind deployment)::

        processor = ESPProcessor(registry)
        processor.add_pipeline(ESPPipeline("rfid", granule,
                                           smooth=smooth, arbitrate=arb))
        run = processor.run(until=700.0, tick=0.2, taps=("raw", "smooth"))
    """

    def __init__(self, registry: DeviceRegistry):
        self.registry = registry
        self._pipelines: dict[str, ESPPipeline] = {}
        self._virtualize: list[Stage] = []
        self._kind_stream_names: dict[str, str] = {}

    def add_pipeline(self, pipeline: ESPPipeline) -> "ESPProcessor":
        """Register the pipeline for one receptor kind (chainable)."""
        if pipeline.receptor_kind in self._pipelines:
            raise PipelineError(
                f"a pipeline for {pipeline.receptor_kind!r} already exists"
            )
        self._pipelines[pipeline.receptor_kind] = pipeline
        return self

    def set_virtualize(
        self,
        stage: "Stage | Sequence[Stage]",
        stream_names: Mapping[str, str] | None = None,
    ) -> "ESPProcessor":
        """Set the deployment-wide Virtualize stage(s).

        Args:
            stage: Stage (or list) of kind ``virtualize``.
            stream_names: Optional rename of each receptor kind's cleaned
                output stream before it reaches Virtualize — e.g.
                ``{"mote": "sensors_input", "rfid": "rfid_input"}`` so the
                paper's Query 6 finds the stream names it references.
        """
        stages = _as_stage_list(stage)
        for entry in stages:
            if entry.kind is not StageKind.VIRTUALIZE:
                raise PipelineError(
                    f"set_virtualize got a {entry.kind.value} stage"
                )
        self._virtualize = stages
        self._kind_stream_names = dict(stream_names or {})
        return self

    # -- wiring -----------------------------------------------------------------

    def run(
        self,
        until: float,
        tick: float | None = None,
        start: float = 0.0,
        taps: Sequence[str] = (),
        sources: Mapping[str, Sequence[StreamTuple]] | None = None,
        shards: int | None = None,
        backend: str | None = None,
        shard_key: str = "spatial_granule",
        telemetry: TelemetryCollector | None = None,
        mode: str | None = None,
    ) -> ESPRun:
        """Execute the deployment from ``start`` through ``until``.

        Args:
            until: End of simulation time (inclusive).
            tick: Punctuation period driving window emission; defaults to
                the smallest device sample period.
            start: Simulation start time.
            taps: Intermediate streams to capture: ``"raw"`` and/or stage
                kind values (``"point"``, ``"smooth"``, ...). Taps are
                only available on unsharded runs.
            sources: Optional pre-recorded readings per receptor id,
                replayed instead of polling the devices. Comparing
                pipeline *configurations* (the paper's Figure 5) requires
                every configuration to see the identical raw data, which
                live stochastic devices cannot provide.
            shards: Partition the deployment's streams into this many
                independent sub-pipelines (see
                :mod:`repro.streams.shard`). Defaults to the process-wide
                execution default (1 unless the CLI's ``--shards`` set
                it). Live device streams are recorded once before
                sharding so every shard count sees identical data.
            backend: Shard execution backend (``"serial"`` or
                ``"processes"``); defaults like ``shards``.
            shard_key: Field to partition on. ``"spatial_granule"`` and
                ``"proximity_group"`` partition whole device streams via
                the registry (raw readings are not yet annotated); any
                other name is read off each raw tuple (e.g. ``"tag_id"``
                for Arbitrate pipelines, whose conflict resolution spans
                spatial granules but never tags).
            telemetry: Collector receiving per-operator metrics and
                trace events (see :mod:`repro.streams.telemetry`);
                defaults to the process-wide default (a no-op unless the
                CLI's ``--stats``/``--trace-out`` installed one). The
                snapshot lands on :attr:`ESPRun.telemetry`.
            mode: Deprecated and ignored: there is one execution path
                (see :mod:`repro.streams.fjord`). Still validated
                (``None`` or one of :data:`repro.streams.fjord.MODES`);
                the keyword goes away with ``MODES``.

        Returns:
            An :class:`ESPRun` with the cleaned output, flow stats and
            any taps.
        """
        ticks = self.punctuation_ticks(until, tick, start)
        shards, backend = shard_engine.resolve_execution(shards, backend)
        _check_mode(mode)
        collector = resolve_telemetry(telemetry)
        if shards <= 1 and backend == "serial":
            return self._run_single(
                ticks, until, start, taps, sources, collector
            )
        if taps:
            raise PipelineError(
                "stage taps are not supported on sharded runs; capture "
                "them with shards=1, backend='serial'"
            )
        return self._run_sharded(
            ticks, until, start, sources, shards, backend, shard_key,
            collector,
        )

    def open_session(
        self,
        until: float,
        tick: float | None = None,
        start: float = 0.0,
        telemetry: TelemetryCollector | None = None,
        mode: str | None = None,
    ) -> ESPStreamSession:
        """Open an incremental-push run over ``[start, until]``.

        The deployment dataflow is wired exactly as for a batch
        :meth:`run`, but with empty source feeds: readings are pushed in
        from outside (see :class:`ESPStreamSession`) — the entry point
        the live ingestion gateway (:mod:`repro.net.gateway`) drives.
        Streaming sessions execute unsharded; a sharded network
        deployment runs one gateway+session per process behind a
        partitioning front instead.

        Args:
            until: End of simulation time (inclusive).
            tick: Punctuation period; defaults to the smallest device
                sample period, as in :meth:`run`.
            start: Simulation start time.
            telemetry: Collector for the session's metrics and events;
                defaults like :meth:`run`.
            mode: Deprecated and ignored, as on :meth:`run`.
        """
        ticks = self.punctuation_ticks(until, tick, start)
        devices = self.registry.devices
        _check_mode(mode)
        collector = resolve_telemetry(telemetry)
        result = ESPRun()
        empty: dict[str, list[StreamTuple]] = {
            device.receptor_id: [] for device in devices
        }
        fjord, sink = self._build_dataflow(until, start, set(), result, empty)
        session = fjord.open_session(ticks, telemetry=collector)
        source_names = {
            device.receptor_id: f"src:{device.receptor_id}"
            for device in devices
        }
        return ESPStreamSession(
            session, sink, fjord, result, source_names, collector
        )

    def punctuation_ticks(
        self, until: float, tick: float | None = None, start: float = 0.0
    ) -> list[float]:
        """The punctuation schedule a session over ``[start, until]`` uses.

        Exposed so out-of-process coordinators (the cluster router's
        epoch bookkeeping) can compute the *same* tick indices the
        workers' sessions sweep, including the default-tick rule.

        Args:
            until: End of simulation time (inclusive).
            tick: Punctuation period; defaults to the smallest device
                sample period, as in :meth:`run`.
            start: Simulation start time.
        """
        devices = self.registry.devices
        if not devices:
            raise PipelineError("no devices registered")
        if tick is None:
            tick = min(device.sample_period for device in devices)
        if tick <= 0:
            raise PipelineError(f"tick must be positive, got {tick}")
        count = int(round((until - start) / tick))
        return [start + i * tick for i in range(count + 1)]

    def _run_single(
        self,
        ticks: Sequence[float],
        until: float,
        start: float,
        taps: Sequence[str],
        sources: Mapping[str, Sequence[StreamTuple]] | None,
        collector: TelemetryCollector,
    ) -> ESPRun:
        """The single-threaded reference execution path."""
        result = ESPRun()
        fjord, sink = self._build_dataflow(
            until, start, set(taps), result, sources
        )
        fjord.run(ticks, telemetry=collector)
        result.output = sink.results
        result.stats = fjord.stats()
        if collector.enabled:
            result.telemetry = collector.snapshot()
        return result

    def _run_sharded(
        self,
        ticks: Sequence[float],
        until: float,
        start: float,
        sources: Mapping[str, Sequence[StreamTuple]] | None,
        shards: int,
        backend: str,
        shard_key: str,
        collector: TelemetryCollector,
    ) -> ESPRun:
        """Partition device streams and run one pipeline per shard.

        Every shard wires the full deployment graph but is fed only its
        slice of the key space, so per-key stateful stages see exactly
        the tuples they would see sequentially. Shard outputs are merged
        per tick in shard-key order — byte-identical to the sequential
        run for pipelines whose terminal stage emits key-sorted (all the
        ESP Merge/Arbitrate terminals; see :mod:`repro.streams.shard`,
        whose :func:`~repro.streams.shard.run_sharded` does the
        partition, execution and merge).
        """
        sharded = shard_engine.run_sharded(
            self._record_feeds(until, start, sources),
            lambda slices: self._build_dataflow(
                until, start, set(), ESPRun(), slices
            ),
            ticks,
            key=self.shard_key_fn(shard_key),
            shards=shards,
            backend=backend,
            order_key=lambda item: str(item.get(shard_key)),
            telemetry=collector,
        )
        result = ESPRun()
        result.output = sharded.output
        result.stats = sharded.stats
        if collector.enabled:
            result.telemetry = collector.snapshot()
        return result

    def _record_feeds(
        self,
        until: float,
        start: float,
        sources: Mapping[str, Sequence[StreamTuple]] | None,
    ) -> dict[str, list[StreamTuple]]:
        """Materialize every device's readings once, before sharding."""
        feeds: dict[str, list[StreamTuple]] = {}
        for device in self.registry.devices:
            if sources is not None and device.receptor_id in sources:
                feeds[device.receptor_id] = list(sources[device.receptor_id])
            else:
                feeds[device.receptor_id] = list(
                    device.stream(until, start=start)
                )
        return feeds

    def shard_key_fn(self, shard_key: str):
        """Public shard-key extractor over ``(device id, reading)`` pairs.

        The returned callable maps a raw reading to its partition key —
        the same mapping the sharded batch engine uses, so a network
        partitioning tier (:mod:`repro.net.router`) colocates exactly
        the keys that must share stateful stages. The second argument
        only needs a ``.get(field)`` surface, so both
        :class:`~repro.streams.tuples.StreamTuple` readings and decoded
        wire records work. The callable names the field it stands for
        in a ``shard_key`` attribute, which the sharded engine's
        ``shard_partition`` event records.
        """
        if shard_key in ("spatial_granule", "proximity_group"):
            # Raw readings are not annotated yet; the registry knows each
            # device's group, and a device's whole stream shares one key.
            names: dict[str, str] = {}
            for device in self.registry.devices:
                group = self.registry.group_of(device.receptor_id)
                names[device.receptor_id] = (
                    group.granule.name
                    if shard_key == "spatial_granule"
                    else group.name
                )

            def key_fn(source, item):
                return names[source]
        else:

            def key_fn(source, item):
                return item.get(shard_key)

        # setattr, not assignment: type checkers reject new attributes
        # on a plain function.
        setattr(key_fn, "shard_key", shard_key)
        return key_fn

    def _build_dataflow(
        self,
        until: float,
        start: float,
        tap_set: set,
        result: ESPRun,
        sources: Mapping[str, Sequence[StreamTuple]] | None,
    ):
        """Wire the full deployment into a fresh Fjord; returns (fjord, sink)."""
        devices = self.registry.devices
        fjord = Fjord()
        kind_outputs: list[str] = []
        for receptor_kind in sorted(
            {device.kind.value for device in devices}
        ):
            kind_output = self._wire_kind(
                fjord,
                receptor_kind,
                [d for d in devices if d.kind.value == receptor_kind],
                until,
                start,
                tap_set,
                result,
                sources,
            )
            kind_outputs.append(kind_output)
        final = self._wire_virtualize(fjord, kind_outputs)
        sink = fjord.add_sink("__output__", inputs=final)
        return fjord, sink

    def _wire_kind(
        self,
        fjord: Fjord,
        receptor_kind: str,
        devices: list[Receptor],
        until: float,
        start: float,
        taps: set[str],
        result: ESPRun,
        sources: Mapping[str, Sequence[StreamTuple]] | None = None,
    ) -> str:
        """Wire one receptor kind's devices through its pipeline.

        Returns the name of the node carrying the kind's cleaned stream.
        """
        pipeline = self._pipelines.get(
            receptor_kind, ESPPipeline(receptor_kind)
        )
        granule = pipeline.temporal_granule
        # Sources + spatial-granule annotation; streams keyed by their
        # scope partition's label (receptor id, group or kind).
        streams: dict[str, str] = {}
        for device in devices:
            source_name = f"src:{device.receptor_id}"
            if sources is not None and device.receptor_id in sources:
                feed = list(sources[device.receptor_id])
            else:
                feed = device.stream(until, start=start)
            fjord.add_source(source_name, feed)
            annotate = self._annotator(device)
            node = f"annot:{device.receptor_id}"
            fjord.add_operator(node, MapOp(annotate), inputs=[source_name])
            streams[device.receptor_id] = node
        level = "stream"
        if "raw" in taps:
            self._tap(fjord, result, receptor_kind, "raw", streams.values())
        # One tap per stage kind, on the stream leaving its last stage.
        last = {s.kind.value: i for i, s in enumerate(pipeline.sequence)}
        for position, stage in enumerate(pipeline.sequence):
            streams, level = self._apply_stage(
                fjord,
                receptor_kind,
                pipeline,
                stage,
                position,
                streams,
                level,
            )
            if stage.kind.value in taps and last[stage.kind.value] == position:
                self._tap(
                    fjord, result, receptor_kind, stage.kind.value,
                    streams.values(),
                )
        # Collapse whatever level we ended at into one kind-level stream.
        kind_stream = self._kind_stream_names.get(receptor_kind, receptor_kind)
        union_node = f"kindout:{receptor_kind}"
        fjord.add_operator(
            union_node,
            UnionOp(output_stream=kind_stream),
            inputs=list(streams.values()),
        )
        return union_node

    def _annotator(self, device: Receptor):
        group = self.registry.group_of(device.receptor_id)
        # AddFields has a column kernel: on a long run the two
        # annotation fields become shared constant columns instead of a
        # per-tuple dict copy.
        return AddFields(
            {
                "spatial_granule": group.granule.name,
                "proximity_group": group.name,
            }
        )

    def _apply_stage(
        self,
        fjord: Fjord,
        receptor_kind: str,
        pipeline: ESPPipeline,
        stage: Stage,
        position: int,
        streams: dict[str, str],
        level: str,
    ) -> tuple[dict[str, str], str]:
        """Apply one stage: one instance per scope partition, fed by
        every upstream node of its partition (see :meth:`_widen`)."""
        target = stage.kind.scope
        if target == "deployment":
            raise PipelineError("Virtualize cannot appear in a kind pipeline")
        if _SCOPE_RANK[target] > _SCOPE_RANK[level]:
            partitions = self._widen(receptor_kind, streams, target)
            level = target
        else:
            partitions = {label: [node] for label, node in streams.items()}
        context = StageContext(
            stage.kind,
            temporal_granule=pipeline.temporal_granule,
            receptor_kind=receptor_kind,
        )
        out: dict[str, str] = {}
        for label, inputs in partitions.items():
            op = stage.make(context)
            if isinstance(op, CompiledQuery) and len(op.input_streams) > 1:
                # Labels below Virtualize are receptor ids and whatever
                # the upstream instances emit, so a query that routes
                # its input by stream name would silently drop rows.
                raise PipelineError(
                    f"stage {stage.name!r} of the {receptor_kind!r} pipeline "
                    f"reads streams {op.input_streams}; a query over several "
                    "streams belongs in a Virtualize stage"
                )
            node_name = f"{receptor_kind}:{position}:{stage.kind.value}:{label}"
            fjord.add_operator(node_name, op, inputs=inputs)
            out[label] = node_name
        return out, level

    def _widen(
        self, receptor_kind: str, streams: dict[str, str], target: str
    ) -> dict[str, list[str]]:
        """The upstream node names of each ``target``-scope partition.

        Widening is wiring: a wider-scope instance takes its partition's
        nodes as inputs, and its pending input arrives in the order the
        Fjord sweeps them. Tuples keep their upstream's labels.
        """
        if target == "kind":
            return {receptor_kind: list(streams.values())}
        partitions: dict[str, list[str]] = {}
        for device_id, node in streams.items():
            group = self.registry.group_of(device_id)
            partitions.setdefault(group.name, []).append(node)
        return dict(sorted(partitions.items()))

    def _tap(self, fjord, result, receptor_kind, tap_name, nodes) -> None:
        key = f"{receptor_kind}/{tap_name}"
        sink = fjord.add_sink(f"tap:{key}", inputs=list(nodes))
        result.taps[key] = sink.results

    def _wire_virtualize(
        self, fjord: Fjord, kind_outputs: list[str]
    ) -> list[str]:
        """The nodes feeding the sink: the Virtualize chain's last node,
        else every kind's output (the sink's fan-in merges them)."""
        current = kind_outputs
        for position, stage in enumerate(self._virtualize):
            op = stage.make(StageContext(StageKind.VIRTUALIZE))
            node_name = f"virtualize:{position}"
            fjord.add_operator(node_name, op, inputs=current)
            current = [node_name]
        return current
