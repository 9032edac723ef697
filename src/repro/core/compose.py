"""Hierarchical composition: ESP at the edge of a HiFi-style fan-in tree.

The paper positions ESP "at the edge of the HiFi network" (§2.2) and
observes that "when composing many applications, entire pipelines for
processing low-level data can be reused as input to application-level
cleaning" (§7). This module provides that composition: several edge
deployments (each a full :class:`~repro.core.pipeline.ESPProcessor`)
feed a parent level that runs a continuous query over their cleaned
streams.

The parent sees each site's stream under the site's name, so a parent
query over several streams references sites individually, and a query
over one stream reads every site's stream.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.pipeline import ESPProcessor
from repro.cql.planner import CompiledQuery
from repro.errors import PipelineError
from repro.streams.telemetry import TelemetryCollector, resolve_telemetry
from repro.streams.tuples import StreamTuple


class EdgeSite:
    """One edge deployment in a hierarchy.

    Args:
        name: Site name — becomes the stream name of the site's cleaned
            output at the parent level.
        processor: The site's fully-configured ESP processor.
        sources: Optional pre-recorded readings for the site's devices
            (replayed instead of live polling).
    """

    def __init__(
        self,
        name: str,
        processor: ESPProcessor,
        sources: "Mapping[str, Sequence[StreamTuple]] | None" = None,
    ):
        if not name:
            raise PipelineError("edge site needs a non-empty name")
        self.name = name
        self.processor = processor
        self.sources = sources

    def run(
        self,
        until: float,
        tick: float,
        shards: int | None = None,
        backend: str | None = None,
        telemetry: TelemetryCollector | None = None,
    ) -> list[StreamTuple]:
        """Run the site and return its cleaned stream, stamped with the
        site name and annotated with a ``site`` field.

        ``shards``/``backend`` select the site's execution mode (see
        :mod:`repro.streams.shard`); unset values fall back to the
        process-wide defaults, as does ``telemetry`` (see
        :mod:`repro.streams.telemetry`).
        """
        run = self.processor.run(
            until=until,
            tick=tick,
            sources=self.sources,
            shards=shards,
            backend=backend,
            telemetry=telemetry,
        )
        return [
            item.derive(values={"site": self.name}, stream=self.name)
            for item in run.output
        ]

    def __repr__(self):
        return f"EdgeSite({self.name!r})"


def hierarchical_run(
    sites: Sequence[EdgeSite],
    parent: CompiledQuery,
    until: float,
    tick: float,
    parent_tick: float | None = None,
    shards: int | None = None,
    backend: str | None = None,
    telemetry: TelemetryCollector | None = None,
) -> list[StreamTuple]:
    """Run edge sites, then the parent query over their streams.

    Args:
        sites: The edge deployments.
        parent: A compiled query, evaluated with
            :meth:`~repro.cql.planner.CompiledQuery.run` over one stream
            per site, named by the site.
        until: Simulation horizon for the edges.
        tick: Edge punctuation period.
        parent_tick: Parent punctuation period; defaults to ``tick``.
            A coarser parent tick models the reduced rates higher levels
            of a fan-in hierarchy operate at.
        shards: Per-site shard count (see :mod:`repro.streams.shard`);
            each edge site shards its own deployment independently.
        backend: Per-site shard backend.
        telemetry: Shared collector for every site's run (see
            :mod:`repro.streams.telemetry`); a ``site_run`` trace event
            marks each site's contribution. Defaults to the
            process-wide default collector.

    Returns:
        The parent's output stream.
    """
    if not sites:
        raise PipelineError("hierarchy needs at least one edge site")
    names = [site.name for site in sites]
    if len(set(names)) != len(names):
        raise PipelineError(f"duplicate site names: {names}")
    collector = resolve_telemetry(telemetry)
    streams: dict[str, list[StreamTuple]] = {}
    for site in sites:
        cleaned = site.run(
            until, tick, shards=shards, backend=backend, telemetry=collector
        )
        if collector.enabled:
            collector.event("site_run", site=site.name, tuples=len(cleaned))
        streams[site.name] = cleaned
    step = parent_tick if parent_tick is not None else tick
    if step <= 0:
        raise PipelineError(f"parent tick must be positive, got {step}")
    ticks = int(round(until / step))
    return parent.run(streams, [index * step for index in range(ticks + 1)])
