"""The live ops plane: ``/metrics``, health probes and the top view.

A running ``repro serve`` used to be a black box — telemetry existed in
process but nothing could ask for it. :class:`OpsServer` is the answer:
a dependency-free asyncio HTTP listener (off by default, enabled with
``--ops-port``) that renders the gateway's collector snapshot on demand:

- ``GET /metrics`` — Prometheus text exposition (format 0.0.4) built
  from the collector snapshot: operator counters and latency histograms
  (bucket ``le`` edges are exactly
  :data:`~repro.streams.telemetry.LATENCY_BUCKETS_NS`), source gauges,
  raw counters (including the ``gateway.*`` ingress accounting) and the
  ingest span histograms. Behind a cluster router the span families
  carry a ``worker`` label (rolled up through ``absorb(node=...)``
  name prefixes) and the router's recovery counters render as
  ``repro_recovery_*_total`` families.
- ``GET /healthz`` — liveness: the process is up and serving.
- ``GET /readyz`` — readiness via
  :meth:`~repro.net.gateway.IngestGateway.readiness`: 200 once the
  session is started, sources are live and no ingress queue sits at its
  bound; 503 with the reasons otherwise.
- ``GET /snapshot`` — the full JSON document (collector snapshot with
  the bulky event/span logs summarised to counts, gateway ``stats()``,
  readiness) that ``repro top`` polls.

The HTTP dialect is deliberately minimal — ``GET`` only, one request
per connection, ``Connection: close`` — because the clients are probes,
scrapers and ``repro top``, not browsers. No third-party dependency is
involved anywhere on this path.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, AsyncIterator, Callable, Mapping

from repro.errors import NetError
from repro.streams.telemetry import (
    LATENCY_BUCKETS_NS,
    Histogram,
    resolve_telemetry,
)

__all__ = [
    "OpsServer",
    "format_top",
    "render_prometheus",
    "snapshot_document",
]


# -- Prometheus text exposition ------------------------------------------------


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _counter_key_to_labels(key: str) -> str:
    """Render a dotted counter key as a ``key="..."`` label pair."""
    return f'key="{_escape_label(key)}"'


#: Router recovery counters surfaced as ``repro_recovery_*_total``
#: families, with their HELP text. Every key renders on every scrape
#: (zeros included) so absence-of-recovery is observable, not ambiguous.
RECOVERY_COUNTERS = (
    ("checkpoints_acked", "Worker checkpoint acks recorded by the router."),
    ("checkpoints_rejected",
     "Checkpoints refused by workers (state blob over budget)."),
    ("resumes", "Workers resumed from their last acked checkpoint."),
    ("restarts", "Worker processes respawned by the supervisor."),
    ("failovers", "Epoch restarts rebalanced onto the surviving workers."),
    ("replayed_frames", "Data frames replayed to recovered workers."),
    ("forwards_skipped_dead",
     "Forwards skipped because the target link was already dead."),
)


def _span_labels(name: str) -> str:
    """Label pairs for one span family name.

    Cluster rollups prefix worker-origin span names as
    ``<worker>:<span>`` (see ``InMemoryCollector.absorb``); the prefix
    becomes a ``worker`` label so dashboards can aggregate a span
    across workers or drill into one.
    """
    worker, sep, span = name.partition(":")
    if sep:
        return (
            f'span="{_escape_label(span)}",worker="{_escape_label(worker)}"'
        )
    return f'span="{_escape_label(name)}"'


def _render_histogram(
    lines: list[str],
    metric: str,
    labels: str,
    counts: "list[int]",
    total_sum_ns: int,
) -> None:
    """Append cumulative ``_bucket``/``_sum``/``_count`` sample lines.

    The ``le`` edges are the raw integer nanosecond edges from
    :data:`LATENCY_BUCKETS_NS` — pinned by a golden test, because a
    drifted edge silently corrupts every recorded dashboard.
    """
    sep = "," if labels else ""
    cumulative = 0
    for edge, count in zip(LATENCY_BUCKETS_NS, counts):
        cumulative += count
        lines.append(
            f'{metric}_bucket{{{labels}{sep}le="{edge}"}} {cumulative}'
        )
    cumulative += counts[len(LATENCY_BUCKETS_NS)]
    lines.append(f'{metric}_bucket{{{labels}{sep}le="+Inf"}} {cumulative}')
    lines.append(f"{metric}_sum{{{labels}}} {total_sum_ns}")
    lines.append(f"{metric}_count{{{labels}}} {cumulative}")


def render_prometheus(
    snapshot: Mapping[str, Any],
    recovery: "Mapping[str, int] | None" = None,
) -> str:
    """Render a collector snapshot as Prometheus text exposition.

    Operator latency histograms use ``busy_ns`` as the ``_sum`` — exact,
    because every ``record_batch``/``record_punctuation`` call adds the
    identical elapsed value to both the histogram and the busy counter.
    Ends with a trailing newline as the exposition format requires.

    Args:
        snapshot: A collector snapshot.
        recovery: The router's recovery counter mapping (from
            ``ClusterRouter.stats()["recovery"]``); when given, every
            :data:`RECOVERY_COUNTERS` key renders as its own
            ``repro_recovery_<key>_total`` family.
    """
    lines: list[str] = []

    operators = snapshot.get("operators", {})
    if operators:
        for field, help_text in (
            ("tuples_in", "Tuples drained into the operator."),
            ("tuples_out", "Tuples the operator emitted."),
            ("batches", "on_batch invocations."),
            ("punctuations", "on_time invocations."),
            ("busy_ns", "Wall-clock busy time, nanoseconds."),
        ):
            metric = f"repro_operator_{field}_total"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            for name in sorted(operators):
                lines.append(
                    f'{metric}{{operator="{_escape_label(name)}"}} '
                    f"{operators[name][field]}"
                )
        metric = "repro_operator_max_queue_depth"
        lines.append(f"# HELP {metric} High-watermark of the input queue.")
        lines.append(f"# TYPE {metric} gauge")
        for name in sorted(operators):
            lines.append(
                f'{metric}{{operator="{_escape_label(name)}"}} '
                f"{operators[name]['max_queue_depth']}"
            )
        metric = "repro_operator_latency_ns"
        lines.append(
            f"# HELP {metric} Per-call busy latency, nanoseconds."
        )
        lines.append(f"# TYPE {metric} histogram")
        for name in sorted(operators):
            entry = operators[name]
            _render_histogram(
                lines,
                metric,
                f'operator="{_escape_label(name)}"',
                entry["latency_ns"],
                entry["busy_ns"],
            )

    sources = snapshot.get("sources", {})
    if sources:
        metric = "repro_source_tuples_total"
        lines.append(f"# HELP {metric} Tuples ingested per source.")
        lines.append(f"# TYPE {metric} counter")
        for name in sorted(sources):
            lines.append(
                f'{metric}{{source="{_escape_label(name)}"}} '
                f"{sources[name]['tuples']}"
            )
        metric = "repro_source_max_watermark_lag_seconds"
        lines.append(
            f"# HELP {metric} High-watermark of watermark lag, "
            f"simulation seconds."
        )
        lines.append(f"# TYPE {metric} gauge")
        for name in sorted(sources):
            lines.append(
                f'{metric}{{source="{_escape_label(name)}"}} '
                f"{sources[name]['max_watermark_lag']}"
            )

    counters = snapshot.get("counters", {})
    if counters:
        metric = "repro_counter_total"
        lines.append(
            f"# HELP {metric} Named event counters "
            f"(gateway.*, feeder.*, ticks, runs)."
        )
        lines.append(f"# TYPE {metric} counter")
        for key in sorted(counters):
            lines.append(
                f"{metric}{{{_counter_key_to_labels(key)}}} {counters[key]}"
            )

    spans = snapshot.get("spans", {})
    if spans:
        metric = "repro_span_latency_ns"
        lines.append(
            f"# HELP {metric} Ingest span durations, nanoseconds."
        )
        lines.append(f"# TYPE {metric} histogram")
        for name in sorted(spans):
            entry = spans[name]
            _render_histogram(
                lines,
                metric,
                _span_labels(name),
                entry["latency_ns"],
                entry["total_ns"],
            )

    if recovery is not None:
        for key, help_text in RECOVERY_COUNTERS:
            metric = f"repro_recovery_{key}_total"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {int(recovery.get(key, 0))}")

    return "\n".join(lines) + "\n" if lines else "\n"


# -- the /snapshot document ----------------------------------------------------


def snapshot_document(
    snapshot: Mapping[str, Any],
    gateway_stats: "Mapping[str, Any] | None" = None,
    readiness: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """The JSON document behind ``GET /snapshot``.

    The collector's event and span logs can grow without bound over a
    long serve, so the ops plane ships only their *counts*; the full
    logs stay exportable through ``--trace-out``/``--span-out``.
    """
    telemetry = {
        "operators": snapshot.get("operators", {}),
        "sources": snapshot.get("sources", {}),
        "counters": snapshot.get("counters", {}),
        "spans": snapshot.get("spans", {}),
        "events_total": len(snapshot.get("events", [])),
        "span_log_total": len(snapshot.get("span_log", [])),
    }
    return {
        "telemetry": telemetry,
        "gateway": dict(gateway_stats) if gateway_stats else None,
        "readiness": dict(readiness) if readiness else None,
    }


# -- the HTTP listener ---------------------------------------------------------

_MAX_REQUEST_LINE = 4096


class OpsServer:
    """Serve the ops endpoints for one gateway.

    Args:
        gateway: The :class:`~repro.net.gateway.IngestGateway` whose
            ``stats()``/``readiness()`` back ``/snapshot`` and
            ``/readyz``.
        telemetry: Collector whose ``snapshot()`` backs ``/metrics``;
            defaults to the process-wide default. A no-op default
            renders empty (but valid) exposition output.
    """

    def __init__(self, gateway: Any, telemetry: Any = None):
        self._gateway = gateway
        self._collector = resolve_telemetry(telemetry)
        self._server: "asyncio.base_events.Server | None" = None

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise NetError("ops server already started")
        self._server = await asyncio.start_server(self._handle, host, port)
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        return bound_host, bound_port

    async def close(self) -> None:
        """Stop accepting; idempotent."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # -- request handling ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            if not request or len(request) > _MAX_REQUEST_LINE:
                return
            parts = request.decode("ascii", "replace").split()
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1].split("?", 1)[0]
            while True:  # drain headers; the probes never send a body
                line = await reader.readline()
                if line in (b"", b"\r\n", b"\n"):
                    break
            if method != "GET":
                await self._respond(
                    writer, 405, "text/plain", "method not allowed\n"
                )
                return
            status, content_type, body = self._route(path)
            await self._respond(writer, status, content_type, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    def _route(self, path: str) -> tuple[int, str, str]:
        if path == "/healthz":
            return 200, "text/plain; charset=utf-8", "ok\n"
        if path == "/readyz":
            verdict = self._gateway.readiness()
            status = 200 if verdict["ready"] else 503
            return (
                status,
                "application/json",
                json.dumps(verdict, sort_keys=True) + "\n",
            )
        if path == "/metrics":
            recovery = self._gateway.stats().get("recovery")
            body = render_prometheus(self._snapshot(), recovery=recovery)
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/snapshot":
            document = snapshot_document(
                self._snapshot(),
                self._gateway.stats(),
                self._gateway.readiness(),
            )
            return (
                200,
                "application/json",
                json.dumps(document, sort_keys=True) + "\n",
            )
        return 404, "text/plain; charset=utf-8", f"no route {path}\n"

    def _snapshot(self) -> dict[str, Any]:
        snapshot = getattr(self._collector, "snapshot", None)
        if snapshot is None:
            from repro.streams.telemetry import empty_snapshot

            return empty_snapshot()
        return snapshot()

    _REASONS = {
        200: "OK", 404: "Not Found", 405: "Method Not Allowed",
        503: "Service Unavailable",
    }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()


@contextlib.asynccontextmanager
async def ops_plane(
    target: Any,
    host: str,
    port: "int | None",
    telemetry: Any = None,
    ready: "Callable[[str, int], None] | None" = None,
) -> AsyncIterator["str | None"]:
    """Serve the ops plane beside ``target`` for the body's duration.

    How every ``serve_*`` entry point honours its ``ops_port`` /
    ``ops_ready`` arguments: with ``port`` set, an :class:`OpsServer`
    for ``target`` is bound on ``host`` (0 picks an ephemeral port),
    ``ready`` is told the bound address, and the listener closes when
    the block exits. Yields the bound ``"host:port"``, or ``None``
    (and serves nothing) when ``port`` is ``None``.
    """
    if port is None:
        yield None
        return
    server = OpsServer(target, telemetry=telemetry)
    bound_host, bound_port = await server.start(host, port)
    try:
        if ready is not None:
            ready(bound_host, bound_port)
        yield f"{bound_host}:{bound_port}"
    finally:
        await server.close()


# -- the `repro top` view ------------------------------------------------------


def _percentiles_us(counts: "list[int]") -> tuple[float, float]:
    histogram = Histogram(LATENCY_BUCKETS_NS, counts)
    return (
        histogram.percentile(0.50) / 1e3,
        histogram.percentile(0.95) / 1e3,
    )


def _fmt_us(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:.0f}"


def format_top(
    document: Mapping[str, Any],
    previous: "Mapping[str, Any] | None" = None,
    interval: "float | None" = None,
) -> str:
    """Render one ``repro top`` frame from a ``/snapshot`` document.

    Args:
        document: The current ``/snapshot`` JSON.
        previous: The prior poll's document; with ``interval`` it turns
            monotone counters into rates (tuples/s). Without it the
            rate columns show ``-``.
        interval: Seconds between the two polls.
    """
    telemetry = document.get("telemetry", {})
    gateway = document.get("gateway") or {}
    readiness = document.get("readiness") or {}
    prev_ops = (previous or {}).get("telemetry", {}).get("operators", {})
    rate_known = previous is not None and interval and interval > 0

    lines: list[str] = []
    status = "ready" if readiness.get("ready") else "not ready"
    reasons = "; ".join(readiness.get("reasons", []))
    lines.append(f"status: {status}" + (f" ({reasons})" if reasons else ""))

    operators = telemetry.get("operators", {})
    if operators:
        lines.append("")
        lines.append(
            f"{'operator':<24} {'tuples/s':>9} {'in':>9} {'out':>9} "
            f"{'p50_us':>8} {'p95_us':>8} {'maxq':>5}"
        )
        for name in sorted(operators):
            entry = operators[name]
            rate = "-"
            if rate_known:
                before = prev_ops.get(name, {}).get("tuples_in", 0)
                rate = f"{(entry['tuples_in'] - before) / interval:.0f}"
            p50, p95 = _percentiles_us(entry["latency_ns"])
            lines.append(
                f"{name:<24} {rate:>9} {entry['tuples_in']:>9} "
                f"{entry['tuples_out']:>9} {_fmt_us(p50):>8} "
                f"{_fmt_us(p95):>8} {entry['max_queue_depth']:>5}"
            )

    spans = telemetry.get("spans", {})
    if spans:
        lines.append("")
        lines.append(
            f"{'span':<24} {'count':>9} {'p50_us':>8} {'p95_us':>8}"
        )
        for name in sorted(spans):
            entry = spans[name]
            p50, p95 = _percentiles_us(entry["latency_ns"])
            lines.append(
                f"{name:<24} {entry['count']:>9} {_fmt_us(p50):>8} "
                f"{_fmt_us(p95):>8}"
            )

    worker_stats = gateway.get("workers", {})
    if worker_stats:
        lines.append("")
        epoch = gateway.get("epoch")
        if epoch is not None:
            lines.append(
                f"cluster: epoch {epoch}, "
                f"{gateway.get('data_frames', 0)} readings routed on "
                f"{gateway.get('shard_key', '?')!r}"
            )
        lines.append(
            f"{'worker':<12} {'address':<22} {'sources':>8} {'acked':>6} "
            f"{'e2e_p50_us':>10} {'e2e_p95_us':>10} {'status':<10}"
        )
        for name in sorted(worker_stats):
            entry = worker_stats[name]
            # Cluster tracing records the tuple-level end-to-end span
            # under the worker-prefixed family name.
            e2e = spans.get(f"{name}:cluster.e2e")
            if e2e and e2e.get("count"):
                p50, p95 = _percentiles_us(e2e["latency_ns"])
                p50_cell, p95_cell = _fmt_us(p50), _fmt_us(p95)
            else:
                p50_cell = p95_cell = "-"
            lines.append(
                f"{name:<12} {entry['address']:<22} "
                f"{entry['sources']:>8} {entry['acked']:>6} "
                f"{p50_cell:>10} {p95_cell:>10} "
                f"{entry.get('status', 'alive'):<10}"
            )

    recovery = gateway.get("recovery") or {}
    if recovery:
        lines.append("")
        lines.append(
            "recovery: "
            + "  ".join(
                f"{key}={recovery[key]}" for key in sorted(recovery)
            )
        )

    source_stats = gateway.get("sources", {})
    if source_stats:
        lines.append("")
        lines.append(
            f"{'source':<12} {'offered':>8} {'deliv':>8} {'drop':>6} "
            f"{'late':>6} {'blocked':>8} {'depth':>6} {'lag_s':>8}"
        )
        lags = telemetry.get("sources", {})
        for name in sorted(source_stats):
            entry = source_stats[name]
            lag = lags.get(f"gateway:{name}", {}).get(
                "max_watermark_lag", 0.0
            )
            lines.append(
                f"{name:<12} {entry['offered']:>8} {entry['delivered']:>8} "
                f"{entry['dropped_overload']:>6} {entry['dropped_late']:>6} "
                f"{entry['blocked']:>8} {entry['depth']:>6} {lag:>8.3f}"
            )

    return "\n".join(lines) + "\n"
