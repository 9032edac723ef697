"""Epochs and recovery for the router core: how worker links come and go.

A membership change, a recovery and the final close each run as one
*transition* of :class:`~repro.net.router_core.RouterCore`: a generator
function here that writes what it decides into the core's outboxes and
action list, and yields the condition it waits for (links opened,
drains answered, a restart returned). No I/O, no ``asyncio``.

The handoff (``docs/cluster.md`` §Rebalance has the proof): the core is
frozen, so feeder input waits; the boundary ``B`` is the first tick not
strictly covered by ``W = min over non-final sources of (newest arrival
− slack)``; each link's ``drain`` queues behind its backlog and the
epoch keeps ticks ``[start, B)``; the ring is rebuilt and the whole
retained history, then byes for final sources, queues on the new
epoch's links, which own ticks from ``B`` on. A dead link resumes from
its last acked checkpoint (same address, then a supervisor respawn),
replaying only the readings past the cut, or its span fails over.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, NamedTuple

from repro.errors import NetError
from repro.net import protocol
from repro.net.protocol import Outbox
from repro.net.recovery import WorkerCheckpoint
from repro.net.ring import HashRing
from repro.streams.fjord import sweep_end
from repro.streams.telemetry import TelemetryCollector
from repro.streams.tuples import StreamTuple

if TYPE_CHECKING:
    from repro.net.router_core import RouterCore

#: A transition: yields what it waits for, returns its result.
Transition = Generator[Callable[[], bool], None, Any]


class OpenLink(NamedTuple):  # connect, write, report the first frame
    link: "Link"
    handshake: bytes


class CloseLink(NamedTuple):
    link: "Link"


class RestartWorker(NamedTuple):
    label: str


class RunDone(NamedTuple):  # finished, or (``error``) cannot go on
    error: "Exception | None"


class Link:
    """The core's view of one worker connection for one epoch."""

    __slots__ = (
        "label", "host", "port", "sources", "out", "credits", "acked",
        "per_tick", "span_buckets", "backlog", "positions",
        "since_checkpoint", "pending_checkpoints", "opened", "dead",
        "draining", "recovering", "closed", "end", "error",
    )

    def __init__(
        self, label: str, host: str, port: int, sources: "tuple[str, ...]"
    ):
        self.label = label
        self.host = host
        self.port = port
        self.sources = sources
        self.out = Outbox()
        self.credits: dict[str, int] = {}
        self.acked: set[str] = set()
        self.per_tick: dict[int, list[StreamTuple]] = {}
        #: Tick → hop-span records off ``result_block`` frames, each
        #: with its router-arrival stamp appended (index 11).
        self.span_buckets: dict[int, list[list]] = {}
        #: ``(reading, feeder)`` entries (feeder ``None``: a replay) and
        #: the frames queued behind them, in wire order.
        self.backlog: deque = deque()
        #: Source → readings written on the link, replayed or live; a
        #: ``checkpoint`` frame's snapshot of it is the exact cut.
        self.positions: dict[str, int] = {}
        self.since_checkpoint = 0
        self.pending_checkpoints: dict[int, dict[str, int]] = {}
        self.opened = self.dead = self.closed = False
        #: The epoch is closing: its drain is queued, no recovery.
        self.draining = self.recovering = False
        #: The worker's ``result_end`` frame, once it came.
        self.end: "dict | None" = None
        self.error: "Exception | None" = None


#: The cluster hop phases in path order: ``(span name, span-log field,
#: minuend, subtrahend)`` indexes into the hop record (layout on
#: :func:`repro.net.protocol.encode_result_block`; 11 is the router's
#: ``merge`` stamp). Consecutive phases share their boundary stamps, so
#: the durations sum *exactly* to ``cluster.e2e``.
CLUSTER_PHASES = (
    ("router.queue", "router_queue_ns", 4, 3),
    ("router.forward", "router_forward_ns", 5, 4),
    ("wire.transit", "wire_transit_ns", 6, 5),    # cross clock domain
    ("worker.queue", "worker_queue_ns", 7, 6),
    ("worker.reorder", "worker_reorder_ns", 8, 7),
    ("worker.session", "worker_session_ns", 9, 8),
    ("merge.egress", "merge_egress_ns", 11, 9),   # cross clock domain
)


def commit_spans(
    collector: TelemetryCollector,
    label: str,
    buckets: "dict[int, list[list]]",
    start: int,
    end: int,
) -> None:
    """Close the span set of ``label``'s ticks in ``[start, end)``: a
    span-log entry and eight ``<label>:<name>`` histograms per tuple.
    Flat on purpose: it runs once per delivered tuple."""
    record_span = collector.record_span
    phases = [
        (f"{label}:{name}", field, hi, lo)
        for name, field, hi, lo in CLUSTER_PHASES
    ]
    e2e_name = f"{label}:cluster.e2e"
    for tick in sorted(buckets):
        if not start <= tick < end:
            continue
        for hop in buckets[tick]:
            entry: dict[str, Any] = {
                "kind": "cluster_span", "ingest_id": hop[0],
                "source": hop[1], "sim_ts": hop[2], "tick": tick,
                "worker": label, "replayed": bool(hop[10]),
            }
            for name, field, hi, lo in phases:
                duration = hop[hi] - hop[lo]
                record_span(name, duration)
                entry[field] = duration
            e2e = hop[11] - hop[3]
            record_span(e2e_name, e2e)
            entry["e2e_ns"] = e2e
            collector.span(**entry)


def finish_run(core: RouterCore) -> Transition:
    """Close the epoch over the whole schedule (again, while a worker
    lost in that drain leaves a span to re-run)."""
    while not core.finished:
        yield from failover(core, len(core.ticks))


def epoch_boundary(core: RouterCore) -> int:
    """First tick index the *next* epoch's output will be taken from."""
    open_ = [name for name in core.expected if name not in core.final]
    watermark = float("-inf")
    if all(name in core.max_arrival for name in open_):
        watermark = min(
            (core.max_arrival[name] - core.slack for name in open_),
            default=float("inf"),
        )
    return sweep_end(core.ticks, watermark, core.epoch_start)


def rebalance(
    core: RouterCore,
    add: "dict[str, tuple[str, int]]",
    remove: "set[str]",
) -> Transition:
    if core.finished:
        raise NetError("cluster run already completed")
    membership = {
        link.label: (link.host, link.port) for link in core.links.values()
    }
    membership.update(add)
    for label in remove:
        membership.pop(label, None)
    boundary, lost = yield from close_epoch(core, epoch_boundary(core))
    membership = {  # one that died in the handoff cannot rejoin there
        label: address for label, address in membership.items()
        if label not in lost
    }
    if not membership:
        raise NetError("every worker was lost during the handoff")
    yield from open_epoch(core, membership, boundary)


def recover(core: RouterCore, link: Link) -> Transition:
    """Resume a dead link at its address (the process usually outlives
    a reset), else into a respawn, else fail its span over."""
    if core.links.get(link.label) is not link:
        return  # superseded by a rebalance or failover already
    core._close_link(link)
    replacement = yield from resume(core, link, (link.host, link.port))
    if replacement is None and core._supervised:
        core.detector.mark_restarting(link.label)
        core._bump("restarts")
        address = yield from restart(core, link.label)
        if address is not None:
            replacement = yield from resume(core, link, address)
    if replacement is None:
        yield from failover(core, epoch_boundary(core))


def resume(
    core: RouterCore, dead: Link, address: "tuple[str, int]"
) -> Transition:
    """Reopen ``dead``'s link at ``address`` from its last acked
    checkpoint of this epoch and replay the history past the cut;
    ``None`` when it cannot be opened."""
    entry = core.store.latest(dead.label)
    if entry is not None and entry.epoch != core.epoch:
        entry = None  # stale snapshot from a closed epoch
    link = open_link(
        core, dead.label, address, dead.sources, core.epoch_start, entry,
        resume=True,
    )
    yield lambda: link.opened or link.error is not None
    if not link.opened or link.dead:
        core._close_link(link)
        return None
    core.links[link.label] = link
    core._bump("resumes")
    replay(core, {link.label: link})
    return link


def restart(core: RouterCore, label: str) -> Transition:
    core._actions.append(RestartWorker(label))
    yield lambda: label in core._restarted
    address, error = core._restarted.pop(label)
    if error is not None:
        raise error
    return address


def failover(core: RouterCore, target: int) -> Transition:
    """Close the epoch at (no later than) tick ``target`` and re-run the
    rest on the survivors and respawns — or, when that close covers the
    schedule and every source is final, end the run."""
    membership = {
        label: (link.host, link.port) for label, link in core.links.items()
    }
    boundary, lost = yield from close_epoch(core, target)
    if boundary >= len(core.ticks) and core.final.issuperset(core.expected):
        core.finished = True
        core._actions.append(RunDone(None))
        return
    survivors = {
        label: address for label, address in membership.items()
        if label not in lost
    }
    if core._supervised:
        for label in sorted(set(lost)):
            core.detector.mark_restarting(label)
            core._bump("restarts")
            address = yield from restart(core, label)
            if address is not None:
                survivors[label] = address
    if not survivors:
        raise NetError("every worker is lost and none could be respawned")
    yield from open_epoch(core, survivors, boundary)
    core._bump("failovers")


def close_epoch(core: RouterCore, boundary: int) -> Transition:
    """Drain and settle the epoch at ``boundary``; returns the boundary,
    clamped for a link lost before its ``result_end`` (whose last acked
    checkpoint of the epoch stands in for its results, and live buckets
    are never trusted), and the lost labels. Spans are committed for
    ticks ``[epoch start, boundary)`` only: once per delivered tuple."""
    links = [core.links[label] for label in sorted(core.links)]
    for link in links:
        link.draining = True
        if not link.dead:
            core._enqueue(link, protocol.drain())
    yield lambda: all(link.dead or link.end is not None for link in links)
    results: dict[str, dict[str, Any]] = {}
    span_sources: dict[str, dict[int, list]] = {}
    lost: list[str] = []
    for link in links:
        label = link.label
        if link.end is not None:
            results[label] = {
                "per_tick": link.per_tick,
                "ticks": int(link.end.get("ticks", 0)),
                "stats": link.end.get("stats") or {},
            }
            span_sources[label] = link.span_buckets
            snapshot = link.end.get("telemetry")
            if snapshot and core.collector.enabled:
                core.collector.absorb(snapshot, node=label)
            continue
        lost.append(label)
        entry = core.store.latest(label)
        if entry is not None and entry.epoch == core.epoch:
            per_tick = {t: list(b) for t, b in entry.per_tick.items()}
            results[label] = {
                "per_tick": per_tick, "ticks": entry.ticks, "stats": {},
            }
            span_sources[label] = entry.spans
            boundary = min(boundary, entry.ticks)
        else:
            results[label] = {"per_tick": {}, "ticks": 0, "stats": {}}
            boundary = core.epoch_start
    boundary = min(max(boundary, core.epoch_start), len(core.ticks))
    if core._tracing:
        for label in sorted(span_sources):
            commit_spans(
                core.collector, label, span_sources[label],
                core.epoch_start, boundary,
            )
    core.epochs.append({
        "epoch": core.epoch, "start": core.epoch_start, "end": boundary,
        "results": results,
    })
    for link in links:
        core.detector.unregister(link.label)
        core._close_link(link)
    core.links = {}
    core.epoch_start = boundary
    return boundary, lost


def open_epoch(
    core: RouterCore,
    membership: "dict[str, tuple[str, int]]",
    start_tick: int,
) -> Transition:
    if not membership:
        raise NetError("cluster needs at least one worker")
    core.epoch += 1
    core._ring = ring = HashRing(membership)
    if core._source_level:
        assigned: dict[str, list[str]] = {label: [] for label in membership}
        for name in core.expected:
            assigned[ring.owner(str(core._key_fn(name, None)))].append(name)
    else:
        assigned = {label: list(core.expected) for label in membership}
    links: dict[str, Link] = {}
    for label in sorted(membership):
        sources = tuple(assigned[label])
        # An unchanged source-level assignment is an identical input
        # stream, so the last checkpoint resumes it across epochs.
        entry = None
        if core._source_level and core.checkpoint_interval:
            entry = core.store.latest(label)
            if entry is not None and not (
                entry.epoch == core.epoch - 1
                and tuple(entry.sources) == sources
            ):
                entry = None
        links[label] = open_link(
            core, label, membership[label], sources, start_tick, entry,
            resume=entry is not None,
        )
    yield lambda: all(
        link.opened or link.error is not None for link in links.values()
    )
    for label in sorted(links):
        if not links[label].opened:
            for link in links.values():
                core._close_link(link)
            raise links[label].error  # type: ignore[misc]
    core.links = links
    replay(core, links)
    for link in links.values():
        if link.dead:  # died between its ack and the epoch going live
            core.detector.mark_dead(link.label)
            core._recover_later(link)


def open_link(
    core: RouterCore,
    label: str,
    address: "tuple[str, int]",
    sources: "tuple[str, ...]",
    start_tick: int,
    entry: "WorkerCheckpoint | None",
    *,
    resume: bool,
) -> Link:
    """The one way a link comes to exist: ``worker_hello`` + ``route``
    (+ ``resume`` with ``entry``'s blob, or ``null``), seeded from
    ``entry``; the caller replays past its positions once it opens."""
    link = Link(label, *address, sources)
    link.out.add(protocol.worker_hello(label))
    link.out.add(
        protocol.route(core.epoch, start_tick, sources, resume=resume)
    )
    if entry is not None:
        link.out.add(protocol.resume(
            core.epoch, entry.ticks, entry.state, entry.checkpoint_id
        ))
        link.positions = dict(entry.positions)
        link.per_tick = {t: list(b) for t, b in entry.per_tick.items()}
        link.span_buckets = {t: list(b) for t, b in entry.spans.items()}
    elif resume:
        link.out.add(protocol.resume(core.epoch, 0, None))
    core._actions.append(OpenLink(link, link.out.take()))
    return link


def replay(core: RouterCore, links: "dict[str, Link]") -> None:
    """Queue the retained history, in arrival order, then final
    sources' byes on fresh ``links``, skipping what a seeded link's
    checkpoint holds."""
    live = {label: link for label, link in links.items() if not link.dead}
    skip = {label: dict(link.positions) for label, link in live.items()}
    retained = [frame for frames in core.history.values() for frame in frames]
    retained.sort(key=lambda f: (f.arrival, f.source, f.seq))
    owner = core._ring.owner  # type: ignore[union-attr]
    owners: dict[str, str] = {}
    for frame in retained:
        label = owners.get(frame.key)
        if label is None:
            label = owners[frame.key] = owner(frame.key)
        link = live.get(label)
        if link is None:
            continue
        pending = skip[label]
        if pending.get(frame.source, 0) > 0:
            pending[frame.source] -= 1
            continue
        link.backlog.append((frame, None))
    for name in sorted(core.final):
        for label in sorted(live):
            if name in live[label].sources:
                live[label].backlog.append(protocol.bye(name))
    for link in live.values():
        core._pump(link)
