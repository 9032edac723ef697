"""Cluster-wide distributed tracing: exact per-hop phase accounting.

The tentpole contract of PR 10: with tracing enabled the router stamps
a trace context beside every routed reading, workers ship hop stamps
back on ``result`` frames, and the router closes one ``cluster.e2e``
span per delivered tuple whose seven per-hop phases — ``router.queue``,
``router.forward``, ``wire.transit``, ``worker.queue``,
``worker.reorder``, ``worker.session``, ``merge.egress`` — sum
*exactly* (integer nanoseconds, shared boundary stamps) to the
end-to-end figure. Three invariants pinned here:

- **Heisenberg-free**: enabling tracing never changes the egress — the
  traced cluster stays byte-identical to the in-memory reference.
- **Exactly-once spans**: every fed frame closes exactly one
  ``cluster.e2e`` span record, under unique ingest ids — including
  across a mid-stream rebalance, where re-run tuples are flagged
  ``replayed`` and the epoch-ownership rule dedupes their commits.
- **Exact phase telescoping**: per-record phase durations sum to
  ``e2e_ns`` with zero slack, and the worker-labeled histogram
  families roll up on the router's collector.

Same harness discipline as ``test_cluster_equivalence.py`` (real
loopback sockets, no wall-clock sleeps); the cluster drivers are
imported from there.
"""

import asyncio

from repro.net.service import build_bundle
from repro.streams.reorder import ReorderBuffer
from repro.streams.telemetry import InMemoryCollector

from tests.test_cluster_equivalence import (
    SEED,
    cluster_run,
    in_memory_output,
)

#: The per-record integer-ns phase fields, in hop order; their sum must
#: equal ``e2e_ns`` exactly for every span record.
PHASE_KEYS = (
    "router_queue_ns",
    "router_forward_ns",
    "wire_transit_ns",
    "worker_queue_ns",
    "worker_reorder_ns",
    "worker_session_ns",
    "merge_egress_ns",
)

#: Histogram families recorded per worker label (``<label>:<name>``).
SPAN_NAMES = (
    "router.queue",
    "router.forward",
    "wire.transit",
    "worker.queue",
    "worker.reorder",
    "worker.session",
    "merge.egress",
    "cluster.e2e",
)

_CACHE = {}


def traced_cluster(name="shelf", duration=8.0, n_workers=2, events=()):
    """One traced cluster run, memoised per configuration.

    Returns ``(output, snapshot, fed_frames)`` where ``fed_frames`` is
    the recording's total data-frame count (= the expected span count).
    """
    key = (name, duration, n_workers, tuple(events))
    if key not in _CACHE:
        collector = InMemoryCollector()

        async def scenario():
            return await cluster_run(
                name,
                n_workers,
                duration,
                telemetry=collector,
                events=list(events),
            )

        output, _router = asyncio.run(scenario())
        bundle = build_bundle(name, duration, SEED)
        fed = sum(len(items) for items in bundle.streams.values())
        _CACHE[key] = (output, collector.snapshot(), fed)
    return _CACHE[key]


def cluster_spans(snapshot):
    return [
        record
        for record in snapshot["span_log"]
        if record.get("kind") == "cluster_span"
    ]


class TestClusterTracing:
    def test_traced_output_stays_byte_identical(self):
        """Tracing must be observationally free: same egress bytes."""
        output, _snapshot, _fed = traced_cluster()
        assert output == in_memory_output("shelf", 8.0)
        assert output  # non-vacuous

    def test_traced_redwood_workers_sweep_on_relayed_promises(
        self, monkeypatch
    ):
        """Source-keyed routing with trace cells live: a feeder row's
        ``low`` is retained with the reading and re-emitted in the
        owning link's block (the ``traces`` list rides beside the rows,
        not inside them), reaches that worker's reorder buffers and
        moves their watermarks — and the egress is still the untraced,
        single-node output."""
        raised = []
        promise = ReorderBuffer.promise

        def counting(buffer, low):
            before = buffer.watermark
            released = promise(buffer, low)
            raised.append(buffer.watermark > before)
            return released

        monkeypatch.setattr(ReorderBuffer, "promise", counting)
        half_day = 0.5 * 86400.0
        output, snapshot, fed = traced_cluster("redwood", half_day)
        sources = len(build_bundle("redwood", half_day, SEED).streams)
        # Redwood is in order: every frame but a mote's last declares.
        assert len(raised) == fed - sources and all(raised)
        assert len(cluster_spans(snapshot)) == fed  # traces were live
        raised.clear()
        untraced, _router = asyncio.run(cluster_run("redwood", 2, half_day))
        assert len(raised) == fed - sources and all(raised)
        assert output == untraced == in_memory_output("redwood", half_day)
        assert output  # non-vacuous

    def test_every_tuple_closes_exactly_one_e2e_span(self):
        _output, snapshot, fed = traced_cluster()
        records = cluster_spans(snapshot)
        assert len(records) == fed
        ids = [record["ingest_id"] for record in records]
        assert len(set(ids)) == len(ids)
        # The histogram rollup agrees with the log.
        e2e_count = sum(
            entry["count"]
            for name, entry in snapshot["spans"].items()
            if name.endswith(":cluster.e2e")
        )
        assert e2e_count == fed

    def test_phase_durations_sum_exactly_to_e2e(self):
        """The exactness contract, hop by hop: integer nanoseconds,
        shared boundary stamps, zero accounting slack."""
        _output, snapshot, _fed = traced_cluster()
        records = cluster_spans(snapshot)
        assert records  # non-vacuous
        for record in records:
            assert sum(record[key] for key in PHASE_KEYS) == (
                record["e2e_ns"]
            ), record

    def test_worker_labeled_span_families_roll_up(self):
        _output, snapshot, _fed = traced_cluster()
        spans = snapshot["spans"]
        for worker in ("w0", "w1"):
            for name in SPAN_NAMES:
                assert f"{worker}:{name}" in spans
        # Same-clock-domain phases are non-negative by construction;
        # cross-domain ones (wire.transit, merge.egress) are too on
        # loopback, where every stamp shares one clock.
        for record in cluster_spans(snapshot):
            for key in PHASE_KEYS:
                assert record[key] >= 0, (key, record)

    def test_no_replays_in_a_quiet_run(self):
        _output, snapshot, _fed = traced_cluster()
        assert not any(
            record["replayed"] for record in cluster_spans(snapshot)
        )

    def test_rebalance_replays_are_flagged_and_deduped(self):
        """A mid-stream leave restarts the epoch and replays history;
        re-run tuples carry ``replayed`` yet still commit exactly one
        span each, and the egress stays byte-identical."""
        output, snapshot, fed = traced_cluster(
            n_workers=2, events=((0.5, "leave", "w1"),)
        )
        assert output == in_memory_output("shelf", 8.0)
        records = cluster_spans(snapshot)
        assert len(records) == fed
        ids = [record["ingest_id"] for record in records]
        assert len(set(ids)) == len(ids)
        replayed = [record for record in records if record["replayed"]]
        assert replayed  # the rebalance actually re-ran tuples
        for record in records:
            assert sum(record[key] for key in PHASE_KEYS) == (
                record["e2e_ns"]
            )


class TestOversizedWorkerSnapshot:
    """An instrumented worker's epoch snapshot grows with run length
    (its event and span logs gain an entry or more per tuple) and on a
    long run no longer fits ``result_end``'s one frame. The worker
    sheds the logs — counted — rather than dying on the encode and
    taking the whole run down with "every worker is lost"."""

    def test_long_instrumented_run_completes_with_logs_dropped(self):
        collector = InMemoryCollector()

        async def scenario():
            return await cluster_run(
                "shelf", 2, 120.0,
                telemetry=collector, instrument_workers=True,
            )

        output, _router = asyncio.run(scenario())
        assert output == in_memory_output("shelf", 120.0)
        snapshot = collector.snapshot()
        dropped = {
            key: value
            for key, value in snapshot["counters"].items()
            if key.endswith(".worker.telemetry_logs_dropped")
        }
        assert dropped and all(value > 0 for value in dropped.values())
        fed = sum(
            len(items)
            for items in build_bundle("shelf", 120.0, SEED).streams.values()
        )
        # Only the worker-side logs went: every worker's operator
        # counters, gateway accounting and span histograms still rolled
        # up, and the router's own per-tuple span log is complete.
        assert snapshot["operators"]
        for worker in ("w0", "w1"):
            assert snapshot["spans"][f"{worker}:ingest.e2e"]["count"] > 0
        assert sum(
            entry["count"]
            for name, entry in snapshot["spans"].items()
            if name.endswith(":ingest.e2e")
        ) == fed
        assert len(cluster_spans(snapshot)) == fed
        for worker in dropped:
            label = worker.split(".", 1)[0]
            assert not any(
                record.get("node") == label
                for record in snapshot["span_log"]
            )
