"""Scenario plumbing behind ``repro serve`` and ``repro feed``.

Both CLI subcommands (and the loopback tests) need the same bundle: a
scenario's processor wired for streaming, its recorded traces for the
feeder, and the time bounds the session runs over. This module owns
that registry so the server and the client of one scenario can be
constructed independently — in separate processes — from nothing but
the scenario name and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NetError
from repro.net.feeder import ReplayFeeder
from repro.net.gateway import IngestGateway
from repro.net.ops import ops_plane
from repro.streams.telemetry import TelemetryCollector
from repro.streams.tuples import StreamTuple


@dataclass
class ScenarioBundle:
    """Everything needed to serve or feed one scenario.

    ``shard_key`` names the partitioning field the sharded batch engine
    uses for this scenario — the unit a distributing tier (the cluster
    router) must keep on one worker so stateful stages see their whole
    key group. It matches the scenario's differential shard tests.
    """

    name: str
    processor: Any
    streams: "dict[str, list[StreamTuple]]"
    until: float
    tick: "float | None"
    shard_key: str = "tag_id"


def _shelf(duration: "float | None", seed: "int | None") -> ScenarioBundle:
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.scenarios.shelf import ShelfScenario

    scenario = ShelfScenario(
        duration=60.0 if duration is None else duration,
        seed=3 if seed is None else seed,
    )
    processor = build_shelf_processor(scenario, "smooth+arbitrate")
    return ScenarioBundle(
        "shelf",
        processor,
        scenario.recorded_streams(),
        scenario.duration,
        scenario.poll_period,
        shard_key="tag_id",
    )


def _shelf_chain(
    duration: "float | None", seed: "int | None"
) -> ScenarioBundle:
    # The compute-heavy shelf variant for scale-out benchmarks: the same
    # recording and the same cleaned output (the ghost filter is
    # idempotent), but with a deep Point chain so per-tuple pipeline
    # cost dominates per-tuple routing cost.
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.scenarios.shelf import ShelfScenario

    scenario = ShelfScenario(
        duration=60.0 if duration is None else duration,
        seed=3 if seed is None else seed,
    )
    processor = build_shelf_processor(
        scenario, "smooth+arbitrate", point_chain=128
    )
    return ScenarioBundle(
        "shelf_chain",
        processor,
        scenario.recorded_streams(),
        scenario.duration,
        scenario.poll_period,
        shard_key="tag_id",
    )


def _redwood(duration: "float | None", seed: "int | None") -> ScenarioBundle:
    from repro.pipelines.sensornet import build_redwood_processor
    from repro.scenarios.redwood import RedwoodScenario

    scenario = RedwoodScenario(
        duration=0.05 * 86400.0 if duration is None else duration,
        n_groups=2,
        seed=3 if seed is None else seed,
    )
    processor = build_redwood_processor(scenario)
    return ScenarioBundle(
        "redwood",
        processor,
        scenario.recorded_streams(),
        scenario.duration,
        None,  # defaults to the smallest device sample period
        shard_key="spatial_granule",
    )


#: Scenario name → bundle builder. Small-by-default sizings so a
#: loopback serve/feed pair completes in seconds; pass ``duration`` for
#: the paper-scale runs.
SCENARIOS: "dict[str, Callable[[float | None, int | None], ScenarioBundle]]" = {
    "shelf": _shelf,
    "shelf_chain": _shelf_chain,
    "redwood": _redwood,
}


def build_bundle(
    name: str,
    duration: "float | None" = None,
    seed: "int | None" = None,
) -> ScenarioBundle:
    """Construct the named scenario's serve/feed bundle.

    Raises:
        NetError: For an unknown scenario name.
    """
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise NetError(
            f"unknown scenario {name!r}; expected one of "
            f"{sorted(SCENARIOS)}"
        ) from None
    return builder(duration, seed)


async def serve_scenario(
    name: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slack: float = 1.5,
    policy: str = "block",
    queue_bound: int = 64,
    duration: "float | None" = None,
    seed: "int | None" = None,
    liveness_timeout: "float | None" = None,
    liveness_interval: "float | None" = None,
    telemetry: "TelemetryCollector | None" = None,
    ready: "Callable[[str, int], None] | None" = None,
    ops_port: "int | None" = None,
    ops_ready: "Callable[[str, int], None] | None" = None,
) -> dict[str, Any]:
    """Serve one scenario run end to end; returns the summary.

    Opens the streaming session, binds the gateway, waits until every
    expected source finished (clean bye or eviction), and closes.

    Args:
        ready: Called with the bound ``(host, port)`` once the gateway
            is accepting — how a caller learns an ephemeral port.
        ops_port: When set, also bind an :class:`~repro.net.ops.OpsServer`
            on this port (0 picks an ephemeral one) serving
            ``/metrics``, ``/healthz``, ``/readyz`` and ``/snapshot``
            for the gateway; closed with the gateway.
        ops_ready: Like ``ready``, for the ops listener's bound address.
    """
    bundle = build_bundle(name, duration, seed)
    session = bundle.processor.open_session(
        until=bundle.until, tick=bundle.tick, telemetry=telemetry
    )
    gateway = IngestGateway(
        session,
        slack=slack,
        policy=policy,
        queue_bound=queue_bound,
        telemetry=telemetry,
        liveness_timeout=liveness_timeout,
        liveness_interval=liveness_interval,
    )
    async with ops_plane(
        gateway, host, ops_port, telemetry, ops_ready
    ) as ops_address:
        bound_host, bound_port = await gateway.start(host, port)
        if ready is not None:
            ready(bound_host, bound_port)
        await gateway.run_until_drained()
        run = await gateway.close()
    return {
        "scenario": name,
        "address": f"{bound_host}:{bound_port}",
        "ops_address": ops_address,
        "output_tuples": len(run.output),
        "gateway": gateway.stats(),
    }


async def feed_scenario(
    name: str,
    host: str,
    port: int,
    *,
    duration: "float | None" = None,
    seed: "int | None" = None,
    mean_delay: float = 0.0,
    max_delay: "float | None" = None,
    loss_yield: "float | None" = None,
    burst: float = 8.0,
    rate: "float | None" = None,
    delay_seed: int = 0,
    telemetry: "TelemetryCollector | None" = None,
) -> dict[str, Any]:
    """Replay one scenario's recording into a running gateway.

    Args:
        mean_delay: Mean network delay, simulation seconds; ``0``
            disables the delay model entirely.
        max_delay: Delay cap; defaults to ``4 * mean_delay``. Keep it
            at or below the server's reorder slack for zero late drops.
        loss_yield: Long-run delivery fraction for the bursty loss
            channel; ``None`` delivers everything.
        burst: Mean bad-state sojourn of the loss channel, in readings.
        rate: Replay speed multiplier; ``None`` replays full-tilt.
        delay_seed: RNG seed for the delay and loss models.
    """
    bundle = build_bundle(name, duration, seed)
    delay_model = None
    if mean_delay > 0:
        from repro.receptors.network import DelayModel

        delay_model = DelayModel(
            mean_delay,
            4.0 * mean_delay if max_delay is None else max_delay,
            rng=delay_seed,
        )
    channel = None
    if loss_yield is not None:
        from repro.receptors.network import GilbertElliottChannel

        channel = GilbertElliottChannel.with_target_yield(
            loss_yield, mean_bad_epochs=burst, rng=delay_seed
        )
    feeder = ReplayFeeder(
        host,
        port,
        bundle.streams,
        delay_model=delay_model,
        channel=channel,
        rate=rate,
        telemetry=telemetry,
    )
    report = await feeder.run()
    report["scenario"] = name
    return report
