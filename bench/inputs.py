"""Seeded inputs: recorded streams plus the pipeline that cleans them.

The program under test receives only the generated streams; everything
random is drawn here from ``--seed`` (scenario recording, and the
feeder's delay model in :mod:`bench.tiers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.streams.columnar import AddFields, FieldCompare, SetStream
from repro.streams.fjord import Fjord
from repro.streams.operators import FilterOp, MapOp, UnionOp
from repro.streams.tuples import StreamTuple

from bench.spec import Workload

#: Depth and punctuation period of the stateless Point chain — the
#: shape ``BENCH_columnar.json``'s ``shelf_stateless_chain`` row uses.
CHAIN_STAGES = 12
CHAIN_TICK = 2.0


@dataclass
class Inputs:
    """One workload's generated input and how to clean it.

    Attributes:
        streams: Receptor id → readings in sense-time order.
        n_tuples: Total readings across ``streams``.
        until: End of sensor time.
        tick: Punctuation period (``None``: smallest sample period).
        shard_key: Field the cluster router partitions on.
        processor: Builds a fresh ``ESPProcessor`` (``None`` for the
            hand-wired chain, which :func:`build_chain` builds).
        mode: Execution mode the workload runs in (``None``: the
            process default, ``row``).
    """

    streams: dict[str, list[StreamTuple]]
    n_tuples: int
    until: float
    tick: "float | None"
    shard_key: str
    processor: "Callable[[], Any] | None"
    mode: "str | None" = None


def make_inputs(workload: Workload, seed: int, quick: bool = False) -> Inputs:
    """Record the workload's scenario with ``seed``."""
    duration = workload.quick_duration if quick else workload.duration
    scenario = workload.scenario
    if scenario in ("shelf", "chain"):
        from repro.pipelines.rfid_shelf import build_shelf_processor
        from repro.scenarios.shelf import ShelfScenario

        shelf = ShelfScenario(duration=duration, seed=seed)
        chain = scenario == "chain"
        return _inputs(
            shelf.recorded_streams(),
            shelf.duration,
            CHAIN_TICK if chain else shelf.poll_period,
            "tag_id",
            None if chain else (
                lambda: build_shelf_processor(shelf, "smooth+arbitrate")
            ),
            "fused" if chain else None,
        )
    if scenario == "redwood":
        from repro.pipelines.sensornet import build_redwood_processor
        from repro.scenarios.redwood import RedwoodScenario

        sized = {} if duration is None else {"duration": duration, "n_groups": 2}
        redwood = RedwoodScenario(seed=seed, **sized)
        return _inputs(
            redwood.recorded_streams(), redwood.duration, None,
            "spatial_granule", lambda: build_redwood_processor(redwood),
        )
    if scenario == "home":
        from repro.pipelines.digital_home import build_digital_home_processor
        from repro.scenarios.office import OfficeScenario

        office = OfficeScenario(duration=duration, seed=seed)
        return _inputs(
            office.recorded_streams(), office.duration, 0.5,
            "spatial_granule", lambda: build_digital_home_processor(office),
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def _inputs(streams, until, tick, shard_key, processor, mode=None) -> Inputs:
    return Inputs(
        streams, sum(len(items) for items in streams.values()),
        until, tick, shard_key, processor, mode,
    )


def chain_ticks(inputs: Inputs) -> list[float]:
    """Punctuation times of the chain workload (covers the last reading)."""
    return [i * inputs.tick for i in range(int(inputs.until / inputs.tick) + 2)]


def build_chain(streams: dict[str, list[StreamTuple]]):
    """Union the readers, then ``CHAIN_STAGES`` vectorizable Point stages.

    Nodes are named in the processor's ``kind:position:stage:label``
    scheme so ``stage_rollups`` files them under ``union``/``point``
    like any deployed pipeline. Returns ``(fjord, sink)``.
    """
    fjord = Fjord()
    for name, items in streams.items():
        fjord.add_source(f"src:{name}", items)
    fjord.add_operator(
        "rfid:0:union:kind", UnionOp(),
        inputs=[f"src:{name}" for name in sorted(streams)],
    )
    # Lead with a vectorizable gate so each batch encodes to columns
    # once; every later stage then runs purely columnar.
    previous = "rfid:0:point:gate"
    fjord.add_operator(
        previous, FilterOp(FieldCompare("tag_id", ">=", "")),
        inputs=["rfid:0:union:kind"],
    )
    for i in range(CHAIN_STAGES):
        if i % 3 == 0:
            op = MapOp(AddFields({f"f{i}": float(i), "site": "shelf_lab"}))
        elif i % 3 == 1:
            op = FilterOp(FieldCompare(f"f{i - 1}", ">=", 0.0))
        else:
            op = MapOp(SetStream(f"hop{i}"))
        node = f"rfid:{i + 1}:point:chain"
        fjord.add_operator(node, op, inputs=[previous])
        previous = node
    sink = fjord.add_sink("__output__", inputs=[previous])
    return fjord, sink
