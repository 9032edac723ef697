"""Dock-door direction inference — the supply-chain scenario of §1.

The paper's motivating application class ("real-time supply chain
management [14]") hinges on a harder question than shelf counts: did a
pallet move INTO the warehouse or OUT of it? A dock door instrumented
with two antennas — one facing inside, one outside — sees every transit
from both sides, unreliably, and raw reads alone are ambiguous.

The ESP recipe, reusing the Section 4 stages unchanged:

- each antenna is a proximity group monitoring its own spatial granule
  (``inside`` / ``outside``);
- Smooth (Query 2 semantics, 1 s granule) interpolates each antenna's
  dropped reads;
- Arbitrate (Query 3 semantics) attributes the tag, per instant, to the
  side reading it the most — yielding a clean side-over-time trace;
- a small arbitrary-code Virtualize stage reads each tag's attribution
  trace and emits one ``received`` / ``shipped`` event per transit.

Run:
    python examples/dock_door.py
"""

import numpy as np

from repro.core.granules import SpatialGranule, TemporalGranule
from repro.core.operators import max_count_arbitrate, presence_smoother
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import Stage, StageKind
from repro.receptors.registry import DeviceRegistry
from repro.receptors.rfid import DetectionField, RFIDReader, TagPlacement
from repro.streams.operators import Operator
from repro.streams.tuples import StreamTuple

TRANSIT_SECONDS = 6.0
GAP_SECONDS = 14.0


class DockDoorWorld:
    """Pallets crossing a dock door in alternating directions."""

    def __init__(self, n_pallets=12, seed=42):
        self.n_pallets = n_pallets
        self.rng = np.random.default_rng(seed)
        # pallet i transits during [start_i, start_i + TRANSIT_SECONDS);
        # even pallets are received (outside->inside), odd are shipped.
        self.starts = [
            5.0 + i * (TRANSIT_SECONDS + GAP_SECONDS)
            for i in range(n_pallets)
        ]
        self.duration = self.starts[-1] + TRANSIT_SECONDS + 10.0

    def direction(self, pallet):
        return "received" if pallet % 2 == 0 else "shipped"

    def position(self, pallet, now):
        """-1 = fully outside, +1 = fully inside, None = not at the door."""
        start = self.starts[pallet]
        if not start <= now < start + TRANSIT_SECONDS:
            return None
        progress = (now - start) / TRANSIT_SECONDS  # 0 -> 1
        signed = 2.0 * progress - 1.0  # -1 -> +1
        return signed if self.direction(pallet) == "received" else -signed

    def distance_to(self, pallet, side):
        """Distance (ft) from the pallet to one side's antenna."""

        def fn(_reader_id, now):
            position = self.position(pallet, now)
            if position is None:
                return float("inf")
            # Antennas sit 4 ft to each side of the door plane.
            antenna = 4.0 if side == "inside" else -4.0
            return abs(antenna - 4.0 * position) + 1.0

        return fn


class DirectionInfer(Operator):
    """Turn per-instant side attributions into transit events.

    Buffers each tag's (time, side) attribution trace; when a tag goes
    silent for ``quiet`` seconds, compares where its trace started and
    ended and emits one event.
    """

    def __init__(self, quiet=3.0):
        self.quiet = quiet
        self._traces = {}
        self._last_seen = {}

    def on_batch(self, items, port=0):
        for item in items:
            tag = item.get("tag_id")
            side = item.get("spatial_granule")
            if tag is None or side is None:
                continue
            self._traces.setdefault(tag, []).append((item.timestamp, side))
            self._last_seen[tag] = item.timestamp
        return []

    def on_time(self, now):
        out = []
        finished = [
            tag
            for tag, last in self._last_seen.items()
            if now - last >= self.quiet
        ]
        for tag in finished:
            trace = self._traces.pop(tag)
            del self._last_seen[tag]
            first_side = trace[0][1]
            last_side = trace[-1][1]
            if first_side == last_side:
                event = "ambiguous"
            elif last_side == "inside":
                event = "received"
            else:
                event = "shipped"
            out.append(
                StreamTuple(
                    now,
                    {"tag_id": tag, "event": event,
                     "observations": len(trace)},
                )
            )
        return out


def main() -> None:
    world = DockDoorWorld()
    registry = DeviceRegistry()
    field = DetectionField(
        [(0.0, 0.9), (2.0, 0.7), (5.0, 0.25), (9.0, 0.02), (12.0, 0.0)]
    )
    for side in ("inside", "outside"):
        group = registry.add_group(
            f"{side}_antenna", SpatialGranule(side), receptor_kind="rfid"
        )
        tags = [
            TagPlacement(f"pallet_{i:02d}", world.distance_to(i, side))
            for i in range(world.n_pallets)
        ]
        reader = RFIDReader(
            f"reader_{side}",
            shelf=side,
            tags=tags,
            field=field,
            sample_period=0.2,
            rng=np.random.default_rng(1 if side == "inside" else 2),
        )
        registry.assign(reader, group.name)

    pipeline = ESPPipeline(
        "rfid",
        temporal_granule=TemporalGranule("1 sec"),
        smooth=presence_smoother(),
        arbitrate=max_count_arbitrate(tie_break="all"),
    )
    processor = ESPProcessor(registry).add_pipeline(pipeline)
    processor.set_virtualize(
        Stage(StageKind.VIRTUALIZE, lambda ctx: DirectionInfer(),
              name="direction_infer")
    )
    run = processor.run(until=world.duration, tick=0.2)

    events = {t["tag_id"]: t["event"] for t in run.output}
    correct = sum(
        1
        for i in range(world.n_pallets)
        if events.get(f"pallet_{i:02d}") == world.direction(i)
    )
    print(f"{world.n_pallets} pallets crossed the dock door:")
    for i in range(world.n_pallets):
        tag = f"pallet_{i:02d}"
        truth = world.direction(i)
        inferred = events.get(tag, "missed")
        marker = "ok" if inferred == truth else "XX"
        print(f"  {tag}: truth={truth:9s} inferred={inferred:9s} [{marker}]")
    print(f"\ndirection accuracy: {correct}/{world.n_pallets}")


if __name__ == "__main__":
    main()
