"""Extending ESP: the three stage programming models on a custom deployment.

The paper (3.3) lists three ways to implement a stage, in increasing
flexibility: declarative continuous queries, user-defined functions and
aggregates, and arbitrary code. This example builds one pipeline using
all three, on a scenario *not* in the paper: a pair of vibration sensors
on a machine, cleaned and reduced to an anomaly score.

Run:
    python examples/custom_pipeline.py
"""

import math

from repro.core.granules import SpatialGranule, TemporalGranule
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import MergeStage, PointStage, SmoothStage, Stage, StageKind
from repro.receptors.motes import Mote
from repro.receptors.registry import DeviceRegistry
from repro.streams.aggregates import Aggregate, register_aggregate
from repro.streams.operators import Operator


# --- a user-defined aggregate (model 2: UDFs/UDAs) ---------------------------

class RootMeanSquare(Aggregate):
    """RMS of the window - the standard vibration-intensity measure."""

    def __init__(self):
        self._sum_sq = 0.0
        self._n = 0

    def add(self, value):
        if value is not None:
            self._sum_sq += float(value) ** 2
            self._n += 1

    def result(self):
        return math.sqrt(self._sum_sq / self._n) if self._n else None


register_aggregate("rms", RootMeanSquare)


# --- an arbitrary-code stage (model 3) ---------------------------------------

class AnomalyScorer(Operator):
    """Flag instants whose merged RMS deviates from a running baseline."""

    def __init__(self, alpha: float = 0.05, threshold: float = 1.5,
                 warmup: int = 10):
        self._baseline = None
        self._alpha = alpha
        self._threshold = threshold
        self._warmup = warmup  # instants to learn the baseline, no alarms
        self._seen = 0
        self._pending = []

    def on_batch(self, items, port=0):
        self._pending.extend(items)
        return []

    def on_time(self, now):
        out = []
        for item in self._pending:
            rms = item.get("rms")
            if rms is None:
                continue
            self._seen += 1
            if self._seen <= self._warmup:
                # Learning phase: adopt the level directly, emit nothing.
                self._baseline = rms
                continue
            score = rms / self._baseline
            self._baseline += self._alpha * (rms - self._baseline)
            if score > self._threshold:
                out.append(
                    item.derive(values={"anomaly_score": round(score, 2)})
                )
        self._pending = []
        return out


def main() -> None:
    # World: a machine whose vibration amplitude jumps 3x during a fault
    # window, watched by two noisy accelerometer motes.
    def vibration(now: float) -> float:
        fault = 1.0 if 60.0 <= now < 90.0 else 0.0
        amplitude = 1.0 + 2.0 * fault
        return amplitude * math.sin(2 * math.pi * now * 3.0)

    registry = DeviceRegistry()
    machine = SpatialGranule("press_42")
    group = registry.add_group("press_42_accels", machine, receptor_kind="mote")
    for index in (1, 2):
        registry.assign(
            Mote(
                f"accel{index}",
                field=vibration,
                quantity="vib",
                sample_period=0.1,
                noise_std=0.2,
                rng=index,
            ),
            group.name,
        )

    pipeline = ESPPipeline(
        "mote",
        temporal_granule=TemporalGranule("2 sec"),
        # Model 1 - declarative query: clip impossible sensor glitches.
        point=PointStage("SELECT * FROM vib_input WHERE vib < 100 AND vib > -100"),
        # Model 2 - our registered UDA, through a declarative stage.
        smooth=SmoothStage(
            "SELECT mote_id, spatial_granule, rms(vib) AS rms "
            "FROM smooth_input [Range By '2 sec'] "
            "GROUP BY mote_id, spatial_granule"
        ),
        # Model 3 - arbitrary code.
        merge=[
            MergeStage(
                "SELECT spatial_granule, avg(rms) AS rms "
                "FROM merge_input [Range By '2 sec'] GROUP BY spatial_granule"
            ),
            Stage(StageKind.MERGE, lambda ctx: AnomalyScorer(),
                  name="anomaly_scorer"),
        ],
    )
    processor = ESPProcessor(registry).add_pipeline(pipeline)
    run = processor.run(until=120.0, tick=1.0)

    alarm_times = sorted({round(t.timestamp) for t in run.output})
    print(f"Anomaly alarms fired at t = {alarm_times}")
    in_fault = [t for t in alarm_times if 60 <= t < 95]
    print(
        f"{len(in_fault)}/{len(alarm_times)} alarms inside the fault "
        "window [60, 90) s (+5 s of smoothing decay)"
    )
    scores = [t["anomaly_score"] for t in run.output]
    print(f"peak anomaly score: {max(scores):.2f} (threshold 1.5)")


if __name__ == "__main__":
    main()
