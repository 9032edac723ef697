"""Smooth-stage operators: aggregation within a temporal granule.

Smooth "uses the temporal granule defined by the application to correct
for missed readings and detect outliers in a single receptor stream"
(§3.2), by processing a sliding window the size of the granule — or an
*expanded* window when the device's sample rate is too coarse (§5.2.1).

Each builder returns a :class:`~repro.core.stages.Stage` whose window
defaults to the pipeline's temporal granule (its ``window_seconds``,
which honours expansion) so that a deployment only states the granule
once (:meth:`~repro.core.stages.StageContext.window_seconds`). The
three windowed builders are the same
:class:`~repro.streams.operators.WindowedGroupByOp` a continuous query
compiles to (§3.3: a stage is the same thing written either way).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.stages import Stage, StageContext, StageKind
from repro.streams.aggregates import AggregateSpec
from repro.streams.operators import (
    ChainOp,
    FilterOp,
    GroupKey,
    Operator,
    WindowedGroupByOp,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowSpec


def _carry_keys(carry: Sequence[str]) -> list[GroupKey]:
    # Carried fields are optional so a missing field doesn't abort the
    # stage; constant-per-stream fields (spatial_granule etc.) ride along.
    return [GroupKey(field, optional=True) for field in carry]


def presence_smoother(
    window: float | None = None,
    id_field: str = "tag_id",
    carry: Sequence[str] = ("spatial_granule",),
    count_field: str = "count",
    name: str = "",
) -> Stage:
    """Interpolate lost ID readings within the temporal granule.

    The direct equivalent of the paper's Query 2: a sliding-window
    ``GROUP BY tag_id`` count. An ID missed on some polls but read at
    least once inside the window is reported every tick with its window
    read count — the interpolation that removes the raw data's constant
    dropouts (Figure 3(c)).

    Args:
        window: Window seconds; defaults to the granule's window.
        id_field: The identifier to smooth over (``tag_id``).
        carry: Fields carried into the output (grouped on; constant per
            stream in practice).
        count_field: Output field holding the window read count.

    ``count(*)`` is the length of the tag's window, so a slide reads
    no row: it costs the evictions plus one output per live tag. An
    out-of-order reading is refused (``WindowError``) as in every other
    windowed stage.
    """

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "presence_smoother")
        group = WindowedGroupByOp(
            WindowSpec.range_by(seconds),
            keys=[GroupKey(id_field)] + _carry_keys(carry),
            aggregates=[AggregateSpec("count", output=count_field)],
        )
        # Malformed readings without the identifier are dropped rather
        # than crashing the stage or forming a junk None-group: dirty
        # data is this framework's normal input.
        return ChainOp(
            [FilterOp(lambda t: t.get(id_field) is not None), group]
        )

    return Stage(StageKind.SMOOTH, factory, name=name or "presence_smoother")


def sliding_average(
    window: float | None = None,
    value_field: str = "temp",
    by: Sequence[str] = ("mote_id",),
    carry: Sequence[str] = ("spatial_granule",),
    output_field: str | None = None,
    count_field: str = "readings",
    name: str = "",
) -> Stage:
    """Per-device sliding-window average (the sensor-network Smooth).

    "By running a sliding window average on each sensor stream, lost
    readings from a single mote are masked during the course of the
    window" (§5.2.1). Emits, per tick and per device, the window mean and
    the number of contributing readings; devices with empty windows emit
    nothing (that epoch stays lost — Merge may still recover it).

    Args:
        window: Window seconds; defaults to the granule's window (which
            the redwood deployment expands to 30 minutes).
        value_field: Quantity to average.
        by: Device identity fields.
        carry: Extra fields carried through.
        output_field: Name for the averaged value; defaults to
            ``value_field`` so downstream stages are agnostic to whether
            Smooth ran.
        count_field: Output field with the count of readings averaged.
    """
    result_field = output_field or value_field

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "sliding_average")
        return WindowedGroupByOp(
            WindowSpec.range_by(seconds),
            keys=[GroupKey(field) for field in by] + _carry_keys(carry),
            aggregates=[
                AggregateSpec("avg", field=value_field, output=result_field),
                AggregateSpec("count", output=count_field),
            ],
        )

    return Stage(StageKind.SMOOTH, factory, name=name or "sliding_average")


def event_smoother(
    window: float | None = None,
    value_field: str = "value",
    on_value: str = "ON",
    carry: Sequence[str] = ("spatial_granule", "sensor_id"),
    count_field: str = "events",
    name: str = "",
) -> Stage:
    """Interpolate event streams (the X10 Smooth, §6.1).

    X10 detectors emit sparse ``ON`` events; this stage re-emits ``ON``
    at every tick for which at least one event fell inside the window,
    filling the gaps a flaky detector leaves while a person is present.
    """

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "event_smoother")
        group = WindowedGroupByOp(
            WindowSpec.range_by(seconds),
            # A constant key stamps the event value on every output.
            keys=_carry_keys(carry) + [GroupKey(value_field, value=on_value)],
            aggregates=[AggregateSpec("count", output=count_field)],
        )

        def is_on(item: StreamTuple) -> bool:
            # Only the configured event value enters the smoothing window.
            return item.get(value_field) == on_value

        return ChainOp([FilterOp(is_on), group])

    return Stage(StageKind.SMOOTH, factory, name=name or "event_smoother")
