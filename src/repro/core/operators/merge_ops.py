"""Merge-stage operators: aggregation within a spatial granule.

Merge "uses the application's spatial granule to correct for missed
readings and remove outliers spatially ... filling in missed readings and
eliminating non-correlated errors in individual devices" (§3.2). The
operators here run once per proximity group, over the union of the
group's receptor streams.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.stages import Stage, StageContext, StageKind
from repro.errors import OperatorError
from repro.streams.aggregates import AggregateSpec, Mad, Median, Stdev
from repro.streams.operators import GroupKey, Operator, WindowedGroupByOp
from repro.streams.tuples import StreamTuple
from repro.streams.windows import BaseWindow, WindowSpec


class _RobustGroupAverage(Operator):
    """Windowed per-granule average with robust outlier rejection.

    The shared engine behind :func:`sigma_outlier_average` (the paper's
    Query 5: discard readings more than *k* standard deviations from the
    window mean, average the rest) and :func:`mad_outlier_average` (the
    median/MAD ablation from DESIGN.md).

    Args:
        window: Window spec applied per spatial granule.
        value_field: Quantity to clean.
        granule_field: Grouping field (constant per Merge instance, but
            grouped anyway so the operator is reusable standalone).
        k: Rejection radius in deviation units; ``None`` disables
            rejection (plain spatial average).
        robust: Use median/MAD instead of mean/stdev for the rejection
            band.
        min_survivors: Emit nothing when fewer readings survive rejection.
        output_field: Output value field; defaults to ``value_field``.
        count_field: Output field with the surviving reading count.
    """

    def __init__(
        self,
        window: WindowSpec,
        value_field: str,
        granule_field: str = "spatial_granule",
        k: float | None = 1.0,
        robust: bool = False,
        min_survivors: int = 1,
        output_field: str | None = None,
        count_field: str = "readings",
    ):
        if k is not None and k <= 0:
            raise OperatorError(f"rejection radius k must be positive, got {k}")
        if min_survivors < 1:
            raise OperatorError("min_survivors must be >= 1")
        self._window_spec = window
        self._value_field = value_field
        self._granule_field = granule_field
        self._k = k
        self._robust = robust
        self._min_survivors = int(min_survivors)
        self._output_field = output_field or value_field
        self._count_field = count_field
        self._windows: dict[object, BaseWindow] = {}

    STATE_ATTRS = ("_windows",)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        windows = self._windows
        value_field, granule_field = self._value_field, self._granule_field
        for item in items:
            if value_field not in item:
                continue
            key = item.get(granule_field)
            window = windows.get(key)
            if window is None:
                window = self._window_spec.make_window()
                windows[key] = window
            window.insert(item)
        return []

    def _band(self, values: list[float]) -> tuple[float, float]:
        """(center, radius) of the acceptance band for these values."""
        if self._robust:
            center = Median.over(values)
            spread = Mad.over(values)
            # MAD of a normal sample underestimates sigma by ~1.4826; keep
            # the raw MAD (the paper's technique is deliberately simple)
            # but guard the degenerate all-identical case.
        else:
            center = sum(values) / len(values)
            spread = Stdev.over(values)
        return float(center), float(spread if spread is not None else 0.0)

    def on_time(self, now: float) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        empty: list[object] = []
        for key, window in sorted(
            self._windows.items(), key=lambda kv: str(kv[0])
        ):
            window.advance(now)
            readings = [
                float(item[self._value_field]) for item in window.contents()
            ]
            if not readings:
                empty.append(key)
                continue
            survivors = readings
            if self._k is not None and len(readings) > 1:
                center, spread = self._band(readings)
                radius = self._k * spread
                survivors = [
                    value
                    for value in readings
                    if abs(value - center) <= radius + 1e-12
                ]
                if len(survivors) < self._min_survivors:
                    continue
            if not survivors:
                continue
            out.append(
                StreamTuple(
                    now,
                    {
                        self._granule_field: key,
                        self._output_field: sum(survivors) / len(survivors),
                        self._count_field: len(survivors),
                    },
                )
            )
        for key in empty:
            del self._windows[key]
        return out


def sigma_outlier_average(
    window: float | None = None,
    value_field: str = "temp",
    k: float = 1.0,
    granule_field: str = "spatial_granule",
    output_field: str | None = None,
    min_survivors: int = 1,
    name: str = "",
) -> Stage:
    """Average the granule's readings, discarding >kσ outliers.

    The toolkit form of the paper's Query 5: "determining the average of
    the readings from different motes in the same proximity group and
    then throwing out individual readings that are outside of one
    standard deviation from the mean" (§5.1.2). With three motes and one
    fail-dirty deviator, the deviator sits ~2/3·|Δ| from the mean while
    the sample σ is ~0.58·|Δ| — so this simple rule excludes it as soon
    as its drift exceeds the noise floor, which is exactly the behaviour
    in the paper's Figure 7.
    """

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "sigma_outlier_average")
        return _RobustGroupAverage(
            WindowSpec.range_by(seconds),
            value_field,
            granule_field=granule_field,
            k=k,
            robust=False,
            min_survivors=min_survivors,
            output_field=output_field,
        )

    return Stage(StageKind.MERGE, factory, name=name or "sigma_outlier_average")


def mad_outlier_average(
    window: float | None = None,
    value_field: str = "temp",
    k: float = 3.0,
    granule_field: str = "spatial_granule",
    output_field: str | None = None,
    min_survivors: int = 1,
    name: str = "",
) -> Stage:
    """Median/MAD variant of :func:`sigma_outlier_average` (ablation).

    More robust to the outlier dragging the rejection band toward itself
    (the classic masking problem of mean/σ rules); benchmarked against
    the paper's rule in the ablation benches.
    """

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "mad_outlier_average")
        return _RobustGroupAverage(
            WindowSpec.range_by(seconds),
            value_field,
            granule_field=granule_field,
            k=k,
            robust=True,
            min_survivors=min_survivors,
            output_field=output_field,
        )

    return Stage(StageKind.MERGE, factory, name=name or "mad_outlier_average")


def spatial_average(
    window: float | None = None,
    value_field: str = "temp",
    granule_field: str = "spatial_granule",
    output_field: str | None = None,
    count_field: str = "readings",
    name: str = "",
) -> Stage:
    """Plain windowed average over the granule's receptors.

    The redwood Merge (§5.2.2): "spatial aggregation for each spatial
    granule (again, in the form of a windowed average) to further
    alleviate the effects of lost readings" — an epoch lost by one mote
    is filled by its proximity-group partner.
    """
    result_field = output_field or value_field

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "spatial_average")
        return WindowedGroupByOp(
            WindowSpec.range_by(seconds),
            keys=[GroupKey(granule_field, lambda t, _f=granule_field: t.get(_f))],
            aggregates=[
                AggregateSpec("avg", field=value_field, output=result_field),
                AggregateSpec("count", output=count_field),
            ],
        )

    return Stage(StageKind.MERGE, factory, name=name or "spatial_average")


class _VoteWindow(Operator):
    """K-of-N distinct-device vote within a window (X10 Merge, §6.1)."""

    def __init__(
        self,
        window: WindowSpec,
        min_devices: int,
        device_field: str,
        granule_field: str,
        output_value: str,
    ):
        if min_devices < 1:
            raise OperatorError("min_devices must be >= 1")
        self._window = window.make_window()
        self._min_devices = int(min_devices)
        self._device_field = device_field
        self._granule_field = granule_field
        self._output_value = output_value
        self._granule: object = None

    STATE_ATTRS = ("_window", "_granule")

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        if self._granule is None and items:
            self._granule = items[0].get(self._granule_field)
        insert = self._window.insert
        for item in items:
            insert(item)
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        self._window.advance(now)
        devices = {
            item.get(self._device_field) for item in self._window.contents()
        }
        devices.discard(None)
        if len(devices) < self._min_devices:
            return []
        return [
            StreamTuple(
                now,
                {
                    self._granule_field: self._granule,
                    "value": self._output_value,
                    "votes": len(devices),
                },
            )
        ]


def k_of_n_vote(
    min_devices: int = 2,
    window: float | None = None,
    device_field: str = "sensor_id",
    granule_field: str = "spatial_granule",
    output_value: str = "ON",
    name: str = "",
) -> Stage:
    """Report an event when >= k distinct devices agree within the window.

    "The Merge stage combines the readings from all detectors in the room
    and reports motion if the number of readings exceed a threshold
    (e.g., if 2 out of 3 devices report motion)" (§6.1).
    """

    def factory(ctx: StageContext) -> Operator:
        seconds = ctx.window_seconds(window, "k_of_n_vote")
        return _VoteWindow(
            WindowSpec.range_by(seconds),
            min_devices,
            device_field,
            granule_field,
            output_value,
        )

    return Stage(StageKind.MERGE, factory, name=name or "k_of_n_vote")
