"""Merge-stage operators: aggregation within a spatial granule.

Merge "uses the application's spatial granule to correct for missed
readings and remove outliers spatially ... filling in missed readings and
eliminating non-correlated errors in individual devices" (§3.2). The
operators here run once per proximity group, over the union of the
group's receptor streams. Each is a
:class:`~repro.streams.operators.WindowedGroupByOp` keyed on the
granule (§3.3: a Merge is a windowed GROUP BY over the spatial
granule), so an instance fed several granules reports each on its own.
The granule key is optional: a reading without the granule field groups
under ``None`` rather than aborting the stage.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core.stages import Stage, StageContext, StageKind
from repro.errors import OperatorError
from repro.streams.aggregates import Aggregate, AggregateSpec, Avg, Mad, Median, Stdev
from repro.streams.operators import GroupKey, Operator, WindowedGroupByOp
from repro.streams.windows import WindowSpec


class _BandMean(Aggregate):
    """Mean of the values inside the window's rejection band.

    The band is centred on the mean with a radius of ``k`` sample
    standard deviations or, ``robust``, on the median with a radius of
    ``k`` MADs (the raw MAD: the paper's technique is deliberately
    simple). Fewer than two values have no band, so they all survive.
    ``None`` values are skipped like every aggregate's NULL. Means are
    :class:`Avg`'s left-to-right sum, the same bytes on every Python
    (builtin ``sum`` of floats is compensated from 3.12).
    """

    def __init__(self, k: float, robust: bool):
        self._k = k
        self._robust = robust
        self._values: list[float] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self._values.append(float(value))

    def survivors(self) -> list[float]:
        values = self._values
        if len(values) < 2:
            return values
        if self._robust:
            center, spread = Median.over(values), Mad.over(values)
        else:
            center, spread = Avg.over(values), Stdev.over(values)
        radius = self._k * spread
        return [
            value for value in values if abs(value - center) <= radius + 1e-12
        ]

    def result(self) -> float | None:
        return Avg.over(self.survivors())


class _BandCount(_BandMean):
    """How many values survive :class:`_BandMean`'s rejection band."""

    def result(self) -> int:
        return len(self.survivors())


def _band_average(
    seconds: float,
    value_field: str,
    granule_field: str,
    k: float,
    robust: bool,
    min_survivors: int,
    output_field: str | None,
) -> Operator:
    """Per-granule windowed average of the readings inside the band."""
    if k <= 0:
        raise OperatorError(f"rejection radius k must be positive, got {k}")
    if min_survivors < 1:
        raise OperatorError("min_survivors must be >= 1")
    return WindowedGroupByOp(
        WindowSpec.range_by(seconds),
        keys=[GroupKey(granule_field, optional=True)],
        aggregates=[
            AggregateSpec(
                partial(_BandMean, k, robust),
                field=value_field,
                output=output_field or value_field,
            ),
            AggregateSpec(
                partial(_BandCount, k, robust),
                field=value_field,
                output="readings",
            ),
        ],
        having=lambda row, _rows: row["readings"] >= min_survivors,
    )


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
        return _band_average(
            seconds,
            value_field,
            granule_field,
            k,
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
        return _band_average(
            seconds,
            value_field,
            granule_field,
            k,
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
            keys=[GroupKey(granule_field, optional=True)],
            aggregates=[
                AggregateSpec("avg", field=value_field, output=result_field),
                AggregateSpec("count", output=count_field),
            ],
        )

    return Stage(StageKind.MERGE, factory, name=name or "spatial_average")


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
        if min_devices < 1:
            raise OperatorError("min_devices must be >= 1")
        seconds = ctx.window_seconds(window, "k_of_n_vote")
        return WindowedGroupByOp(
            WindowSpec.range_by(seconds),
            keys=[
                GroupKey(granule_field, optional=True),
                GroupKey("value", value=output_value),
            ],
            aggregates=[
                AggregateSpec(
                    "count", field=device_field, distinct=True, output="votes"
                )
            ],
            having=lambda row, _rows: row["votes"] >= min_devices,
        )

    return Stage(StageKind.MERGE, factory, name=name or "k_of_n_vote")
