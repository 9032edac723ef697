"""Arbitrate-stage operators: conflict resolution between spatial granules.

Arbitrate "deals with conflicts, such as duplicate readings, between data
streams from different spatial granules" (§3.2). Unlike warehouse
de-duplication, the resolution criterion is *physical*: "tags closer to a
reader will be read more often", so a tag claimed by several granules is
attributed to the granule whose receptors read it the most — the paper's
Query 3.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.stages import Stage, StageContext, StageKind
from repro.errors import OperatorError
from repro.streams.operators import Operator
from repro.streams.tuples import StreamTuple


class MaxCountArbitrator(Operator):
    """Attribute each ID to the granule that read it the most this instant.

    Operates with ``[Range By 'NOW']`` semantics: readings arriving since
    the previous punctuation are grouped by ``id_field``; for each ID the
    granule(s) with the maximal ``count_field`` win and one tuple per
    winning (granule, id) is emitted.

    Ties are where the paper's calibration hack lives (§4.3.1): "ESP
    attributed a reading to the weaker antenna if the counts of the
    readings were equal". Tie policies:

    - ``"all"`` — every tied granule keeps the reading (the literal
      semantics of Query 3's ``>= ALL``);
    - ``"weakest"`` — the granule with the lowest strength wins, given
      ``strength`` (higher = stronger antenna);
    - ``"first"`` — deterministic lexicographic winner.

    Args:
        id_field: The conflicting identifier (``tag_id``).
        granule_field: Spatial granule field.
        count_field: Per-granule evidence count (e.g. the window count the
            Smooth stage emits); missing counts default to 1 so the
            operator also runs over raw, un-smoothed streams (the paper's
            Arbitrate-only configuration in Figure 5). A NULL count is
            skipped, as every aggregate skips NULL: a granule whose
            claims are all NULL does not compete, and an ID with no
            counted claim is not emitted.
        tie_break: One of ``"all"``, ``"weakest"``, ``"first"``.
        strength: Granule-name → antenna strength, required for
            ``"weakest"``.
    """

    def __init__(
        self,
        id_field: str = "tag_id",
        granule_field: str = "spatial_granule",
        count_field: str = "count",
        tie_break: str = "weakest",
        strength: Mapping[object, float] | None = None,
    ):
        if tie_break not in ("all", "weakest", "first"):
            raise OperatorError(f"unknown tie_break {tie_break!r}")
        if tie_break == "weakest" and not strength:
            raise OperatorError(
                "tie_break='weakest' needs a strength mapping "
                "(granule -> antenna strength)"
            )
        self._id_field = id_field
        self._granule_field = granule_field
        self._count_field = count_field
        self._tie_break = tie_break
        self._strength = dict(strength or {})
        self._pending: list[StreamTuple] = []

    STATE_ATTRS = ("_pending",)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        self._pending.extend(items)
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        # Group this instant's claims: (id, granule) -> summed count.
        id_field = self._id_field
        granule_field = self._granule_field
        count_field = self._count_field
        claims: dict[object, dict[object, float]] = {}
        for item in self._pending:
            values = item._values
            identifier = values.get(id_field)
            granule = values.get(granule_field)
            if identifier is None or granule is None:
                continue
            count = values.get(count_field, 1)
            if count is None:
                continue
            by_granule = claims.setdefault(identifier, {})
            by_granule[granule] = by_granule.get(granule, 0) + count
        self._pending = []
        out: list[StreamTuple] = []
        from_parts = StreamTuple._from_parts
        stamp = float(now)
        for identifier in sorted(claims, key=str):
            by_granule = claims[identifier]
            if len(by_granule) == 1:
                # Uncontested: no maximum to find and no tie to break.
                winners = by_granule
            else:
                best = max(by_granule.values())
                winners = sorted(
                    (g for g, c in by_granule.items() if c == best), key=str
                )
                if len(winners) > 1:
                    winners = self._break_tie(winners)
            for granule in winners:
                count = by_granule[granule]
                if count != count:
                    continue  # NaN equals no maximum, not even its own
                out.append(
                    from_parts(
                        stamp,
                        {
                            granule_field: granule,
                            id_field: identifier,
                            count_field: count,
                        },
                        "",
                    )
                )
        return out

    def _break_tie(self, winners: Sequence[object]) -> list[object]:
        if self._tie_break == "all":
            return list(winners)
        if self._tie_break == "first":
            return [winners[0]]
        # "weakest": lowest strength wins; unknown granules rank strongest
        # so a configured weaker antenna always beats them.
        return [
            min(
                winners,
                key=lambda g: (self._strength.get(g, float("inf")), str(g)),
            )
        ]


def max_count_arbitrate(
    id_field: str = "tag_id",
    granule_field: str = "spatial_granule",
    count_field: str = "count",
    tie_break: str = "all",
    strength: Mapping[object, float] | None = None,
    name: str = "",
) -> Stage:
    """Stage builder for :class:`MaxCountArbitrator` (paper Query 3)."""

    def factory(_ctx: StageContext) -> Operator:
        return MaxCountArbitrator(
            id_field=id_field,
            granule_field=granule_field,
            count_field=count_field,
            tie_break=tie_break,
            strength=strength,
        )

    return Stage(
        StageKind.ARBITRATE, factory, name=name or "max_count_arbitrate"
    )
