"""Tests: the Merge stages and the windowed join against their definitions.

The reference keeps no window, no accumulator and no state between
ticks. At each punctuation it takes the delivered rows whose timestamp
lies in ``[tick - range, tick]`` and recomputes the stage's output from
the definition alone:

- the σ Merge (paper Query 5, §5.1.2): per granule, drop NULLs, centre
  on the mean, keep the values within ``k`` sample standard deviations
  (inclusive, ``1e-12`` slack; fewer than two values have no band) and
  average the survivors;
- the MAD Merge: the same band around the median, ``k`` median absolute
  deviations wide;
- the k-of-n vote (X10 Merge, §6.1): per granule, the number of distinct
  non-NULL devices, reported when it reaches ``k``;
- the windowed join (CQL's relation-at-time-t join): a nested loop over
  the two windows' rows, the WHERE evaluated on each pair.

The stage operators are driven by ``run_operator`` and compared with
``==``: same rows, same order, same float bits. Values are drawn from a
few dyadic numbers, so a survivor's distance from the band edge is either
zero or far wider than any rounding of σ.
"""

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators.merge_ops import (
    k_of_n_vote,
    mad_outlier_average,
    sigma_outlier_average,
)
from repro.core.stages import StageContext, StageKind
from repro.cql import compile_query
from repro.streams.operators import run_operator
from repro.streams.tuples import StreamTuple

VALUES = (None, -3.5, 0.0, 0.5, 20.0, 20.5, 21.0, 35.25)
WINDOWS = (1.0, 2.0, 5.0)
#: Steps between readings; 12 s is longer than every window, so
#: granules empty out and come back.
STEPS = (0.0, 0.25, 0.5, 1.0, 12.0)


@st.composite
def readings(draw, fields):
    """Time-ordered readings; ``fields`` maps a field to its strategy."""
    now, rows = 0.0, []
    for _ in range(draw(st.integers(0, 30))):
        now += draw(st.sampled_from(STEPS))
        rows.append(StreamTuple(now, {f: draw(s) for f, s in fields.items()}))
    return rows


@st.composite
def granule_readings(draw):
    granules = ("g0", "g1", "g2")[: draw(st.integers(1, 3))]
    devices = ("d0", "d1", "d2", "d3")[: draw(st.integers(1, 4))]
    return draw(
        readings(
            {
                "spatial_granule": st.sampled_from(granules),
                "sensor_id": st.sampled_from(devices + (None,)),
                "temp": st.sampled_from(VALUES),
            }
        )
    )


def tick_lists(rows):
    last = rows[-1].timestamp if rows else 0.0
    return st.lists(
        st.integers(0, int(last * 2) + 12), unique=True, max_size=40
    ).map(lambda halves: [h / 2 for h in sorted(halves)])


def live(rows, tick, window):
    return [row for row in rows if tick - window <= row.timestamp <= tick]


def by_granule(rows):
    granules = sorted({row["spatial_granule"] for row in rows})
    return [(g, [r for r in rows if r["spatial_granule"] == g]) for g in granules]


def band(values, k, robust):
    if len(values) < 2:
        return values
    if robust:
        center = statistics.median(values)
        spread = statistics.median([abs(v - center) for v in values])
    else:
        center = sum(values) / len(values)
        spread = statistics.stdev(values)
    return [v for v in values if abs(v - center) <= k * spread + 1e-12]


def band_reference(rows, ticks, window, k, robust, min_survivors):
    out = []
    for tick in ticks:
        for granule, group in by_granule(live(rows, tick, window)):
            kept = band(
                [r["temp"] for r in group if r["temp"] is not None], k, robust
            )
            if len(kept) >= min_survivors:
                out.append(
                    StreamTuple(
                        tick,
                        {
                            "spatial_granule": granule,
                            "temp": sum(kept) / len(kept),
                            "readings": len(kept),
                        },
                    )
                )
    return out


def vote_reference(rows, ticks, window, k):
    out = []
    for tick in ticks:
        for granule, group in by_granule(live(rows, tick, window)):
            votes = len({r["sensor_id"] for r in group} - {None})
            if votes >= k:
                out.append(
                    StreamTuple(
                        tick,
                        {"spatial_granule": granule, "value": "ON", "votes": votes},
                    )
                )
    return out


def join_reference(left, right, ticks, left_window, right_window, where):
    """``(tick, lhs, rhs)`` for every pair of window rows passing ``where``."""
    return [
        (tick, lhs, rhs)
        for tick in ticks
        for lhs in live(left, tick, left_window)
        for rhs in live(right, tick, right_window)
        if where(lhs, rhs)
    ]


def merge_op(stage):
    return stage.make(StageContext(StageKind.MERGE))


@settings(deadline=None)
@given(
    data=st.data(),
    rows=granule_readings(),
    window=st.sampled_from(WINDOWS),
    k=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
    robust=st.booleans(),
    min_survivors=st.integers(1, 3),
)
def test_band_merges_match_the_reference(
    data, rows, window, k, robust, min_survivors
):
    ticks = data.draw(tick_lists(rows))
    stage = mad_outlier_average if robust else sigma_outlier_average
    op = merge_op(stage(window=window, k=k, min_survivors=min_survivors))
    assert run_operator(op, rows, ticks) == band_reference(
        rows, ticks, window, k, robust, min_survivors
    )


@settings(deadline=None)
@given(
    data=st.data(),
    rows=granule_readings(),
    window=st.sampled_from(WINDOWS),
    k=st.integers(1, 4),
)
def test_vote_matches_the_reference(data, rows, window, k):
    ticks = data.draw(tick_lists(rows))
    op = merge_op(k_of_n_vote(min_devices=k, window=window))
    assert run_operator(op, rows, ticks) == vote_reference(
        rows, ticks, window, k
    )


def join_sides():
    fields = {"k": st.sampled_from((None, 0, 1, 2)), "v": st.sampled_from(VALUES)}
    return readings(fields)


@settings(deadline=None)
@given(
    data=st.data(),
    left=join_sides(),
    right=join_sides(),
    left_window=st.sampled_from(WINDOWS),
    right_window=st.sampled_from(WINDOWS),
)
def test_cql_join_matches_the_nested_loop(
    data, left, right, left_window, right_window
):
    ticks = data.draw(tick_lists(left + right))
    query = compile_query(
        f"SELECT l.v AS lv, r.v AS rv "
        f"FROM a l [Range By '{left_window:g} sec'], "
        f"b r [Range By '{right_window:g} sec'] WHERE l.k = r.k"
    )
    stamped = [row.derive(stream="a") for row in left] + [
        row.derive(stream="b") for row in right
    ]
    pairs = join_reference(
        left,
        right,
        ticks,
        left_window,
        right_window,
        where=lambda lhs, rhs: lhs["k"] is not None and lhs["k"] == rhs["k"],
    )
    assert run_operator(query, stamped, ticks) == [
        StreamTuple(tick, {"lv": lhs["v"], "rv": rhs["v"]})
        for tick, lhs, rhs in pairs
    ]
