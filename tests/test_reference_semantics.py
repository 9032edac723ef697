"""Tests: Merge, Smooth, query stages and the join against definitions.

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

The Merge operators are driven by ``run_operator`` and the join query
by :meth:`CompiledQuery.run`, compared with ``==``: same rows, same
order, same float bits. Values are drawn from a few dyadic numbers, so a
survivor's distance from the band edge is either zero or far wider than
any rounding of σ.

The Smooth stages and the spatial-average Merge run through
:class:`ESPProcessor` over drawn deployments: receptors share spatial
granules, proximity groups share granules, and receptor ids sort in
another order than they were registered. The reference knows only the
paper's scopes: Smooth runs over one receptor's stream (§3.2), Merge
over one proximity group's streams, each a windowed GROUP BY whose
groups are emitted in ``str`` order, partitions in ``str`` order of
their names; a window holds its rows in arrival order and an average
adds them in that order.

Query stages run through the processor too, as their plans' nodes in
the deployment's graph: paper Query 2 as a Smooth stage (the shelf's
declarative Smooth, which keeps NULL tag ids), and the digital home's
Virtualize as paper Query 6 or as the toolkit ``VotingDetector``. The
Virtualize references read the rows delivered at a tick — those with a
timestamp in ``(tick - TICK, tick]`` — except where Query 6 aggregates:
its RFID subquery counts the distinct tag ids read at exactly the tick
(its ``NOW`` window), while a subquery without aggregates is evaluated
per delivered row.

Arbitrate runs through the processor behind the presence Smooth (the
shelf pipeline) or over the raw readings (the shelf's ``arbitrate``
configuration). Its reference is paper Query 3 over the rows it got at
a tick, recomputed: per tag, each granule's summed count (NULL counts
skipped, a missing one counting once), the granules whose total is
``>= ALL`` the tag's totals winning, cut to one by the tie rule of
§4.3.1 where the policy asks.
"""

import math

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granules import SpatialGranule
from repro.core.operators.arbitrate_ops import max_count_arbitrate
from repro.core.operators.merge_ops import (
    k_of_n_vote,
    mad_outlier_average,
    sigma_outlier_average,
    spatial_average,
)
from repro.core.operators.smooth_ops import (
    event_smoother,
    presence_smoother,
    sliding_average,
)
from repro.core.operators.virtualize_ops import voting_detector
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import Stage, StageContext, StageKind
from repro.cql import compile_query
from repro.pipelines.digital_home import (
    _PERSON_DETECTOR_QUERY,
    VIRTUALIZE_STREAMS,
)
from repro.receptors.base import Receptor, ReceptorKind
from repro.receptors.registry import DeviceRegistry
from repro.streams.operators import run_operator
from repro.streams.tuples import StreamTuple

VALUES = (None, -3.5, 0.0, 0.5, 20.0, 20.5, 21.0, 35.25)
WINDOWS = (1.0, 2.0, 5.0)
#: Steps between readings; 12 s is longer than every window, so
#: granules empty out and come back.
STEPS = (0.0, 0.25, 0.5, 1.0, 12.0)


@st.composite
def readings(draw, fields, steps=STEPS):
    """Time-ordered readings; ``fields`` maps a field to its strategy."""
    now, rows = 0.0, []
    for _ in range(draw(st.integers(0, 30))):
        now += draw(st.sampled_from(steps))
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
    pairs = join_reference(
        left,
        right,
        ticks,
        left_window,
        right_window,
        where=lambda lhs, rhs: lhs["k"] is not None and lhs["k"] == rhs["k"],
    )
    assert query.run({"a": left, "b": right}, ticks) == [
        StreamTuple(tick, {"lv": lhs["v"], "rv": rhs["v"]})
        for tick, lhs, rhs in pairs
    ]


# -- Smooth and Merge through the processor -----------------------------------

#: Receptor ids; ``str`` order is not registration order.
RECEPTOR_IDS = ("r2", "r10", "b", "a1")
TICK = 0.5


class Recorded(Receptor):
    """A receptor whose readings come from a recording."""

    def poll(self, now):
        return []


@st.composite
def deployments(draw, kind, fields, steps=STEPS, granules=2):
    """1-4 receptors of ``kind`` in 1-3 proximity groups over 1 to
    ``granules`` granules, each with drawn readings, and an ``until``
    past them all."""
    registry = DeviceRegistry()
    n_granules = draw(st.integers(1, granules))
    groups = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    for name in groups:
        granule = f"g{draw(st.integers(0, n_granules - 1))}"
        registry.add_group(name, SpatialGranule(granule), kind.value)
    ids = draw(st.permutations(RECEPTOR_IDS))[: draw(st.integers(1, 4))]
    recordings = {}
    for receptor_id in ids:
        group = draw(st.sampled_from(groups))
        registry.assign(Recorded(receptor_id, kind, TICK), group)
        recordings[receptor_id] = draw(readings(fields, steps))
    stamps = [row.timestamp for rows in recordings.values() for row in rows]
    last = max(stamps, default=0.0)
    until = TICK * -(-last // TICK) + draw(st.sampled_from((0.0, TICK, 12.0)))
    return registry, recordings, until


def run_stages(kind, deployment, *stages):
    registry, recordings, until = deployment
    processor = ESPProcessor(registry)
    processor.add_pipeline(ESPPipeline(kind.value, sequence=list(stages)))
    return processor.run(until=until, tick=TICK, sources=recordings).output


def annotated(registry, recordings):
    """Each receptor's readings as the stages see them: with its
    group's granule and name."""
    out = {}
    for receptor_id, rows in recordings.items():
        group = registry.group_of(receptor_id)
        extra = {"spatial_granule": group.granule.name, "proximity_group": group.name}
        out[receptor_id] = [row.derive(values=extra) for row in rows]
    return out


def grouped_windows(inputs, tick, window, key):
    """Per partition in ``str`` order, the live rows of ``inputs``
    (partition -> rows in arrival order) grouped by ``key``, groups in
    ``str`` order: ``(partition, key, rows)``."""
    for partition in sorted(inputs):
        groups = {}
        for row in inputs[partition]:
            if tick - window <= row.timestamp <= tick:
                groups.setdefault(key(row), []).append(row)
        for group in sorted(groups, key=lambda k: tuple(map(str, k))):
            yield partition, group, groups[group]


def mean(rows, field):
    values = [row[field] for row in rows if row[field] is not None]
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else None


def keyed_reference(inputs, ticks, window, key, fields):
    """``{tick: [(partition, values)]}``: every group of every partition
    recomputed per tick from its live rows."""
    return {
        tick: [
            (partition, fields(group, rows))
            for partition, group, rows in grouped_windows(inputs, tick, window, key)
        ]
        for tick in ticks
    }


def merge_inputs(registry, smoothed):
    """Each proximity group's input: its receptors' Smooth rows, tick by
    tick, receptors in ``str`` order (the order they are emitted in)."""
    inputs = {}
    for tick, emitted in smoothed.items():
        for receptor_id, values in emitted:
            group = registry.group_of(receptor_id).name
            inputs.setdefault(group, []).append(StreamTuple(tick, values))
    return inputs


def flatten(emitted, stream):
    return [
        StreamTuple(tick, values, stream)
        for tick in sorted(emitted)
        for _partition, values in emitted[tick]
    ]


def ticks_through(until):
    return [i * TICK for i in range(int(round(until / TICK)) + 1)]


def sliding_fields(group, rows):
    mote_id, granule = group
    return {
        "mote_id": mote_id, "spatial_granule": granule,
        "temp": mean(rows, "temp"), "readings": len(rows),
    }


def spatial_fields(group, rows):
    return {
        "spatial_granule": group[0], "temp": mean(rows, "temp"),
        "readings": len(rows),
    }


def sliding_key(row):
    return (row["mote_id"], row["spatial_granule"])


def granule_key(row):
    return (row["spatial_granule"],)


MOTE_FIELDS = {
    "mote_id": st.sampled_from(("m0", "m1", None)),
    "temp": st.sampled_from(VALUES),
}


@settings(deadline=None)
@given(
    deployment=deployments(
        ReceptorKind.RFID, {"tag_id": st.sampled_from(("t0", "t1", "t2", None))}
    ),
    window=st.sampled_from(WINDOWS),
)
def test_presence_smoother_matches_the_reference(deployment, window):
    registry, recordings, until = deployment
    inputs = {
        receptor_id: [row for row in rows if row["tag_id"] is not None]
        for receptor_id, rows in annotated(registry, recordings).items()
    }
    expected = keyed_reference(
        inputs, ticks_through(until), window,
        key=lambda row: (row["tag_id"], row["spatial_granule"]),
        fields=lambda group, rows: {
            "tag_id": group[0], "spatial_granule": group[1], "count": len(rows),
        },
    )
    assert run_stages(
        ReceptorKind.RFID, deployment, presence_smoother(window=window)
    ) == flatten(expected, "rfid")


@settings(deadline=None)
@given(
    deployment=deployments(
        ReceptorKind.X10,
        {
            "sensor_id": st.sampled_from(("s0", "s1", None)),
            "value": st.sampled_from(("ON", "OFF", None)),
        },
    ),
    window=st.sampled_from(WINDOWS),
)
def test_event_smoother_matches_the_reference(deployment, window):
    registry, recordings, until = deployment
    inputs = {
        receptor_id: [row for row in rows if row["value"] == "ON"]
        for receptor_id, rows in annotated(registry, recordings).items()
    }
    expected = keyed_reference(
        inputs, ticks_through(until), window,
        key=lambda row: (row["spatial_granule"], row["sensor_id"], "ON"),
        fields=lambda group, rows: {
            "spatial_granule": group[0], "sensor_id": group[1],
            "value": "ON", "events": len(rows),
        },
    )
    assert run_stages(
        ReceptorKind.X10, deployment, event_smoother(window=window)
    ) == flatten(expected, "x10")


@settings(deadline=None)
@given(
    deployment=deployments(ReceptorKind.MOTE, MOTE_FIELDS),
    window=st.sampled_from(WINDOWS),
)
def test_sliding_average_matches_the_reference(deployment, window):
    registry, recordings, until = deployment
    expected = keyed_reference(
        annotated(registry, recordings), ticks_through(until), window,
        key=sliding_key, fields=sliding_fields,
    )
    assert run_stages(
        ReceptorKind.MOTE, deployment, sliding_average(window=window)
    ) == flatten(expected, "mote")


@settings(deadline=None)
@given(
    deployment=deployments(ReceptorKind.MOTE, MOTE_FIELDS),
    smooth_window=st.sampled_from(WINDOWS),
    merge_window=st.sampled_from(WINDOWS),
)
def test_sliding_then_spatial_average_matches_the_reference(
    deployment, smooth_window, merge_window
):
    """The redwood pipeline: Merge averages its group's Smooth rows."""
    registry, recordings, until = deployment
    ticks = ticks_through(until)
    smoothed = keyed_reference(
        annotated(registry, recordings), ticks, smooth_window,
        key=sliding_key, fields=sliding_fields,
    )
    expected = keyed_reference(
        merge_inputs(registry, smoothed), ticks, merge_window,
        key=granule_key, fields=spatial_fields,
    )
    assert run_stages(
        ReceptorKind.MOTE, deployment,
        sliding_average(window=smooth_window),
        spatial_average(window=merge_window),
    ) == flatten(expected, "mote")


@settings(deadline=None)
@given(
    # On the tick grid, so a group's readings of one tick share a
    # timestamp and arrive receptor by receptor in str order.
    deployment=deployments(
        ReceptorKind.MOTE, MOTE_FIELDS, steps=(0.0, TICK, 2 * TICK, 12.0)
    ),
    window=st.sampled_from(WINDOWS),
)
def test_spatial_average_matches_the_reference(deployment, window):
    registry, recordings, until = deployment
    inputs = {}
    for receptor_id, rows in sorted(annotated(registry, recordings).items()):
        group = registry.group_of(receptor_id).name
        inputs.setdefault(group, []).extend(rows)
    for rows in inputs.values():
        rows.sort(key=lambda row: row.timestamp)  # stable: receptor order kept
    expected = keyed_reference(
        inputs, ticks_through(until), window,
        key=granule_key, fields=spatial_fields,
    )
    assert run_stages(
        ReceptorKind.MOTE, deployment, spatial_average(window=window)
    ) == flatten(expected, "mote")


# -- query stages through the processor -----------------------------------------


def query2(window):
    """Paper Query 2 as a Smooth stage: per-reader tag counts."""
    return Stage.from_query(
        StageKind.SMOOTH,
        f"SELECT spatial_granule, tag_id, count(*) AS reads "
        f"FROM rfid_input [Range By '{window:g} sec'] "
        f"GROUP BY spatial_granule, tag_id",
    )


@settings(deadline=None)
@given(
    deployment=deployments(
        ReceptorKind.RFID, {"tag_id": st.sampled_from(("t0", "t1", "t2", None))}
    ),
    window=st.sampled_from(WINDOWS),
)
def test_query2_smooth_stage_matches_the_reference(deployment, window):
    registry, recordings, until = deployment
    expected = keyed_reference(
        annotated(registry, recordings), ticks_through(until), window,
        key=lambda row: (row["spatial_granule"], row["tag_id"]),
        fields=lambda group, rows: {
            "spatial_granule": group[0], "tag_id": group[1], "reads": len(rows),
        },
    )
    assert run_stages(
        ReceptorKind.RFID, deployment, query2(window)
    ) == flatten(expected, "rfid")


HOME_FIELDS = {
    ReceptorKind.MOTE: {"noise": st.sampled_from((None, 400.0, 525.0, 600.0))},
    ReceptorKind.RFID: {"tag_id": st.sampled_from(("t0", "t1", "t2", None))},
    ReceptorKind.X10: {"value": st.sampled_from(("ON", "OFF", None))},
}


@st.composite
def home_deployments(draw, steps=STEPS):
    """1-2 receptors of each kind, each kind in a proximity group of its
    own, and an ``until`` past every reading."""
    registry = DeviceRegistry()
    recordings = {}
    for kind, fields in HOME_FIELDS.items():
        registry.add_group(kind.value, SpatialGranule("room"), kind.value)
        for index in range(draw(st.integers(1, 2))):
            receptor_id = f"{kind.value}{index}"
            registry.assign(Recorded(receptor_id, kind, TICK), kind.value)
            recordings[receptor_id] = draw(readings(fields, steps))
    stamps = [row.timestamp for rows in recordings.values() for row in rows]
    last = max(stamps, default=0.0)
    until = TICK * -(-last // TICK) + draw(st.sampled_from((0.0, TICK)))
    return registry, recordings, until


def run_virtualize(deployment, stage):
    registry, recordings, until = deployment
    processor = ESPProcessor(registry)
    processor.set_virtualize(stage, stream_names=VIRTUALIZE_STREAMS)
    return processor.run(until=until, tick=TICK, sources=recordings).output


def delivered(recordings, kind, tick):
    """The readings of ``kind`` the sweep at ``tick`` delivers."""
    return [
        row
        for receptor_id, rows in recordings.items()
        if receptor_id.startswith(kind.value)
        for row in rows
        if tick - TICK < row.timestamp <= tick
    ]


def query6_reference(recordings, ticks):
    """Per tick, the cross product of the subqueries' rows over the
    sides that have any, when at least two do (each side's ``cnt`` is
    1, and a missing side's is ``coalesce``'d to 0)."""
    out = []
    for tick in ticks:
        tags = {
            row["tag_id"]
            for row in delivered(recordings, ReceptorKind.RFID, tick)
            if row.timestamp == tick
        }
        sides = [
            sum(
                1 for row in delivered(recordings, ReceptorKind.MOTE, tick)
                if row["noise"] is not None and row["noise"] > 525
            ),
            1 if len(tags - {None}) > 1 else 0,
            sum(
                1 for row in delivered(recordings, ReceptorKind.X10, tick)
                if row["value"] == "ON"
            ),
        ]
        populated = [rows for rows in sides if rows]
        if len(populated) >= 2:
            row = StreamTuple(tick, {"event": "Person-in-room"})
            out += [row] * math.prod(populated)
    return out


@settings(deadline=None)
@given(
    # On the tick grid: a kind's output carries a tick's rows receptor
    # by receptor, not in timestamp order, and the RFID subquery's
    # window raises WindowError on a row older than the one before it.
    deployment=home_deployments(steps=(0.0, TICK, 2 * TICK, 12.0)),
)
def test_query6_virtualize_matches_the_reference(deployment):
    _registry, recordings, until = deployment
    stage = Stage.from_query(StageKind.VIRTUALIZE, _PERSON_DETECTOR_QUERY)
    assert run_virtualize(deployment, stage) == query6_reference(
        recordings, ticks_through(until)
    )


#: Per kind: the stream it votes on and its vote predicate.
VOTES = {
    ReceptorKind.MOTE: lambda row: (row["noise"] or 0) > 525,
    ReceptorKind.RFID: lambda row: row["tag_id"] is not None,
    ReceptorKind.X10: lambda row: row["value"] == "ON",
}


@settings(deadline=None)
@given(deployment=home_deployments(), threshold=st.integers(1, 3))
def test_voting_detector_matches_the_reference(deployment, threshold):
    _registry, recordings, until = deployment
    stage = voting_detector(
        votes={VIRTUALIZE_STREAMS[kind.value]: vote for kind, vote in VOTES.items()},
        threshold=threshold,
    )
    expected = []
    for tick in ticks_through(until):
        fired = {
            f"vote_{VIRTUALIZE_STREAMS[kind.value]}": any(
                map(vote, delivered(recordings, kind, tick))
            )
            for kind, vote in VOTES.items()
        }
        votes = sum(fired.values())
        if votes >= threshold:
            expected.append(
                StreamTuple(
                    tick, {"event": "Person-in-room", "votes": votes, **fired}
                )
            )
    assert run_virtualize(deployment, stage) == expected


# -- Arbitrate through the processor ---------------------------------------------

#: Drawn for a reading's ``count`` field: absent, NULL or 1-3.
MISSING = object()
SHELF_FIELDS = {
    "tag_id": st.sampled_from(("t0", "t1", "t2", None)),
    "count": st.sampled_from((MISSING, None, 1, 2, 3)),
    # The granule a raw Arbitrate reads: the processor stamps
    # ``spatial_granule`` from the registry, so it is never NULL.
    "zone": st.sampled_from(("g0", "g1", "g2", None)),
}
#: Antenna strengths; a granule missing from the map ranks strongest.
STRENGTHS = st.dictionaries(
    st.sampled_from(("g0", "g1", "g2")),
    st.sampled_from((0.5, 0.6, 1.0)),
    min_size=1,
)


@st.composite
def shelf_deployments(draw):
    """1-4 readers over 1-3 granules reading a few shared tags."""
    registry, recordings, until = draw(
        deployments(ReceptorKind.RFID, SHELF_FIELDS, granules=3)
    )
    recordings = {
        receptor_id: [
            StreamTuple(
                row.timestamp,
                {f: v for f, v in row.items() if v is not MISSING},
            )
            for row in rows
        ]
        for receptor_id, rows in recordings.items()
    }
    return registry, recordings, until


def query3(claims, granule_field, tie_break, strength):
    """Paper Query 3 over one tick's ``claims``, tags in ``str`` order,
    then the §4.3.1 tie rule: ``first`` keeps the granule first in
    ``str`` order, ``weakest`` the one with the lowest strength."""
    totals = {}
    for row in claims:
        tag, granule = row.get("tag_id"), row.get(granule_field)
        count = row.get("count", 1)
        if tag is not None and granule is not None and count is not None:
            by_granule = totals.setdefault(tag, {})
            by_granule[granule] = by_granule.get(granule, 0) + count
    out = []
    for tag in sorted(totals, key=str):
        by_granule = totals[tag]
        winners = sorted(
            (
                granule
                for granule, count in by_granule.items()
                if all(count >= other for other in by_granule.values())
            ),
            key=str,
        )
        if tie_break == "first":
            winners = winners[:1]
        elif tie_break == "weakest":
            winners = sorted(
                winners, key=lambda g: (strength.get(g, math.inf), str(g))
            )[:1]
        out += [
            {granule_field: g, "tag_id": tag, "count": by_granule[g]}
            for g in winners
        ]
    return out


@settings(deadline=None)
@given(
    deployment=shelf_deployments(),
    smooth=st.booleans(),
    window=st.sampled_from(WINDOWS),
    strength=STRENGTHS,
)
def test_max_count_arbitrate_matches_the_reference(
    deployment, smooth, window, strength
):
    registry, recordings, until = deployment
    inputs = annotated(registry, recordings)
    ticks = ticks_through(until)
    if smooth:
        # What the presence Smooth emits: a count per (tag, granule)
        # window of each reader.
        granule_field = "spatial_granule"
        read = {
            receptor_id: [row for row in rows if row["tag_id"] is not None]
            for receptor_id, rows in inputs.items()
        }
        claims = {
            tick: [
                {"tag_id": group[0], "spatial_granule": group[1], "count": len(rows)}
                for _reader, group, rows in grouped_windows(
                    read, tick, window,
                    key=lambda row: (row["tag_id"], row["spatial_granule"]),
                )
            ]
            for tick in ticks
        }
    else:
        granule_field = "zone"
        claims = {
            tick: [
                row
                for rows in inputs.values()
                for row in rows
                if tick - TICK < row.timestamp <= tick
            ]
            for tick in ticks
        }
    for tie_break in ("all", "weakest", "first"):
        arbitrate = max_count_arbitrate(
            granule_field=granule_field, tie_break=tie_break, strength=strength
        )
        stages = [arbitrate]
        if smooth:
            stages.insert(0, presence_smoother(window=window))
        expected = [
            StreamTuple(tick, values, "rfid")
            for tick in ticks
            for values in query3(claims[tick], granule_field, tie_break, strength)
        ]
        assert run_stages(ReceptorKind.RFID, deployment, *stages) == expected
