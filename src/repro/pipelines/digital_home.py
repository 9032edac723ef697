"""The digital-home person-detector pipeline (paper §6).

Three per-technology cleaning pipelines — reusing the RFID and sensor
stages of the previous deployments, exactly as the paper emphasizes
(§6.1: "stages from other deployments can be reused") — feed a
deployment-wide Virtualize voting stage (Query 6):

- **RFID**: Point whitelist of the expected badge tags (the static-
  relation join of §6.1), Smooth presence interpolation, then a
  kind-level distinct-tag count whose rows vote when more than one badge
  tag is visible;
- **motes**: per-mote Smooth sliding average of the sound level, Merge
  spatial average over the room's motes; rows vote when the averaged
  noise exceeds the paper's 525 threshold;
- **X10**: Smooth ON-event interpolation per detector, Merge 2-of-3
  distinct-device vote; any resulting row votes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.operators.merge_ops import k_of_n_vote, spatial_average
from repro.core.operators.point_ops import whitelist
from repro.core.operators.smooth_ops import (
    event_smoother,
    presence_smoother,
    sliding_average,
)
from repro.core.operators.virtualize_ops import voting_detector
from repro.core.pipeline import ESPPipeline, ESPProcessor
from repro.core.stages import Stage, StageKind

if TYPE_CHECKING:  # the simulator needs numpy; this module does not
    from repro.scenarios.office import OfficeScenario

#: Sound level (arbitrary ADC units) used by the paper's Query 6 threshold.
NOISE_THRESHOLD = 525.0

#: Stream names Virtualize sees, mirroring the paper's Query 6.
VIRTUALIZE_STREAMS = {
    "mote": "sensors_input",
    "rfid": "rfid_input",
    "x10": "motion_input",
}

#: The kind-level RFID count feeding the >1-distinct-tags vote. Written
#: as a declarative query (Query 1's shape at NOW granularity) to
#: demonstrate mixing CQL and toolkit stages in one pipeline.
_RFID_COUNT_QUERY = """
SELECT spatial_granule, count(distinct tag_id) AS n_tags
FROM rfid_smoothed [Range By 'NOW']
GROUP BY spatial_granule
"""


#: The paper's Query 6, with ``coalesce`` making missing votes explicit
#: zeros (see DESIGN.md on the listing's typos). Used by the fully
#: declarative deployment variant below.
_PERSON_DETECTOR_QUERY = """
SELECT 'Person-in-room' AS event
FROM (SELECT 1 as cnt
      FROM sensors_input [Range By 'NOW']
      WHERE sensors.noise > 525) as sensor_count,
     (SELECT 1 as cnt
      FROM rfid_input [Range By 'NOW']
      HAVING count(distinct tag_id) > 1) as rfid_count,
     (SELECT 1 as cnt
      FROM motion_input [Range By 'NOW']
      WHERE value = 'ON') as motion_count,
WHERE coalesce(sensor_count.cnt, 0) +
      coalesce(rfid_count.cnt, 0) +
      coalesce(motion_count.cnt, 0) >= 2
"""


def build_declarative_home_processor(
    scenario: OfficeScenario,
) -> ESPProcessor:
    """The person detector with Virtualize as the paper's literal Query 6.

    Same per-technology cleaning as
    :func:`build_digital_home_processor`, but the fusion stage is the
    CQL voting query rather than the toolkit's
    :class:`~repro.core.operators.virtualize_ops.VotingDetector` — the
    two variants' accuracies are pinned to each other by the test suite.
    The RFID pipeline stops after Smooth here because Query 6 itself
    performs the distinct-tag count.
    """
    granule = scenario.temporal_granule
    rfid = ESPPipeline(
        "rfid",
        temporal_granule=granule,
        sequence=[
            whitelist("tag_id", scenario.expected_tags),
            presence_smoother(),
        ],
    )
    motes = ESPPipeline(
        "mote",
        temporal_granule=granule,
        sequence=[
            sliding_average(value_field="noise", by=("mote_id",)),
            spatial_average(value_field="noise"),
        ],
    )
    x10 = ESPPipeline(
        "x10",
        temporal_granule=granule,
        sequence=[
            event_smoother(),
            k_of_n_vote(min_devices=2),
        ],
    )
    processor = ESPProcessor(scenario.registry)
    processor.add_pipeline(rfid)
    processor.add_pipeline(motes)
    processor.add_pipeline(x10)
    processor.set_virtualize(
        Stage.from_query(
            StageKind.VIRTUALIZE,
            _PERSON_DETECTOR_QUERY,
            name="query6_person_detector",
        ),
        stream_names=VIRTUALIZE_STREAMS,
    )
    return processor


def build_digital_home_processor(
    scenario: OfficeScenario,
    threshold: int = 2,
    noise_threshold: float = NOISE_THRESHOLD,
    x10_min_devices: int = 2,
) -> ESPProcessor:
    """Assemble the full three-technology person detector.

    Args:
        scenario: The office scenario.
        threshold: Virtualize vote threshold (paper: 2 of 3 receptor
            technologies).
        noise_threshold: Sound level above which the mote stream votes
            (paper Query 6: 525).
        x10_min_devices: Distinct X10 devices required by the Merge vote
            (paper: 2 of 3).

    The processor's output stream carries one detection tuple per tick
    in which at least ``threshold`` technologies voted.
    """
    granule = scenario.temporal_granule
    rfid = ESPPipeline(
        "rfid",
        temporal_granule=granule,
        sequence=[
            whitelist("tag_id", scenario.expected_tags),
            presence_smoother(),
            Stage.from_query(StageKind.ARBITRATE, _RFID_COUNT_QUERY,
                             name="rfid_distinct_count"),
        ],
    )
    motes = ESPPipeline(
        "mote",
        temporal_granule=granule,
        sequence=[
            sliding_average(value_field="noise", by=("mote_id",)),
            spatial_average(value_field="noise"),
        ],
    )
    x10 = ESPPipeline(
        "x10",
        temporal_granule=granule,
        sequence=[
            event_smoother(),
            k_of_n_vote(min_devices=x10_min_devices),
        ],
    )
    detector = voting_detector(
        votes={
            VIRTUALIZE_STREAMS["mote"]: (
                lambda t: (t.get("noise") or 0) > noise_threshold
            ),
            VIRTUALIZE_STREAMS["rfid"]: (
                lambda t: (t.get("n_tags") or 0) > 1
            ),
            VIRTUALIZE_STREAMS["x10"]: None,  # any surviving row votes
        },
        threshold=threshold,
    )
    processor = ESPProcessor(scenario.registry)
    processor.add_pipeline(rfid)
    processor.add_pipeline(motes)
    processor.add_pipeline(x10)
    processor.set_virtualize(detector, stream_names=VIRTUALIZE_STREAMS)
    return processor
