"""RFID reader and tag simulation.

The paper's shelf experiment uses two Alien ALR-9780 readers polling at
5 Hz over EPC Class 1 tags. We model what the cleaning problem actually
depends on — the *per-poll detection process*:

- detection probability falls off with tag-to-antenna distance
  (:class:`DetectionField`), calibrated so that tags in the primary read
  range are captured 60–85 % of the time per poll, matching the 60–70 %
  read rates the paper cites for RFID readers [16, 25];
- antennae of the same model differ in effective gain (the paper observed
  shelf 0's antenna consistently reading 4–5 items high, §4.1), modelled
  as a per-reader gain multiplier;
- readers occasionally capture tags far outside their nominal view
  (foreign-shelf reads) and, rarely, *ghost* tags that do not exist
  (failed-checksum reads the Point stage filters, §4/§6.1).

A reader polls a set of :class:`TagPlacement` objects whose distance to
each reader is supplied by the scenario's ground truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # annotations only: importing a receptor needs no numpy
    import numpy as np

from repro.errors import ReceptorError
from repro.receptors.base import Receptor, ReceptorKind, require_rng
from repro.streams.tuples import StreamTuple


class DetectionField:
    """Piecewise-linear detection probability as a function of distance.

    Args:
        anchors: ``(distance_ft, probability)`` pairs, sorted by distance.
            Probability is interpolated linearly between anchors and is 0
            beyond the last anchor.

    The default calibration reproduces the paper's observed behaviour:
    near-range tags read most polls, the 9-ft relocated tags read
    intermittently, and foreign-shelf tags read rarely enough that a 5 s
    window does not saturate on them (the phenomenon Arbitrate exists to
    clean up).

    Example:
        >>> field = DetectionField.default()
        >>> field(3.0) > field(6.0) > field(9.0) > field(13.0)
        True
    """

    def __init__(self, anchors: Sequence[tuple[float, float]]):
        if len(anchors) < 2:
            raise ReceptorError("detection field needs at least two anchors")
        distances = [d for d, _p in anchors]
        if distances != sorted(distances):
            raise ReceptorError("detection anchors must be sorted by distance")
        for _d, p in anchors:
            if not 0.0 <= p <= 1.0:
                raise ReceptorError(f"detection probability {p} outside [0, 1]")
        self._anchors = [(float(d), float(p)) for d, p in anchors]

    @classmethod
    def default(cls) -> "DetectionField":
        """Calibration used by the shelf scenario (see module docstring)."""
        return cls(
            [
                (0.0, 0.92),
                (3.0, 0.85),
                (6.0, 0.68),
                (9.0, 0.24),
                (10.0, 0.012),
                (13.0, 0.0015),
                (16.0, 0.0),
            ]
        )

    def __call__(self, distance: float) -> float:
        """Detection probability at ``distance`` feet."""
        if distance <= self._anchors[0][0]:
            return self._anchors[0][1]
        for (d0, p0), (d1, p1) in zip(self._anchors, self._anchors[1:]):
            if distance <= d1:
                fraction = (distance - d0) / (d1 - d0)
                return p0 + fraction * (p1 - p0)
        return 0.0


class TagPlacement:
    """A tag together with its (time-varying) distance to each reader.

    Args:
        tag_id: EPC tag identifier.
        distance_to: Callable ``(reader_id, now) -> distance in feet`` (or
            ``math.inf`` when out of range entirely).
    """

    __slots__ = ("tag_id", "distance_to")

    def __init__(
        self, tag_id: str, distance_to: Callable[[str, float], float]
    ):
        self.tag_id = tag_id
        self.distance_to = distance_to

    def __repr__(self) -> str:
        return f"TagPlacement({self.tag_id})"


class RFIDReader(Receptor):
    """A simulated RFID reader polling a tag population.

    Args:
        receptor_id: Reader identifier (``"reader0"``).
        shelf: The spatial granule this reader monitors; stamped on every
            reading so downstream queries can GROUP BY it (the paper's ESP
            processor adds this attribute automatically, §4 footnote 2).
        tags: Tag placements this reader may detect.
        field: Distance-to-probability detection model.
        gain: Antenna gain multiplier on detection probability. The
            paper's shelf-0 antenna is the stronger one; its counterpart
            reads noticeably less despite being the same model [2].
        sample_period: Seconds between polls (default 0.2 s = 5 Hz).
        ghost_rate: Per-poll probability of emitting one spurious tag ID
            that exists nowhere (cleaned by a Point-stage checksum/
            whitelist).
        rng: Random generator or seed.

    Each poll emits one tuple per detected tag with fields ``tag_id``,
    ``shelf`` and ``reader_id``.
    """

    def __init__(
        self,
        receptor_id: str,
        shelf: "int | str",
        tags: Sequence[TagPlacement],
        field: DetectionField | None = None,
        gain: float = 1.0,
        sample_period: float = 0.2,
        ghost_rate: float = 0.0,
        rng: "np.random.Generator | int | None" = None,
    ):
        super().__init__(receptor_id, ReceptorKind.RFID, sample_period)
        if gain <= 0:
            raise ReceptorError(f"gain must be positive, got {gain}")
        if not 0.0 <= ghost_rate <= 1.0:
            raise ReceptorError(f"ghost rate {ghost_rate} outside [0, 1]")
        self.shelf = shelf
        self.gain = float(gain)
        self.ghost_rate = float(ghost_rate)
        self._tags = list(tags)
        self._field = field or DetectionField.default()
        self._rng = require_rng(rng)
        self._ghost_counter = 0

    def detection_probability(self, distance: float) -> float:
        """Per-poll detection probability at ``distance`` for this reader."""
        return min(1.0, self._field(distance) * self.gain)

    def poll(self, now: float) -> list[StreamTuple]:
        readings: list[StreamTuple] = []
        for tag in self._tags:
            distance = tag.distance_to(self.receptor_id, now)
            probability = self.detection_probability(distance)
            if probability > 0 and self._rng.random() < probability:
                readings.append(
                    StreamTuple(
                        now,
                        {
                            "tag_id": tag.tag_id,
                            "shelf": self.shelf,
                            "reader_id": self.receptor_id,
                        },
                        stream=self.stream_name,
                    )
                )
        if self.ghost_rate and self._rng.random() < self.ghost_rate:
            self._ghost_counter += 1
            readings.append(
                StreamTuple(
                    now,
                    {
                        "tag_id": f"ghost_{self.receptor_id}_{self._ghost_counter}",
                        "shelf": self.shelf,
                        "reader_id": self.receptor_id,
                    },
                    stream=self.stream_name,
                )
            )
        return readings
