"""X10 motion detector simulation.

X10 motion detectors emit a stream of ``"ON"`` events when they sense
movement. The paper (§6.1) notes their two failure modes, both visible in
its Figure 9(d) raw traces:

- they "frequently fail to report" when there *is* motion — modelled as a
  per-poll detection probability well below 1;
- they "report when there is no motion in the room" — modelled as a
  small per-poll false-positive probability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # annotations only: importing a receptor needs no numpy
    import numpy as np

from repro.errors import ReceptorError
from repro.receptors.base import Receptor, ReceptorKind, require_rng
from repro.streams.tuples import StreamTuple


class X10MotionDetector(Receptor):
    """A simulated X10 motion detector.

    Args:
        receptor_id: Detector identifier (``"x10_1"``).
        occupied: Ground-truth callable ``occupied(now) -> bool`` for
            whether there is motion in the detector's view.
        detect_probability: Per-poll probability of reporting ``ON`` when
            there is motion.
        false_on_probability: Per-poll probability of reporting ``ON``
            when there is none.
        sample_period: Seconds between polls.
        rng: Random generator or seed.

    Emits tuples with fields ``sensor_id`` and ``value`` (always
    ``"ON"`` — X10 detectors report events, not levels), only on polls
    where the device fires.
    """

    def __init__(
        self,
        receptor_id: str,
        occupied: Callable[[float], bool],
        detect_probability: float = 0.35,
        false_on_probability: float = 0.01,
        sample_period: float = 1.0,
        rng: "np.random.Generator | int | None" = None,
    ):
        super().__init__(receptor_id, ReceptorKind.X10, sample_period)
        for name, value in (
            ("detect_probability", detect_probability),
            ("false_on_probability", false_on_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ReceptorError(f"{name}={value} outside [0, 1]")
        self._occupied = occupied
        self.detect_probability = float(detect_probability)
        self.false_on_probability = float(false_on_probability)
        self._rng = require_rng(rng)

    def poll(self, now: float) -> list[StreamTuple]:
        probability = (
            self.detect_probability
            if self._occupied(now)
            else self.false_on_probability
        )
        if self._rng.random() >= probability:
            return []
        return [
            StreamTuple(
                now,
                {"sensor_id": self.receptor_id, "value": "ON"},
                stream=self.stream_name,
            )
        ]
