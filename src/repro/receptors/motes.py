"""Wireless sensor mote simulation.

A :class:`Mote` samples a physical field (temperature, humidity, sound)
through a noisy sensor and reports each sample over a lossy collection
network. Two failure behaviours from the paper are modelled:

- **message loss** — the mote samples but the reading never arrives
  (handled by the channel models in :mod:`repro.receptors.network`);
- **fail-dirty** (:class:`FailDirtyModel`) — the sensor breaks but keeps
  reporting, with values drifting far from reality. In the paper's
  Sonoma deployment 8 of 33 temperature motes failed dirty, rising above
  100 °C (§1, §5.1); the Intel-lab trace used for Figure 7 contains one
  such mote.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # annotations only: importing a receptor needs no numpy
    import numpy as np

from repro.errors import ReceptorError
from repro.receptors.base import Receptor, ReceptorKind, require_rng
from repro.receptors.network import PerfectChannel
from repro.streams.tuples import StreamTuple


class FailDirtyModel:
    """A fail-dirty fault: after onset, readings ramp away from truth.

    The paper describes failed temperature sensors whose readings "slowly
    rose to above 100°C". We model the reported value after failure as::

        reading = value_at_failure + drift_rate * (now - onset) + noise

    Args:
        onset: Failure time (seconds).
        drift_rate: Reported-value drift in units per second (positive for
            the paper's rising-temperature signature).
        noise_std: Extra reporting noise after failure.

    Example:
        >>> fd = FailDirtyModel(onset=100.0, drift_rate=0.01)
        >>> fd.active(50.0), fd.active(150.0)
        (False, True)
    """

    def __init__(self, onset: float, drift_rate: float, noise_std: float = 0.0):
        if drift_rate == 0:
            raise ReceptorError("fail-dirty drift rate must be non-zero")
        self.onset = float(onset)
        self.drift_rate = float(drift_rate)
        self.noise_std = float(noise_std)
        self._value_at_failure: float | None = None

    def active(self, now: float) -> bool:
        """Whether the fault has begun by time ``now``."""
        return now >= self.onset

    def corrupt(
        self, now: float, true_value: float, rng: np.random.Generator
    ) -> float:
        """The faulty reported value at ``now`` (call only when active)."""
        if self._value_at_failure is None:
            self._value_at_failure = true_value
        drifted = self._value_at_failure + self.drift_rate * (now - self.onset)
        if self.noise_std:
            drifted += rng.normal(0.0, self.noise_std)
        return drifted


class MultiSensorMote(Receptor):
    """A mote whose board carries several sensors sampled together.

    Real motes report multiple quantities per epoch (the Intel-lab trace
    has temperature, humidity, light and battery voltage), and their
    cross-correlations are exactly what BBQ-style model-driven cleaning
    exploits (paper §2.2/§6.3.1: "correlations between different sensors
    (e.g., voltage and temperature)"). Each poll emits one tuple with
    every quantity.

    Args:
        receptor_id: Mote identifier.
        fields: Quantity name → ground-truth callable ``field(now)``.
        noise_std: Per-quantity sensor noise; either one float for all
            quantities or a mapping per quantity.
        fail_dirty: Optional fault model applied to ``fail_quantity``
            only — the paper's failed sensors corrupt one transducer
            while the rest of the board keeps working.
        fail_quantity: The quantity the fault corrupts.
        sample_period / channel / extra_fields / rng: As for
            :class:`Mote`.
    """

    def __init__(
        self,
        receptor_id: str,
        fields: "dict[str, Callable[[float], float]]",
        noise_std: "float | dict[str, float]" = 0.05,
        sample_period: float = 300.0,
        channel=None,
        fail_dirty: "FailDirtyModel | None" = None,
        fail_quantity: str = "temp",
        extra_fields: dict | None = None,
        rng: "np.random.Generator | int | None" = None,
    ):
        super().__init__(receptor_id, ReceptorKind.MOTE, sample_period)
        if not fields:
            raise ReceptorError("MultiSensorMote needs at least one quantity")
        if fail_dirty is not None and fail_quantity not in fields:
            raise ReceptorError(
                f"fail_quantity {fail_quantity!r} is not a sensed quantity"
            )
        self._fields = dict(fields)
        if isinstance(noise_std, dict):
            self._noise = {q: float(noise_std.get(q, 0.0)) for q in fields}
        else:
            self._noise = {q: float(noise_std) for q in fields}
        for quantity, std in self._noise.items():
            if std < 0:
                raise ReceptorError(
                    f"noise std for {quantity!r} must be >= 0, got {std}"
                )
        self.channel = channel if channel is not None else PerfectChannel()
        self.fail_dirty = fail_dirty
        self.fail_quantity = fail_quantity
        self.extra_fields = dict(extra_fields or {})
        self._rng = require_rng(rng)

    def sense(self, now: float) -> dict[str, float]:
        """All quantities this mote would report at ``now``."""
        values: dict[str, float] = {}
        for quantity, field in self._fields.items():
            true_value = float(field(now))
            if (
                self.fail_dirty is not None
                and quantity == self.fail_quantity
                and self.fail_dirty.active(now)
            ):
                values[quantity] = self.fail_dirty.corrupt(
                    now, true_value, self._rng
                )
                continue
            std = self._noise[quantity]
            noise = float(self._rng.normal(0.0, std)) if std else 0.0
            values[quantity] = true_value + noise
        return values

    def poll(self, now: float) -> list[StreamTuple]:
        values = self.sense(now)
        if not self.channel.deliver():
            return []
        epoch = int(round(now / self.sample_period))
        return [
            StreamTuple(
                now,
                {
                    "mote_id": self.receptor_id,
                    "epoch": epoch,
                    **values,
                    **self.extra_fields,
                },
                stream=self.stream_name,
            )
        ]


class Mote(Receptor):
    """A simulated wireless sensor mote.

    Args:
        receptor_id: Mote identifier (``"mote1"``).
        field: Ground-truth callable ``field(now) -> value`` for the
            quantity this mote senses at its location. Scenarios bind the
            mote's position into this closure.
        quantity: Output field name (``"temp"``, ``"noise"``, ...).
        sample_period: Seconds between samples (300 s for the paper's
            redwood epochs; 1 s for the digital-home sound motes).
        noise_std: Sensor noise standard deviation.
        channel: Delivery model; defaults to a perfect channel.
        fail_dirty: Optional fail-dirty fault model.
        extra_fields: Constant fields stamped on every reading (e.g.
            ``{"height_m": 40.2}``).
        rng: Random generator or seed.

    Each delivered sample is one tuple with fields ``mote_id``, the
    quantity, and ``epoch`` (sample index) plus any extra fields.
    """

    def __init__(
        self,
        receptor_id: str,
        field: Callable[[float], float],
        quantity: str = "temp",
        sample_period: float = 300.0,
        noise_std: float = 0.05,
        channel=None,
        fail_dirty: FailDirtyModel | None = None,
        extra_fields: dict | None = None,
        rng: "np.random.Generator | int | None" = None,
    ):
        super().__init__(receptor_id, ReceptorKind.MOTE, sample_period)
        if noise_std < 0:
            raise ReceptorError(f"noise std must be >= 0, got {noise_std}")
        self._field = field
        self.quantity = quantity
        self.noise_std = float(noise_std)
        self.channel = channel if channel is not None else PerfectChannel()
        self.fail_dirty = fail_dirty
        self.extra_fields = dict(extra_fields or {})
        self._rng = require_rng(rng)

    def sense(self, now: float) -> float:
        """The value this mote would *report* at ``now`` (before loss)."""
        true_value = float(self._field(now))
        if self.fail_dirty is not None and self.fail_dirty.active(now):
            return self.fail_dirty.corrupt(now, true_value, self._rng)
        if self.noise_std:
            return true_value + float(self._rng.normal(0.0, self.noise_std))
        return true_value

    def poll(self, now: float) -> list[StreamTuple]:
        value = self.sense(now)
        if not self.channel.deliver():
            return []
        epoch = int(round(now / self.sample_period))
        return [
            StreamTuple(
                now,
                {
                    "mote_id": self.receptor_id,
                    self.quantity: value,
                    "epoch": epoch,
                    **self.extra_fields,
                },
                stream=self.stream_name,
            )
        ]
