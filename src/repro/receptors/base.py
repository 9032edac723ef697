"""Receptor base types.

A receptor is a physical device producing a stream of readings. Simulated
receptors are driven tick-by-tick: :meth:`Receptor.poll` is called once
per sample period with the current time and returns zero or more
:class:`~repro.streams.tuples.StreamTuple` readings.

Every stochastic receptor takes an explicit ``numpy.random.Generator`` so
that experiments are reproducible; none touches global random state.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

from repro.errors import ReceptorError
from repro.streams.tuples import StreamTuple


class ReceptorKind(str, enum.Enum):
    """The receptor technologies used in the paper's deployments."""

    RFID = "rfid"
    MOTE = "mote"
    X10 = "x10"


class Receptor:
    """Base class for simulated receptor devices.

    Args:
        receptor_id: Unique device identifier (e.g. ``"reader0"``).
        kind: Device technology.
        sample_period: Seconds between polls (e.g. 0.2 for 5 Hz RFID).

    Subclasses implement :meth:`poll`. The ``stream_name`` of a receptor's
    readings defaults to its id; the ESP processor rewrites stream names
    while wiring pipelines.
    """

    def __init__(
        self,
        receptor_id: str,
        kind: ReceptorKind,
        sample_period: float,
    ):
        if sample_period <= 0:
            raise ReceptorError(
                f"sample period must be positive, got {sample_period}"
            )
        self.receptor_id = receptor_id
        self.kind = kind
        self.sample_period = float(sample_period)

    @property
    def stream_name(self) -> str:
        """Name stamped on this receptor's output tuples."""
        return self.receptor_id

    def poll(self, now: float) -> list[StreamTuple]:
        """Produce this tick's readings (possibly none)."""
        raise NotImplementedError

    def stream(self, until: float, start: float = 0.0) -> Iterator[StreamTuple]:
        """Poll from ``start`` through ``until`` and yield all readings.

        Ticks are computed as ``start + i * sample_period`` to avoid float
        accumulation drift over long experiments.
        """
        ticks = int(round((until - start) / self.sample_period))
        for i in range(ticks + 1):
            yield from self.poll(start + i * self.sample_period)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.receptor_id!r}, "
            f"kind={self.kind.value}, period={self.sample_period:g}s)"
        )


def require_rng(rng: "np.random.Generator | int | None") -> np.random.Generator:
    """Normalize an RNG argument: Generator passthrough, int seed, or None
    (fresh nondeterministic generator — discouraged outside exploration)."""
    # The simulators' one use of numpy, imported here so that the
    # package (and every pipeline fed recorded streams) imports without it.
    import numpy as np

    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
