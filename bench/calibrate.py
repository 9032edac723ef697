"""Reference seconds: thread CPU time scaled by sampled host speed.

The benchmark runs on a small shared VM, and the host takes time from
it in two ways (both seen with nothing else running; the numbers are in
``bench/README.md``):

- **stolen time** — the vCPU is descheduled for 0.5–45 ms at a time,
  1–40 % of a given second. The guest kernel accounts for it (the
  ``steal`` column of ``/proc/stat``), so a thread's CPU clock does not
  advance while it is stolen: passes are timed with
  ``time.thread_time()`` (:data:`cpu_clock`). Every tier does its work
  on one thread — feeder and servers share one event loop — so that
  clock covers the whole path.
- **slow seconds** — the same bytecode takes 10–19 ms from one second
  to the next, and up to 2× for tens of seconds. The CPU clock runs
  through those, so a run also samples the host: a background thread
  executes one fixed *calibration unit* — a short bytecode loop plus a
  few loopback socket round trips, the two kinds of work the tiers do —
  every ``PERIOD_S`` and records the CPU time it took.

A timed interval is reported in **reference seconds**: its CPU seconds
times the mean host speed sampled during it, speed 1.0 being a unit
that takes ``REFERENCE_UNIT_S``. The unit is benchmark code, so no
change to ``repro`` moves it; a pass and the samples taken during it
slow down together, so their ratio holds still. On a quiet host at
reference speed a reference second is a wall second of a busy thread.

The sampler costs the measured program a few percent of wall time (one
0.2 ms unit per 20 ms plus two GIL hand-offs) and none of its CPU time.
"""

from __future__ import annotations

import socket
import threading
import time
from bisect import bisect_left, bisect_right

#: The clock passes are timed with: CPU seconds of the calling thread.
cpu_clock = time.thread_time

#: CPU time of one calibration unit on the reference host: this 2-vCPU
#: box in its usual state, measured *while a workload runs* (the unit
#: shares caches and the GIL with it). It fixes the unit of every
#: reported time; changing it rescales all of them.
REFERENCE_UNIT_S = 0.00022
#: Seconds between samples.
PERIOD_S = 0.02
#: The unit: loop iterations, then socket round trips of PAYLOAD bytes.
SPIN = 5000
ROUND_TRIPS = 30
PAYLOAD = b"x" * 200


class HostSpeed:
    """Samples host speed on a background thread while in context.

    ``speed(start, end)`` is the mean relative speed over the samples
    taken between two ``time.perf_counter()`` instants (widened to the
    nearest sample on each side when the interval holds fewer than two).
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._speeds: list[float] = []
        self._stop = threading.Event()
        self._sampled = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="bench-host-speed", daemon=True
        )

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        self._sampled.wait()  # speed() always has a sample to answer with
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        near, far = socket.socketpair()
        try:
            while True:
                taken = time.perf_counter()
                started = cpu_clock()
                total = 0
                for i in range(SPIN):
                    total += i
                for _ in range(ROUND_TRIPS):
                    near.send(PAYLOAD)
                    far.recv(4096)
                spent = cpu_clock() - started
                # Appended in this order so a reader never sees a time
                # without its speed.
                self._speeds.append(REFERENCE_UNIT_S / spent)
                self._times.append(taken)
                self._sampled.set()
                if self._stop.wait(PERIOD_S):
                    break
        finally:
            near.close()
            far.close()

    def speed(self, start: float, end: float) -> float:
        """Mean host speed (1.0 = reference) between two instants."""
        times = self._times
        first = bisect_left(times, start)
        last = bisect_right(times, end)
        if last - first < 2:
            first, last = max(0, first - 1), min(len(times), last + 1)
        window = self._speeds[first:last]
        return sum(window) / len(window)
