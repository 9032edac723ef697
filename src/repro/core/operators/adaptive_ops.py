"""Adaptive smoothing: self-sizing temporal granule windows.

The paper leaves window sizing to the deployer and shows why it is hard
(§4.3.2, Figure 6): "an effective temporal granule size is bounded at
the low end by the reliability of the devices and at the high end by the
rate of change of the data". This module implements the resolution the
paper's discussion points toward — adapt the window per tag, online,
from the observed read statistics (the approach the ESP authors later
published as SMURF):

- Model each tag's reads as Bernoulli samples of its presence, with the
  per-poll read rate ``p`` estimated from the current window.
- **Completeness** (lower bound): to report a present tag with miss
  probability at most ``delta``, the window must span at least
  ``ln(1/delta) / p`` polls — grow the window when it is too small for
  the observed read rate.
- **Responsiveness** (upper bound): if the most recent half-window's
  read count is statistically inconsistent with ``p`` (a binomial
  two-sigma test), the tag has likely left — halve the window so stale
  positives drain quickly (multiplicative decrease).

The result needs no per-deployment granule tuning: reliable readers get
short windows (fast transitions), flaky ones get long windows (few
dropped readings).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

from repro.core.stages import Stage, StageContext, StageKind
from repro.errors import OperatorError
from repro.streams.operators import Operator
from repro.streams.tuples import StreamTuple


class _TagState:
    """Per-tag adaptive window state."""

    __slots__ = ("window_polls", "reads", "carry")

    def __init__(self, initial_polls: int, carry: dict):
        self.window_polls = initial_polls
        #: per-poll read counts, newest last, bounded by the max window
        self.reads: deque[int] = deque()
        self.carry = carry


class AdaptiveSmoother(Operator):
    """Per-ID presence smoothing with a self-sizing window.

    Drop-in alternative to the fixed-window
    :func:`~repro.core.operators.smooth_ops.presence_smoother`: emits, at
    every punctuation, one tuple per ID currently believed present, with
    its window read count and the window size the controller chose.

    Args:
        delta: Target probability of missing a present tag within one
            window (drives the completeness lower bound).
        min_polls / max_polls: Window size clamp, in polls.
        id_field: The identifier being smoothed (``tag_id``).
        carry: Fields copied from the ID's readings into its outputs.
        count_field: Output field for the window read count.
        window_field: Output field reporting the chosen window size, in
            polls (useful for diagnostics and the adaptive bench).
        confidence_field: Output field carrying the detection confidence
            ``1 - (1 - p)^w`` — the probability a tag actually present
            would have been read at least once in this window. Exposing
            per-reading confidence is the "increase the confidence in
            the data the system reports" thread of the paper's §3.2.

    Each punctuation is treated as one poll period, matching how the ESP
    processor drives RFID pipelines (tick == reader sample period).
    """

    def __init__(
        self,
        delta: float = 0.05,
        min_polls: int = 2,
        max_polls: int = 150,
        id_field: str = "tag_id",
        carry: Sequence[str] = ("spatial_granule",),
        count_field: str = "count",
        window_field: str = "window_polls",
        confidence_field: str = "confidence",
    ):
        if not 0.0 < delta < 1.0:
            raise OperatorError(f"delta must be in (0, 1), got {delta}")
        if not 1 <= min_polls <= max_polls:
            raise OperatorError(
                f"need 1 <= min_polls <= max_polls, got "
                f"{min_polls}..{max_polls}"
            )
        self.delta = float(delta)
        self.min_polls = int(min_polls)
        self.max_polls = int(max_polls)
        self._id_field = id_field
        self._carry = tuple(carry)
        self._count_field = count_field
        self._window_field = window_field
        self._confidence_field = confidence_field
        self._states: dict[object, _TagState] = {}
        self._pending: dict[object, int] = {}
        self._pending_carry: dict[object, dict] = {}

    STATE_ATTRS = ("_states", "_pending", "_pending_carry")

    # -- event handling ---------------------------------------------------------

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        id_field = self._id_field
        pending = self._pending
        pending_carry = self._pending_carry
        for item in items:
            identifier = item.get(id_field)
            if identifier is None:
                continue
            pending[identifier] = pending.get(identifier, 0) + 1
            if identifier not in pending_carry:
                pending_carry[identifier] = {
                    field: item.get(field) for field in self._carry
                }
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        # Close the poll: record this poll's reads for every tracked tag.
        for identifier, count in self._pending.items():
            state = self._states.get(identifier)
            if state is None:
                state = _TagState(
                    self.min_polls, self._pending_carry.get(identifier, {})
                )
                self._states[identifier] = state
            state.reads.append(count)
        for identifier, state in self._states.items():
            if identifier not in self._pending:
                state.reads.append(0)
            while len(state.reads) > self.max_polls:
                state.reads.popleft()
        self._pending = {}
        self._pending_carry = {}
        # Adapt windows and emit.
        out: list[StreamTuple] = []
        dead: list[object] = []
        for identifier, state in sorted(
            self._states.items(), key=lambda kv: str(kv[0])
        ):
            self._adapt(state)
            window = list(state.reads)[-state.window_polls:]
            total = sum(window)
            if total == 0:
                if sum(state.reads) == 0:
                    dead.append(identifier)
                continue
            if self._likely_departed(state, window):
                continue
            read_polls = sum(1 for count in window if count > 0)
            p_hat = read_polls / len(window)
            confidence = 1.0 - (1.0 - p_hat) ** len(window)
            out.append(
                StreamTuple(
                    now,
                    {
                        self._id_field: identifier,
                        self._count_field: total,
                        self._window_field: state.window_polls,
                        self._confidence_field: round(confidence, 6),
                        **state.carry,
                    },
                )
            )
        for identifier in dead:
            del self._states[identifier]
        return out

    def _likely_departed(self, state: _TagState, window: list[int]) -> bool:
        """Absence test: a trailing silence statistically inconsistent
        with the tag's read rate means it has left — stop reporting it
        even though older reads remain in the window.

        If the tag reads with per-poll probability ``p``, a run of ``k``
        consecutive silent polls has probability ``(1-p)^k``; once that
        falls below ``delta`` we declare the tag absent and flush its
        window. Reliable tags (high ``p``) are declared gone after a
        poll or two; flaky ones get the benefit of the doubt.
        """
        trailing_zeros = 0
        for count in reversed(window):
            if count:
                break
            trailing_zeros += 1
        if trailing_zeros == 0:
            return False
        read_polls = sum(1 for count in window if count > 0)
        p_hat = read_polls / len(window)
        if (1.0 - p_hat) ** trailing_zeros < self.delta:
            state.window_polls = self.min_polls
            return True
        return False

    # -- the controller ------------------------------------------------------------

    def _adapt(self, state: _TagState) -> None:
        """One AIMD step of the per-tag window size."""
        window = list(state.reads)[-state.window_polls:]
        observed = len(window)
        if observed == 0:
            return
        read_polls = sum(1 for count in window if count > 0)
        p_hat = read_polls / observed
        if p_hat <= 0.0:
            # Nothing read in the whole window: the tag is likely gone;
            # decay toward the minimum so it stops being reported soon.
            state.window_polls = max(
                self.min_polls, state.window_polls // 2
            )
            return
        # Responsiveness: binomial consistency of the recent half-window.
        half = max(1, state.window_polls // 2)
        recent = list(state.reads)[-half:]
        recent_rate = sum(1 for count in recent if count > 0) / len(recent)
        sigma = math.sqrt(p_hat * (1.0 - p_hat) / len(recent))
        if recent_rate < p_hat - 2.0 * sigma:
            state.window_polls = max(self.min_polls, state.window_polls // 2)
            return
        # Completeness: window must cover ln(1/delta)/p polls.
        required = math.ceil(math.log(1.0 / self.delta) / p_hat)
        if state.window_polls < required:
            state.window_polls = min(
                self.max_polls, max(required, state.window_polls + 2)
            )


class HorvitzThompsonCounter(Operator):
    """Unbiased population-count estimation under missed readings.

    Counting distinct tags over a smoothed window (the paper's Query 1
    over Query 2) *under*-estimates whenever some tags were missed for
    the entire window. Treating each poll as a Bernoulli sample with
    per-tag read rate ``p_i`` gives the Horvitz–Thompson correction: a
    tag observed in a ``w``-poll window was detectable with probability
    ``pi_i = 1 - (1 - p_i)^w``, so the unbiased population estimate is::

        N_hat = sum over observed tags of 1 / pi_i

    Per-tag read rates are estimated from each tag's own window. This is
    the aggregate half of the SMURF direction; it matters exactly where
    presence smoothing breaks down — short windows or very unreliable
    readers.

    Args:
        window_polls: Window length in polls (punctuations).
        id_field: Tag identifier field.
        group_field: Population grouping field (``spatial_granule``).
        count_field: Output field for the estimate.

    Emits one tuple per group per punctuation with the estimated count
    (float — estimates are fractional by nature) and the observed
    distinct count for comparison.
    """

    def __init__(
        self,
        window_polls: int,
        id_field: str = "tag_id",
        group_field: str = "spatial_granule",
        count_field: str = "estimated_count",
    ):
        if window_polls < 1:
            raise OperatorError(
                f"window_polls must be >= 1, got {window_polls}"
            )
        self._window_polls = int(window_polls)
        self._id_field = id_field
        self._group_field = group_field
        self._count_field = count_field
        #: (group, tag) -> per-poll read counts (bounded deque)
        self._reads: dict[tuple, deque[int]] = {}
        self._pending: dict[tuple, int] = {}

    STATE_ATTRS = ("_reads", "_pending")

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        id_field = self._id_field
        group_field = self._group_field
        pending = self._pending
        for item in items:
            tag = item.get(id_field)
            group = item.get(group_field)
            if tag is None or group is None:
                continue
            key = (group, tag)
            pending[key] = pending.get(key, 0) + 1
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        # Close the poll for every tracked (group, tag).
        for key, count in self._pending.items():
            self._reads.setdefault(key, deque()).append(count)
        for key, reads in self._reads.items():
            if key not in self._pending:
                reads.append(0)
            while len(reads) > self._window_polls:
                reads.popleft()
        self._pending = {}
        # Estimate per group.
        estimates: dict[object, float] = {}
        observed: dict[object, int] = {}
        dead: list[tuple] = []
        for (group, _tag), reads in self._reads.items():
            read_polls = sum(1 for count in reads if count > 0)
            if read_polls == 0:
                dead.append((group, _tag))
                continue
            p_hat = read_polls / len(reads)
            pi = 1.0 - (1.0 - p_hat) ** len(reads)
            estimates[group] = estimates.get(group, 0.0) + 1.0 / pi
            observed[group] = observed.get(group, 0) + 1
        for key in dead:
            del self._reads[key]
        return [
            StreamTuple(
                now,
                {
                    self._group_field: group,
                    self._count_field: estimate,
                    "observed_count": observed[group],
                },
            )
            for group, estimate in sorted(
                estimates.items(), key=lambda kv: str(kv[0])
            )
        ]


def horvitz_thompson_counter(
    window_polls: int,
    id_field: str = "tag_id",
    group_field: str = "spatial_granule",
    name: str = "",
) -> Stage:
    """Stage builder for :class:`HorvitzThompsonCounter` (Smooth stage)."""

    def factory(_ctx: StageContext) -> Operator:
        return HorvitzThompsonCounter(
            window_polls, id_field=id_field, group_field=group_field
        )

    return Stage(
        StageKind.SMOOTH, factory, name=name or "horvitz_thompson_counter"
    )


def adaptive_smoother(
    delta: float = 0.05,
    min_polls: int = 2,
    max_polls: int = 150,
    id_field: str = "tag_id",
    carry: Sequence[str] = ("spatial_granule",),
    name: str = "",
) -> Stage:
    """Stage builder for :class:`AdaptiveSmoother` (Smooth stage)."""

    def factory(_ctx: StageContext) -> Operator:
        return AdaptiveSmoother(
            delta=delta,
            min_polls=min_polls,
            max_polls=max_polls,
            id_field=id_field,
            carry=carry,
        )

    return Stage(StageKind.SMOOTH, factory, name=name or "adaptive_smoother")
