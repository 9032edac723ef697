"""Lossy collection-network models for wireless sensor motes.

The paper's environmental deployments lose most of their data in the
multi-hop network: the redwood trace delivered only 40 % of requested
epochs, and the Intel lab deployment averaged a 42 % per-mote yield.
Crucially for ESP, those losses are *bursty* — link-quality excursions
and routing changes knock a mote out for many consecutive epochs — which
is why temporal smoothing alone cannot recover every epoch (it lifts the
redwood yield only to 77 %; a 40 % i.i.d. loss process would be almost
fully recoverable with a 30-minute window).

:class:`GilbertElliottChannel` is the classic two-state bursty-loss model:
a good state with high delivery probability and a bad state with low
delivery probability, with geometric sojourn times in each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: importing a receptor needs no numpy
    import numpy as np

from repro.errors import ReceptorError
from repro.receptors.base import require_rng


class PerfectChannel:
    """A channel that delivers everything (for unit tests and baselines)."""

    def deliver(self) -> bool:
        """Always True."""
        return True

    def expected_yield(self) -> float:
        """Long-run delivery fraction (1.0)."""
        return 1.0


class DelayModel:
    """Truncated-exponential network delay sampler.

    Multi-hop collection networks deliver readings late as well as
    lossily; delays cluster near the typical per-hop latency with a
    heavy-ish tail (retransmissions, route repairs), here modelled as an
    exponential truncated at ``max_delay``. Pairs with
    :mod:`repro.streams.reorder` to study how much reorder slack a
    deployment needs.

    Args:
        mean_delay: Mean of the (untruncated) exponential, seconds.
        max_delay: Hard delay cap, seconds (retries give up eventually).
        rng: Random generator or seed.
    """

    def __init__(
        self,
        mean_delay: float,
        max_delay: float,
        rng: "np.random.Generator | int | None" = None,
    ):
        if mean_delay <= 0:
            raise ReceptorError(
                f"mean delay must be positive, got {mean_delay}"
            )
        if max_delay < mean_delay:
            raise ReceptorError(
                f"max delay {max_delay} must be >= mean delay {mean_delay}"
            )
        self.mean_delay = float(mean_delay)
        self.max_delay = float(max_delay)
        self._rng = require_rng(rng)

    def sample(self) -> float:
        """One delay draw, in seconds."""
        return float(
            min(self.max_delay, self._rng.exponential(self.mean_delay))
        )


class GilbertElliottChannel:
    """Two-state Markov (Gilbert–Elliott) bursty loss channel.

    Args:
        p_good_to_bad: Per-step probability of leaving the good state.
        p_bad_to_good: Per-step probability of leaving the bad state.
        deliver_good: Delivery probability while in the good state.
        deliver_bad: Delivery probability while in the bad state.
        rng: Random generator or seed.
        start_good: Whether to start in the good state; by default the
            initial state is drawn from the stationary distribution so
            that short traces are unbiased.

    Example:
        >>> ch = GilbertElliottChannel(0.05, 0.05, 0.95, 0.05, rng=0)
        >>> 0.0 < ch.expected_yield() < 1.0
        True
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        deliver_good: float = 0.95,
        deliver_bad: float = 0.05,
        rng: "np.random.Generator | int | None" = None,
        start_good: bool | None = None,
    ):
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("deliver_good", deliver_good),
            ("deliver_bad", deliver_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ReceptorError(f"{name}={value} outside [0, 1]")
        if p_good_to_bad + p_bad_to_good == 0:
            raise ReceptorError("channel would never change state")
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.deliver_good = float(deliver_good)
        self.deliver_bad = float(deliver_bad)
        self._rng = require_rng(rng)
        if start_good is None:
            self._good = self._rng.random() < self.stationary_good_fraction()
        else:
            self._good = bool(start_good)

    def stationary_good_fraction(self) -> float:
        """Long-run fraction of time spent in the good state."""
        return self.p_bad_to_good / (self.p_good_to_bad + self.p_bad_to_good)

    def expected_yield(self) -> float:
        """Long-run delivery fraction implied by the parameters."""
        good = self.stationary_good_fraction()
        return good * self.deliver_good + (1.0 - good) * self.deliver_bad

    def deliver(self) -> bool:
        """Advance one step; return whether this step's message arrives."""
        if self._good:
            if self._rng.random() < self.p_good_to_bad:
                self._good = False
        else:
            if self._rng.random() < self.p_bad_to_good:
                self._good = True
        probability = self.deliver_good if self._good else self.deliver_bad
        return bool(self._rng.random() < probability)

    @classmethod
    def with_target_yield(
        cls,
        target_yield: float,
        mean_bad_epochs: float,
        deliver_good: float = 0.97,
        deliver_bad: float = 0.02,
        rng: "np.random.Generator | int | None" = None,
    ) -> "GilbertElliottChannel":
        """Construct a channel with a given long-run yield and burstiness.

        Args:
            target_yield: Desired long-run delivery fraction (e.g. 0.40
                for the redwood trace).
            mean_bad_epochs: Mean sojourn in the bad state, in steps —
                the burst length that determines how much a smoothing
                window can recover.
            deliver_good: Delivery probability in the good state.
            deliver_bad: Delivery probability in the bad state.
            rng: Random generator or seed.

        Raises:
            ReceptorError: If the target yield is unreachable with the
                given state delivery probabilities.
        """
        if not deliver_bad < target_yield < deliver_good:
            raise ReceptorError(
                f"target yield {target_yield} must lie strictly between "
                f"deliver_bad={deliver_bad} and deliver_good={deliver_good}"
            )
        if mean_bad_epochs < 1.0:
            raise ReceptorError("mean_bad_epochs must be >= 1")
        good_fraction = (target_yield - deliver_bad) / (deliver_good - deliver_bad)
        p_bad_to_good = 1.0 / mean_bad_epochs
        # good_fraction = p_bg / (p_gb + p_bg)  =>  p_gb = p_bg*(1-g)/g
        p_good_to_bad = p_bad_to_good * (1.0 - good_fraction) / good_fraction
        if p_good_to_bad > 1.0:
            raise ReceptorError(
                "infeasible combination: shorten mean_bad_epochs or raise "
                "target_yield"
            )
        return cls(
            p_good_to_bad,
            p_bad_to_good,
            deliver_good=deliver_good,
            deliver_bad=deliver_bad,
            rng=rng,
        )
