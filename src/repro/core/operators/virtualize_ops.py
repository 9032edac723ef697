"""Virtualize-stage operators: cross-receptor, application-level cleaning.

Virtualize "combines readings from different types of devices and
different proximity groups" (§3.2) to synthesize virtual sensors — the
paper's example being the digital home's "person detector" built from
RFID, sound motes and X10 detectors (§6.2, Query 6).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.stages import Stage, StageContext, StageKind
from repro.errors import OperatorError
from repro.streams.operators import Operator
from repro.streams.tuples import StreamTuple

#: A vote predicate inspects one tuple from its stream.
VotePredicate = Callable[[StreamTuple], bool]


class VotingDetector(Operator):
    """Normalize heterogeneous streams into votes; fire above a threshold.

    The toolkit form of the paper's Query 6: each configured input stream
    contributes one vote per time instant iff any of its tuples in that
    instant satisfies the stream's predicate; when the vote total reaches
    ``threshold``, one detection tuple is emitted.

    Args:
        votes: Stream name → predicate over that stream's tuples. A
            ``None`` predicate counts any tuple as a vote (presence
            voting, e.g. a smoothed X10 stream that only carries ON
            rows).
        threshold: Minimum votes to fire.
        event: Value of the emitted tuple's ``event`` field.

    Emitted tuples carry ``event``, ``votes`` (the total) and one boolean
    field per voting stream (``vote_<stream>``), handy for debugging a
    deployment's sensors.
    """

    def __init__(
        self,
        votes: Mapping[str, VotePredicate | None],
        threshold: int = 2,
        event: str = "Person-in-room",
    ):
        if not votes:
            raise OperatorError("VotingDetector needs at least one vote source")
        if not 1 <= threshold <= len(votes):
            raise OperatorError(
                f"threshold {threshold} outside 1..{len(votes)}"
            )
        self._votes = dict(votes)
        #: the streams that vote: the processor checks a kind emits each
        self.input_streams = sorted(votes)
        self._threshold = int(threshold)
        self._event = event
        self._seen: dict[str, bool] = {name: False for name in votes}

    STATE_ATTRS = ("_seen",)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        votes = self._votes
        seen = self._seen
        for item in items:
            predicate = votes.get(item.stream, _ABSENT)
            if predicate is _ABSENT:
                continue
            if predicate is None or predicate(item):
                seen[item.stream] = True
        return []

    def on_time(self, now: float) -> list[StreamTuple]:
        total = sum(1 for fired in self._seen.values() if fired)
        fields = {f"vote_{name}": fired for name, fired in self._seen.items()}
        self._seen = {name: False for name in self._votes}
        if total < self._threshold:
            return []
        return [
            StreamTuple(
                now,
                {"event": self._event, "votes": total, **fields},
            )
        ]


class _Absent:
    """Marker distinguishing 'stream not configured' from a None predicate."""


_ABSENT = _Absent()


class CorrelationModelCleaner(Operator):
    """BBQ-style model-driven cleaning over correlated quantities.

    The paper's §6.3.1: "the Virtualize stage could also be implemented
    with a BBQ-like system [12]. Such a function would build models of
    the receptor streams to assist in cleaning the data" — and §2.2
    names the canonical correlation, battery voltage vs. temperature.

    This operator learns, online, a bivariate linear model between a
    *predictor* quantity and a *target* quantity (running means,
    variances and covariance with exponential forgetting). Once warmed
    up, each reading's target value is checked against the conditional
    prediction given its predictor value; readings whose residual
    exceeds ``k`` residual standard deviations are dropped.

    Because the check is *within one reading*, it detects a fail-dirty
    transducer with **no spatial redundancy at all** — where the Merge
    ±1σ rule of Query 5 needs at least two healthy neighbours, this
    catches a lone mote whose temperature climbs while its voltage does
    not (the fault corrupts one transducer, not the board).

    Args:
        predictor: Field whose sensor is trusted (e.g. ``"voltage"``).
        target: Field being validated (e.g. ``"temp"``).
        k: Rejection threshold in residual standard deviations.
        alpha: Forgetting factor for the running moments (per reading).
        warmup: Readings to learn from before rejecting anything.
        min_residual: Floor on the rejection band, guarding against a
            degenerate zero-variance warmup.

    Two thresholds guard against *slow-drift evasion* (a fault that
    creeps just fast enough to drag an adaptive model along): readings
    are **learned from** only within ``k_learn`` residual deviations,
    but **rejected** only beyond ``k``. A creeping fault first leaves
    the learn band — freezing the model — and then, with the model
    pinned, walks out of the rejection band.

    Args:
        predictor: Field whose sensor is trusted (e.g. ``"voltage"``).
        target: Field being validated (e.g. ``"temp"``).
        k: Rejection threshold in residual standard deviations.
        k_learn: Model-update gate, in residual standard deviations;
            must not exceed ``k``.
        alpha: Forgetting factor for the running moments (per reading).
        warmup: Readings to learn from before rejecting anything.
        min_residual: Floor on the rejection band, guarding against a
            degenerate zero-variance warmup.
    """

    def __init__(
        self,
        predictor: str = "voltage",
        target: str = "temp",
        k: float = 4.0,
        k_learn: float = 2.0,
        alpha: float = 0.05,
        warmup: int = 20,
        min_residual: float = 0.05,
    ):
        if k_learn > k:
            raise OperatorError(
                f"k_learn ({k_learn}) must not exceed k ({k})"
            )
        if k <= 0:
            raise OperatorError(f"k must be positive, got {k}")
        if not 0.0 < alpha <= 1.0:
            raise OperatorError(f"alpha must be in (0, 1], got {alpha}")
        if warmup < 2:
            raise OperatorError(f"warmup must be >= 2, got {warmup}")
        self._predictor = predictor
        self._target = target
        self._k = float(k)
        self._k_learn = float(k_learn)
        self._alpha = float(alpha)
        self._warmup = int(warmup)
        self._min_residual = float(min_residual)
        self._n = 0
        self._mean_x = 0.0
        self._mean_y = 0.0
        self._var_x = 0.0
        self._var_y = 0.0
        self._cov = 0.0
        self._resid_var = 0.0

    STATE_ATTRS = (
        "_n", "_mean_x", "_mean_y", "_var_x", "_var_y", "_cov", "_resid_var",
    )

    def _update(self, x: float, y: float) -> None:
        if self._n == 0:
            self._mean_x, self._mean_y = x, y
        rate = max(self._alpha, 1.0 / (self._n + 1))
        dx = x - self._mean_x
        dy = y - self._mean_y
        self._mean_x += rate * dx
        self._mean_y += rate * dy
        self._var_x = (1 - rate) * (self._var_x + rate * dx * dx)
        self._var_y = (1 - rate) * (self._var_y + rate * dy * dy)
        self._cov = (1 - rate) * (self._cov + rate * dx * dy)
        residual = dy - self._slope() * dx
        self._resid_var = (1 - rate) * (
            self._resid_var + rate * residual * residual
        )
        self._n += 1

    def _slope(self) -> float:
        return self._cov / self._var_x if self._var_x > 1e-12 else 0.0

    def predict(self, x: float) -> float:
        """Conditional expectation of the target given the predictor."""
        return self._mean_y + self._slope() * (x - self._mean_x)

    def on_batch(
        self, items: Sequence[StreamTuple], port: int = 0
    ) -> list[StreamTuple]:
        predictor, target = self._predictor, self._target
        out: list[StreamTuple] = []
        for item in items:
            x = item.get(predictor)
            y = item.get(target)
            if x is None or y is None:
                out.append(item)  # nothing to validate against
                continue
            x, y = float(x), float(y)
            if self._n < self._warmup:
                self._update(x, y)
                out.append(item)
                continue
            sigma = max(self._min_residual, self._resid_var**0.5)
            residual = y - self.predict(x)
            if abs(residual) > self._k * sigma:
                continue  # model-rejected reading
            if abs(residual) <= self._k_learn * sigma:
                self._update(x, y)  # only clearly-consistent readings learn
            out.append(item)
        return out


def correlation_model_cleaner(
    predictor: str = "voltage",
    target: str = "temp",
    k: float = 4.0,
    alpha: float = 0.05,
    warmup: int = 20,
    name: str = "",
) -> Stage:
    """Stage builder for :class:`CorrelationModelCleaner` (Virtualize)."""

    def factory(_ctx: StageContext) -> Operator:
        return CorrelationModelCleaner(
            predictor=predictor, target=target, k=k, alpha=alpha,
            warmup=warmup,
        )

    return Stage(
        StageKind.VIRTUALIZE, factory, name=name or "correlation_model"
    )


def voting_detector(
    votes: Mapping[str, VotePredicate | None],
    threshold: int = 2,
    event: str = "Person-in-room",
    name: str = "",
) -> Stage:
    """Stage builder for :class:`VotingDetector` (paper Query 6)."""

    def factory(_ctx: StageContext) -> Operator:
        return VotingDetector(votes, threshold=threshold, event=event)

    return Stage(StageKind.VIRTUALIZE, factory, name=name or "voting_detector")
