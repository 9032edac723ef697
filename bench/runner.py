"""One benchmark run of one workload, in this process.

A run sets up (inputs from the seed, the in-memory reference, a warm-up
pass), then either measures untraced passes for ``--seconds`` and
reports the end-to-end metrics, or — ``--trace 1`` — measures a short
untraced baseline, runs one traced pass and reports the per-layer
rows. Every pass's output is checked against the reference, and every
time is reported in reference seconds (:mod:`bench.calibrate`).
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from dataclasses import dataclass, field
from statistics import median, quantiles

from bench import ROOT, spec
from bench.calibrate import HostSpeed, cpu_clock
from bench.inputs import Inputs, make_inputs
from bench.layers import attribution, layer_rows
from bench.probe import SpanLog
from bench.tiers import PassResult, Tracing, reference_output, run_pass

#: Times the inputs are generated per run; ``setup_s`` takes the median.
SETUPS = 3
#: A closed-loop or batch pass keeps its thread busy; when its CPU time
#: falls below this share of its wall time the host was taking the CPU
#: away in bulk, and the pass is left out of the medians as long as
#: ``MIN_CLEAN`` others are not.
MIN_CPU_SHARE = 0.9
MIN_CLEAN = 3
#: Share of ``--seconds`` a traced run spends on its untraced baseline.
BASELINE_SHARE = 0.25
#: Where traced runs leave their span logs (git-ignored).
OUT = ROOT / "bench" / "out"


@dataclass
class Outcome:
    """The result of one run, ready to print.

    ``metrics`` holds exactly the manifest's ``end_to_end`` names
    (untraced) or ``per_layer`` names (traced); ``notes`` are further
    lines for people (raw wall-clock figures, spreads, attribution).
    """

    workload: str
    traced: bool
    n_in: int
    n_out: int
    passes: int
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Verdict:
    """Correctness ledger of a run: tuples attempted, tuples failed."""

    def __init__(self, reference: list, offered: int) -> None:
        self.reference = reference
        self.offered = offered
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: PassResult, label: str) -> None:
        """Charge one pass; its output is dropped afterwards."""
        self.attempted += result.offered
        if result.output != self.reference:
            # A wrong answer fails every tuple of the pass.
            self.failed += result.offered
            self.problems.append(
                f"{label}: {len(result.output)} output tuples differ from "
                f"the {len(self.reference)}-tuple in-memory reference"
            )
        else:
            self.failed += result.undelivered
        if not result.accounted:
            self.problems.append(
                f"{label}: offered != delivered + dropped in {result.stats}"
            )
        result.output = []

    def mismatch(self, mode: str) -> None:
        self.attempted += self.offered
        self.failed += self.offered
        self.problems.append(f"mode {mode}: output differs from the reference")


def run(
    name: str, seed: int, seconds: float, traced: bool,
    quick: bool = False, import_s: float = 0.0,
) -> Outcome:
    """Run workload ``name`` once; see the module docstring."""
    with HostSpeed() as host:
        return _run(name, seed, seconds, traced, quick, import_s, host)


def _run(
    name: str, seed: int, seconds: float, traced: bool, quick: bool,
    import_s: float, host: HostSpeed,
) -> Outcome:
    workload = spec.WORKLOADS[name]
    began = time.perf_counter()
    input_s: list[float] = []
    for _ in range(SETUPS):
        started = cpu_clock()
        inputs = make_inputs(workload, seed, quick)
        input_s.append(cpu_clock() - started)
    setup_speed = host.speed(began, time.perf_counter())
    reference = reference_output(inputs)
    verdict = Verdict(reference, inputs.n_tuples)
    if seed == 3 and not quick:
        sizes = (inputs.n_tuples, len(reference))
        if sizes != workload.pinned:
            verdict.problems.append(
                f"seed 3 gives {sizes} (in, out) tuples; pinned {workload.pinned}"
            )
    # Warm-up, untimed: the workload's own path at full tilt. The batch
    # pipelines just ran it to produce the reference.
    if workload.tier != "mem" or inputs.mode is not None:
        run_pass(dataclasses.replace(workload, rate=None), inputs, seed)
    # Inputs and reference live for the whole run; keep the collector
    # from rescanning them so passes see the program's garbage only.
    gc.collect()
    gc.freeze()

    if traced:
        return _traced_run(name, workload, inputs, seed, seconds, verdict, host)
    measured = _measure(workload, inputs, seed, seconds, verdict, host)
    n = inputs.n_tuples
    paced = workload.rate is not None
    passes = measured
    if not paced:
        clean = [r for r in measured if r.cpu_s >= MIN_CPU_SHARE * r.wall_s]
        if len(clean) >= MIN_CLEAN:
            passes = clean
    # Open loop: the schedule sets the rate, so wall seconds are steady
    # and are what the user sees. Closed loop and batch: CPU-bound.
    pass_s = [r.wall_s if paced else r.reference_s for r in passes]
    q1, q3 = _quartiles([n / each for each in pass_s])
    metrics = {
        "tuples_per_s": n / median(pass_s),
        **_latency_ms(workload, passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_speed * (
            import_s + median(input_s) + median(r.construct_s for r in passes)
        ),
    }
    return Outcome(
        name, False, n, len(reference), len(measured),
        verdict.attempted, verdict.failed, verdict.problems, metrics,
        [
            f"tuples_per_s quartiles {q1:.6g} .. {q3:.6g} over {len(passes)} passes"
            f" ({len(measured) - len(passes)} left out: host took the CPU away)",
            f"wall clock: {n / median(r.wall_s for r in passes):.6g} tuples/s at "
            f"host speed {median(r.speed for r in passes):.3f} of reference, "
            f"cpu/wall {median(r.cpu_s / r.wall_s for r in passes):.3f}",
        ],
    )


def _measure(
    workload: spec.Workload, inputs: Inputs, seed: int, seconds: float,
    verdict: Verdict, host: HostSpeed,
) -> list[PassResult]:
    """Untraced passes until the next one would overrun ``seconds``."""
    passes: list[PassResult] = []
    laps: list[float] = []
    began = time.perf_counter()
    while True:
        lap = time.perf_counter()
        gc.collect()
        result = run_pass(workload, inputs, seed)
        result.speed = host.speed(*result.window)
        verdict.check(result, f"pass {len(passes)}")
        passes.append(result)
        now = time.perf_counter()
        laps.append(now - lap)
        if now - began + median(laps) > seconds:
            return passes


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def _percentile(ordered: list[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _latency_ms(
    workload: spec.Workload, passes: list[PassResult],
    shares: tuple[int, ...] = (50,),
) -> dict[str, float]:
    """``lat_p<share>_ms`` of a run, for each of ``shares``.

    Closed and batch passes hand the whole input over at once and get
    the whole output back at the end: every tuple waits for the pass.

    Paced passes: per second of schedule, the percentile over that
    second's tuples; then the median over every second of every pass,
    so one stall moves one sample, not the metric. Wall-clock: most of
    a paced tuple's wait is the schedule (its tick is swept when the
    next poll's readings arrive, one poll period / rate later), and
    the median of seconds is steady as measured.
    """
    if workload.rate is None:
        pass_ms = median(r.reference_s for r in passes) * 1e3
        return {f"lat_p{share}_ms": pass_ms for share in shares}
    seconds = [
        sorted(second)
        for result in passes
        for second in result.timeline.latency
    ]
    # The schedule's last instant opens a near-empty second; drop it.
    full = max(len(second) for second in seconds) / 2
    seconds = [second for second in seconds if len(second) >= full]
    return {
        f"lat_p{share}_ms": median(
            _percentile(second, share / 100) for second in seconds
        ) * 1e3
        for share in shares
    }


def _traced_run(
    name: str, workload: spec.Workload, inputs: Inputs, seed: int,
    seconds: float, verdict: Verdict, host: HostSpeed,
) -> Outcome:
    baseline = _measure(
        workload, inputs, seed, seconds * BASELINE_SHARE, verdict, host
    )
    untraced_s = median(result.reference_s for result in baseline)
    gc.collect()
    spans = SpanLog(name, len(baseline))
    traced = run_pass(workload, inputs, seed, Tracing(spans))
    traced.speed = host.speed(*traced.window)
    n, n_out = inputs.n_tuples, len(traced.output)
    verdict.check(traced, "traced pass")
    traced.output = verdict.reference  # the replays want the output tuples
    rows, mismatches = layer_rows(
        workload, inputs, seed, traced, verdict.reference, spans, host
    )
    for mode in mismatches:
        verdict.mismatch(mode)
    rows["telemetry.overhead_ratio"] = traced.reference_s / untraced_s - 1
    rows["fail_share"] = verdict.failed / verdict.attempted
    notes = []
    if traced.timeline is not None:
        timeline = traced.timeline
        rows["keepup_ratio"] = timeline.scheduled_s / traced.wall_s
        rows.update(_latency_ms(workload, [traced], (95, 99)))
        rows["feeder.lateness_p95_ms"] = (
            _percentile(sorted(timeline.lateness), 0.95) * 1e3
        )
    if workload.tier != "mem":
        named = attribution(workload, rows, n_out / n)
        notes.append(
            f"of {traced.reference_s * 1e6 / n:.1f} µs/tuple: "
            f"protocol {named['protocol']:.1f}, reorder {named['reorder']:.1f}, "
            f"session {named['session']:.1f} "
            f"(Smooth {rows['stage.smooth_us']:.1f}), "
            f"router {named['router']:.1f}, "
            f"residual {rows['gateway.residual_us']:.1f}"
        )
    names = spec.units("per_layer")
    unknown = sorted(set(rows) - set(names))
    if unknown:
        raise RuntimeError(f"rows missing from BENCHMARK.json: {unknown}")
    spans.write(OUT / f"trace-{name}.jsonl")
    return Outcome(
        name, True, n, n_out, len(baseline) + 1,
        verdict.attempted, verdict.failed, verdict.problems,
        {row: rows.get(row, 0.0) for row in names}, notes,
    )
