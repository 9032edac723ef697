"""Golden-trace regression tests.

The cleaned output of two small scenario pipelines — one RFID shelf
deployment, one mote deployment — is pinned byte-for-byte to JSONL
files checked in under ``tests/golden/``. Any change to pipeline
semantics, operator numerics, emission order or serialization shows up
here as a diff against a reviewable artifact.

The report ``python -m repro run all --fast`` prints is pinned the same
way, in ``tests/golden/run_all_fast.json``: every fast-scale experiment
number.

Regenerate (after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/test_golden_traces.py --regenerate
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.streams.traceio import read_jsonl, write_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"


def _shelf_run(**kwargs):
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.scenarios.shelf import ShelfScenario

    scenario = ShelfScenario(duration=12.0, seed=3)
    processor = build_shelf_processor(scenario, "smooth+arbitrate")
    return processor.run(
        until=scenario.duration,
        tick=scenario.poll_period,
        sources=scenario.recorded_streams(),
        **kwargs,
    )


def _redwood_run(**kwargs):
    from repro.pipelines.sensornet import build_redwood_processor
    from repro.scenarios.redwood import RedwoodScenario

    scenario = RedwoodScenario(
        duration=0.05 * 86400.0, n_groups=2, seed=3
    )
    processor = build_redwood_processor(scenario)
    return processor.run(
        until=scenario.duration,
        sources=scenario.recorded_streams(),
        **kwargs,
    )


CASES = {
    "rfid_shelf_smooth_arbitrate": _shelf_run,
    "redwood_smooth_merge": _redwood_run,
}


def _serialize(run, path: Path) -> None:
    write_jsonl(run.output, path)


@pytest.mark.parametrize("case", sorted(CASES))
class TestGoldenTraces:
    def test_output_matches_golden(self, case, tmp_path):
        golden = GOLDEN_DIR / f"{case}.jsonl"
        assert golden.exists(), (
            f"missing golden file {golden}; regenerate with "
            f"PYTHONPATH=src python {__file__} --regenerate"
        )
        fresh = tmp_path / "fresh.jsonl"
        _serialize(CASES[case](), fresh)
        assert fresh.read_bytes() == golden.read_bytes(), (
            f"cleaned output of {case!r} drifted from the golden trace; "
            f"if the change is intentional, regenerate and review the diff"
        )

    def test_sharded_output_matches_golden(self, case, tmp_path):
        """The determinism guarantee, pinned against the same artifact."""
        golden = GOLDEN_DIR / f"{case}.jsonl"
        shard_key = "tag_id" if case.startswith("rfid") else "spatial_granule"
        fresh = tmp_path / "sharded.jsonl"
        _serialize(
            CASES[case](shards=3, backend="processes", shard_key=shard_key),
            fresh,
        )
        assert fresh.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("mode", ("columnar", "fused"))
    def test_mode_output_matches_golden(
        self, case, mode, kernel_regime, tmp_path
    ):
        """The column kernels are pinned to the row-kernel artifact:
        ``columnar`` sends every run at a node that has one through it,
        ``fused`` is the shipped rule as a caller still passing the
        retired keyword gets it (see ``kernel_regime`` in conftest.py)."""
        kernel_regime(mode)
        golden = GOLDEN_DIR / f"{case}.jsonl"
        fresh = tmp_path / f"{mode}.jsonl"
        _serialize(CASES[case](mode=mode), fresh)
        assert fresh.read_bytes() == golden.read_bytes(), (
            f"{case!r} under the {mode!r} regime drifted from the golden "
            f"trace; both kernels of an operator must emit the same tuples"
        )

    @pytest.mark.parametrize("mode", ("columnar", "fused"))
    def test_sharded_mode_output_matches_golden(
        self, case, mode, kernel_regime, tmp_path
    ):
        kernel_regime(mode)
        golden = GOLDEN_DIR / f"{case}.jsonl"
        shard_key = "tag_id" if case.startswith("rfid") else "spatial_granule"
        fresh = tmp_path / f"sharded_{mode}.jsonl"
        _serialize(
            CASES[case](
                shards=3, backend="processes", shard_key=shard_key, mode=mode
            ),
            fresh,
        )
        assert fresh.read_bytes() == golden.read_bytes()

    def test_golden_roundtrips(self, case):
        """The checked-in artifact itself parses back losslessly."""
        golden = GOLDEN_DIR / f"{case}.jsonl"
        items = read_jsonl(golden)
        assert items, f"golden trace {case!r} is empty"
        assert all(
            a.timestamp <= b.timestamp for a, b in zip(items, items[1:])
        )


RUN_ALL_FAST = GOLDEN_DIR / "run_all_fast.json"


def _run_all_fast() -> str:
    """What ``python -m repro run all --fast`` prints."""
    import contextlib
    import io

    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", "all", "--fast"]) == 0
    return out.getvalue()


def test_run_all_fast_matches_golden():
    """A change that moves any fast-scale experiment number shows here
    (CI also diffs a fresh CLI run, plain and sharded, against it)."""
    assert _run_all_fast() == RUN_ALL_FAST.read_text(encoding="utf-8"), (
        "`repro run all --fast` drifted from the golden report; if the "
        "change is intentional, regenerate and review the diff"
    )


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, run in CASES.items():
        path = GOLDEN_DIR / f"{case}.jsonl"
        count = write_jsonl(run().output, path)
        print(f"wrote {count} tuples to {path}")
    RUN_ALL_FAST.write_text(_run_all_fast(), encoding="utf-8")
    print(f"wrote {RUN_ALL_FAST}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
