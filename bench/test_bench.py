"""Self-test of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``.

Not collected by tier-1 (``testpaths = ["tests"]``). Everything runs
``--quick`` — tiny inputs whose numbers compare with nothing — and
checks the *shape* of the benchmark: names, counts, correctness
plumbing, trace output.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, cli, runner, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: A sliver of measuring time: one pass per run is all a shape test needs.
SECONDS = 0.05


@pytest.fixture(autouse=True)
def trace_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "OUT", tmp_path)
    return tmp_path


def test_manifest_meets_the_contract():
    manifest = spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(spec.WORKLOADS)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        entry["name"] for section in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in manifest["end_to_end"])
    # 4 + 22 runs per workload, each measuring run_seconds, inside 3420 s.
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * manifest["run_seconds"] < 3420


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_untraced_quick_run_reports_every_end_to_end_metric(name):
    outcome = runner.run(name, 3, SECONDS, traced=False, quick=True)
    assert outcome.correct, outcome.problems
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert list(outcome.metrics) == list(spec.units("end_to_end"))
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize(
    "name",
    ["home_mem", "chain_mem", "shelf_gw", "shelf_gw_paced", "shelf_cluster_ckpt"],
)
def test_traced_quick_run_reports_every_layer_and_writes_spans(name, trace_dir):
    outcome = runner.run(name, 3, SECONDS, traced=True, quick=True)
    assert outcome.correct, outcome.problems
    assert list(outcome.metrics) == list(spec.units("per_layer"))
    assert outcome.metrics["fail_share"] == 0
    spans = [
        json.loads(line)
        for line in (trace_dir / f"trace-{name}.jsonl").read_text().splitlines()
    ]
    assert {"name", "start_ns", "end_ns", "parent", "workload", "pass"} <= set(spans[0])
    ids = {span["id"] for span in spans}
    assert all(span["parent"] is None or span["parent"] in ids for span in spans)
    assert all(span["end_ns"] >= span["start_ns"] for span in spans)
    if spec.WORKLOADS[name].tier == "mem":
        assert not outcome.notes
        assert outcome.metrics["protocol.encode_us"] == 0
    else:
        assert re.fullmatch(
            r"of [\d.]+ µs/tuple: protocol [\d.]+, reorder [\d.]+, "
            r"session [\d.]+ \(Smooth [\d.]+\), router [\d.]+, residual -?[\d.]+",
            outcome.notes[-1],
        )
        assert any(span["name"] == "session.advance" for span in spans)
        assert outcome.metrics["fjord.session_busy_us"] > 0


def test_corrupted_reference_flips_fail_share_and_exit_code(monkeypatch, capsys):
    real = runner.reference_output
    monkeypatch.setattr(runner, "reference_output", lambda inputs: real(inputs)[:-1])
    code = cli.main([
        "--workload", "shelf_gw", "--trace", "0", "--quick",
        "--seconds", str(SECONDS),
    ])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.strip().startswith("fail_share 1 ") for line in lines)


def test_quick_results_are_marked_non_comparable(capsys):
    code = cli.main([
        "--workload", "redwood_mem", "--trace", "0", "--quick",
        "--seconds", str(SECONDS),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "QUICK" in out and '"comparable": false' in out
    environment = json.loads(out.splitlines()[0].removeprefix("environment: "))
    assert {"nproc", "python", "numpy", "commit", "seed", "seconds"} <= set(environment)


def test_bench_imports_only_repro():
    for path in (ROOT / "bench").glob("*.py"):
        for line in path.read_text().splitlines():
            statement = line.strip()
            if statement.startswith(("import ", "from ")):
                assert "benchmarks" not in statement and "scripts" not in statement, (
                    f"{path.name}: {statement}"
                )


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    command = [ruff] if ruff else [sys.executable, "-m", "ruff"]
    probe = subprocess.run(command + ["--version"], capture_output=True)
    if probe.returncode != 0:
        pytest.skip("ruff is not installed here")
    check = subprocess.run(
        command + ["check", "bench"], cwd=ROOT, capture_output=True, text=True
    )
    assert check.returncode == 0, check.stdout
