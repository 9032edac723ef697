"""Re-pin what a processor's graph shape fixes, after the per-source
``annot:<receptor>`` nodes left the graph (a source is annotated as the
session injects it).

Usage::

    python scripts/repin_source_annotation.py --parent REV [--workdir DIR]

``REV`` is the last commit with ``annot:`` nodes. The script exports it
with ``git archive`` into ``DIR`` (a temporary directory by default),
measures the same things in that tree and in this one, each in its own
interpreter, and asserts that the change removed the ``annot:`` nodes
and nothing else:

- the golden shelf event log is the parent's with its ``annot:`` events
  dropped, ``seq`` renumbered and ``run_start.nodes`` lowered by the
  number of ``annot:`` nodes;
- the pinned shelf checkpoint (``canonical`` of the decoded blob) is the
  parent's with its ``annot:`` node entries dropped, and its pickle is
  smaller;
- each deployment's graph is the parent's without its ``annot:`` nodes.

Only then does it write ``tests/golden/rfid_shelf_trace_events.jsonl``
and the ``STATE_DIGEST`` / ``PICKLE_SIZE`` pins in
``tests/test_checkpoint.py``, and print the graph sizes that
``tests/test_pipelines_deployments.py::TestGraphShape`` pins.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "rfid_shelf_trace_events.jsonl"
CHECKPOINT_TESTS = ROOT / "tests" / "test_checkpoint.py"


def measure(out: Path) -> None:
    """Graphs, golden events and pinned checkpoint of the tree on
    ``sys.path``, pickled to ``out`` as plain data."""
    from repro.net.recovery import decode_state, encode_state
    from repro.pipelines.digital_home import (
        build_declarative_home_processor,
        build_digital_home_processor,
    )
    from repro.pipelines.rfid_shelf import build_shelf_processor
    from repro.pipelines.sensornet import build_redwood_processor
    from repro.scenarios import OfficeScenario, RedwoodScenario, ShelfScenario
    from tests.test_checkpoint import (
        SEED,
        arrival_schedule,
        build_bundle,
        canonical,
        drive,
    )
    from tests.test_telemetry import _golden_shelf_events

    def nodes(processor, until, tick=None):
        session = processor.open_session(until=until, tick=tick)
        return sorted(session._fjord._nodes)

    shelf = ShelfScenario(duration=12.0, seed=3)
    office = OfficeScenario(duration=150.0, seed=3)
    graphs = {
        "shelf": nodes(
            build_shelf_processor(shelf, "smooth+arbitrate"),
            shelf.duration, shelf.poll_period,
        ),
        "redwood": nodes(build_redwood_processor(RedwoodScenario(seed=3)), 3600.0),
        "redwood_small": nodes(
            build_redwood_processor(RedwoodScenario(n_groups=2, seed=3)), 3600.0
        ),
        "home": nodes(build_digital_home_processor(office), office.duration, 0.5),
        "home_declarative": nodes(
            build_declarative_home_processor(office), office.duration, 0.5
        ),
    }
    # As TestCheckpointContents.test_pinned_shelf_session_state_is_unchanged_and_no_larger.
    bundle = build_bundle("shelf", 60.0, SEED)
    schedule = arrival_schedule(bundle)
    session = bundle.processor.open_session(until=bundle.until, tick=bundle.tick)
    drive(session, schedule, 0, len(schedule) * 2 // 3)
    snapshot = session.checkpoint()
    blob, _size = encode_state(snapshot)
    result = {
        "graphs": graphs,
        "events": _golden_shelf_events(),
        "state": canonical(decode_state(blob)),
        "pickle_size": len(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)),
    }
    session.close()
    out.write_bytes(pickle.dumps(result))


def measure_tree(tree: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree}")
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", str(out)],
        cwd=tree, env=env, check=True,
    )
    return pickle.loads(out.read_bytes())


def is_annot(name: object) -> bool:
    return isinstance(name, str) and name.startswith("annot:")


def without_annot_events(events: list[dict], dropped_nodes: int) -> list[dict]:
    kept = []
    for event in events:
        if is_annot(event.get("node")):
            continue
        event = dict(event, seq=len(kept))
        if event["kind"] == "run_start":
            event["nodes"] -= dropped_nodes
        kept.append(event)
    return kept


def without_annot_nodes(state: list) -> list:
    """A ``canonical`` checkpoint (sorted ``(repr(key), value)`` pairs)
    with the ``annot:`` entries of its ``nodes`` dropped."""
    return [
        (key, [pair for pair in value if not is_annot(ast.literal_eval(pair[0]))])
        if key == repr("nodes") else (key, value)
        for key, value in state
    ]


def repin_checkpoint(digest: str, size: int) -> None:
    text = CHECKPOINT_TESTS.read_text()
    old_size = int(re.search(r"PICKLE_SIZE = (\d+)", text).group(1))
    assert size <= old_size, f"PICKLE_SIZE may only go down: {old_size} -> {size}"
    text = re.sub(
        r'(STATE_DIGEST = \(\s*)"[0-9a-f]{64}"', rf'\g<1>"{digest}"', text
    )
    text = text.replace(f"PICKLE_SIZE = {old_size}", f"PICKLE_SIZE = {size}")
    CHECKPOINT_TESTS.write_text(text)
    print(f"STATE_DIGEST {digest}; PICKLE_SIZE {old_size} -> {size}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit with the annot: nodes")
    parser.add_argument("--workdir", type=Path, help="scratch directory")
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        measure(args.measure)
        return
    if args.parent is None:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(dir=args.workdir) as work:
        work_dir = Path(work)
        parent_tree = work_dir / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", args.parent], cwd=ROOT, check=True,
            capture_output=True,
        ).stdout
        subprocess.run(
            ["tar", "-x", "-C", str(parent_tree)], input=archive, check=True
        )
        parent = measure_tree(parent_tree, work_dir / "parent.pickle")
        new = measure_tree(ROOT, work_dir / "new.pickle")

    for name, nodes in parent["graphs"].items():
        expected = [node for node in nodes if not is_annot(node)]
        assert new["graphs"][name] == expected, name
        print(f"graph {name}: {len(nodes)} -> {len(expected)} nodes")
    dropped = sum(map(is_annot, parent["graphs"]["shelf"]))
    events = without_annot_events(parent["events"], dropped)
    assert new["events"] == events, "event log is not the parent's minus annot:"
    print(f"golden events: {len(parent['events'])} -> {len(events)}")
    assert new["state"] == without_annot_nodes(parent["state"]), (
        "checkpoint is not the parent's minus its annot: nodes"
    )
    assert new["pickle_size"] < parent["pickle_size"]

    sys.path[:0] = [str(ROOT / "src")]
    from repro.streams.traceio import write_trace_events

    write_trace_events(new["events"], GOLDEN)
    digest = hashlib.sha256(repr(new["state"]).encode()).hexdigest()
    repin_checkpoint(digest, new["pickle_size"])


if __name__ == "__main__":
    main()
