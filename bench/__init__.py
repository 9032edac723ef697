"""The repo benchmark: eight ESP workloads over the mem → gw → cluster tiers.

``BENCHMARK.json`` at the repo root names the workloads and metrics and
is the single source for their units, directions and bounds;
``bench/README.md`` explains each of them and how they interact.

    python3 -m bench --seed 3                      # every workload, both runs
    python3 -m bench --workload shelf_gw --trace 1 # one traced run, in process
    python3 -m bench.repeat                        # run twice, compare to bounds

The package imports only :mod:`repro` (never ``benchmarks/`` or
``scripts/``) and drives it through public entry points alone.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: ``BENCHMARK.json`` lives here and ``src/`` beside it.
ROOT = Path(__file__).resolve().parent.parent

# ``repro`` is run from source, not installed; make ``python3 -m bench``
# work without PYTHONPATH (an explicit PYTHONPATH=src still wins).
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)
