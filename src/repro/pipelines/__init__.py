"""Prebuilt ESP pipelines for the paper's three deployments.

"We anticipate a suite of ESP Operators, implementing different ESP
stages or entire pipelines, that can be used to configure and deploy
cleaning pipelines" (§7) — these modules are those entire pipelines:

- :mod:`repro.pipelines.rfid_shelf` — Smooth + Arbitrate for the retail
  shelf (§4), in every configuration the paper's Figure 5 compares.
- :mod:`repro.pipelines.sensornet` — Point + Merge outlier rejection and
  Smooth + Merge yield recovery for environmental monitoring (§5).
- :mod:`repro.pipelines.digital_home` — per-technology cleaning plus the
  Virtualize person detector (§6).
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.pipelines.digital_home import (
        build_declarative_home_processor,
        build_digital_home_processor,
    )
    from repro.pipelines.rfid_shelf import (
        SHELF_CONFIGS,
        build_shelf_processor,
        count_series,
    )
    from repro.pipelines.sensornet import (
        build_outlier_processor,
        build_redwood_processor,
    )

_MODULES = {
    "SHELF_CONFIGS": "repro.pipelines.rfid_shelf",
    "build_declarative_home_processor": "repro.pipelines.digital_home",
    "build_digital_home_processor": "repro.pipelines.digital_home",
    "build_outlier_processor": "repro.pipelines.sensornet",
    "build_redwood_processor": "repro.pipelines.sensornet",
    "build_shelf_processor": "repro.pipelines.rfid_shelf",
    "count_series": "repro.pipelines.rfid_shelf",
}


def __getattr__(name: str) -> Any:
    """Import each pipeline module on first use: one pipeline's
    constants do not pull in the others' simulators (and numpy)."""
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "SHELF_CONFIGS",
    "build_declarative_home_processor",
    "build_digital_home_processor",
    "build_outlier_processor",
    "build_redwood_processor",
    "build_shelf_processor",
    "count_series",
]
