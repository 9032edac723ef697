"""Ground-truth world scenarios for the paper's three deployments.

Each scenario builds a :class:`~repro.receptors.registry.DeviceRegistry`
populated with simulated devices, exposes the ground truth the paper's
metrics compare against, and caches one recording of every device's raw
stream so that different pipeline configurations can be evaluated on the
*identical* data (as the paper does when comparing stage orderings).

- :mod:`repro.scenarios.shelf` — the RFID retail shelf experiment (§4).
- :mod:`repro.scenarios.intel_lab` — the Intel-lab fail-dirty outlier
  trace (§5.1, Figure 7).
- :mod:`repro.scenarios.redwood` — the Sonoma redwood micro-climate
  deployment (§5.2).
- :mod:`repro.scenarios.office` — the digital-home person detector (§6).

The names below import their module on first use, so importing one
scenario module (the office's constants, say) does not pull in the
others' random streams — the simulators need numpy, a reader of
registry constants does not.
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.scenarios.intel_lab import IntelLabScenario
    from repro.scenarios.office import OfficeScenario
    from repro.scenarios.redwood import RedwoodScenario
    from repro.scenarios.shelf import ShelfScenario

_MODULES = {
    "IntelLabScenario": "repro.scenarios.intel_lab",
    "OfficeScenario": "repro.scenarios.office",
    "RedwoodScenario": "repro.scenarios.redwood",
    "ShelfScenario": "repro.scenarios.shelf",
}


def __getattr__(name: str) -> Any:
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "IntelLabScenario",
    "OfficeScenario",
    "RedwoodScenario",
    "ShelfScenario",
]
