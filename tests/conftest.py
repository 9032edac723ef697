"""Shared fixtures: small, fast scenario instances for integration tests.

The scenarios are imported inside their fixtures: they need numpy, and
the suites CI runs with numpy uninstalled must still collect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import pytest

from repro.streams import fjord as fjord_module

if TYPE_CHECKING:
    from repro.scenarios import (
        IntelLabScenario,
        OfficeScenario,
        RedwoodScenario,
        ShelfScenario,
    )


@pytest.fixture(scope="session")
def small_shelf() -> ShelfScenario:
    """A 120-second shelf scenario (3 relocation phases)."""
    from repro.scenarios import ShelfScenario

    return ShelfScenario(duration=120.0, seed=7)


@pytest.fixture(scope="session")
def small_intel_lab() -> IntelLabScenario:
    """Half a day of the Intel-lab trace, failure at 0.1 day."""
    from repro.scenarios import IntelLabScenario

    return IntelLabScenario(
        duration=0.5 * 86400.0,
        failure_onset=0.1 * 86400.0,
        seed=7,
    )


@pytest.fixture(scope="session")
def small_redwood() -> RedwoodScenario:
    """A 1-day, 4-group redwood scenario."""
    from repro.scenarios import RedwoodScenario

    return RedwoodScenario(duration=86400.0, n_groups=4, seed=7)


@pytest.fixture(scope="session")
def small_office() -> OfficeScenario:
    """A 240-second office scenario (4 occupancy phases)."""
    from repro.scenarios import OfficeScenario

    return OfficeScenario(duration=240.0, seed=7)


#: Named settings of the drain's run-length threshold
#: (``fjord.COLUMN_MIN_ROWS``), under the names of the three retired
#: execution modes, each standing for the regime that mode used to
#: force: ``row`` never reached a column kernel, ``columnar`` reached
#: one on every run, and ``fused`` — what the benchmark's stateless
#: chain still asks for — is the shipped rule. The names (and the test
#: ids built from them) go when ``MODES`` does.
KERNEL_REGIMES = {
    "row": 1 << 62,
    "columnar": 1,
    "fused": fjord_module.COLUMN_MIN_ROWS,
}


@pytest.fixture
def kernel_regime(monkeypatch):
    """``kernel_regime(name)`` patches the threshold for this test.

    The patch is a module constant, so forked shard workers inherit it.
    """

    def enter(name: str) -> None:
        monkeypatch.setattr(
            fjord_module, "COLUMN_MIN_ROWS", KERNEL_REGIMES[name]
        )

    return enter
