"""Shared fixtures: small, fast scenario instances for integration tests,
and the randomized source traces the differential suites draw from.

The scenarios are imported inside their fixtures: they need numpy, and
the suites CI runs with numpy uninstalled must still collect.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import pytest

from repro.streams import fjord as fjord_module
from repro.streams import typedcols
from repro.streams.tuples import StreamTuple

try:
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    st = None

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


#: The two column storages, as the ``typedcols`` attributes each sets:
#: ``typed`` lowers ``MIN_ROWS`` to 1, so even tiny batches get
#: numpy-backed numeric columns (without numpy the case is list storage
#: too, which is still the right thing to pin); ``list`` hides numpy
#: from the storage layer, which then keeps every column a list, as
#: where numpy does not import.
COLUMN_STORAGES = {
    "typed": {"np": typedcols.np, "MIN_ROWS": 1},
    "list": {"np": None},
}


@pytest.fixture
def column_storage(monkeypatch):
    """``column_storage(name)`` picks a column storage for this test.

    The patch is a module attribute, so forked shard workers inherit
    it; a later call replaces an earlier one.
    """

    def enter(name: str) -> None:
        for attribute, value in COLUMN_STORAGES[name].items():
            monkeypatch.setattr(typedcols, attribute, value)

    return enter


# -- randomized traces ----------------------------------------------------------

KEYS = tuple(f"granule{i}" for i in range(9))


def make_trace(
    rng: random.Random,
    n_tuples: int,
    n_sources: int = 2,
    keys: tuple = KEYS,
    duplicate_rate: float = 0.4,
) -> dict[str, list[StreamTuple]]:
    """Random timestamp-sorted sources ``src0``, ``src1``, ... with
    frequent duplicate stamps, within a source and across sources."""
    sources: dict[str, list[StreamTuple]] = {}
    for s in range(n_sources):
        now = 0.0
        items = []
        for i in range(n_tuples):
            if rng.random() > duplicate_rate:
                now += rng.choice((0.25, 0.5, 1.0, 1.75))
            items.append(
                StreamTuple(
                    now,
                    {
                        "spatial_granule": rng.choice(keys),
                        "value": round(rng.uniform(0.0, 50.0), 3),
                        "seq": i,
                    },
                    f"src{s}",
                )
            )
        sources[f"src{s}"] = items
    return sources


if st is not None:

    @st.composite
    def traces(draw):
        """A :func:`make_trace` of drawn length, key count and
        duplicate rate."""
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        n_tuples = draw(st.integers(min_value=0, max_value=60))
        n_keys = draw(st.integers(min_value=1, max_value=6))
        duplicate_rate = draw(st.sampled_from((0.0, 0.3, 0.9)))
        rng = random.Random(seed)
        return make_trace(
            rng,
            n_tuples=n_tuples,
            keys=tuple(f"k{i}" for i in range(n_keys)),
            duplicate_rate=duplicate_rate,
        )
