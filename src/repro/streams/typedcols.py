"""Typed (numpy-backed) column storage for :class:`ColumnBatch`.

At encode time a column whose cells are *homogeneously* ``int`` or
``float`` is backed by a numpy array (``int64`` / ``float64``), so the
hot kernels — ``FieldCompare.mask``, batch slicing — run as single
C-level array operations instead of per-element Python loops.

The storage is picked from what the code can observe, and there is no
switch. A column stays a plain list when

- numpy does not import,
- the column is shorter than :data:`MIN_ROWS` (tiny batches would pay
  more in conversion than they win in vectorization),
- the cells mix types (``int`` + ``float``), because decoding must
  return *exactly* the objects that were encoded — ints stay ints,
- any cell is ``None`` or non-numeric (``bool`` is deliberately not
  ``int`` here), or
- an ``int`` cell falls outside the exact ``int64`` range.

Every decision is observable via :func:`storage_stats`; detection runs
only where a batch is encoded for a column kernel, so the counters
count columns a kernel actually consumed.  The counters
are module-global and *deliberately not* part of per-run telemetry
snapshots: snapshots and trace events are pinned byte-identical across
both kernels and with and without numpy
(``tests/test_telemetry.py::TestColumnarAccounting``), and typed
storage is exactly the kind of environment-dependent detail that must
not leak into them.

**Exactness contract.** Typed storage is invisible to results:
``arr.tolist()`` round-trips ``int64``/``float64`` cells bit-exactly
(NaN included), so both kernels emit the same tuples with and without
numpy.  Kernels only vectorize operations whose result is identical
to the sequential Python loop; anything else stays on the loop path.
Window aggregates never read typed columns: they evaluate one way,
over rows, through each spec's compiled kernel
(:meth:`repro.streams.aggregates.AggregateSpec.kernel`).
See ``docs/columnar.md``.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = [
    "numpy_available",
    "typed_from_values",
    "is_typed",
    "to_list",
    "take_cells",
    "concat_cells",
    "constant_cells",
    "storage_stats",
    "reset_storage_stats",
    "INT64_MIN",
    "INT64_MAX",
    "EXACT_INT_BOUND",
    "MIN_ROWS",
]

# numpy is a *performance* dependency, never a correctness one: CI runs
# the simulator-free suites with numpy uninstalled, and the tests reach
# list storage with numpy installed by patching ``np`` to ``None``.
try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Largest magnitude at which every int is exactly representable as a
# float64 — the bound under which int sums/comparisons can be
# vectorized with results bit-identical to the Python loop.
EXACT_INT_BOUND = 2**53

#: Columns shorter than this stay lists: converting a 3-row column to
#: an array costs more than the vectorized kernel saves. Read at call
#: time, so tests may patch it.
MIN_ROWS = 4

_stats: dict[str, int] = {}


def numpy_available() -> bool:
    """True when the numpy backend is importable."""
    return np is not None


def _count(key: str, by: int = 1) -> None:
    _stats[key] = _stats.get(key, 0) + by


def storage_stats() -> dict[str, int]:
    """Copy of the module-global storage decision counters.

    Keys: ``typed_int`` / ``typed_float`` (columns backed by arrays),
    ``list_mixed`` / ``list_object`` /
    ``list_overflow`` / ``list_small`` (fallback reasons), and
    ``typed_cells`` / ``list_cells`` (row totals per storage class).
    """
    return dict(_stats)


def reset_storage_stats() -> None:
    _stats.clear()


def is_typed(column: Any) -> bool:
    """True when ``column`` is a numpy-backed (typed) column."""
    return np is not None and isinstance(column, np.ndarray)


def typed_from_values(values: Sequence[Any]) -> Any | None:
    """Return a typed array for ``values``, or ``None`` to keep a list.

    Detection is strict so decoding preserves dtypes exactly:
    all-``int`` (within int64, ``bool`` excluded) → ``int64``;
    all-``float`` → ``float64`` (NaN preserved); anything else —
    mixed int/float, ``None``, objects — stays a list.
    """
    if np is None:
        return None
    n = len(values)
    if n < MIN_ROWS:
        _count("list_small")
        _count("list_cells", n)
        return None
    kinds = set(map(type, values))
    if kinds == {int}:
        if min(values) < INT64_MIN or max(values) > INT64_MAX:
            _count("list_overflow")
            _count("list_cells", n)
            return None
        _count("typed_int")
        _count("typed_cells", n)
        return np.array(values, dtype=np.int64)
    if kinds == {float}:
        _count("typed_float")
        _count("typed_cells", n)
        return np.array(values, dtype=np.float64)
    _count("list_mixed" if kinds <= {int, float} else "list_object")
    _count("list_cells", n)
    return None


def to_list(column: Any) -> list:
    """Materialize a column as a plain Python list, exactly.

    ``ndarray.tolist()`` yields native ``int``/``float`` objects that
    are bit-identical to the encoded cells (NaN included), so decode
    is lossless regardless of storage class.
    """
    if is_typed(column):
        return column.tolist()
    return column if isinstance(column, list) else list(column)


def take_cells(column: Any, indices: Sequence[int]) -> Any:
    """Row-subset a column; typed columns use fancy indexing."""
    if is_typed(column):
        return column[indices]
    return [column[i] for i in indices]


def concat_cells(parts: Sequence[Any]) -> Any | None:
    """Concatenate same-field columns from several batches.

    Returns a typed array when every part is typed with one dtype,
    otherwise ``None`` — the caller falls back to list concatenation.
    """
    if np is None or not parts:
        return None
    if not all(is_typed(p) for p in parts):
        return None
    if len({p.dtype for p in parts}) != 1:
        return None
    return np.concatenate(parts)


def constant_cells(value: Any, n: int) -> Any:
    """Column of ``n`` copies of ``value``; typed when numeric.

    Used by ``ColumnBatch.with_columns`` so that constant numeric
    columns added mid-chain (``AddFields``) are born typed and the
    downstream compares vectorize without a re-encode.
    """
    if np is not None and n >= MIN_ROWS and not isinstance(value, bool):
        if type(value) is int and INT64_MIN <= value <= INT64_MAX:
            _count("typed_int")
            _count("typed_cells", n)
            return np.full(n, value, dtype=np.int64)
        if type(value) is float:
            _count("typed_float")
            _count("typed_cells", n)
            return np.full(n, value, dtype=np.float64)
    return [value] * n
