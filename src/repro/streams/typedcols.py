"""Typed (numpy-backed) column storage for :class:`ColumnBatch`.

PR 5 landed the columnar batch representation on parallel Python
lists.  This module is the next rung on the tuples/sec ladder: at
encode time a column whose cells are *homogeneously* ``int`` or
``float`` is backed by a numpy array (``int64`` / ``float64``), so the
hot kernels — ``FieldCompare.mask``, batch slicing — run as single
C-level array operations instead of per-element Python loops.

Lists remain the universal fallback.  A column stays a plain list when

- numpy is not installed (or ``REPRO_NO_NUMPY=1`` is set),
- the column is shorter than the ``min_rows`` threshold (tiny batches
  would pay more in conversion than they win in vectorization),
- the cells mix types (``int`` + ``float``), because decoding must
  return *exactly* the objects that were encoded — ints stay ints,
- any cell is ``MISSING``/``None``/non-numeric (``bool`` is
  deliberately not ``int`` here), or
- an ``int`` cell falls outside the exact ``int64`` range.

Every decision is observable via :func:`storage_stats`; detection runs
only where a batch is encoded for a column kernel, so the counters
count columns a kernel actually consumed.  The counters
are module-global and *deliberately not* part of per-run telemetry
snapshots: snapshots and trace events are pinned byte-identical across
execution modes and across the numpy/no-numpy CI legs
(``tests/test_telemetry.py::TestColumnarAccounting``), and typed
storage is exactly the kind of environment-dependent detail that must
not leak into them.

**Exactness contract.** Typed storage is invisible to results:
``arr.tolist()`` round-trips ``int64``/``float64`` cells bit-exactly
(NaN included), so ``row ≡ columnar ≡ fused`` holds with and without
numpy.  Kernels only vectorize operations whose result is identical
to the sequential Python loop; anything else stays on the loop path.
Window aggregates never read typed columns: they evaluate one way,
over rows (:meth:`repro.streams.aggregates.AggregateSpec.evaluate`).
See ``docs/columnar.md``.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Sequence

__all__ = [
    "numpy_available",
    "typed_columns_enabled",
    "set_typed_columns",
    "typed_config",
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
    "DEFAULT_MIN_ROWS",
]

# numpy is a *performance* dependency, never a correctness one: the CI
# matrix runs the full suite with numpy uninstalled.  REPRO_NO_NUMPY=1
# forces the pure-list fallback even when numpy is importable, so the
# no-numpy code paths stay testable in a normal environment.
if os.environ.get("REPRO_NO_NUMPY"):
    np = None
else:  # pragma: no branch
    try:
        import numpy as np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        np = None  # type: ignore[assignment]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Largest magnitude at which every int is exactly representable as a
# float64 — the bound under which int sums/comparisons can be
# vectorized with results bit-identical to the Python loop.
EXACT_INT_BOUND = 2**53

# Columns shorter than this stay lists: converting a 3-row column to
# an array costs more than the vectorized kernel saves.
DEFAULT_MIN_ROWS = 4

_enabled: bool = np is not None
_min_rows: int = DEFAULT_MIN_ROWS

_stats: dict[str, int] = {}


def numpy_available() -> bool:
    """True when the numpy backend is importable and not disabled."""
    return np is not None


def typed_columns_enabled() -> bool:
    """True when encode may back homogeneous numeric columns with arrays."""
    return _enabled and np is not None


def typed_config() -> tuple[bool, int]:
    """Current ``(enabled, min_rows)`` configuration."""
    return _enabled, _min_rows


def set_typed_columns(
    enabled: bool | None = None, min_rows: int | None = None
) -> tuple[bool, int]:
    """Reconfigure typed storage; returns the *previous* configuration.

    ``enabled=False`` forces the pure-list fallback (what a no-numpy
    environment gets); ``min_rows`` tunes the conversion threshold.
    Passing ``None`` leaves a setting unchanged.  Already-encoded
    batches are unaffected — this only steers future encodes.
    """
    global _enabled, _min_rows
    previous = (_enabled, _min_rows)
    if enabled is not None:
        _enabled = bool(enabled)
    if min_rows is not None:
        if min_rows < 0:
            raise ValueError("min_rows must be >= 0")
        _min_rows = min_rows
    return previous


def _count(key: str, by: int = 1) -> None:
    _stats[key] = _stats.get(key, 0) + by


def storage_stats() -> dict[str, int]:
    """Copy of the module-global storage decision counters.

    Keys: ``typed_int`` / ``typed_float`` (columns backed by arrays),
    ``list_mixed`` / ``list_missing`` / ``list_object`` /
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
    mixed int/float, ``MISSING``, ``None``, objects — stays a list.
    """
    if not _enabled or np is None:
        return None
    n = len(values)
    if n < _min_rows:
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
    if kinds <= {int, float}:
        _count("list_mixed")
    elif any(type(k).__name__ == "_Missing" for k in _iter_sample(values, kinds)):
        _count("list_missing")
    else:
        _count("list_object")
    _count("list_cells", n)
    return None


def _iter_sample(values: Sequence[Any], kinds: set) -> Iterator[Any]:
    # Classify the fallback without another full scan: one exemplar
    # per cell type is enough to spot the MISSING sentinel.
    seen = set()
    for v in values:
        t = type(v)
        if t not in seen:
            seen.add(t)
            yield v
        if len(seen) == len(kinds):
            return


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

    Returns a typed array when every part is typed with one dtype
    (the common case when all parts saw the same schema), otherwise
    ``None`` — the caller falls back to list concatenation.
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
    if _enabled and np is not None and n >= _min_rows and not isinstance(value, bool):
        if type(value) is int and INT64_MIN <= value <= INT64_MAX:
            _count("typed_int")
            _count("typed_cells", n)
            return np.full(n, value, dtype=np.int64)
        if type(value) is float:
            _count("typed_float")
            _count("typed_cells", n)
            return np.full(n, value, dtype=np.float64)
    return [value] * n
