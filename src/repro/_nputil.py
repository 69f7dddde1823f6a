"""Small vectorized NumPy helpers shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = ["expand_ranges", "id_dtype", "multi_arange", "no_core", "row_minima", "run_boundaries"]


def id_dtype(*extents: int) -> np.dtype:
    """The width of an array of point ids or offsets into ``B``.

    ``extents`` are the counts its values index (points, entries of
    ``B``): int32 while every one is below 2**31, so that each value,
    ``-1`` and one past the last index all fit, and int64 otherwise.
    Result pairs, ``B``, its row ranges, the device tables and the grid's
    cell ranges all take their width from here; int32 halves their bytes
    on every transfer, staging buffer and device allocation.  NumPy
    widens an int32 index before it gathers, so a host temporary used
    only as an index stays int64.
    """
    return np.dtype(np.int32 if max(extents, default=0) < 2**31 else np.int64)


def no_core(dtype: np.dtype | type) -> int:
    """"No core point here" in the row minima of core ids or labels of
    ``dtype``: its largest value, above every id.  Taken per dtype:
    ``np.where`` silently wraps a Python int too large for an int32
    array (int64's maximum becomes -1, below every id)."""
    return int(np.iinfo(dtype).max)


def multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+c) for s, c in zip(starts, counts)]``
    without a Python loop.

    Zero counts are allowed.  This is the core trick that lets the
    vector kernel backends expand per-point lookup-array ranges into a
    flat candidate list in O(total) NumPy work.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    nz = counts > 0
    starts = starts[nz]
    counts = counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    incr = np.ones(total, dtype=np.int64)
    incr[0] = starts[0]
    if len(counts) > 1:
        reset_at = np.cumsum(counts[:-1])
        incr[reset_at] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(incr, out=incr)


def expand_ranges(
    ids: np.ndarray, starts: np.ndarray, ends_inclusive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair each ``ids[i]`` with every index in ``[starts[i], ends[i]]``.

    Empty ranges are signalled by ``starts[i] == -1`` (the grid index's
    empty-cell marker).  Returns ``(repeated_ids, flat_indices)``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends_inclusive, dtype=np.int64)
    valid = starts >= 0
    counts = np.where(valid, ends - starts + 1, 0)
    rep = np.repeat(ids, counts)
    flat = multi_arange(starts[valid], counts[valid])
    return rep, flat


def run_boundaries(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of equal values: ``(run_value, run_start,
    run_end_exclusive)``.  For a sorted array the run values are unique."""
    v = np.asarray(values)
    if len(v) == 0:
        e = np.empty(0, dtype=np.int64)
        return v[:0], e, e
    change = np.flatnonzero(v[1:] != v[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(v)]))
    return v[starts], starts, ends


def row_minima(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row ``r``, ``vals[lo[r]:hi[r] + 1].min()``.

    The rows are non-empty, disjoint and ascending in ``vals``, with or
    without gaps between them (rows of ``T`` taken by ascending id, in
    ``B`` or packed back to back).  One ``np.minimum.reduceat`` over the
    interleaved ``(lo, hi + 1)`` bounds computes every row: its even
    outputs are the row minima, its odd outputs reduce the gaps between
    rows and are dropped.
    """
    if len(lo) == 0:
        return np.empty(0, dtype=vals.dtype)
    bounds = np.empty(2 * len(lo), dtype=np.int64)
    bounds[0::2] = lo
    bounds[1::2] = hi + 1
    if bounds[-1] == len(vals):
        # reduceat's last segment runs to the end of ``vals`` anyway
        bounds = bounds[:-1]
    return np.minimum.reduceat(vals, bounds)[0::2]
