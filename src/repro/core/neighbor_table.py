"""The neighbor table ``T`` of Sections III and V.

``T`` maps every point ``p_i`` to its ε-neighborhood as an inclusive
range ``[T_min_i, T_max_i]`` into a host value array ``B``: if ``p_j`` is
within ε of ``p_i`` then ``j ∈ {B[T_min_i], ..., B[T_max_i]}``.

The table is built incrementally from batches: each batch's result set
arrives in a pinned staging buffer as whole rows, each key's records in
one run (the kernels reserve and write each row contiguously; rows
need not come in key order), its *values* are copied out (the keys are
consumed as run boundaries only — the paper's "we only copy the
values" optimization), and the ranges of the keys in that batch are
set.  Every point's whole neighborhood is produced by a
single batch, so ranges never straddle batches.  :meth:`finalize`
scatters each batch's rows to their place in ``B``, which therefore
lists the rows in point-id order: ``T`` is a CSR matrix whose row
offsets :attr:`~NeighborTable.indptr` are the running sum of the row
widths, and host cluster formation runs on it without re-expanding
rows (:mod:`repro.core.table_dbscan`).

``B`` holds point ids at the id width of the table's points, and the
finalized row ranges are offsets at the width of its entries
(:func:`repro._nputil.id_dtype`): int32 below 2**31 of each, as the
kernels stage them, so no batch is widened on its way into ``B``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro._nputil import expand_ranges, id_dtype, multi_arange, run_boundaries

__all__ = ["NeighborTable"]


class NeighborTable:
    """Host-side ε-neighborhood table (the paper's ``T`` and ``B``)."""

    def __init__(self, n_points: int, eps: float, *, with_distances: bool = False):
        if n_points <= 0:
            raise ValueError("n_points must be positive")
        self.n_points = int(n_points)
        self.eps = float(eps)
        #: annotated tables also carry dist(p_i, B[j]) for every entry,
        #: enabling reuse at any ε' ≤ ε and OPTICS (extension)
        self.with_distances = bool(with_distances)
        #: the dtype of the point ids in ``B``
        self.id_dtype = id_dtype(self.n_points)
        #: the row ranges; provisional (batch arrival order) until
        #: finalize, so they are read through :attr:`t_min`/:attr:`t_max`
        self._t_min = np.full(n_points, -1, dtype=np.int64)
        self._t_max = np.full(n_points, -1, dtype=np.int64)
        #: per batch: (its keys in row order, their rows' values back to
        #: back, the matching distances or None)
        self._chunks: list[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = []
        self._cursor = 0
        self._values: Optional[np.ndarray] = None
        self._dist: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        distances: Optional[np.ndarray] = None,
    ) -> None:
        """Ingest one batch's result set, laid out in whole rows.

        ``keys``/``values`` come from the pinned staging buffer, where
        each key's records form one run, in any order of keys; the
        values are copied out at :attr:`id_dtype`, which is the staged
        width on the pair path.  A key in two runs raises
        :class:`ValueError` naming it.  Thread-safe: batches from the 3
        stream workers may arrive concurrently.  Annotated tables
        require the matching ``distances`` column.
        """
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if self.with_distances:
            if distances is None or len(distances) != len(values):
                raise ValueError(
                    "annotated table requires a distances column of equal length"
                )
        elif distances is not None:
            raise ValueError("table was not created with_distances")
        if len(keys) == 0:
            return
        keys, starts, ends = run_boundaries(np.asarray(keys))
        if keys.min() < 0 or keys.max() >= self.n_points:
            raise ValueError("key out of range for this table")
        # a row split over two runs would overwrite its first range;
        # ascending runs (the global kernel's) are distinct in O(keys)
        if not bool(np.all(keys[1:] > keys[:-1])):
            ordered = np.sort(keys)
            repeat = np.flatnonzero(ordered[1:] == ordered[:-1])
            if len(repeat):
                raise ValueError(
                    f"key {int(ordered[repeat[0]])} appears in two runs of one batch"
                )
        # the copy out of pinned memory the paper describes (values only)
        chunk = np.array(values, dtype=self.id_dtype, copy=True)
        dist = (
            np.array(distances, dtype=np.float64, copy=True)
            if self.with_distances
            else None
        )
        with self._lock:
            if self._values is not None:
                raise RuntimeError("table already finalized")
            if np.any(self._t_min[keys] >= 0):
                raise ValueError("a key appeared in two batches")
            offset = self._cursor
            self._cursor += len(chunk)
            self._chunks.append((keys, chunk, dist))
            self._t_min[keys] = offset + starts
            self._t_max[keys] = offset + ends - 1  # inclusive

    def finalize(self) -> "NeighborTable":
        """Assemble ``B`` in point order from the batch chunks; idempotent."""
        with self._lock:
            if self._values is None:
                self._lay_out(self._chunks)
        return self

    def _lay_out(
        self, chunks: list[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
    ) -> None:
        """Install ``B`` (and the distances) in point order.

        Each chunk holds the whole rows of its ``keys`` back to back, in
        that order, widths taken from the current ranges.  Chunks are scattered
        to their rows one at a time and released as they go, so peak
        memory is what one concatenation of them would need.  A lone
        chunk with ascending keys is already in point order and is kept
        as it is.
        """
        counts = self.neighbor_counts()
        indptr = np.zeros(self.n_points + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        m = int(indptr[-1])
        if len(chunks) == 1 and bool(np.all(np.diff(chunks[0][0]) > 0)):
            _, values, dist = chunks.pop()
        else:
            values = np.empty(m, dtype=self.id_dtype)
            dist = np.empty(m, dtype=np.float64) if self.with_distances else None
            while chunks:
                keys, chunk, chunk_dist = chunks.pop()
                dest = multi_arange(indptr[keys], counts[keys])
                values[dest] = chunk
                if dist is not None:
                    dist[dest] = chunk_dist
        assigned = counts > 0
        offsets = id_dtype(m)
        self._t_min = np.where(assigned, indptr[:-1], -1).astype(offsets, copy=False)
        self._t_max = np.where(assigned, indptr[1:] - 1, -1).astype(offsets, copy=False)
        self._values = values
        if self.with_distances:
            self._dist = dist

    @property
    def t_min(self) -> np.ndarray:
        """``T_min``: where each row starts in ``B``, ``-1`` for an empty
        row (finalizes on first access, like :attr:`values`)."""
        if self._values is None:
            self.finalize()
        return self._t_min

    @property
    def t_max(self) -> np.ndarray:
        """``T_max``: where each row ends in ``B``, inclusive."""
        if self._values is None:
            self.finalize()
        return self._t_max

    @property
    def values(self) -> np.ndarray:
        """The value array ``B`` (finalizes on first access)."""
        if self._values is None:
            self.finalize()
        assert self._values is not None
        return self._values

    @property
    def distances(self) -> np.ndarray:
        """Per-entry distances aligned with ``values`` (annotated only)."""
        if not self.with_distances:
            raise ValueError("table was built without distances")
        if self._dist is None:
            self.finalize()
        assert self._dist is not None
        return self._dist

    @property
    def indptr(self) -> np.ndarray:
        """CSR row offsets of ``B``: row ``i`` is
        ``values[indptr[i]:indptr[i + 1]]`` (rows are in point order)."""
        indptr = np.zeros(self.n_points + 1, dtype=np.int64)
        np.cumsum(self.neighbor_counts(), out=indptr[1:])
        return indptr

    @property
    def total_pairs(self) -> int:
        """|R| — total key/value pairs ingested."""
        return self._cursor

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        """ε-neighborhood of point ``i`` (a view into ``B``)."""
        lo = self.t_min[i]
        if lo < 0:
            return np.empty(0, dtype=self.id_dtype)
        return self.values[lo : self.t_max[i] + 1]

    def neighbor_distances(self, i: int) -> np.ndarray:
        """Distances aligned with :meth:`neighbors` (annotated only)."""
        lo = self.t_min[i]
        if lo < 0:
            return np.empty(0, dtype=np.float64)
        return self.distances[lo : self.t_max[i] + 1]

    def neighbor_counts(self) -> np.ndarray:
        """|N_ε(p_i)| for all points, vectorized (the row widths, which
        finalize leaves as they are)."""
        counts = self._t_max - self._t_min + 1
        counts[self._t_min < 0] = 0
        return counts

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All (source, neighbor) pairs as two flat arrays, in ``B``
        order (aligned with the ``distances`` column)."""
        src = np.repeat(
            np.arange(self.n_points, dtype=np.int64), self.neighbor_counts()
        )
        return src, self.values

    def edges_for(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(source, neighbor) pairs restricted to source ids ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        src, flat = expand_ranges(ids, self.t_min[ids], self.t_max[ids])
        return src, self.values[flat]

    # ------------------------------------------------------------------
    # persistence — a built T is reusable across sessions (the paper's
    # preprocessing-for-reuse idea taken to disk)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the finalized table as ``.npz``.

        Metadata is stored as *typed* scalar entries (``n_points`` as
        int64, ``eps`` as float64, ``with_distances`` as bool) — the old
        single ``meta`` array silently upcast everything to float64,
        which loses integer exactness once ``n_points`` exceeds 2**53.
        :meth:`load` still accepts the legacy layout.
        """
        self.finalize()
        path = Path(path)
        arrays = {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "values": self.values,
            "n_points": np.int64(self.n_points),
            "eps": np.float64(self.eps),
            "with_distances": np.bool_(self.with_distances),
        }
        if self.with_distances:
            arrays["distances"] = self.distances
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NeighborTable":
        """Load a table written by :meth:`save` (validated).

        Accepts both the typed-scalar layout and the legacy float64
        ``meta`` array of earlier versions.  A file missing a required
        array (e.g. an annotated-flagged table whose ``distances`` never
        made it to disk — an interrupted save) or failing structural
        validation raises :class:`ValueError` naming the file and the
        corrupt field, not a bare ``KeyError``/``AssertionError``.
        """
        path = Path(path)
        with np.load(path) as data:
            if "n_points" in data:
                meta_missing = [
                    k for k in ("eps", "with_distances") if k not in data
                ]
                if meta_missing:
                    raise ValueError(
                        f"corrupt neighbor table {path}: missing metadata "
                        f"field(s) {meta_missing}"
                    )
                n_points = int(data["n_points"])
                eps = float(data["eps"])
                with_d = bool(data["with_distances"])
            elif "meta" in data:  # legacy: one float64 [n_points, eps, with_d]
                n_points_f, eps, with_d = data["meta"]
                n_points = int(n_points_f)
                with_d = bool(with_d)
            else:
                raise ValueError(
                    f"corrupt neighbor table {path}: neither 'n_points' "
                    f"nor legacy 'meta' metadata present"
                )
            required = ["t_min", "t_max", "values"]
            if with_d:
                required.append("distances")
            missing = [k for k in required if k not in data]
            if missing:
                raise ValueError(
                    f"corrupt neighbor table {path}: missing array(s) "
                    f"{missing}"
                    + (
                        " (with_distances is set but the distance column "
                        "was never written — interrupted save?)"
                        if "distances" in missing
                        else ""
                    )
                )
            table = cls(n_points, float(eps), with_distances=with_d)
            table._t_min = data["t_min"].astype(np.int64)
            table._t_max = data["t_max"].astype(np.int64)
            values = data["values"]
            dist = data["distances"].astype(np.float64) if with_d else None
        table._cursor = len(values)
        try:
            # files written before ids took the id width hold int64 ids:
            # narrowed only once they are known to fit, so no corrupt id
            # wraps into range
            if len(values) and (values.min() < 0 or values.max() >= n_points):
                raise AssertionError("neighbor id out of range")
            values = values.astype(table.id_dtype, copy=False)
            # files written before B was kept in point order hold it in
            # batch order: lay the rows out again before validating
            rows = table._rows_in_b_order(values, dist)
            table._lay_out([(rows, values, dist)])
            table.validate()
        except AssertionError as exc:
            raise ValueError(
                f"corrupt neighbor table {path}: {exc}"
            ) from exc
        return table

    # ------------------------------------------------------------------
    # invariants (tests)
    # ------------------------------------------------------------------
    def _rows_in_b_order(
        self, values: np.ndarray, dist: Optional[np.ndarray]
    ) -> np.ndarray:
        """The assigned rows, sorted by where they start in ``values``;
        raises :class:`AssertionError` unless they tile it exactly."""
        rows = np.flatnonzero(self._t_min >= 0)
        rows = rows[np.argsort(self._t_min[rows], kind="stable")]
        widths = self._t_max[rows] - self._t_min[rows] + 1
        if np.any(widths < 1):
            raise AssertionError("t_max < t_min for an assigned point")
        if widths.sum() != len(values) or np.any(
            self._t_min[rows] != np.cumsum(widths) - widths
        ):
            raise AssertionError("ranges overlap or leave gaps in B")
        if dist is not None and len(dist) != len(values):
            raise AssertionError("distance column misaligned with B")
        return rows

    def validate(self) -> None:
        """Check structural invariants; raises on violation.

        Besides the layout, ``T`` must be an ε-neighborhood table: each
        row lists a neighbor once, and ``(i, j)`` is listed iff ``(j,
        i)`` is, at the same distance.  Host cluster formation relies on
        both (:mod:`repro.core.table_dbscan`).
        """
        counts = self.neighbor_counts()
        assigned = self.t_min >= 0
        if np.any(self.t_max[assigned] < self.t_min[assigned]):
            raise AssertionError("t_max < t_min for an assigned point")
        if counts.sum() != len(self.values):
            raise AssertionError("range lengths do not cover B exactly")
        # with the lengths covering B, rows starting at the running sum
        # of the widths tile it without gaps or overlap, in point order
        if np.any(self.t_min[assigned] != self.indptr[:-1][assigned]):
            raise AssertionError("rows of B are not laid out in point order")
        n, values = self.n_points, self.values
        if len(values) and (values.min() < 0 or values.max() >= n):
            raise AssertionError("neighbor id out of range")
        if self.with_distances:
            d = self.distances
            if len(d) != len(values):
                raise AssertionError("distance column misaligned with B")
            if len(d) and (d.min() < 0 or d.max() > self.eps + 1e-12):
                raise AssertionError("distance outside [0, eps]")
        # one (source, neighbor) key per entry, sorted, against the
        # same keys with source and neighbor swapped
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        # widened first: an int32 id times n wraps once n > 46,340
        nbr = values.astype(np.int64)
        fwd_key = src * n + nbr
        rev_key = nbr * n + src
        fwd = np.argsort(fwd_key, kind="stable")
        rev = np.argsort(rev_key, kind="stable")
        key = fwd_key[fwd]
        if np.any(key[1:] == key[:-1]):
            raise AssertionError("a row of B lists a neighbor twice")
        if not np.array_equal(key, rev_key[rev]):
            raise AssertionError("T is not symmetric")
        if self.with_distances and not np.array_equal(d[fwd], d[rev]):
            raise AssertionError("distances are not symmetric")
