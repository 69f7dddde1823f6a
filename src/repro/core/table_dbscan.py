"""DBSCAN over a precomputed neighbor table ``T``.

Algorithm 4 replaces the ``NeighborSearch(p, ε, I)`` calls of Algorithm 1
with lookups into ``T``.  ``B`` lists the rows of ``T`` in point order,
so ``T`` is a CSR matrix over the points, and host cluster formation is
one pass over it (:func:`cluster_csr`):

* non-core rows are emptied — a non-core point keeps its in-edges but
  has no out-edges, so no directed path runs *through* it and it can
  never join two clusters;
* the strongly connected components of what is left are the clusters.
  Every kernel computes a pair's squared distance the same way in both
  directions, so ``T`` is symmetric; among core points a directed path
  then exists iff its reverse does, and strong components are exactly
  the connected components of the core graph.  SciPy finds them on the
  CSR as it is, without the transpose its undirected search builds;
* a border point joins its lowest-id core neighbor.  By symmetry the
  non-core points with a core neighbor are those that sit in a core
  row; one segmented minimum over their own rows
  (:func:`repro._nputil.row_minima`) finds every lowest core id.

Both steps need ``T`` to list each neighbor once per row, which it does:
SciPy's strong-components search does not return on a row that repeats
an entry.  :meth:`NeighborTable.validate
<repro.core.neighbor_table.NeighborTable.validate>`, which a loaded
table passes, checks both preconditions.

:func:`dbscan_from_table` runs the pass on ``T`` itself, the sub-ε path
(:func:`dbscan_from_annotated_table`) on ``T`` filtered by distance, and
the sharded run (:func:`repro.core.sharding.run_shard`) on a shard's
``T`` under its interior-core mask.  The halo merge
(:class:`repro.core.placement.IncrementalMerger`) runs the same strong
components search on its core edges, symmetrized and each once, over
core-only ids (:func:`components_labels`).

The same clustering is computed by union-find label kernels on the
simulated device (:mod:`repro.core.device_cluster`), and by a faithful
sequential adaptation of Algorithm 1 kept as the test oracle
(:func:`repro.baseline.dbscan_from_table_expand`).

All of them produce *bit-identical* labels.  Original DBSCAN leaves
border points that are ε-reachable from several clusters to visitation
order (Ester et al. 1996); here every implementation resolves the tie
the same way — a border point joins the cluster of its **lowest-id core
neighbor** — so the outputs can be compared with ``np.array_equal``, no
label-equivalence escape hatch needed.  Labels: ``-1`` is noise,
clusters are ``0..k-1``, numbered by their lowest member point id for
determinism.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro._nputil import id_dtype, multi_arange, no_core, row_minima
from repro.core.neighbor_table import NeighborTable

__all__ = [
    "NOISE",
    "dbscan_from_table",
    "dbscan_from_annotated_table",
    "core_mask",
    "canonicalize_labels",
    "cluster_csr",
    "components_labels",
]

NOISE = -1


def core_mask(table: NeighborTable, minpts: int) -> np.ndarray:
    """Boolean mask of core points: ``|N_ε(p)| >= minpts``.

    Note the neighborhood includes the point itself (dist(p, p) = 0 ≤ ε),
    as in the original DBSCAN formulation.
    """
    if minpts < 1:
        raise ValueError("minpts must be >= 1")
    return table.neighbor_counts() >= minpts


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber clusters by their lowest member point id (noise stays -1).

    Vectorized (this sits on the thread-scaling hot path of scenario S3,
    so it must not hold the GIL in a Python loop).  Labels in ``[0, n)``
    — the raw labels of every clustering path are point ids — are ranked
    without a sort over the points; any others are compressed first.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    members = np.flatnonzero(labels != NOISE)
    if len(members) == 0:
        return np.full(n, NOISE, dtype=np.int64)
    vals = labels[members]
    if vals.min() < 0 or vals.max() >= n:
        _, vals = np.unique(vals, return_inverse=True)
    # ``out`` first ranks the labels, each by its lowest member id
    out = np.full(n, n, dtype=np.int64)
    np.minimum.at(out, vals, members)
    used = np.flatnonzero(out < n)
    out[used[np.argsort(out[used])]] = np.arange(len(used))
    ranks = out[vals]
    out.fill(NOISE)
    out[members] = ranks
    return out


#: entries per block of the core-row mask in :func:`cluster_csr`
CORE_ROW_BLOCK = 1 << 16


def _strong_components(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per vertex of a directed graph in CSR form, the label of its
    strongly connected component — the one components pass of host
    cluster formation.  No row may repeat an entry: SciPy's search does
    not return on one.

    csgraph reads the structure only: one broadcast 1.0 stands in for
    the weights, and int32 ids spare SciPy a checked down-cast.
    """
    n = len(indptr) - 1
    idx = id_dtype(n, len(indices))
    indices = indices.astype(idx, copy=False)
    graph = sparse.csr_matrix(
        (
            np.broadcast_to(1.0, indices.shape),
            indices,
            indptr.astype(idx, copy=False),
        ),
        shape=(n, n),
    )
    _, comp = csgraph.connected_components(
        graph, directed=True, connection="strong"
    )
    return comp


def cluster_csr(
    is_core: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Host cluster formation over a symmetric ε-graph in CSR form.

    Row ``p`` of ``(indptr, indices)`` lists ``p``'s neighbors, each
    once, and the graph must be symmetric (``q`` in row ``p`` iff ``p``
    in row ``q``) at least on the edges with a core endpoint (module
    docstring).  Returns ``(raw, attach)`` in the convention of
    :class:`~repro.core.device_cluster.DeviceClusterResult`: ``raw[p]``
    is the minimum core id of ``p``'s cluster for cores and attached
    border points (``-1`` for noise), ``attach[p]`` the lowest-id core
    neighbor of a non-core point (``-1`` for cores and noise).
    """
    n = len(is_core)
    raw = np.full(n, NOISE, dtype=np.int64)
    attach = np.full(n, NOISE, dtype=np.int64)
    core_ids = np.flatnonzero(is_core)
    if len(core_ids) == 0:
        return raw, attach
    # non-core rows emptied, core rows kept as they are, copied in row
    # blocks straight into the ids SciPy reads: no mask or int64 copy of
    # the whole table
    widths = np.diff(indptr)
    g_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(is_core, widths, 0), out=g_indptr[1:])
    kept = int(g_indptr[-1])
    g_indices = np.empty(kept, dtype=id_dtype(n, kept))
    cuts = np.searchsorted(indptr, np.arange(0, int(indptr[-1]), CORE_ROW_BLOCK))
    for r0, r1 in zip(cuts.tolist(), [*cuts[1:].tolist(), n], strict=True):
        keep = np.repeat(is_core[r0:r1], widths[r0:r1])
        g_indices[g_indptr[r0] : g_indptr[r1]] = indices[indptr[r0] : indptr[r1]][keep]
    core_comp = _strong_components(g_indptr, g_indices)[core_ids]
    lowest = np.full(n, no_core(np.int64), dtype=np.int64)
    np.minimum.at(lowest, core_comp, core_ids)
    raw[core_ids] = lowest[core_comp]

    # border attachment: by symmetry the non-core points with a core
    # neighbor are those that sit in a core row; each joins the lowest
    # core id in its own row
    in_reach = np.zeros(n, dtype=bool)
    in_reach[g_indices] = True
    del g_indices  # not held through the border pass's allocations
    rows = np.flatnonzero(in_reach & ~is_core)
    if len(rows):
        row_widths = widths[rows]
        entries = indices[multi_arange(indptr[rows], row_widths)]
        ends = np.cumsum(row_widths)
        # an int32 index gathers about half as fast as one widened first
        core_entry = is_core[entries.astype(np.intp, copy=False)]
        nearest = row_minima(
            np.where(core_entry, entries, no_core(entries.dtype)),
            ends - row_widths,
            ends - 1,
        )
        attach[rows] = nearest
        raw[rows] = raw[nearest]
    return raw, attach


def components_labels(
    is_core: np.ndarray,
    core_src: np.ndarray,
    core_dst: np.ndarray,
    border_src: np.ndarray,
    border_dst: np.ndarray,
) -> np.ndarray:
    """Labels from the core mask and its filtered ε-edges.

    ``(core_src, core_dst)`` are core–core edges and ``(border_src,
    border_dst)`` (non-core, core) edges, each in any order, with
    duplicates, and possibly in one direction only.  Clusters are the
    connected components of the core graph: the strong components of
    that graph over core-only ids, symmetrized and with each edge once.
    A border point joins the cluster of its lowest-id core neighbor
    (deterministic).
    """
    n = len(is_core)
    labels = np.full(n, NOISE, dtype=np.int64)
    core_ids = np.flatnonzero(is_core)
    m = len(core_ids)
    if m == 0:
        return labels
    # one sorted (source, neighbor) key per core edge and direction,
    # each once: the rows of the core graph, grouped
    shift = max(1, (m - 1).bit_length())
    key = np.int32 if 2 * shift < 31 else np.int64
    core_index = np.empty(n, dtype=key)
    core_index[core_ids] = np.arange(m, dtype=key)
    a = core_index[core_src]
    b = core_index[core_dst]
    e = len(a)
    edge = np.empty(2 * e, dtype=key)
    np.left_shift(a, shift, out=edge[:e])
    np.left_shift(b, shift, out=edge[e:])
    edge[:e] |= b
    edge[e:] |= a
    edge.sort()
    first = np.empty(len(edge), dtype=bool)
    first[:1] = True
    np.not_equal(edge[1:], edge[:-1], out=first[1:])
    edge = edge[first]
    indptr = np.zeros(m + 1, dtype=key)
    np.cumsum(np.bincount(edge >> shift, minlength=m), out=indptr[1:])
    edge &= (1 << shift) - 1
    labels[core_ids] = _strong_components(indptr, edge)
    if len(border_src):
        # each border point's lowest-id core neighbor
        border, pos = np.unique(border_src, return_inverse=True)
        nearest = np.full(len(border), no_core(np.int64), dtype=np.int64)
        np.minimum.at(nearest, pos, border_dst)
        labels[border] = labels[nearest]
    return canonicalize_labels(labels)


def dbscan_from_table(table: NeighborTable, minpts: int) -> np.ndarray:
    """Connected-components DBSCAN over ``T`` (vectorized, GIL-releasing)."""
    is_core = core_mask(table, minpts)
    raw, _ = cluster_csr(is_core, table.indptr, table.values)
    return canonicalize_labels(raw)


def dbscan_from_annotated_table(
    table: NeighborTable, minpts: int, eps: float
) -> np.ndarray:
    """DBSCAN at ``eps ≤ table.eps`` from a distance-annotated table.

    Because every entry of an annotated ``T`` carries its distance, the
    ε'-neighborhood for any ε' ≤ ε is a filtered view — one table built
    at the sweep's largest ε serves the whole S2 sweep (the multi-ε
    extension of the paper's S3 reuse idea).  Distances are symmetric
    like the table, so the filtered table is too.
    """
    if not table.with_distances:
        raise ValueError("requires a table built with_distances=True")
    if eps > table.eps + 1e-12:
        raise ValueError(
            f"table was built for eps={table.eps}; cannot query eps={eps}"
        )
    if minpts < 1:
        raise ValueError("minpts must be >= 1")
    keep = table.distances <= eps
    kept = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    indptr = kept[table.indptr]
    is_core = np.diff(indptr) >= minpts
    raw, _ = cluster_csr(is_core, indptr, table.values[keep])
    return canonicalize_labels(raw)
