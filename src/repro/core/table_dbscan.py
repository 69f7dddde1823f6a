"""DBSCAN over a precomputed neighbor table ``T``.

Algorithm 4 replaces the ``NeighborSearch(p, ε, I)`` calls of Algorithm 1
with lookups into ``T``.  :func:`dbscan_from_table` computes the
clustering as the connected components of the core-point graph (core
points adjacent iff within ε) plus border attachment.  It is vectorized
NumPy + SciPy sparse CSR, whose C kernels release the GIL —
this is what makes the S2 pipeline and the S3 16-thread reuse scenario
scale on a multicore host, the role OpenMP plays in the paper.

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

from repro.core.neighbor_table import NeighborTable

__all__ = [
    "NOISE",
    "dbscan_from_table",
    "dbscan_from_annotated_table",
    "core_mask",
    "canonicalize_labels",
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
    so it must not hold the GIL in a Python loop).
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full_like(labels, NOISE)
    mask = labels != NOISE
    vals = labels[mask]
    if len(vals) == 0:
        return out
    uniq, first_idx = np.unique(vals, return_index=True)
    # rank unique labels by their first occurrence (lowest member id)
    order = np.argsort(first_idx, kind="stable")
    new_of = np.empty(len(uniq), dtype=np.int64)
    new_of[order] = np.arange(len(uniq))
    # map each label through uniq -> new id
    pos = np.searchsorted(uniq, vals)
    out[mask] = new_of[pos]
    return out


def dbscan_from_table(table: NeighborTable, minpts: int) -> np.ndarray:
    """Connected-components DBSCAN over ``T`` (vectorized, GIL-releasing)."""
    n = table.n_points
    is_core = core_mask(table, minpts)
    labels = np.full(n, NOISE, dtype=np.int64)
    core_ids = np.flatnonzero(is_core)
    if len(core_ids) == 0:
        return labels

    # core–core edges: expand the table rows of core points, keep core targets
    src, dst = table.edges_for(core_ids)
    keep = is_core[dst]
    src, dst = src[keep], dst[keep]

    # compress to core-only vertex ids
    core_index = np.full(n, -1, dtype=np.int64)
    core_index[core_ids] = np.arange(len(core_ids))
    g = sparse.csr_matrix(
        (np.ones(len(src), dtype=np.int8), (core_index[src], core_index[dst])),
        shape=(len(core_ids), len(core_ids)),
    )
    n_comp, comp = csgraph.connected_components(g, directed=False)
    labels[core_ids] = comp

    # border points: non-core with at least one core neighbor; attach to
    # the cluster of their lowest-id core neighbor (deterministic)
    border_ids = np.flatnonzero(~is_core)
    if len(border_ids):
        bsrc, bdst = table.edges_for(border_ids)
        bkeep = is_core[bdst]
        bsrc, bdst = bsrc[bkeep], bdst[bkeep]
        if len(bsrc):
            # lowest-id core neighbor per border point (stable first hit
            # after sorting by (border, core) pairs)
            order = np.lexsort((bdst, bsrc))
            bsrc, bdst = bsrc[order], bdst[order]
            first = np.concatenate(([True], bsrc[1:] != bsrc[:-1]))
            labels[bsrc[first]] = labels[bdst[first]]
    return canonicalize_labels(labels)


def _cluster_from_edges(
    n: int, is_core: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Components + border attachment over an explicit edge list.

    Shared by the sub-ε path (:func:`dbscan_from_annotated_table`),
    which filters edges by distance before clustering.
    """
    labels = np.full(n, NOISE, dtype=np.int64)
    core_ids = np.flatnonzero(is_core)
    if len(core_ids) == 0:
        return labels
    cc = is_core[src] & is_core[dst]
    csrc, cdst = src[cc], dst[cc]
    core_index = np.full(n, -1, dtype=np.int64)
    core_index[core_ids] = np.arange(len(core_ids))
    g = sparse.csr_matrix(
        (np.ones(len(csrc), dtype=np.int8), (core_index[csrc], core_index[cdst])),
        shape=(len(core_ids), len(core_ids)),
    )
    _, comp = csgraph.connected_components(g, directed=False)
    labels[core_ids] = comp

    bc = (~is_core[src]) & is_core[dst]
    bsrc, bdst = src[bc], dst[bc]
    if len(bsrc):
        order = np.lexsort((bdst, bsrc))
        bsrc, bdst = bsrc[order], bdst[order]
        first = np.concatenate(([True], bsrc[1:] != bsrc[:-1]))
        labels[bsrc[first]] = labels[bdst[first]]
    return canonicalize_labels(labels)


def dbscan_from_annotated_table(
    table: NeighborTable, minpts: int, eps: float
) -> np.ndarray:
    """DBSCAN at ``eps ≤ table.eps`` from a distance-annotated table.

    Because every entry of an annotated ``T`` carries its distance, the
    ε'-neighborhood for any ε' ≤ ε is a filtered view — one table built
    at the sweep's largest ε serves the whole S2 sweep (the multi-ε
    extension of the paper's S3 reuse idea).
    """
    if not table.with_distances:
        raise ValueError("requires a table built with_distances=True")
    if eps > table.eps + 1e-12:
        raise ValueError(
            f"table was built for eps={table.eps}; cannot query eps={eps}"
        )
    if minpts < 1:
        raise ValueError("minpts must be >= 1")
    src, dst, pos = table.edges_with_positions()
    keep = table.distances[pos] <= eps
    src, dst = src[keep], dst[keep]
    counts = np.bincount(src, minlength=table.n_points)
    is_core = counts >= minpts
    return _cluster_from_edges(table.n_points, is_core, src, dst)
