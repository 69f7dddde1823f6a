"""DBSCAN over a precomputed neighbor table ``T``.

Algorithm 4 replaces the ``NeighborSearch(p, ε, I)`` calls of Algorithm 1
with lookups into ``T``.  :func:`dbscan_from_table` computes the
clustering as the connected components of the core-point graph (core
points adjacent iff within ε) plus border attachment, in vectorized
NumPy + SciPy sparse CSR.  That pass, :func:`components_labels`, also
serves the sub-ε path (:func:`dbscan_from_annotated_table`) and the
sharded halo merge (:class:`repro.core.placement.IncrementalMerger`),
which differ only in how they collect edges.

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
    "dbscan_from_annotated_edges",
    "core_mask",
    "canonicalize_labels",
    "components_labels",
    "first_per_key",
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


def first_per_key(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each unique key, the minimum value (vectorized)."""
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    return keys[first], values[first]


def _core_graph(
    core_ids: np.ndarray, n: int, core_src: np.ndarray, core_dst: np.ndarray
) -> sparse.csr_matrix:
    """The core graph as a CSR over core-only vertex ids, built directly:
    no COO conversion, no duplicate summing, no index sort.  Its
    temporaries die on return, before the components pass runs."""
    m = len(core_ids)
    idx = np.int32 if max(m, len(core_src)) < 2**31 else np.int64
    core_index = np.full(n, -1, dtype=idx)
    core_index[core_ids] = np.arange(m, dtype=idx)
    rows = core_index[core_src]
    cols = core_index[core_dst]
    if len(rows) and not (rows[1:] >= rows[:-1]).all():
        # group by row (the merger's edges arrive unordered)
        order = np.argsort(rows, kind="stable")
        rows, cols = rows[order], cols[order]
    indptr = np.zeros(m + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    # float64 weights: any other dtype makes SciPy's astype sum
    # duplicates and sort the indices
    return sparse.csr_matrix(
        (np.ones(len(cols), dtype=np.float64), cols, indptr), shape=(m, m)
    )


def components_labels(
    is_core: np.ndarray,
    core_src: np.ndarray,
    core_dst: np.ndarray,
    border_src: np.ndarray,
    border_dst: np.ndarray,
) -> np.ndarray:
    """Labels from the core mask and its filtered ε-edges.

    ``(core_src, core_dst)`` are the core–core edges and ``(border_src,
    border_dst)`` the (non-core, core) edges.  Clusters are the
    connected components of the core graph; a border point joins the
    cluster of its lowest-id core neighbor (deterministic).
    """
    n = len(is_core)
    labels = np.full(n, NOISE, dtype=np.int64)
    core_ids = np.flatnonzero(is_core)
    if len(core_ids) == 0:
        return labels
    _, comp = csgraph.connected_components(
        _core_graph(core_ids, n, core_src, core_dst), directed=False
    )
    labels[core_ids] = comp
    if len(border_src):
        u, v = first_per_key(border_src, border_dst)
        labels[u] = labels[v]
    return canonicalize_labels(labels)


def dbscan_from_table(table: NeighborTable, minpts: int) -> np.ndarray:
    """Connected-components DBSCAN over ``T`` (vectorized, GIL-releasing)."""
    is_core = core_mask(table, minpts)
    if not is_core.any():
        # all noise: skip both table expansions
        return np.full(table.n_points, NOISE, dtype=np.int64)

    def edges_to_core(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # filtered before the next expansion is built, so two unfiltered
        # edge lists never coexist (they dominate peak memory)
        src, dst = table.edges_for(ids)
        keep = is_core[dst]
        return src[keep], dst[keep]

    core_edges = edges_to_core(np.flatnonzero(is_core))
    border_edges = edges_to_core(np.flatnonzero(~is_core))
    return components_labels(is_core, *core_edges, *border_edges)


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
    return dbscan_from_annotated_edges(
        table.n_points, src, dst, table.distances[pos], minpts, eps
    )


def dbscan_from_annotated_edges(
    n_points: int,
    src: np.ndarray,
    dst: np.ndarray,
    dist: np.ndarray,
    minpts: int,
    eps: float,
) -> np.ndarray:
    """:func:`dbscan_from_annotated_table` over an annotated table's
    expanded ``(source, neighbor, distance)`` edges, sources ascending —
    an ε sweep expands them once and filters them per ε."""
    keep = dist <= eps
    src, dst = src[keep], dst[keep]
    is_core = np.bincount(src, minlength=n_points) >= minpts
    from_core, to_core = is_core[src], is_core[dst]
    cc = from_core & to_core
    bc = ~from_core & to_core
    return components_labels(is_core, src[cc], dst[cc], src[bc], dst[bc])
