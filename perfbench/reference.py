"""Independent DBSCAN reference and the label checks built on it.

The reference shares no code with the program under test: ε-pairs come
from SciPy's ``cKDTree`` (distance at most ε, the point itself
included in its own neighbourhood), core points are those with at least
``minpts`` neighbours, and clusters are the connected components of the
core-core ε-graph.

Labels are compared for DBSCAN *validity*, not bit-identity, because a
border point that touches two clusters may legally join either: the
program picks the lowest *grid-sorted* core id and an original-order
reference would pick differently.  A label array is valid when

* it marks exactly the reference noise points as noise (``-1``);
* it partitions the core points exactly as the reference components do
  (up to renumbering);
* every border point carries the label of one of its core ε-neighbours.

SciPy is imported on first use, so that the set-up rounds, which load
this module with the workloads, pay only for the program's own imports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LabelError", "EpsGraph", "ReferenceDBSCAN", "check_labels"]

NOISE = -1


class LabelError(AssertionError):
    """A label array is not a valid DBSCAN clustering of its input."""


@dataclass(frozen=True)
class EpsGraph:
    """Undirected ε-pairs ``i < j`` plus each point's neighbourhood size."""

    n: int
    i: np.ndarray
    j: np.ndarray
    #: |N_ε(p)|, the point itself included
    degree: np.ndarray


@dataclass(frozen=True)
class Reference:
    """Reference clustering of one ``(ε, minpts)``."""

    core: np.ndarray
    #: component id per point (-1 for non-core points)
    component: np.ndarray
    noise: np.ndarray
    graph: EpsGraph
    minpts: int


class ReferenceDBSCAN:
    """Reference DBSCAN over one fixed point set, ε-graphs cached per ε."""

    def __init__(self, points: np.ndarray):
        from scipy.spatial import cKDTree

        self.points = np.ascontiguousarray(points[:, :2], dtype=np.float64)
        self._tree = cKDTree(self.points)
        self._graphs: dict[float, EpsGraph] = {}
        self._refs: dict[tuple[float, int], Reference] = {}

    def graph(self, eps: float) -> EpsGraph:
        eps = float(eps)
        g = self._graphs.get(eps)
        if g is None:
            pairs = self._tree.query_pairs(eps, output_type="ndarray")
            i = pairs[:, 0].astype(np.int64)
            j = pairs[:, 1].astype(np.int64)
            n = len(self.points)
            degree = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
            g = self._graphs[eps] = EpsGraph(n=n, i=i, j=j, degree=degree)
        return g

    def reference(self, eps: float, minpts: int) -> Reference:
        key = (float(eps), int(minpts))
        ref = self._refs.get(key)
        if ref is None:
            from scipy import sparse
            from scipy.sparse import csgraph

            g = self.graph(eps)
            core = g.degree >= minpts
            cc = core[g.i] & core[g.j]
            adj = sparse.coo_matrix(
                (np.ones(int(cc.sum()), dtype=np.int8), (g.i[cc], g.j[cc])),
                shape=(g.n, g.n),
            )
            _, comp = csgraph.connected_components(adj, directed=False)
            component = np.where(core, comp, NOISE)
            # a non-core point with a core neighbour is a border point
            touched = np.zeros(g.n, dtype=bool)
            touched[g.i[core[g.j]]] = True
            touched[g.j[core[g.i]]] = True
            noise = ~core & ~touched
            ref = self._refs[key] = Reference(
                core=core, component=component, noise=noise, graph=g,
                minpts=int(minpts),
            )
        return ref


def check_labels(
    labels: np.ndarray, ref: Reference, *, what: str = "labels"
) -> None:
    """Raise :class:`LabelError` unless ``labels`` is a valid DBSCAN
    clustering with the reference's noise set and core partition."""
    labels = np.asarray(labels)
    g = ref.graph
    if labels.shape != (g.n,):
        raise LabelError(f"{what}: shape {labels.shape}, expected ({g.n},)")
    is_noise = labels == NOISE
    bad = np.flatnonzero(is_noise != ref.noise)
    if len(bad):
        raise LabelError(
            f"{what}: {len(bad)} points disagree on noise (first id {bad[0]})"
        )
    core = ref.core
    lc = labels[core]
    rc = ref.component[core]
    if (lc < 0).any():
        raise LabelError(f"{what}: a core point carries a negative label")
    n_pairs = len(np.unique(np.column_stack([lc, rc]), axis=0)) if len(lc) else 0
    if not n_pairs == len(np.unique(lc)) == len(np.unique(rc)):
        raise LabelError(
            f"{what}: core partition differs from the reference "
            f"({len(np.unique(lc))} labelled vs {len(np.unique(rc))} "
            "reference clusters)"
        )
    border = ~core & ~ref.noise
    if border.any():
        ok = np.zeros(g.n, dtype=bool)
        for b, c in ((g.i, g.j), (g.j, g.i)):
            m = border[b] & core[c]
            hit = b[m][labels[b[m]] == labels[c[m]]]
            ok[hit] = True
        bad = np.flatnonzero(border & ~ok)
        if len(bad):
            raise LabelError(
                f"{what}: {len(bad)} border points are not in the cluster "
                f"of any core neighbour (first id {bad[0]})"
            )
