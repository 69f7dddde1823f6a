"""Tests for OPTICS over the annotated neighbor table (extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridDBSCAN, extract_dbscan, optics
from repro.core.optics import UNDEFINED, core_distances
from repro.core.table_dbscan import (
    NOISE,
    canonicalize_labels,
    dbscan_from_annotated_table,
)


def make_annotated(points, eps):
    h = HybridDBSCAN()
    grid, table, _ = h.build_table(points, eps, with_distances=True)
    return grid, table


class TestCoreDistances:
    def test_definition(self, uniform_points):
        _, table = make_annotated(uniform_points, 0.4)
        cd = core_distances(table, 5)
        for p in range(0, len(uniform_points), 41):
            d = np.sort(table.neighbor_distances(p))
            if len(d) >= 5:
                assert cd[p] == pytest.approx(d[4])
            else:
                assert cd[p] == UNDEFINED

    def test_minpts_one_is_zero(self, uniform_points):
        _, table = make_annotated(uniform_points, 0.3)
        cd = core_distances(table, 1)
        # 1st smallest distance is the self-distance: 0
        assert np.all(cd == 0.0)

    def test_monotone_in_minpts(self, uniform_points):
        _, table = make_annotated(uniform_points, 0.4)
        c2 = core_distances(table, 2)
        c6 = core_distances(table, 6)
        assert np.all(c6 >= c2)

    def test_plain_table_rejected(self, uniform_points):
        from repro.core.batching import build_neighbor_table
        from repro.gpusim import Device
        from repro.index import GridIndex

        grid = GridIndex.build(uniform_points, 0.3)
        table, _ = build_neighbor_table(grid, Device())
        with pytest.raises(ValueError):
            core_distances(table, 4)

    def test_invalid_minpts(self, uniform_points):
        _, table = make_annotated(uniform_points, 0.3)
        with pytest.raises(ValueError):
            core_distances(table, 0)


class TestOrdering:
    def test_order_is_permutation(self, blobs_points):
        _, table = make_annotated(blobs_points, 0.5)
        res = optics(table, 5)
        assert sorted(res.order.tolist()) == list(range(len(blobs_points)))

    def test_expansion_starts_with_undefined_reach(self, blobs_points):
        _, table = make_annotated(blobs_points, 0.5)
        res = optics(table, 5)
        assert res.reachability[res.order[0]] == UNDEFINED

    def test_reachability_at_least_core_distance_of_predecessors(
        self, uniform_points
    ):
        """Finite reachability values are bounded below by the minimum
        core distance (no point can be reached more cheaply)."""
        _, table = make_annotated(uniform_points, 0.4)
        res = optics(table, 4)
        finite = np.isfinite(res.reachability)
        if finite.any():
            assert res.reachability[finite].min() >= np.nanmin(
                res.core_distance[np.isfinite(res.core_distance)]
            ) - 1e-12

    def test_cluster_members_contiguous_in_order(self, blobs_points):
        """Well-separated blobs appear as contiguous valleys: within the
        visit order, each blob's points form one run."""
        grid, table = make_annotated(blobs_points, 0.5)
        res = optics(table, 5)
        labels = dbscan_from_annotated_table(table, 5, 0.5)
        # walk the order; count transitions between the two clusters
        seq = [labels[p] for p in res.order if labels[p] != NOISE]
        transitions = sum(1 for a, b in zip(seq, seq[1:], strict=False) if a != b)
        assert transitions == 1  # two blobs -> exactly one switch

    def test_reachability_plot_shape(self, blobs_points):
        _, table = make_annotated(blobs_points, 0.5)
        res = optics(table, 5)
        plot = res.reachability_plot()
        assert len(plot) == len(blobs_points)
        # dense blob interiors have small reachability; noise large/inf
        labels = dbscan_from_annotated_table(table, 5, 0.5)
        member_reach = plot[np.isin(res.order, np.flatnonzero(labels >= 0))]
        assert np.median(member_reach[np.isfinite(member_reach)]) < 0.5


class TestExtractDBSCAN:
    def test_core_clustering_matches_dbscan(self, blobs_points):
        _, table = make_annotated(blobs_points, 0.6)
        res = optics(table, 5)
        for eps in (0.25, 0.4, 0.6):
            a = extract_dbscan(res, eps)
            b = dbscan_from_annotated_table(table, 5, eps)
            src, _ = table.edges()
            keep = table.distances <= eps
            counts = np.bincount(src[keep], minlength=table.n_points)
            core = counts >= 5
            assert np.array_equal(
                canonicalize_labels(np.where(core, a, NOISE)),
                canonicalize_labels(np.where(core, b, NOISE)),
            ), eps
            # ExtractDBSCAN may demote border points to noise (as in the
            # OPTICS paper) but never invents cluster members
            extra = (a >= 0) & (b == NOISE)
            assert not extra.any()

    def test_extract_above_eps_rejected(self, blobs_points):
        _, table = make_annotated(blobs_points, 0.4)
        res = optics(table, 5)
        with pytest.raises(ValueError):
            extract_dbscan(res, 0.8)

    def test_minpts_one_single_pass(self, chain_points):
        _, table = make_annotated(chain_points, 0.5)
        res = optics(table, 2)
        labels = extract_dbscan(res, 0.5)
        assert (labels == 0).all()  # the chain is one cluster

    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=10, deadline=None)
    def test_property_core_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.vstack(
            [rng.normal(0, 0.25, (70, 2)), rng.random((70, 2)) * 4]
        )
        _, table = make_annotated(pts, 0.45)
        res = optics(table, 4)
        for eps in (0.2, 0.45):
            a = extract_dbscan(res, eps)
            b = dbscan_from_annotated_table(table, 4, eps)
            src, _ = table.edges()
            keep = table.distances <= eps
            counts = np.bincount(src[keep], minlength=table.n_points)
            core = counts >= 4
            assert np.array_equal(
                canonicalize_labels(np.where(core, a, NOISE)),
                canonicalize_labels(np.where(core, b, NOISE)),
            )
