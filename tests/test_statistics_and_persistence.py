"""Tests for cluster statistics, table persistence, and ASCII plots."""

import numpy as np
import pytest

from repro.analysis.statistics import summarize_clustering
from repro.bench import SeriesSet
from repro.bench.asciiplot import render_ascii
from repro.core import HybridDBSCAN, NeighborTable
from repro.core.table_dbscan import dbscan_from_table


class TestClusterSummary:
    def test_two_blobs(self, blobs_points):
        res = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        rep = summarize_clustering(blobs_points, res.labels)
        assert rep.n_clusters == 2
        assert rep.n_noise == res.n_noise
        assert rep.largest.size >= rep.sizes()[-1]
        assert 0 < rep.noise_fraction < 1

    def test_centroids_near_truth(self, rng):
        a = rng.normal((0.0, 0.0), 0.2, (300, 2))
        b = rng.normal((5.0, 5.0), 0.2, (300, 2))
        pts = np.vstack([a, b])
        res = HybridDBSCAN().fit(pts, 0.4, 5)
        rep = summarize_clustering(pts, res.labels)
        centroids = sorted(c.centroid for c in rep.clusters)
        assert abs(centroids[0][0]) < 0.1
        assert abs(centroids[1][0] - 5.0) < 0.1

    def test_radius_and_bbox(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.zeros(4, dtype=np.int64)
        rep = summarize_clustering(pts, labels)
        c = rep.clusters[0]
        assert c.bbox == (0.0, 0.0, 1.0, 1.0)
        assert c.bbox_area == 1.0
        assert c.density == 4.0
        assert c.radius_rms == pytest.approx(np.sqrt(0.5))

    def test_all_noise(self, rng):
        pts = rng.random((20, 2))
        rep = summarize_clustering(pts, np.full(20, -1))
        assert rep.n_clusters == 0
        assert rep.largest is None
        assert rep.noise_fraction == 1.0

    def test_degenerate_cluster_density(self):
        pts = np.ones((5, 2))
        rep = summarize_clustering(pts, np.zeros(5, dtype=np.int64))
        assert rep.clusters[0].density == float("inf")

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            summarize_clustering(rng.random((5, 2)), np.zeros(4))

    def test_non_canonical_labels_rejected(self, rng):
        pts = rng.random((5, 2))
        with pytest.raises(ValueError):
            summarize_clustering(pts, np.array([0, 0, 3, 3, -1]))


class TestTablePersistence:
    def test_roundtrip_plain(self, tmp_path, blobs_points):
        h = HybridDBSCAN()
        grid, table, _ = h.build_table(blobs_points, 0.4)
        path = table.save(tmp_path / "table.npz")
        loaded = NeighborTable.load(path)
        assert loaded.n_points == table.n_points
        assert loaded.eps == table.eps
        for i in range(0, table.n_points, 37):
            assert np.array_equal(loaded.neighbors(i), table.neighbors(i))

    def test_roundtrip_annotated(self, tmp_path, blobs_points):
        h = HybridDBSCAN()
        grid, table, _ = h.build_table(blobs_points, 0.4, with_distances=True)
        loaded = NeighborTable.load(table.save(tmp_path / "t.npz"))
        assert loaded.with_distances
        assert np.allclose(loaded.distances, table.distances)

    def test_loaded_table_clusters_identically(self, tmp_path, blobs_points):
        h = HybridDBSCAN()
        grid, table, _ = h.build_table(blobs_points, 0.4)
        loaded = NeighborTable.load(table.save(tmp_path / "t.npz"))
        a = dbscan_from_table(table, 5)
        b = dbscan_from_table(loaded, 5)
        assert np.array_equal(a, b)

    def test_load_validates(self, tmp_path, blobs_points):
        h = HybridDBSCAN()
        _, table, _ = h.build_table(blobs_points, 0.4)
        path = table.save(tmp_path / "t.npz")
        # corrupt the file: truncate B
        data = dict(np.load(path))
        data["values"] = data["values"][:-5]
        np.savez_compressed(path, **data)
        # structural corruption surfaces as a ValueError naming the file
        with pytest.raises(ValueError, match="t.npz"):
            NeighborTable.load(path)


class TestAsciiPlot:
    def _panel(self):
        ss = SeriesSet("fig-test", "eps", "time_s")
        a = ss.new_series("ref")
        b = ss.new_series("hybrid")
        for i in range(1, 11):
            a.add(i / 10, i * 1.0)
            b.add(i / 10, i * 0.2)
        return ss

    def test_renders_marks_and_legend(self):
        out = render_ascii(self._panel())
        assert "o = ref" in out
        assert "x = hybrid" in out
        assert "o" in out.splitlines()[1] or "o" in out

    def test_log_scale(self):
        out = render_ascii(self._panel(), logy=True)
        assert "(log)" in out

    def test_log_rejects_nonpositive(self):
        ss = SeriesSet("p", "x", "y")
        s = ss.new_series("a")
        s.add(1, 0.0)
        with pytest.raises(ValueError):
            render_ascii(ss, logy=True)

    def test_empty_panel(self):
        assert "(empty)" in render_ascii(SeriesSet("p", "x", "y"))

    def test_constant_series(self):
        ss = SeriesSet("p", "x", "y")
        s = ss.new_series("a")
        s.add(1, 5.0)
        s.add(2, 5.0)
        out = render_ascii(ss)
        assert "o = a" in out
