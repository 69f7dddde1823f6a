"""Tests for distance-annotated neighbor tables and sub-ε DBSCAN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import same_clustering
from repro.core import HybridDBSCAN, NeighborTable
from repro.core.batching import build_neighbor_table
from repro.core.table_dbscan import dbscan_from_annotated_table
from repro.gpusim import Device
from repro.index import GridIndex
from repro.index import grid as grid_module


def annotated_table(points, eps, device=None):
    grid = GridIndex.build(points, eps)
    table, _ = build_neighbor_table(
        grid, device or Device(), with_distances=True
    )
    return grid, table


class TestAnnotatedConstruction:
    def test_distances_match_geometry(self, uniform_points):
        grid, table = annotated_table(uniform_points, 0.4)
        table.validate()
        pts = grid.points
        for i in range(0, len(pts), 37):
            nbrs = table.neighbors(i)
            dists = table.neighbor_distances(i)
            truth = np.sqrt(((pts[nbrs] - pts[i]) ** 2).sum(axis=1))
            assert np.allclose(np.sort(dists), np.sort(truth))

    def test_self_distance_zero(self, uniform_points):
        grid, table = annotated_table(uniform_points, 0.3)
        for i in (0, 5, 100):
            nbrs = table.neighbors(i)
            dists = table.neighbor_distances(i)
            assert dists[nbrs == i][0] == 0.0

    def test_distances_bounded_by_eps(self, uniform_points):
        _, table = annotated_table(uniform_points, 0.25)
        assert table.distances.max() <= 0.25 + 1e-12

    def test_plain_table_rejects_distance_access(self, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        table, _ = build_neighbor_table(grid, Device())
        with pytest.raises(ValueError):
            _ = table.distances
        with pytest.raises(ValueError):
            table.add_batch(np.array([0]), np.array([0]), np.array([0.0]))

    def test_annotated_requires_distances_column(self):
        t = NeighborTable(3, eps=1.0, with_distances=True)
        with pytest.raises(ValueError):
            t.add_batch(np.array([0]), np.array([0]))

    def test_shared_kernel_rejected(self, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        with pytest.raises(ValueError, match="global kernel"):
            build_neighbor_table(
                grid, Device(), kernel="shared", with_distances=True
            )

    def test_validate_catches_out_of_range_distance(self):
        t = NeighborTable(2, eps=0.5, with_distances=True)
        t.add_batch(np.array([0, 1]), np.array([0, 1]), np.array([0.0, 0.9]))
        with pytest.raises(AssertionError):
            t.finalize().validate()

    def test_multibatch_annotated(self, blobs_points):
        from repro.core import BatchConfig

        grid = GridIndex.build(blobs_points, 0.4)
        cfg = BatchConfig(static_threshold=1, static_buffer_size=20_000)
        table, stats = build_neighbor_table(
            grid, Device(), config=cfg, with_distances=True
        )
        assert stats.n_batches_run >= 2
        table.validate()


class TestSubEpsDBSCAN:
    def test_equals_direct_fit(self, blobs_points):
        grid, table = annotated_table(blobs_points, 0.6)
        for eps in (0.2, 0.35, 0.6):
            got_sorted = dbscan_from_annotated_table(table, 5, eps)
            got = np.empty_like(got_sorted)
            got[grid.sort_order] = got_sorted
            want = HybridDBSCAN().fit(blobs_points, eps, 5).labels
            assert same_clustering(got, want), eps

    def test_full_eps_equals_plain_components(self, uniform_points):
        from repro.core.table_dbscan import dbscan_from_table

        _, table = annotated_table(uniform_points, 0.4)
        a = dbscan_from_annotated_table(table, 4, 0.4)
        b = dbscan_from_table(table, 4)
        assert same_clustering(a, b)

    def test_eps_above_table_rejected(self, uniform_points):
        _, table = annotated_table(uniform_points, 0.3)
        with pytest.raises(ValueError):
            dbscan_from_annotated_table(table, 4, 0.5)

    def test_plain_table_rejected(self, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        table, _ = build_neighbor_table(grid, Device())
        with pytest.raises(ValueError):
            dbscan_from_annotated_table(table, 4, 0.2)

    def test_invalid_minpts(self, uniform_points):
        _, table = annotated_table(uniform_points, 0.3)
        with pytest.raises(ValueError):
            dbscan_from_annotated_table(table, 0, 0.2)

    @given(
        st.integers(min_value=0, max_value=10**5),
        st.sampled_from([0.15, 0.25, 0.4]),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_filtered_equals_rebuilt(self, seed, eps, minpts):
        """Filtering a big-ε annotated table at ε' gives exactly the
        clustering of a table built directly at ε'."""
        rng = np.random.default_rng(seed)
        pts = np.vstack(
            [rng.normal(0, 0.3, (80, 2)), rng.random((80, 2)) * 4]
        )
        grid, table = annotated_table(pts, 0.5)
        got_sorted = dbscan_from_annotated_table(table, minpts, eps)
        got = np.empty_like(got_sorted)
        got[grid.sort_order] = got_sorted
        want = HybridDBSCAN().fit(pts, eps, minpts).labels
        assert same_clustering(got, want)


class TestEpsSweep:
    def test_sweep_matches_per_eps_fits(self, blobs_points):
        from repro.core import cluster_eps_sweep

        sweep = cluster_eps_sweep(
            blobs_points, [0.2, 0.4, 0.6], 5, keep_labels=True
        )
        assert sweep.eps_max == 0.6
        for o in sweep.outcomes:
            fit = HybridDBSCAN().fit(blobs_points, o.eps, 5)
            assert same_clustering(o.labels, fit.labels), o.eps

    def test_sweep_single_build(self, blobs_points, device):
        from repro.core import cluster_eps_sweep

        h = HybridDBSCAN(device)
        cluster_eps_sweep(blobs_points, [0.2, 0.3, 0.4], 5, hybrid=h)
        est = [k for k in device.profiler.kernels if k.name == "NeighborCount"]
        assert len(est) == 1  # one table build total

    def test_sweep_validation(self, blobs_points):
        from repro.core import cluster_eps_sweep

        with pytest.raises(ValueError):
            cluster_eps_sweep(blobs_points, [], 5)
        with pytest.raises(ValueError):
            cluster_eps_sweep(blobs_points, [-0.1], 5)
        with pytest.raises(ValueError):
            cluster_eps_sweep(
                blobs_points, [0.2], 5, hybrid=HybridDBSCAN(kernel="shared")
            )

    def test_sweep_validates_before_build(self, blobs_points):
        """A bad minpts/n_threads must fail in microseconds — before the
        expensive annotated table build, not inside it."""
        from repro.core import cluster_eps_sweep

        class NoBuild(HybridDBSCAN):
            def build_table(self, *a, **k):  # pragma: no cover
                raise AssertionError("build_table must not run")

        h = NoBuild()
        with pytest.raises(ValueError, match="minpts"):
            cluster_eps_sweep(blobs_points, [0.2], 0, hybrid=h)
        with pytest.raises(ValueError, match="n_threads"):
            cluster_eps_sweep(blobs_points, [0.2], 5, n_threads=0, hybrid=h)

    def test_thread_makespan_monotone(self, blobs_points):
        """One sweep's measured ε times, scheduled on 4 workers and on 1:
        comparing two separately timed sweeps would race their wall
        clocks."""
        from repro.core import cluster_eps_sweep
        from repro.hostsim import schedule_parallel

        r = cluster_eps_sweep(blobs_points, [0.2, 0.3, 0.4, 0.5], 5, n_threads=4)
        times = [o.dbscan_s for o in r.outcomes]
        assert r.cluster_s == schedule_parallel(times, 4).makespan
        assert r.cluster_s <= schedule_parallel(times, 1).makespan


class TestAnnotatedInterpreterPath:
    def test_interpreter_build_matches_vector(self, rng):
        """The per-thread device code emits identical (key, value, dist)
        triples as the vector backend."""
        pts = np.vstack([rng.normal(0, 0.2, (40, 2)), rng.random((40, 2)) * 2])
        grid = GridIndex.build(pts, 0.35)
        t_vec, _ = build_neighbor_table(grid, Device(), with_distances=True)
        t_sim, _ = build_neighbor_table(
            grid, Device(), with_distances=True, backend="interpreter",
            block_dim=16,
        )
        for i in range(t_vec.n_points):
            order_v = np.argsort(t_vec.neighbors(i))
            order_s = np.argsort(t_sim.neighbors(i))
            assert np.array_equal(
                t_vec.neighbors(i)[order_v], t_sim.neighbors(i)[order_s]
            )
            assert np.allclose(
                t_vec.neighbor_distances(i)[order_v],
                t_sim.neighbor_distances(i)[order_s],
            )

    def test_interpreter_distances_bit_identical(self, monkeypatch):
        """Device code and vector backend take the same correctly rounded
        square root, so the annotated distances agree bit for bit (a
        libm ``pow``-based ``d2 ** 0.5`` differs in ~0.1% of values, which
        moves sub-ε filtering of a boundary pair), also when the vector
        side's ``NEIGHBOR_BLOCK`` is cut down to 1 and 7 candidates."""
        rng = np.random.default_rng(3)
        pts = rng.random((500, 2)) * 4.0
        grid = GridIndex.build(pts, 0.4)

        def triples(backend):
            table, _ = build_neighbor_table(
                grid, Device(), with_distances=True, backend=backend,
                block_dim=64,
            )
            src, dst = table.edges()
            order = np.lexsort((dst, src))
            return src[order], dst[order], table.distances[order]

        si, di, xi = triples("interpreter")
        for block in (None, 1, 7):
            if block is not None:
                monkeypatch.setattr(grid_module, "NEIGHBOR_BLOCK", block)
            sv, dv, xv = triples("vector")
            assert len(xv) > 5000
            assert np.array_equal(sv, si) and np.array_equal(dv, di)
            assert np.array_equal(xv, xi)


class TestSortPairsWithDistances:
    def test_three_column_sort(self):
        device = Device()
        from repro.gpusim.thrust import sort_pairs

        buf = device.allocate_result_buffer((5, 3), np.float64)
        buf.reserve(2)
        buf.data[:2] = [[2.0, 20.0, 0.5], [1.0, 10.0, 0.1]]
        sort_pairs(buf, device)
        assert buf.view()[0].tolist() == [1.0, 10.0, 0.1]
        assert buf.view()[1].tolist() == [2.0, 20.0, 0.5]
