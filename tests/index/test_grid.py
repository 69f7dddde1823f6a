"""Tests for the grid index (Section IV / Figure 1)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import make_sw
from repro.index import BruteForceIndex, GridIndex
from repro.index import grid as grid_module

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=120,
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestConstruction:
    def test_lookup_is_permutation(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        assert sorted(g.lookup.tolist()) == list(range(len(uniform_points)))

    def test_sort_order_is_permutation(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        assert sorted(g.sort_order.tolist()) == list(range(len(uniform_points)))
        assert np.array_equal(g.points, uniform_points[g.sort_order])

    def test_cell_ranges_partition_lookup(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        covered = np.zeros(len(uniform_points), dtype=bool)
        for h in g.nonempty_cells:
            lo, hi = g.cell_min[h], g.cell_max[h]
            assert 0 <= lo <= hi < len(uniform_points)
            assert not covered[lo : hi + 1].any()
            covered[lo : hi + 1] = True
        assert covered.all()

    def test_points_in_their_cells(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        for h in g.nonempty_cells[:50]:
            ids = g.cell_point_ids(int(h))
            cx, cy = int(h) % g.nx, int(h) // g.nx
            for pid in ids:
                x, y = g.points[pid]
                assert cx == min(int((x - g.xmin) / g.eps), g.nx - 1)
                assert cy == min(int((y - g.ymin) / g.eps), g.ny - 1)

    def test_cell_ranges_are_int32(self, uniform_points):
        """The nx·ny range arrays dominate the index at small ε, so they
        hold int32 below 2**31 points."""
        g = GridIndex.build(uniform_points, 0.05)
        assert g.cell_min.dtype == g.cell_max.dtype == np.int32
        assert g.n_cells > len(uniform_points)

    def test_row_ranges_alike_at_either_width(self, uniform_points):
        """``_row_ranges`` skips empty cells through the unsigned view of
        the ranges; int64 ranges (2**31 points or more) give the same
        hits."""
        g = GridIndex.build(uniform_points, 0.3)
        wide = dataclasses.replace(
            g, cell_min=g.cell_min.astype(np.int64), cell_max=g.cell_max.astype(np.int64)
        )
        ids = np.arange(len(g))
        for got, want in zip(
            wide._row_ranges(ids), g._row_ranges(ids), strict=True
        ):
            assert np.array_equal(got, want)
        a, b = wide.neighbor_pairs(ids), g.neighbor_pairs(ids)
        assert np.array_equal(np.concatenate(a.values), np.concatenate(b.values))

    def test_empty_cells_marked(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        empty = np.setdiff1d(np.arange(g.n_cells), g.nonempty_cells)
        assert np.all(g.cell_min[empty] == -1)
        assert np.all(g.cell_max[empty] == -1)

    def test_cell_side_is_eps(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = GridIndex.build(pts, 0.25)
        assert g.nx == 5 and g.ny == 5  # floor(1/0.25)+1

    def test_single_point(self):
        g = GridIndex.build(np.array([[3.0, 4.0]]), 0.1)
        assert g.nx == g.ny == 1
        assert g.cell_point_ids(0).tolist() == [0]

    def test_invalid_eps(self, uniform_points):
        with pytest.raises(ValueError):
            GridIndex.build(uniform_points, 0.0)

    def test_empty_points(self):
        with pytest.raises(ValueError):
            GridIndex.build(np.empty((0, 2)), 0.5)

    def test_degenerate_eps_guard(self):
        pts = np.array([[0.0, 0.0], [1000.0, 1000.0]])
        with pytest.raises(ValueError, match="max_cells"):
            GridIndex.build(pts, 1e-4, max_cells=10_000)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GridIndex.build(np.array([[np.nan, 0.0]]), 0.5)

    def test_presorted_skips_sort(self, uniform_points):
        g1 = GridIndex.build(uniform_points, 0.5)
        g2 = GridIndex.build(g1.points, 0.5, presorted=True)
        assert np.array_equal(g2.sort_order, np.arange(len(uniform_points)))
        assert np.array_equal(g1.points, g2.points)


class TestSpatialSort:
    def test_unit_bin_locality(self, rng):
        pts = rng.random((200, 2)) * 5
        order = GridIndex.spatial_sort_order(pts)
        sorted_pts = pts[order]
        bins_x = np.floor(sorted_pts[:, 0])
        # primary sort key is the unit x-bin: must be non-decreasing
        assert np.all(np.diff(bins_x) >= 0)

    def test_strided_sample_is_spatially_spread(self, rng):
        """The batching scheme's assumption: a strided sample of the
        sorted order covers the domain, not one corner."""
        pts = rng.random((1000, 2)) * 10
        g = GridIndex.build(pts, 0.5)
        sample = g.points[::10]
        # sample bbox covers most of the full bbox
        full = pts.max(axis=0) - pts.min(axis=0)
        got = sample.max(axis=0) - sample.min(axis=0)
        assert np.all(got > 0.8 * full)


class TestNeighborCells:
    def test_interior_has_nine(self):
        pts = np.array([[x + 0.5, y + 0.5] for x in range(5) for y in range(5)], dtype=float)
        g = GridIndex.build(pts, 1.0)
        center = 2 * g.nx + 2
        assert len(g.neighbor_cells(center)) == 9

    def test_corner_has_four(self):
        pts = np.array([[x + 0.5, y + 0.5] for x in range(5) for y in range(5)], dtype=float)
        g = GridIndex.build(pts, 1.0)
        assert len(g.neighbor_cells(0)) == 4

    def test_vectorized_matches_scalar(self, uniform_points):
        """The 3 row ranges of ``neighbor_pairs`` read exactly the scalar
        ``neighbor_cells`` of a point: the same in-grid cells, the same
        candidates, and ``range_query``'s hits in the same scan order."""
        g = GridIndex.build(uniform_points, 0.4)
        for pid in range(0, len(g), 7):
            pairs = g.neighbor_pairs(np.array([pid]))
            cells = g.neighbor_cells(int(g.cell_of_point[pid]))
            assert pairs.n_cells == len(cells)
            assert pairs.n_candidates == len(g.candidate_ids(pid))
            assert np.concatenate(pairs.values).tolist() == g.range_query(pid).tolist()

    def test_single_cell_grid(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.2]])
        g = GridIndex.build(pts, 5.0)
        assert g.neighbor_cells(0).tolist() == [0]


class TestRangeQuery:
    def test_matches_brute_force(self, uniform_points):
        eps = 0.4
        g = GridIndex.build(uniform_points, eps)
        bf = BruteForceIndex(g.points)
        for pid in range(0, len(uniform_points), 17):
            got = sorted(g.range_query(pid).tolist())
            want = sorted(bf.range_query(pid, eps).tolist())
            assert got == want

    def test_includes_self(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.3)
        assert 5 in g.range_query(5).tolist()

    def test_eps_mismatch_rejected(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.3)
        with pytest.raises(ValueError):
            g.range_query(0, eps=0.5)

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        g = GridIndex.build(pts, 0.5)
        inv = np.argsort(g.sort_order)
        assert len(g.range_query(int(inv[0]))) == 2

    @given(points_strategy, st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_property_all_pairs(self, pts, eps):
        g = GridIndex.build(pts, eps)
        bf = BruteForceIndex(g.points)
        tk, tv = bf.all_pairs(eps)
        truth = set(zip(tk.tolist(), tv.tolist(), strict=True))
        got = set()
        for pid in range(len(pts)):
            for q in g.range_query(pid):
                got.add((pid, int(q)))
        assert got == truth


class TestNeighborPairs:
    @pytest.mark.parametrize("block", [None, 7])
    def test_clumpy_input_matches_brute_force(self, block, monkeypatch):
        """On clumpy SW data, with blocks that cut through many cell
        ranges, ``neighbor_pairs`` returns exactly the brute-force
        ε-pairs and their squared distances, grouped by point in the
        order the ids are given."""
        if block is not None:
            monkeypatch.setattr(grid_module, "NEIGHBOR_BLOCK", block)
        eps = 0.5
        g = GridIndex.build(make_sw(3000, seed=11, domain=30.0), eps)
        assert g.stats().max_points_per_cell >= 100
        ids = np.random.default_rng(2).permutation(len(g))[:1500]
        pairs = g.neighbor_pairs(ids, distances=True)
        keys = np.concatenate(pairs.keys)
        values = np.concatenate(pairs.values)
        d2 = np.concatenate(pairs.d2)
        bf = BruteForceIndex(g.points)
        want = [bf.range_query(int(i), eps) for i in ids]
        assert pairs.n_hits == len(keys) == sum(len(w) for w in want)
        assert np.array_equal(keys, np.repeat(ids, [len(w) for w in want]))
        at = 0
        for w in want:
            assert np.array_equal(np.sort(values[at : at + len(w)]), w)
            at += len(w)
        diff = g.points[keys] - g.points[values]
        assert np.array_equal(d2, diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
        assert pairs.n_candidates > 50 * len(ids)

    def test_empty_ids(self, uniform_points):
        pairs = GridIndex.build(uniform_points, 0.4).neighbor_pairs(np.array([], dtype=np.int64))
        assert (pairs.keys, pairs.n_hits, pairs.n_candidates, pairs.n_cells) == ([], 0, 0, 0)


class TestStatsAndExport:
    def test_stats(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        s = g.stats()
        assert s.n_points == len(uniform_points)
        assert s.n_nonempty_cells == len(g.nonempty_cells)
        assert s.max_points_per_cell >= 1
        assert s.mean_points_per_nonempty_cell * s.n_nonempty_cells == pytest.approx(
            len(uniform_points)
        )

    def test_device_arrays(self, uniform_points):
        g = GridIndex.build(uniform_points, 0.5)
        arrs = g.device_arrays()
        assert set(arrs) == {"D", "A", "G_min", "G_max"}
        assert len(arrs["A"]) == len(uniform_points)
