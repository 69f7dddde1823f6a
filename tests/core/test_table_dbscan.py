"""Tests for DBSCAN over the neighbor table."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import dbscan_from_table_expand
from repro.core import NOISE
from repro.core.batching import build_neighbor_table
from repro.core.table_dbscan import (
    canonicalize_labels,
    cluster_csr,
    components_labels,
    core_mask,
    dbscan_from_table,
)
from repro.data.synthetic import make_sw
from repro.gpusim import Device
from repro.index import GridIndex


def build_table(points, eps):
    grid = GridIndex.build(points, eps)
    table, _ = build_neighbor_table(grid, Device())
    return grid, table


class TestCoreMask:
    def test_counts_include_self(self, chain_points):
        _, table = build_table(chain_points, 0.5)
        # interior chain points see self + 2 neighbors
        assert core_mask(table, 3).sum() == len(chain_points) - 2

    def test_minpts_one_everything_core(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        assert core_mask(table, 1).all()

    def test_huge_minpts_nothing_core(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        assert not core_mask(table, 10**6).any()

    def test_invalid_minpts(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        with pytest.raises(ValueError):
            core_mask(table, 0)


class TestKnownFixtures:
    def test_chain_is_one_cluster(self, chain_points):
        """Density reachability chains across the whole line."""
        _, table = build_table(chain_points, 0.5)
        for cluster in (dbscan_from_table_expand, dbscan_from_table):
            labels = cluster(table, 3)
            assert labels.max() == 0
            assert (labels == 0).all()

    def test_chain_splits_with_gap(self):
        x = np.concatenate([np.arange(10) * 0.4, 10 + np.arange(10) * 0.4])
        pts = np.column_stack([x, np.zeros_like(x)])
        _, table = build_table(pts, 0.5)
        labels = dbscan_from_table(table, 3)
        assert labels.max() == 1  # two clusters

    def test_two_blobs_and_noise(self, blobs_points):
        grid, table = build_table(blobs_points, 0.5)
        labels = dbscan_from_table(table, 5)
        assert labels.max() == 1
        assert (labels == NOISE).sum() > 0

    def test_all_noise(self, rng):
        pts = rng.random((50, 2)) * 100  # hyper-sparse
        _, table = build_table(pts, 0.5)
        labels = dbscan_from_table(table, 4)
        assert (labels == NOISE).all()

    def test_minpts_one_no_noise(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        labels = dbscan_from_table(table, 1)
        assert (labels != NOISE).all()

    def test_border_point_attached(self):
        """A point with < minpts neighbors adjacent to a dense core must
        be border (clustered), not noise."""
        core = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        border = np.array([[0.5, 0.0]])  # within 0.5 of (0.1, 0) only
        lonely = np.array([[5.0, 5.0]])
        pts = np.vstack([core, border, lonely])
        _, table = build_table(pts, 0.45)
        for cluster in (dbscan_from_table_expand, dbscan_from_table):
            labels = cluster(table, 4)
            assert labels[4] == labels[0]  # border joins the cluster
            assert labels[5] == NOISE

    def test_labels_zero_indexed_and_canonical(self, blobs_points):
        _, table = build_table(blobs_points, 0.5)
        labels = dbscan_from_table(table, 5)
        used = np.unique(labels[labels != NOISE])
        assert used.tolist() == list(range(len(used)))


class TestImplementationEquivalence:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 3, 4, 6, 10]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_expand_equals_components(self, seed, minpts):
        rng = np.random.default_rng(seed)
        n_blobs = rng.integers(1, 5)
        parts = [
            rng.normal(rng.uniform(0, 10, 2), rng.uniform(0.1, 0.6), (40, 2))
            for _ in range(n_blobs)
        ]
        parts.append(rng.random((30, 2)) * 10)
        pts = np.vstack(parts)
        _, table = build_table(pts, 0.4)
        a = dbscan_from_table_expand(table, minpts)
        b = dbscan_from_table(table, minpts)
        # bit-identical, not merely equivalent: every implementation
        # resolves border ties by lowest-id core neighbor
        assert np.array_equal(a, b)

    def test_cluster_counts_always_agree(self, blobs_points):
        _, table = build_table(blobs_points, 0.4)
        for minpts in (2, 4, 8, 16, 64):
            a = dbscan_from_table_expand(table, minpts)
            b = dbscan_from_table(table, minpts)
            assert a.max() == b.max()
            assert (a == NOISE).sum() == (b == NOISE).sum()


def networkx_labels(is_core, src, dst, bsrc, bdst) -> np.ndarray:
    """Oracle: networkx components of the core graph; a border point
    joins the cluster of its lowest-id core neighbor."""
    g = nx.Graph()
    g.add_nodes_from(np.flatnonzero(is_core).tolist())
    g.add_edges_from(zip(src.tolist(), dst.tolist(), strict=True))
    labels = np.full(len(is_core), NOISE, dtype=np.int64)
    for comp in nx.connected_components(g):
        labels[list(comp)] = min(comp)
    for u in np.unique(bsrc):
        labels[u] = labels[bdst[bsrc == u].min()]
    return canonicalize_labels(labels)


@st.composite
def merger_edges(draw):
    """Core mask plus core-core and border edges shaped like the halo
    merger's: unordered sources, duplicates, one direction only."""
    n = draw(st.integers(1, 40))
    is_core = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    core = np.flatnonzero(is_core)
    other = np.flatnonzero(~is_core)
    if len(core) == 0:
        empty = np.empty(0, dtype=np.int64)
        return is_core, empty, empty, empty, empty
    pick_core = st.sampled_from(core.tolist())
    edges = draw(st.lists(st.tuples(pick_core, pick_core), max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    border = []
    if len(other):
        pick_other = st.sampled_from(other.tolist())
        border = draw(st.lists(st.tuples(pick_other, pick_core), max_size=30))
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    b = np.array(border, dtype=np.int64).reshape(-1, 2)
    return is_core, e[:, 0], e[:, 1], b[:, 0], b[:, 1]


class TestComponentsLabels:
    @given(merger_edges())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, inp):
        assert np.array_equal(components_labels(*inp), networkx_labels(*inp))

    def test_descending_one_directional_chain(self):
        """A chain given only as (i + 1 -> i), highest source first: the
        rows must be grouped before the CSR is built."""
        n = 12
        is_core = np.ones(n, dtype=bool)
        is_core[[3, 9]] = False
        dst = np.array(
            [i for i in range(n - 2, -1, -1) if is_core[i] and is_core[i + 1]]
        )
        src = dst + 1
        bsrc = np.array([3, 3, 9])
        bdst = np.array([4, 2, 10])
        labels = components_labels(is_core, src, dst, bsrc, bdst)
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2]
        assert np.array_equal(labels, networkx_labels(is_core, src, dst, bsrc, bdst))


def two_blobs_and_a_bridge():
    """Two 5-point core blobs, ``(0, 0)`` and ``(2, 0)`` their facing
    members, and a bridge point at ``(1, 0)``: exactly ε = 1 from both,
    farther from everything else, so it has 3 neighbors (itself
    included) and is not core at minpts 4."""
    blob = np.array([[0.0, 0.0], [-0.1, 0.0], [-0.2, 0.0], [0.0, 0.1], [-0.1, 0.1]])
    mirrored = blob * [-1.0, 1.0] + [2.0, 0.0]
    return np.vstack([blob, mirrored, [[1.0, 0.0]]]), 1.0, 4


class TestNonCoreBridge:
    """A non-core point within ε of two clusters joins one of them as a
    border point; it must never merge them (the directed pass empties
    non-core rows for exactly this reason)."""

    @staticmethod
    def assert_two_clusters(labels, bridge):
        blob_a, blob_b = labels[:5], labels[5:10]
        assert (blob_a == blob_a[0]).all() and (blob_b == blob_b[0]).all()
        assert blob_a[0] != blob_b[0] and NOISE not in (blob_a[0], blob_b[0])
        assert labels[bridge] in (blob_a[0], blob_b[0])
        assert labels.max() == 1

    def test_noncore_bridge_keeps_two_clusters(self):
        from repro.core import HybridDBSCAN, ShardConfig
        from repro.core.table_dbscan import dbscan_from_annotated_table

        pts, eps, minpts = two_blobs_and_a_bridge()
        grid = GridIndex.build(pts, eps)
        table, _ = build_neighbor_table(grid, Device(), with_distances=True)
        bridge = int(np.flatnonzero(grid.sort_order == 10)[0])
        assert table.neighbor_counts()[bridge] == 3

        expected = dbscan_from_table_expand(table, minpts)
        original = np.empty_like(expected)
        original[grid.sort_order] = expected
        self.assert_two_clusters(original, 10)
        assert np.array_equal(dbscan_from_table(table, minpts), expected)
        assert np.array_equal(
            dbscan_from_annotated_table(table, minpts, eps), expected
        )
        fit = HybridDBSCAN().fit(pts, eps, minpts).labels
        sharded = HybridDBSCAN(cluster_on="host").fit_sharded(
            pts, eps, minpts, shard_config=ShardConfig(shards_x=2, shards_y=1)
        )
        assert np.array_equal(sharded.labels, fit)
        self.assert_two_clusters(sharded.labels, 10)

    def test_noncore_bridge_in_components_labels(self):
        is_core = np.ones(11, dtype=bool)
        is_core[10] = False
        blob_a = [(i, j) for i in range(5) for j in range(5) if i != j]
        blob_b = [(i + 5, j + 5) for i, j in blob_a]
        core = np.array(blob_a + blob_b)
        labels = components_labels(
            is_core, core[:, 0], core[:, 1], np.array([10, 10]), np.array([7, 2])
        )
        self.assert_two_clusters(labels, 10)
        assert labels[10] == labels[2]


class TestCanonicalize:
    def test_noise_only(self):
        labels = np.full(5, NOISE)
        assert canonicalize_labels(labels).tolist() == [-1] * 5

    def test_renumbers_by_first_occurrence(self):
        labels = np.array([7, 7, -1, 3, 3, 7])
        assert canonicalize_labels(labels).tolist() == [0, 0, -1, 1, 1, 0]

    def test_idempotent(self):
        labels = np.array([2, -1, 0, 2, 1])
        once = canonicalize_labels(labels)
        assert np.array_equal(once, canonicalize_labels(once))

    def test_empty(self):
        assert len(canonicalize_labels(np.empty(0, dtype=np.int64))) == 0

    @given(st.lists(st.integers(min_value=-1, max_value=6), max_size=40))
    @settings(max_examples=60)
    def test_property_preserves_partition(self, raw):
        labels = np.array(raw, dtype=np.int64)
        canon = canonicalize_labels(labels)
        # same partition: equal-label pairs preserved both ways
        for i in range(len(labels)):
            for j in range(len(labels)):
                same_raw = labels[i] == labels[j]
                same_canon = canon[i] == canon[j]
                assert same_raw == same_canon


class TestMonotonicity:
    def test_clusters_shrink_with_minpts(self, blobs_points):
        """Raising minpts can only demote points (cluster membership is
        monotone non-increasing in minpts for fixed ε)."""
        _, table = build_table(blobs_points, 0.4)
        prev_members = None
        for minpts in (2, 4, 8, 16, 32):
            labels = dbscan_from_table(table, minpts)
            members = int((labels != NOISE).sum())
            if prev_members is not None:
                assert members <= prev_members
            prev_members = members


class TestBoundedTemporaries:
    def test_core_graph_is_one_int32_copy(self):
        """On 3.7M entries of clumpy SW data, host cluster formation holds
        the core rows' ids once, as the int32 SciPy reads, plus blocks of
        mask and per-point arrays.  Masking the whole table into int64
        and casting it peaked at 46 MB here, about 3x the int32 ids."""
        _, table = build_table(make_sw(20_000, seed=0, domain=197.0), 1.5)
        is_core = core_mask(table, 4)
        kept = int(np.diff(table.indptr)[is_core].sum())
        tracemalloc.start()
        try:
            raw, _ = cluster_csr(is_core, table.indptr, table.values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept > 3_000_000
        assert peak <= 4 * kept + 4 * 2**20
        assert np.array_equal(canonicalize_labels(raw), dbscan_from_table(table, 4))
