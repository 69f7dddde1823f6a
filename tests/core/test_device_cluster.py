"""Tests for device-resident cluster formation.

The contract under test: the union-find label kernels produce labels
**bit-identical** to the host components path — across random datasets,
both table-build kernels, both simulated backends, arbitrary minpts, and
the sharded out-of-core path — and do so sanitizer-clean with no leaked
device buffers.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import dbscan_from_table_expand
from repro.core import (
    NOISE,
    HybridDBSCAN,
    ShardConfig,
    dbscan_from_table,
    dbscan_from_table_device,
    device_cluster_table,
)
from repro.core.batching import build_neighbor_table
from repro.core.table_dbscan import core_mask
from repro.data.synthetic import make_sw
from repro.gpusim import Device, launch
from repro.index import GridIndex
from repro.kernels import BorderAttachKernel, ClusterUnionFindKernel


def build_table(points, eps):
    grid = GridIndex.build(points, eps)
    table, _ = build_neighbor_table(grid, Device())
    return grid, table


def random_points(seed):
    rng = np.random.default_rng(seed)
    n_blobs = rng.integers(1, 4)
    parts = [
        rng.normal(rng.uniform(0, 10, 2), rng.uniform(0.1, 0.6), (40, 2))
        for _ in range(n_blobs)
    ]
    parts.append(rng.random((30, 2)) * 10)
    return np.vstack(parts)


def eligible_mask(seed, n):
    """A random ``eligible`` mask keeping a random 30–100% of points."""
    rng = np.random.default_rng(seed)
    return rng.random(n) < rng.uniform(0.3, 1.0)


def clustered_with_duplicates(seed, minpts):
    """A table over random points with 20 duplicated, clustered on the
    device under a random ``eligible`` mask."""
    rng = np.random.default_rng(seed)
    pts = random_points(seed)
    pts = np.vstack([pts, pts[rng.integers(0, len(pts), 20)]])
    _, table = build_table(pts, 0.4)
    res = device_cluster_table(
        table, minpts, eligible=eligible_mask(seed, table.n_points)
    )
    return table, res


def launch_both(kernel, table, core, **state):
    """One launch on each backend from copies of the ``state`` arrays;
    returns ``{backend: (arrays after the launch, counters)}``."""
    cfg = kernel.launch_config(table.n_points, block_dim=64)
    out = {}
    for backend in ("vector", "interpreter"):
        arrays = {name: a.copy() for name, a in state.items()}
        run = launch(
            kernel, cfg, Device(), backend=backend,
            t_min=table.t_min, t_max=table.t_max, B=table.values,
            core=core.astype(np.int8), **arrays,
        )
        out[backend] = (arrays, dataclasses.asdict(run.counters))
    return out


# ======================================================================
# device labels ≡ host components labels (the tentpole invariant)
# ======================================================================
class TestDeviceEqualsHost:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["global", "shared"]),
        st.sampled_from([1, 2, 4, 6, 10]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_device_equals_components(self, seed, kernel, minpts):
        """Across seeds × table kernels × minpts: bit-identical labels."""
        pts = random_points(seed)
        h = HybridDBSCAN(kernel=kernel)
        _, table, _ = h.build_table(pts, 0.4)
        host = dbscan_from_table(table, minpts)
        dev = dbscan_from_table_device(table, minpts)
        assert np.array_equal(host, dev)

    def test_all_three_impls_agree(self, blobs_points):
        _, table = build_table(blobs_points, 0.5)
        for minpts in (2, 5, 16):
            a = dbscan_from_table_expand(table, minpts)
            b = dbscan_from_table(table, minpts)
            c = dbscan_from_table_device(table, minpts)
            assert np.array_equal(a, b)
            assert np.array_equal(b, c)

    def test_interpreter_backend_matches(self):
        """The sequential-per-block interpreter converges to the same
        fixpoint as the Jacobi vector backend (fewer rounds, same
        labels)."""
        pts = random_points(7)[:90]
        _, table = build_table(pts, 0.4)
        host = dbscan_from_table(table, 4)
        for backend in ("vector", "interpreter"):
            got = dbscan_from_table_device(table, 4, backend=backend)
            assert np.array_equal(host, got)

    def test_all_noise(self, rng):
        pts = rng.random((50, 2)) * 100  # hyper-sparse
        _, table = build_table(pts, 0.5)
        labels = dbscan_from_table_device(table, 4)
        assert (labels == NOISE).all()

    def test_minpts_one_no_noise(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        labels = dbscan_from_table_device(table, 1)
        assert (labels != NOISE).all()
        assert np.array_equal(labels, dbscan_from_table(table, 1))


# ======================================================================
# union-find rounds and backend parity
# ======================================================================
class TestUnionFindRounds:
    def test_hooking_cuts_rounds_at_shard_density(self):
        """Hooking the old root joins a whole label tree per round.  At
        the shard benchmark's density (SW1's 37,292-point pool spans a
        269.05 side, so 3,000 points span 269.05·√(3000/37292) = 76.31)
        the vector backend converges in 6 launches; without the hook it
        took 11."""
        _, table = build_table(make_sw(3000, seed=0) * 76.31, 0.3)
        res = device_cluster_table(table, 4)
        assert res.iterations <= 7
        assert np.array_equal(res.labels, dbscan_from_table(table, 4))


class TestBackendParity:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 3, 5]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_interpreter_equals_vector(self, seed, minpts):
        """The Gauss–Seidel interpreter and the Jacobi vector backend
        need different round counts but reach one fixpoint, whatever
        the ``eligible`` mask."""
        _, table = build_table(random_points(seed), 0.4)
        eligible = eligible_mask(seed, table.n_points)
        vec = device_cluster_table(table, minpts, eligible=eligible)
        sim = device_cluster_table(
            table, minpts, eligible=eligible, backend="interpreter"
        )
        assert np.array_equal(vec.raw_labels, sim.raw_labels)
        assert np.array_equal(vec.core, sim.core)
        assert np.array_equal(vec.attach, sim.attach)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 4, 6]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_border_attach_backends_identical(self, seed, minpts):
        """BorderAttach is one launch that never writes a core label, so
        its output and every counter are schedule-free."""
        table, res = clustered_with_duplicates(seed, minpts)
        out = launch_both(
            BorderAttachKernel(), table, res.core,
            labels=np.where(res.core, res.raw_labels, NOISE),
            attach=np.full(table.n_points, -7, dtype=np.int64),
        )
        (vec, cv), (sim, ci) = out["vector"], out["interpreter"]
        assert np.array_equal(vec["attach"], sim["attach"])
        assert np.array_equal(vec["labels"], sim["labels"])
        assert cv == ci
        # and device_cluster_table's own attach pass agrees
        assert np.array_equal(vec["attach"][~res.core], res.attach[~res.core])

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 4, 6]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_union_find_loads_match(self, seed, minpts):
        """A union-find round's loads and divergence depend on the table
        alone — the vector backend counts core entries of core rows
        without expanding them, also when ``eligible`` leaves long
        non-core rows — and each hook costs 3 atomics and no store."""
        table, res = clustered_with_duplicates(seed, minpts)
        out = launch_both(
            ClusterUnionFindKernel(), table, res.core,
            labels=np.where(res.core, np.arange(table.n_points), NOISE),
            changed=np.zeros(1, dtype=np.int64),
        )
        (vec, cv), (sim, ci) = out["vector"], out["interpreter"]
        for key in ("global_loads", "divergent_threads", "threads", "blocks"):
            assert cv[key] == ci[key], key
        for arrays, counters in out.values():
            assert counters["global_stores"] == 0
            assert counters["atomics"] == 3 * arrays["changed"][0]


# ======================================================================
# the DeviceClusterResult contract
# ======================================================================
class TestClusterResult:
    def test_fields(self, blobs_points):
        _, table = build_table(blobs_points, 0.5)
        res = device_cluster_table(table, 5)
        assert res.iterations >= 1
        assert res.device_ms > 0
        assert res.wall_s > 0
        assert np.array_equal(res.core, core_mask(table, 5))
        # raw labels: per component the minimum core id; canonical via
        # renumbering only
        assert np.array_equal(
            res.labels, dbscan_from_table(table, 5)
        )

    def test_uploads_and_buffers_at_the_id_width(self, blobs_points):
        """``t_min``, ``t_max`` and ``B`` go up at 4 B an entry, and the
        label and attach buffers come back at the same width."""
        _, table = build_table(blobs_points, 0.5)
        device = Device()
        res = device_cluster_table(table, 5, device=device)
        h2d = [t for t in device.profiler.transfers if t.direction == "h2d"]
        assert sum(t.nbytes for t in h2d) == 4 * (2 * table.n_points + len(table.values))
        assert res.raw_labels.dtype == res.attach.dtype == np.int32
        assert res.labels.dtype == np.int64

    def test_attach_semantics(self, blobs_points):
        _, table = build_table(blobs_points, 0.5)
        res = device_cluster_table(table, 5)
        # cores never attach; attached borders carry their target's label
        assert (res.attach[res.core] == -1).all()
        attached = np.flatnonzero(res.attach >= 0)
        for p in attached:
            target = res.attach[p]
            assert res.core[target]
            assert res.raw_labels[p] == res.raw_labels[target]
            # lowest-id core neighbor
            nbrs = table.neighbors(p)
            assert target == min(q for q in nbrs if res.core[q])
        # unattached non-cores are noise
        lonely = ~res.core & (res.attach == -1)
        assert (res.raw_labels[lonely] == NOISE).all()

    def test_eligible_mask_restricts_cores(self, uniform_points):
        _, table = build_table(uniform_points, 0.3)
        eligible = np.zeros(table.n_points, dtype=bool)
        eligible[: table.n_points // 2] = True
        res = device_cluster_table(table, 2, eligible=eligible)
        assert not res.core[~eligible].any()
        assert np.array_equal(res.core, core_mask(table, 2) & eligible)

    def test_invalid_minpts(self, uniform_points):
        _, table = build_table(uniform_points, 0.3)
        with pytest.raises(ValueError):
            device_cluster_table(table, 0)

    def test_no_core_points_short_circuits(self, rng):
        pts = rng.random((40, 2)) * 100
        _, table = build_table(pts, 0.5)
        res = device_cluster_table(table, 10)
        assert res.iterations == 0
        assert (res.attach == -1).all()
        assert (res.labels == NOISE).all()


# ======================================================================
# HybridDBSCAN wiring
# ======================================================================
class TestHybridWiring:
    def test_fit_device_equals_host(self, blobs_points):
        ref = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        res = HybridDBSCAN(cluster_on="device").fit(blobs_points, 0.5, 5)
        assert np.array_equal(ref.labels, res.labels)
        assert res.timings.dbscan_s >= 0
        # the cluster launches add to the modeled device time
        assert res.timings.device_ms > ref.timings.device_ms

    def test_cluster_table_where_override(self, blobs_points):
        h = HybridDBSCAN()  # host default
        grid, table, _ = h.build_table(blobs_points, 0.5)
        on_host = h.cluster_table(grid, table, 5)
        on_dev = h.cluster_table(grid, table, 5, where="device")
        assert np.array_equal(on_host, on_dev)

    def test_device_cluster_launches_recorded(self, blobs_points):
        h = HybridDBSCAN(cluster_on="device")
        h.fit(blobs_points, 0.5, 5)
        names = {k.name for k in h.device.profiler.kernels}
        assert {"CoreFlag", "ClusterUnionFind", "BorderAttach"} <= names

    def test_unknown_cluster_on_rejected(self, blobs_points):
        with pytest.raises(ValueError):
            HybridDBSCAN(cluster_on="fpga")
        h = HybridDBSCAN()
        grid, table, _ = h.build_table(blobs_points, 0.5)
        with pytest.raises(ValueError):
            h.cluster_table(grid, table, 5, where="fpga")


# ======================================================================
# the sharded path (shard-local labeling on the shard's own device)
# ======================================================================
class TestShardedDevice:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(1, 1), (2, 2), (3, 2)]),
        st.sampled_from([2, 5]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_sharded_device_equals_fit(self, seed, grid, minpts):
        pts = random_points(seed)
        ref = HybridDBSCAN().fit(pts, 0.4, minpts).labels
        res = HybridDBSCAN(cluster_on="device").fit_sharded(
            pts,
            0.4,
            minpts,
            shard_config=ShardConfig(shards_x=grid[0], shards_y=grid[1]),
        )
        assert np.array_equal(ref, res.labels)

    def test_sharded_host_and_device_identical(self, blobs_points):
        cfg = ShardConfig(shards_x=2, shards_y=2)
        a = HybridDBSCAN(cluster_on="host").fit_sharded(
            blobs_points, 0.5, 5, shard_config=cfg
        )
        b = HybridDBSCAN(cluster_on="device").fit_sharded(
            blobs_points, 0.5, 5, shard_config=cfg
        )
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_cluster_on_rejected(self, blobs_points):
        from repro.core.sharding import cluster_sharded

        with pytest.raises(ValueError):
            cluster_sharded(blobs_points, 0.5, 5, cluster_on="fpga")


# ======================================================================
# sanitizer: the new kernels run clean and leak nothing
# ======================================================================
class TestSanitized:
    def test_device_cluster_sanitizer_clean(self, blobs_points):
        _, table = build_table(blobs_points, 0.5)
        device = Device(sanitize=True)
        res = device_cluster_table(table, 5, device=device)
        assert np.array_equal(
            res.labels, dbscan_from_table(table, 5)
        )
        report = device.close()  # leak check included
        assert report is not None and report.clean, report.render()

    def test_interpreter_sanitizer_clean(self, rng):
        pts = rng.random((60, 2)) * 3
        _, table = build_table(pts, 0.4)
        device = Device(sanitize=True)
        device_cluster_table(table, 3, device=device, backend="interpreter")
        report = device.close()
        assert report is not None and report.clean, report.render()

    def test_sharded_device_sanitized(self, blobs_points):
        res = HybridDBSCAN(cluster_on="device", sanitize=True).fit_sharded(
            blobs_points,
            0.5,
            5,
            shard_config=ShardConfig(shards_x=2, shards_y=1),
        )
        ref = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        assert np.array_equal(ref.labels, res.labels)
