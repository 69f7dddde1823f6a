"""Tests for the neighbor table T (Sections III and V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NeighborTable, dbscan_from_table
from repro.core.batching import build_neighbor_table
from repro.core.device_cluster import dbscan_from_table_device
from repro.gpusim import Device
from repro.index import GridIndex


def symmetric(pairs):
    """The ε-table a pair list stands for: every pair in both
    directions, each once (``validate`` requires both)."""
    pairs = list(pairs)
    return sorted({(a, b) for a, b in pairs} | {(b, a) for a, b in pairs})


def table_from_pairs(n, pairs):
    """Build a table from a full (key, value) list in one batch."""
    t = NeighborTable(n, eps=1.0)
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        t.add_batch(arr[:, 0], arr[:, 1])
    return t.finalize()


class TestConstruction:
    def test_single_batch(self):
        t = table_from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        assert t.neighbors(0).tolist() == [0, 1]
        assert t.neighbors(1).tolist() == [0, 1]
        assert t.neighbors(2).tolist() == [2]
        t.validate()

    def test_multi_batch_interleaved(self):
        t = NeighborTable(4, eps=1.0)
        # batch for even keys, then odd keys (strided style)
        t.add_batch(np.array([0, 0, 2, 2]), np.array([0, 1, 2, 3]))
        t.add_batch(np.array([1, 1, 3, 3]), np.array([0, 1, 2, 3]))
        t.finalize()
        assert t.neighbors(0).tolist() == [0, 1]
        assert t.neighbors(1).tolist() == [0, 1]
        assert t.neighbors(2).tolist() == [2, 3]
        assert t.neighbors(3).tolist() == [2, 3]
        t.validate()

    def test_point_with_no_pairs(self):
        t = table_from_pairs(3, [(0, 0)])
        assert t.neighbors(1).tolist() == []
        assert t.neighbor_counts().tolist() == [1, 0, 0]

    def test_empty_batch_ignored(self):
        t = NeighborTable(2, eps=1.0)
        t.add_batch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert t.total_pairs == 0

    def test_key_in_two_batches_rejected(self):
        t = NeighborTable(3, eps=1.0)
        t.add_batch(np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="two batches"):
            t.add_batch(np.array([0]), np.array([1]))

    def test_key_in_two_runs_of_one_batch_rejected(self):
        """Key runs ``[3, 3, 5, 3]``: row 3 is split over two runs, and
        ingesting it would overwrite its first range."""
        t = NeighborTable(6, eps=1.0)
        with pytest.raises(ValueError, match="key 3 appears in two runs"):
            t.add_batch(np.array([3, 3, 5, 3]), np.array([3, 5, 5, 4]))
        assert t.total_pairs == 0

    def test_rows_in_any_key_order(self):
        """Whole rows need not come in key order: a batch laid out
        ``5, 3, 4`` gives the table its key-sorted twin gives."""
        rows = {5: [5, 3], 3: [3, 5, 4], 4: [4, 3]}
        t = NeighborTable(6, eps=1.0)
        order = [5, 3, 4]
        t.add_batch(
            np.repeat(order, [len(rows[k]) for k in order]),
            np.concatenate([rows[k] for k in order]),
        )
        ref = NeighborTable(6, eps=1.0)
        ref.add_batch(
            np.repeat(sorted(rows), [len(rows[k]) for k in sorted(rows)]),
            np.concatenate([rows[k] for k in sorted(rows)]),
        )
        assert np.array_equal(t.t_min, ref.t_min)
        assert np.array_equal(t.t_max, ref.t_max)
        assert np.array_equal(t.values, ref.values)
        t.validate()

    def test_key_out_of_range(self):
        t = NeighborTable(3, eps=1.0)
        with pytest.raises(ValueError):
            t.add_batch(np.array([5]), np.array([0]))

    def test_length_mismatch(self):
        t = NeighborTable(3, eps=1.0)
        with pytest.raises(ValueError):
            t.add_batch(np.array([0, 1]), np.array([0]))

    def test_add_after_finalize_rejected(self):
        t = table_from_pairs(2, [(0, 0)])
        with pytest.raises(RuntimeError):
            t.add_batch(np.array([1]), np.array([1]))

    def test_finalize_idempotent(self):
        t = table_from_pairs(2, [(0, 0), (1, 1)])
        v1 = t.values
        t.finalize()
        assert t.values is v1

    def test_invalid_n_points(self):
        with pytest.raises(ValueError):
            NeighborTable(0, eps=1.0)


class TestQueries:
    def test_neighbor_counts_vectorized(self):
        t = table_from_pairs(3, [(0, 0), (0, 1), (0, 2), (2, 2)])
        assert t.neighbor_counts().tolist() == [3, 0, 1]

    def test_edges_roundtrip(self):
        pairs = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
        t = table_from_pairs(3, pairs)
        src, dst = t.edges()
        assert sorted(zip(src.tolist(), dst.tolist(), strict=True)) == sorted(pairs)

    def test_edges_for_subset(self):
        pairs = [(0, 0), (0, 2), (1, 1), (2, 0)]
        t = table_from_pairs(3, pairs)
        src, dst = t.edges_for(np.array([0, 2]))
        assert sorted(zip(src.tolist(), dst.tolist(), strict=True)) == [(0, 0), (0, 2), (2, 0)]

    def test_total_pairs(self):
        t = table_from_pairs(3, [(0, 0), (1, 1), (1, 2)])
        assert t.total_pairs == 3

    @pytest.mark.parametrize("with_distances", [False, True])
    def test_queries_finalize_a_multi_batch_table(
        self, blobs_points, with_distances
    ):
        """Row ranges read before an explicit finalize are the final,
        point-ordered ones, not the batch-order ranges of the build."""
        from repro.core.batching import build_neighbor_table
        from repro.core.device_cluster import device_cluster_table
        from repro.gpusim import Device
        from repro.index import GridIndex

        grid = GridIndex.build(blobs_points, 0.5)
        built, _ = build_neighbor_table(
            grid, Device(), with_distances=with_distances
        )
        n = built.n_points

        def batched():
            # three strided batches, rows arriving out of point order
            t = NeighborTable(n, eps=built.eps, with_distances=with_distances)
            for l in (2, 0, 1):
                keys = np.arange(l, n, 3)
                keys = keys[built.neighbor_counts()[keys] > 0]
                rows = [built.neighbors(k) for k in keys]
                dist = (
                    np.concatenate([built.neighbor_distances(k) for k in keys])
                    if with_distances
                    else None
                )
                t.add_batch(
                    np.repeat(keys, [len(r) for r in rows]),
                    np.concatenate(rows),
                    dist,
                )
            return t

        t = batched()
        for i in range(0, n, 7):
            assert np.array_equal(t.neighbors(i), built.neighbors(i))
            if with_distances:
                assert np.array_equal(
                    t.neighbor_distances(i), built.neighbor_distances(i)
                )
        ids = np.arange(1, n, 5)
        for a, b in zip(
            batched().edges_for(ids), built.edges_for(ids), strict=True
        ):
            assert np.array_equal(a, b)
        for name in ("t_min", "t_max"):
            assert np.array_equal(getattr(batched(), name), getattr(built, name))
        got = device_cluster_table(batched(), 5)
        want = device_cluster_table(built, 5)
        assert np.array_equal(got.labels, want.labels)


class TestPersistence:
    @given(
        spec=st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=60,
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_save_load_roundtrip(self, tmp_path_factory, spec):
        """Any table survives the .npz round trip exactly."""
        n, pairs = spec
        t = table_from_pairs(n, symmetric(pairs))
        path = t.save(tmp_path_factory.mktemp("nt") / "t.npz")
        back = NeighborTable.load(path)
        assert back.n_points == t.n_points
        assert back.eps == t.eps
        assert not back.with_distances
        assert np.array_equal(back.t_min, t.t_min)
        assert np.array_equal(back.t_max, t.t_max)
        assert np.array_equal(back.values, t.values)

    def test_annotated_roundtrip(self, tmp_path):
        t = NeighborTable(3, eps=0.5, with_distances=True)
        keys = np.array([0, 0, 1, 2])
        vals = np.array([0, 1, 0, 2])
        dist = np.array([0.0, 0.25, 0.25, 0.1])
        t.add_batch(keys, vals, distances=dist)
        path = t.save(tmp_path / "annotated.npz")
        back = NeighborTable.load(path)
        assert back.with_distances
        assert np.array_equal(back.values, t.values)
        assert np.array_equal(back.distances, dist)
        assert back.neighbor_distances(0).tolist() == [0.0, 0.25]

    def test_metadata_types_exact(self, tmp_path):
        """Regression: metadata used to be one float64 array, silently
        casting n_points/with_distances.  The typed layout keeps an
        int64 n_points exact (float64 loses integers above 2**53)."""
        t = table_from_pairs(4, [(0, 0), (3, 1)])
        path = t.save(tmp_path / "t.npz")
        with np.load(path) as data:
            assert data["n_points"].dtype == np.int64
            assert data["eps"].dtype == np.float64
            assert data["with_distances"].dtype == np.bool_
        big = (1 << 53) + 1  # not representable in float64
        assert int(np.int64(big)) == big
        assert int(np.float64(big)) != big

    def test_int64_file_loads_at_the_id_width(self, tmp_path, rng):
        """Files written while ids were int64 load narrowed to int32,
        validate, and cluster bit-identically on host and device."""
        grid = GridIndex.build(rng.random((600, 2)) * 8.0, 0.5)
        table, _ = build_neighbor_table(grid, Device())
        path = tmp_path / "int64.npz"
        np.savez_compressed(
            path,
            t_min=table.t_min.astype(np.int64),
            t_max=table.t_max.astype(np.int64),
            values=table.values.astype(np.int64),
            n_points=np.int64(table.n_points),
            eps=np.float64(table.eps),
            with_distances=np.bool_(False),
        )
        with np.load(path) as data:
            assert data["values"].dtype == np.int64
        back = NeighborTable.load(path)
        assert back.values.dtype == back.t_min.dtype == np.int32
        back.validate()
        assert np.array_equal(back.values, table.values)
        for minpts in (3, 8):
            ref = dbscan_from_table(table, minpts)
            assert np.array_equal(dbscan_from_table(back, minpts), ref)
            assert np.array_equal(dbscan_from_table_device(back, minpts), ref)

    def test_legacy_meta_layout_accepted(self, tmp_path):
        """Tables written by the old float64-meta format still load."""
        t = table_from_pairs(3, [(0, 0), (0, 1), (1, 0), (2, 2)])
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            t_min=t.t_min,
            t_max=t.t_max,
            values=t.values,
            meta=np.array([t.n_points, t.eps, 0.0]),
        )
        back = NeighborTable.load(path)
        assert back.n_points == 3
        assert back.eps == 1.0
        assert not back.with_distances
        assert back.neighbors(0).tolist() == [0, 1]
        assert back.neighbors(2).tolist() == [2]


class TestBatchOrderedFile:
    """Files saved while ``B`` was kept in batch arrival order load in
    point order."""

    @staticmethod
    def _batch_ordered_arrays(table, n_batches):
        """``table``'s arrays laid out the way strided batches wrote
        them: batch ``l`` holds the rows ``l, l + n_batches, ...`` back
        to back, and the batches follow one another."""
        keys = np.concatenate(
            [np.arange(l, table.n_points, n_batches) for l in range(n_batches)]
        )
        keys = keys[table.neighbor_counts()[keys] > 0]
        t_min = np.full(table.n_points, -1, dtype=np.int64)
        t_max = np.full(table.n_points, -1, dtype=np.int64)
        parts, dparts, cursor = [], [], 0
        for k in keys:
            row = table.neighbors(k)
            t_min[k], t_max[k] = cursor, cursor + len(row) - 1
            cursor += len(row)
            parts.append(row)
            if table.with_distances:
                dparts.append(table.neighbor_distances(k))
        arrays = {
            "t_min": t_min,
            "t_max": t_max,
            "values": np.concatenate(parts),
            "n_points": np.int64(table.n_points),
            "eps": np.float64(table.eps),
            "with_distances": np.bool_(table.with_distances),
        }
        if table.with_distances:
            arrays["distances"] = np.concatenate(dparts)
        return arrays

    @pytest.mark.parametrize("with_distances", [False, True])
    def test_batch_ordered_file_loads_in_point_order(
        self, tmp_path, blobs_points, with_distances
    ):
        from repro.baseline import dbscan_from_table_expand
        from repro.core.batching import build_neighbor_table
        from repro.core.table_dbscan import dbscan_from_table
        from repro.gpusim import Device
        from repro.index import GridIndex

        grid = GridIndex.build(blobs_points, 0.5)
        table, _ = build_neighbor_table(
            grid, Device(), with_distances=with_distances
        )
        arrays = self._batch_ordered_arrays(table, n_batches=3)
        # the hand-written layout really interleaves the rows
        assert np.any(np.diff(arrays["t_min"][arrays["t_min"] >= 0]) < 0)
        path = tmp_path / "batch_ordered.npz"
        np.savez_compressed(path, **arrays)

        back = NeighborTable.load(path)
        back.validate()
        assert np.array_equal(back.t_min, table.t_min)
        assert np.array_equal(back.t_max, table.t_max)
        assert np.array_equal(back.values, table.values)
        if with_distances:
            assert np.array_equal(back.distances, table.distances)
        for minpts in (3, 5, 12):
            assert np.array_equal(
                dbscan_from_table(back, minpts),
                dbscan_from_table_expand(table, minpts),
            )

    def test_overlapping_rows_rejected(self, tmp_path):
        """A file whose rows overlap in ``B`` cannot be laid out."""
        t = table_from_pairs(3, [(0, 0), (0, 1), (1, 1), (2, 2)])
        path = t.save(tmp_path / "overlap.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["t_min"] = np.array([0, 0, 2])
        arrays["t_max"] = np.array([1, 0, 2])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="overlap.npz"):
            NeighborTable.load(path)


class TestLoadCorruption:
    """Corrupt/truncated ``.npz`` files must fail with a ValueError
    naming the file and the corrupt field — not a bare KeyError from
    the array dict or an AssertionError from ``validate``."""

    def _annotated(self, tmp_path):
        t = NeighborTable(3, eps=0.5, with_distances=True)
        t.add_batch(
            np.array([0, 0, 2]),
            np.array([0, 1, 2]),
            distances=np.array([0.0, 0.25, 0.1]),
        )
        return t.save(tmp_path / "t.npz")

    def _resave_without(self, path, drop):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != drop}
        np.savez_compressed(path, **arrays)

    def test_missing_distances_is_clear_valueerror(self, tmp_path):
        """An annotated-flagged file whose distances column never hit
        the disk (interrupted save) used to die with KeyError."""
        path = self._annotated(tmp_path)
        self._resave_without(path, "distances")
        with pytest.raises(ValueError) as ei:
            NeighborTable.load(path)
        msg = str(ei.value)
        assert "distances" in msg and "t.npz" in msg

    @pytest.mark.parametrize("drop", ["t_min", "t_max", "values"])
    def test_missing_core_array(self, tmp_path, drop):
        path = self._annotated(tmp_path)
        self._resave_without(path, drop)
        with pytest.raises(ValueError, match=drop):
            NeighborTable.load(path)

    def test_missing_all_metadata(self, tmp_path):
        path = self._annotated(tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in ("t_min", "t_max", "values")}
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="meta"):
            NeighborTable.load(path)

    @staticmethod
    def _write(path, t_min, t_max, values, distances=None):
        arrays = {
            "t_min": np.array(t_min),
            "t_max": np.array(t_max),
            "values": np.array(values),
            "n_points": np.int64(len(t_min)),
            "eps": np.float64(0.5),
            "with_distances": np.bool_(distances is not None),
        }
        if distances is not None:
            arrays["distances"] = np.array(distances)
        np.savez_compressed(path, **arrays)
        return path

    def test_repeated_neighbor_rejected(self, tmp_path):
        """Row 0 = [1, 1]: the strong-components pass never returns on
        a row that repeats an entry, so such a file must not load."""
        path = self._write(tmp_path / "twice.npz", [0, 2], [1, 2], [1, 1, 0])
        with pytest.raises(ValueError, match="twice.npz") as ei:
            NeighborTable.load(path)
        assert "twice" in str(ei.value.__cause__)

    def test_edge_without_reverse_rejected(self, tmp_path):
        """Row 0 lists 1 but row 1 does not list 0."""
        path = self._write(tmp_path / "oneway.npz", [0, 2], [1, 2], [0, 1, 1])
        with pytest.raises(ValueError, match="oneway.npz") as ei:
            NeighborTable.load(path)
        assert "not symmetric" in str(ei.value.__cause__)

    def test_asymmetric_distances_rejected(self, tmp_path):
        path = self._write(
            tmp_path / "dist.npz",
            [0, 2],
            [1, 3],
            [0, 1, 0, 1],
            distances=[0.0, 0.25, 0.3, 0.0],
        )
        with pytest.raises(ValueError, match="dist.npz") as ei:
            NeighborTable.load(path)
        assert "distances are not symmetric" in str(ei.value.__cause__)

    def test_int64_id_past_int32_rejected_not_wrapped(self, tmp_path):
        """An int64 id of 2**32 would wrap to 0 when narrowed to the
        id width, into range: the loader must reject it first."""
        t = table_from_pairs(3, [(0, 0), (1, 1), (2, 2)])
        path = t.save(tmp_path / "wraps.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["values"] = arrays["values"].astype(np.int64)
        arrays["values"][0] += 2**32
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="wraps.npz") as ei:
            NeighborTable.load(path)
        assert "out of range" in str(ei.value.__cause__)

    def test_invalid_structure_wrapped(self, tmp_path):
        """Structural validation failures surface as ValueError naming
        the file, with the AssertionError chained as the cause."""
        t = table_from_pairs(2, [(0, 0), (1, 1)])
        path = t.save(tmp_path / "bad.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["values"] = np.array([99, 1])  # id out of range
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="bad.npz") as ei:
            NeighborTable.load(path)
        assert isinstance(ei.value.__cause__, AssertionError)


class TestValidation:
    def test_validate_catches_gap(self):
        t = table_from_pairs(3, [(0, 0), (1, 1)])
        t.t_min[1] += 0  # intact
        t.validate()
        t.t_max[0] = t.t_min[0] - 0  # shrink range -> gap
        t.t_max[0] -= 1
        with pytest.raises(AssertionError):
            t.validate()

    def test_validate_requires_point_order(self):
        """Rows that tile ``B`` out of point order fail validation."""
        t = table_from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        t.validate()
        # swap rows 1 (width 2) and 2 (width 1): still a tiling of B
        t.t_min[1:], t.t_max[1:] = [3, 2], [4, 2]
        with pytest.raises(AssertionError, match="point order"):
            t.validate()

    def test_validate_catches_bad_value(self):
        t = table_from_pairs(2, [(0, 0), (1, 1)])
        t.values[0] = 99
        with pytest.raises(AssertionError):
            t.validate()

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=60,
                ),
            )
        )
    )
    @settings(max_examples=60)
    def test_property_roundtrip(self, spec):
        """Any ε-table's pairs survive the table round trip."""
        n, pairs = spec
        pairs = symmetric(pairs)
        t = table_from_pairs(n, pairs)
        t.validate()
        rebuilt = []
        for i in range(n):
            rebuilt.extend((i, int(v)) for v in t.neighbors(i))
        assert sorted(rebuilt) == sorted(pairs)

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40)
    def test_property_batched_equals_single(self, n, nb):
        """Strided multi-batch ingestion builds the same table."""
        rng = np.random.default_rng(n * 31 + nb)
        pairs = symmetric(
            (int(k), int(rng.integers(0, n)))
            for k in rng.integers(0, n, 40)
        )
        whole = table_from_pairs(n, pairs)
        t = NeighborTable(n, eps=1.0)
        for l in range(nb):
            batch = sorted(p for p in pairs if p[0] % nb == l)
            if batch:
                arr = np.array(batch, dtype=np.int64)
                t.add_batch(arr[:, 0], arr[:, 1])
        t.finalize()
        t.validate()
        for i in range(n):
            assert sorted(t.neighbors(i).tolist()) == sorted(
                whole.neighbors(i).tolist()
            )


class TestIdWidth:
    """``B`` and its row ranges are int32 below 2**31 points and entries.
    Past 46,340 points an int32 id times ``n`` overflows int32, so
    ``validate`` widens before it packs (source, neighbor) keys."""

    N = 50_100

    def table(self, extra):
        """Every point its own neighbor, plus the (key, value) ``extra``."""
        own = np.arange(self.N)
        keys = np.concatenate([own, [k for k, _ in extra]])
        values = np.concatenate([own, [v for _, v in extra]])
        order = np.lexsort((values, keys))
        t = NeighborTable(self.N, eps=1.0)
        t.add_batch(keys[order].astype(np.int32), values[order].astype(np.int32))
        return t.finalize()

    def test_b_and_ranges_are_int32(self):
        t = self.table([])
        assert t.values.dtype == t.t_min.dtype == t.t_max.dtype == np.int32
        assert t.neighbors(50_050).tolist() == [50_050]

    def test_validate_accepts_symmetric_ids_above_50000(self):
        self.table([(50_001, 50_099), (50_099, 50_001)]).validate()

    def test_validate_rejects_asymmetric_ids_above_50000(self):
        with pytest.raises(AssertionError, match="not symmetric"):
            self.table([(50_001, 50_099)]).validate()
