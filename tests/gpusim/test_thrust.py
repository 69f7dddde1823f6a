"""Tests for the Thrust-style device primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, sort_by_key
from repro.gpusim.thrust import reduce_sum, sort_pairs


class TestSortByKey:
    def test_basic(self, device):
        k = device.to_device(np.array([3, 1, 2], dtype=np.int64))
        v = device.to_device(np.array([30, 10, 20], dtype=np.int64))
        n = sort_by_key(k, v, device)
        assert n == 3
        assert k.data.tolist() == [1, 2, 3]
        assert v.data.tolist() == [10, 20, 30]

    def test_stability(self, device):
        k = device.to_device(np.array([1, 0, 1, 0], dtype=np.int64))
        v = device.to_device(np.array([0, 1, 2, 3], dtype=np.int64))
        sort_by_key(k, v, device)
        assert v.data.tolist() == [1, 3, 0, 2]

    def test_length_mismatch(self, device):
        k = device.to_device(np.arange(3))
        v = device.to_device(np.arange(4))
        with pytest.raises(ValueError):
            sort_by_key(k, v, device)

    def test_result_buffer_prefix_only(self, device):
        k = device.allocate_result_buffer(10, np.int64)
        v = device.allocate_result_buffer(10, np.int64)
        for buf, values in ((k, [5, 2, 9]), (v, [50, 20, 90])):
            buf.reserve(3)
            buf.data[:3] = values
        n = sort_by_key(k, v, device)
        assert n == 3
        assert k.view().tolist() == [2, 5, 9]
        assert v.view().tolist() == [20, 50, 90]

    def test_profiler_record(self, device):
        k = device.to_device(np.arange(100))
        v = device.to_device(np.arange(100))
        sort_by_key(k, v, device)
        assert device.profiler.sorts[-1].n == 100
        assert device.profiler.sort_time_ms() > 0

    def test_empty(self, device):
        k = device.allocate_result_buffer(10, np.int64)
        v = device.allocate_result_buffer(10, np.int64)
        assert sort_by_key(k, v, device) == 0


class TestSortPairs:
    def test_basic(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.reserve(3)
        buf.data[:3] = [[3, 30], [1, 10], [2, 20]]
        n = sort_pairs(buf, device)
        assert n == 3
        assert buf.view().tolist() == [[1, 10], [2, 20], [3, 30]]

    def test_stable_within_key(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.reserve(3)
        buf.data[:3] = [[1, 5], [0, 9], [1, 2]]
        sort_pairs(buf, device)
        assert buf.view().tolist() == [[0, 9], [1, 5], [1, 2]]

    def test_wrong_shape(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        with pytest.raises(ValueError):
            sort_pairs(buf, device)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, pairs):
        device = Device()
        buf = device.allocate_result_buffer((max(len(pairs), 1), 2), np.int64)
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        buf.reserve(len(arr))
        buf.data[: len(arr)] = arr
        sort_pairs(buf, device)
        expected = arr[np.argsort(arr[:, 0], kind="stable")] if len(arr) else arr
        assert np.array_equal(buf.view(), expected)

    @pytest.mark.parametrize("width, dtype", [(2, np.int64), (3, np.float64)])
    def test_presorted_and_shuffled_keys_sort_alike(self, width, dtype):
        """Presorted keys with ties skip the permutation; shuffled keys
        are sorted.  Both leave the stable order and record the same
        modeled sort."""
        rng = np.random.default_rng(3)
        keys = np.repeat(np.arange(60), rng.integers(1, 5, 60))  # ties
        rows = np.column_stack(
            [keys, np.arange(len(keys)), rng.random(len(keys))][:width]
        ).astype(dtype)
        records = []
        for arr in (rows, rows[rng.permutation(len(rows))]):
            device = Device()
            buf = device.allocate_result_buffer((len(arr) + 5, width), dtype)
            buf.reserve(len(arr))
            buf.data[: len(arr)] = arr
            assert sort_pairs(buf, device) == len(arr)
            expected = arr[np.argsort(arr[:, 0], kind="stable")]
            assert np.array_equal(buf.view(), expected)
            rec = device.profiler.sorts[-1]
            records.append((rec.n, rec.modeled_ms))
        assert records[0] == records[1]
        assert records[0] == (len(rows), Device().cost.sort_time_ms(len(rows)))


class TestReduce:
    def test_sum(self, device):
        buf = device.to_device(np.arange(10, dtype=np.float64))
        assert reduce_sum(buf, device) == 45.0

    def test_empty(self, device):
        buf = device.allocate_result_buffer(5, np.float64)
        assert reduce_sum(buf, device) == 0.0
