"""Unit and property tests for repro._nputil."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._nputil import expand_ranges, id_dtype, multi_arange, no_core, run_boundaries


class TestMultiArange:
    def test_basic(self):
        out = multi_arange(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_empty_counts(self):
        out = multi_arange(np.array([5, 7, 9]), np.array([0, 2, 0]))
        assert out.tolist() == [7, 8]

    def test_all_zero(self):
        assert len(multi_arange(np.array([1, 2]), np.array([0, 0]))) == 0

    def test_empty_input(self):
        assert len(multi_arange(np.array([], dtype=int), np.array([], dtype=int))) == 0

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            multi_arange(np.array([0]), np.array([-1]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            multi_arange(np.array([0, 1]), np.array([1]))

    def test_single_run(self):
        assert multi_arange(np.array([4]), np.array([4])).tolist() == [4, 5, 6, 7]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_matches_naive(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        counts = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in pairs] or [np.empty(0, dtype=np.int64)]
        )
        got = multi_arange(starts, counts)
        assert np.array_equal(got, expected)


class TestExpandRanges:
    def test_basic(self):
        ids, flat = expand_ranges(
            np.array([7, 8]), np.array([0, 3]), np.array([1, 3])
        )
        assert ids.tolist() == [7, 7, 8]
        assert flat.tolist() == [0, 1, 3]

    def test_empty_marker(self):
        ids, flat = expand_ranges(
            np.array([1, 2, 3]), np.array([0, -1, 5]), np.array([0, -1, 6])
        )
        assert ids.tolist() == [1, 3, 3]
        assert flat.tolist() == [0, 5, 6]

    def test_all_empty(self):
        ids, flat = expand_ranges(np.array([1]), np.array([-1]), np.array([-1]))
        assert len(ids) == 0 and len(flat) == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=40),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_lengths_consistent(self, spec):
        ids = np.arange(len(spec), dtype=np.int64)
        starts = np.array([s for s, _ in spec], dtype=np.int64)
        ends = np.array(
            [s + l if s >= 0 else -1 for (s, l) in spec], dtype=np.int64
        )
        rep, flat = expand_ranges(ids, starts, ends)
        assert len(rep) == len(flat)
        expected_len = sum(l + 1 for s, l in spec if s >= 0)
        assert len(rep) == expected_len


class TestRunBoundaries:
    def test_basic(self):
        vals, starts, ends = run_boundaries(np.array([1, 1, 2, 5, 5, 5]))
        assert vals.tolist() == [1, 2, 5]
        assert starts.tolist() == [0, 2, 3]
        assert ends.tolist() == [2, 3, 6]

    def test_empty(self):
        vals, starts, ends = run_boundaries(np.array([], dtype=int))
        assert len(vals) == len(starts) == len(ends) == 0

    def test_single_run(self):
        vals, starts, ends = run_boundaries(np.array([3, 3, 3]))
        assert vals.tolist() == [3]
        assert starts.tolist() == [0] and ends.tolist() == [3]

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=60))
    @settings(max_examples=80)
    def test_reconstruction(self, raw):
        arr = np.sort(np.array(raw, dtype=np.int64))
        vals, starts, ends = run_boundaries(arr)
        # runs tile the array exactly
        rebuilt = np.concatenate(
            [np.full(e - s, v) for v, s, e in zip(vals, starts, ends, strict=True)]
            or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(rebuilt, arr)
        # runs are strictly increasing values
        assert np.all(np.diff(vals) > 0) if len(vals) > 1 else True


class TestIdDtype:
    """The one id-width rule, checked on plain integers (nothing of that
    size is allocated)."""

    def test_int32_while_every_extent_fits(self):
        assert id_dtype(2**31 - 1) == np.int32
        assert id_dtype(1, 2**31 - 1) == np.int32

    def test_int64_from_2_31(self):
        assert id_dtype(2**31) == np.int64
        assert id_dtype(10, 2**31) == np.int64

    def test_no_core_survives_an_int32_where(self):
        """``np.where`` wraps a Python int too large for int32 to -1,
        which would sort below every id; the per-dtype sentinel does not."""
        ids = np.arange(4, dtype=np.int32)
        out = np.where(ids % 2 == 0, ids, no_core(ids.dtype))
        assert out.dtype == np.int32
        assert out[1] == out[3] == 2**31 - 1
        assert no_core(np.int64) == np.iinfo(np.int64).max
