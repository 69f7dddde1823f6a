"""Tests for the S3 neighbor-table reuse scheme."""

import numpy as np
import pytest

from repro.analysis.metrics import same_clustering
from repro.core import HybridDBSCAN, cluster_with_reuse


class TestCorrectness:
    def test_matches_independent_fits(self, blobs_points):
        minpts_values = [2, 4, 8, 16]
        res = cluster_with_reuse(
            blobs_points, 0.5, minpts_values, n_threads=1, keep_labels=True
        )
        for outcome in res.outcomes:
            fit = HybridDBSCAN().fit(blobs_points, 0.5, outcome.minpts)
            assert same_clustering(outcome.labels, fit.labels)

    def test_threaded_matches_serial(self, blobs_points):
        minpts_values = [2, 3, 4, 6, 8, 12]
        serial = cluster_with_reuse(
            blobs_points, 0.5, minpts_values, n_threads=1, keep_labels=True
        )
        threaded = cluster_with_reuse(
            blobs_points, 0.5, minpts_values, n_threads=4, keep_labels=True
        )
        for a, b in zip(serial.outcomes, threaded.outcomes, strict=True):
            assert a.minpts == b.minpts
            assert np.array_equal(a.labels, b.labels)

    def test_outcomes_in_input_order(self, blobs_points):
        res = cluster_with_reuse(blobs_points, 0.5, [8, 2, 4], n_threads=3)
        assert res.minpts_values == [8, 2, 4]

    def test_table_built_once(self, blobs_points, device):
        """One build amortized over all variants: device sees one
        estimation + one set of batch kernels, not len(minpts) sets."""
        h = HybridDBSCAN(device)
        cluster_with_reuse(blobs_points, 0.5, [2, 4, 8, 16], hybrid=h)
        names = [k.name for k in device.profiler.kernels]
        assert names.count("NeighborCount") == 1

    def test_monotone_members(self, blobs_points):
        res = cluster_with_reuse(
            blobs_points, 0.5, [2, 4, 8, 16, 32], n_threads=2
        )
        members = [len(blobs_points) - o.n_noise for o in res.outcomes]
        assert members == sorted(members, reverse=True)


class TestValidation:
    def test_invalid_threads(self, blobs_points):
        with pytest.raises(ValueError):
            cluster_with_reuse(blobs_points, 0.5, [4], n_threads=0)

    def test_empty_minpts(self, blobs_points):
        with pytest.raises(ValueError):
            cluster_with_reuse(blobs_points, 0.5, [])

    @pytest.mark.parametrize(
        "eps, minpts_values",
        [(0.5, [4, 0]), (0.15, [2.5])],
        ids=["below-one", "fractional"],
    )
    def test_bad_minpts_rejected_before_build(self, device, eps, minpts_values):
        """A minpts below 1, or a fractional one (2.5 would cluster as
        3 but report 2), fails before any kernel launches."""
        pts = np.random.default_rng(0).uniform(0, 10, size=(2000, 2))
        with pytest.raises(ValueError, match="minpts"):
            cluster_with_reuse(
                pts, eps, minpts_values, hybrid=HybridDBSCAN(device)
            )
        assert device.profiler.kernels == []

    def test_timings(self, blobs_points):
        res = cluster_with_reuse(blobs_points, 0.5, [4, 8], n_threads=2)
        assert res.build_s > 0
        assert res.cluster_s > 0
        assert res.total_s >= res.build_s


class TestThreadsModeFailureCapture:
    """A raising variant propagates: every variant runs on the one
    serial path, so no failure is swallowed."""

    def _poisoned_hybrid(self, monkeypatch, bad_minpts):
        h = HybridDBSCAN()
        orig = h.cluster_table

        def cluster_table(grid, table, minpts, **kw):
            if minpts == bad_minpts:
                raise RuntimeError(f"poisoned minpts={minpts}")
            return orig(grid, table, minpts, **kw)

        monkeypatch.setattr(h, "cluster_table", cluster_table)
        return h

    def test_simulate_mode_stays_strict(self, monkeypatch, blobs_points):
        h = self._poisoned_hybrid(monkeypatch, bad_minpts=4)
        with pytest.raises(RuntimeError, match="poisoned"):
            cluster_with_reuse(
                blobs_points, 0.5, [2, 4, 8], n_threads=3, hybrid=h
            )
