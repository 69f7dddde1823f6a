"""Whole-scenario integration tests at tiny scale.

These run the paper's scenario matrix end to end on small instances of
every dataset analogue, asserting DBSCAN-correctness against the
sequential reference throughout — the "does the whole system hold
together" layer above the per-module tests.
"""

import numpy as np
import pytest

from repro.analysis import validate_hybrid
from repro.baseline import dbscan_from_table_expand
from repro.core import (
    HybridDBSCAN,
    MultiClusterPipeline,
    VariantSet,
    cluster_eps_sweep,
    cluster_with_reuse,
)
from repro.data import DATASETS, dataset

TINY = 0.0005  # ~1k-7.6k points per dataset


@pytest.mark.parametrize("name", list(DATASETS))
class TestScenarioMatrix:
    def test_s2_single_variant_correct(self, name):
        spec = DATASETS[name]
        pts = dataset(name, scale=TINY)
        eps = spec.s2_eps[len(spec.s2_eps) // 2]
        report = validate_hybrid(pts, eps, 4)
        assert report.ok, report

    def test_s3_reuse_runs(self, name):
        spec = DATASETS[name]
        pts = dataset(name, scale=TINY)
        res = cluster_with_reuse(
            pts, spec.s3_eps[0], list(spec.s3_minpts)[:6], n_threads=4
        )
        assert len(res.outcomes) == 6
        members = [len(pts) - o.n_noise for o in res.outcomes]
        assert members == sorted(members, reverse=True)

    def test_s2_pipeline_runs(self, name):
        spec = DATASETS[name]
        pts = dataset(name, scale=TINY)
        variants = VariantSet.eps_sweep(list(spec.s2_eps)[:4], 4)
        res = MultiClusterPipeline().run(pts, variants, pipelined=True)
        assert len(res.outcomes) == 4
        assert res.total_s > 0


class TestCrossFeatureConsistency:
    """The same variant computed through every execution path agrees."""

    def test_all_paths_agree(self):
        pts = dataset("SW1", scale=TINY)
        eps, minpts = 0.5, 6

        fit = HybridDBSCAN().fit(pts, eps, minpts)

        shared = HybridDBSCAN(kernel="shared").fit(pts, eps, minpts)
        grid, table, _ = HybridDBSCAN().build_table(pts, eps)
        expand = np.empty(len(pts), dtype=np.int64)
        expand[grid.sort_order] = dbscan_from_table_expand(table, minpts)
        sweep = cluster_eps_sweep(pts, [eps, 0.8], minpts, keep_labels=True)
        sweep_labels = next(
            o.labels for o in sweep.outcomes if o.eps == eps
        )
        pipe = MultiClusterPipeline(keep_labels=True).run(
            pts, VariantSet.from_pairs([(eps, minpts)])
        )
        reuse = cluster_with_reuse(
            pts, eps, [minpts], keep_labels=True
        )

        from repro.analysis.metrics import same_clustering

        for other, label in [
            (shared.labels, "shared kernel"),
            (expand, "expand oracle"),
            (sweep_labels, "annotated sweep"),
            (pipe.outcomes[0].labels, "pipeline"),
            (reuse.outcomes[0].labels, "reuse"),
        ]:
            assert same_clustering(fit.labels, other), label

    def test_batched_and_unbatched_agree(self):
        from repro.core import BatchConfig

        pts = dataset("SDSS1", scale=TINY)
        one = HybridDBSCAN(
            batch_config=BatchConfig(n_streams=1, alpha=0.3)
        ).fit(pts, 0.6, 4)
        many = HybridDBSCAN(
            batch_config=BatchConfig(static_threshold=1, static_buffer_size=3000)
        ).fit(pts, 0.6, 4)
        from repro.analysis.metrics import same_clustering

        assert many.n_batches > one.n_batches
        assert same_clustering(one.labels, many.labels)

    def test_gdbscan_agrees_on_every_dataset(self):
        from repro.baseline import gdbscan
        from repro.analysis.metrics import adjusted_rand_index

        for name in ("SW1", "SDSS1"):
            pts = dataset(name, scale=TINY)
            eps = DATASETS[name].s3_eps[0]
            a = gdbscan(pts, eps, 6)
            b = HybridDBSCAN().fit(pts, eps, 6).labels
            # BFS attaches multi-cluster border points by seed order,
            # the components path by lowest core neighbor: identical
            # structure, a handful of border labels may differ
            assert int(a.max()) == int(b.max())
            assert (a == -1).sum() == (b == -1).sum()
            assert adjusted_rand_index(a, b) > 0.98
