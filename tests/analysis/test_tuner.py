"""Tests for cost-guided configuration pruning (analysis.tuner).

The load-bearing guarantee — the measured-fastest configuration is
never eliminated — is asserted here on a smoke grid (and again, against
committed measurements, in ``benchmarks/bench_ablation_tuner.py``).
"""

import math

import numpy as np
import pytest

from repro.analysis.tuner import (
    DEFAULT_TUNE_BLOCK_DIMS,
    WorkloadStats,
    predicted_ms,
    prune_configs,
)
from repro.gpusim import Device, launch
from repro.gpusim.device import DeviceSpec
from repro.index import GridIndex
from repro.kernels import GPUCalcGlobal, GPUCalcShared


@pytest.fixture(scope="module")
def grid():
    rng = np.random.default_rng(7)
    return GridIndex.build(rng.random((120, 2)) * 3.0, 0.4)


@pytest.fixture(scope="module")
def stats(grid):
    return WorkloadStats.from_grid(grid)


class TestWorkloadStats:
    def test_from_grid_measures_the_grid(self, grid, stats):
        assert stats.n == len(grid)
        assert stats.nx == grid.nx and stats.ny == grid.ny
        assert stats.n_cells == len(grid.nonempty_cells)
        assert stats.r_cell == pytest.approx(stats.n / stats.n_cells)

    def test_binding_covers_required_symbols(self, stats):
        from repro.analysis.costmodel import derive_cost

        binding = stats.binding()
        binding["bdim"] = 64.0
        binding["gdim"] = 2.0
        for kernel in (GPUCalcGlobal(), GPUCalcShared()):
            model = derive_cost(kernel)
            missing = set(model.required_symbols()) - set(binding)
            assert not missing, (kernel.name, missing)


class TestPredictedMs:
    def test_paths_positive_and_finite(self, stats):
        for kind in ("global", "shared"):
            ms = predicted_ms(kind, stats, 64)
            assert math.isfinite(ms) and ms > 0.0

    def test_infeasible_shared_is_inf(self, stats):
        tiny = DeviceSpec(name="tiny", shared_mem_per_block_bytes=1024)
        assert predicted_ms("shared", stats, 256, spec=tiny) == math.inf

    def test_unknown_kind_raises(self, stats):
        with pytest.raises(ValueError):
            predicted_ms("warp-specialized", stats, 64)


class TestPruneConfigs:
    def test_ranked_covers_lattice(self, stats):
        result = prune_configs(stats)
        assert len(result.ranked) == 2 * len(DEFAULT_TUNE_BLOCK_DIMS)
        labels = {r.config.label for r in result.ranked}
        assert "global@64" in labels and "shared@512" in labels

    def test_ranked_sorted_by_prediction(self, stats):
        result = prune_configs(stats)
        preds = [r.predicted_ms for r in result.ranked]
        assert preds == sorted(preds)

    def test_best_is_cheapest_survivor(self, stats):
        result = prune_configs(stats)
        assert result.best is not None
        assert result.best.predicted_ms == min(
            r.predicted_ms for r in result.ranked if r.feasible
        )
        assert not result.best.eliminated

    def test_elimination_respects_safety(self, stats):
        result = prune_configs(stats, safety=2.0)
        best = result.best.predicted_ms
        for r in result.ranked:
            if not r.feasible:
                continue
            assert r.eliminated == (r.predicted_ms / 2.0 > best * 2.0), r

    def test_wider_safety_eliminates_less(self, stats):
        tight = prune_configs(stats, safety=1.0)
        loose = prune_configs(stats, safety=10.0)
        assert len(loose.eliminated) <= len(tight.eliminated)

    def test_top_k_caps_frontier_but_keeps_best(self, stats):
        result = prune_configs(stats, top_k=2)
        assert len(result.frontier) == 2
        assert result.frontier[0] is result.best

    def test_infeasible_always_eliminated(self, stats):
        tiny = DeviceSpec(name="tiny", shared_mem_per_block_bytes=1024)
        result = prune_configs(stats, spec=tiny)
        infeasible = [r for r in result.ranked if not r.feasible]
        assert infeasible  # every shared config's footprint exceeds 1 KiB
        assert all(r.eliminated for r in infeasible)
        # ...but the global path survives
        assert result.best is not None
        assert result.best.config.kernel == "global"

    def test_bad_safety_rejected(self, stats):
        with pytest.raises(ValueError):
            prune_configs(stats, safety=0.5)

    def test_measured_fastest_survives(self, grid, stats):
        """The core tuner guarantee on a smoke workload: launch every
        lattice config, find the measured-fastest, assert the pruner
        kept it."""
        result = prune_configs(stats, block_dims=(64, 128, 256))
        survivors = {r.config.label for r in result.frontier}
        measured = {}
        for kind, cls in (("global", GPUCalcGlobal), ("shared", GPUCalcShared)):
            for bd in (64, 128, 256):
                dev = Device()
                buf = dev.allocate_result_buffer(
                    (max(64, 512 * len(grid)), 2), np.int64, name="R"
                )
                if cls is GPUCalcGlobal:
                    cfg = cls.launch_config(len(grid), n_batches=1, block_dim=bd)
                else:
                    cfg = cls.launch_config(grid, block_dim=bd)
                res = launch(
                    cls(), cfg, dev, grid=grid, result=buf, batch=0, n_batches=1
                )
                measured[f"{kind}@{bd}"] = res.modeled_ms
        fastest = min(measured, key=measured.get)
        assert fastest in survivors, (fastest, sorted(survivors))
