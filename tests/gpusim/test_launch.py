"""Tests for kernel launch machinery and profiler integration."""

import numpy as np
import pytest

from repro.gpusim import Kernel, LaunchConfig, launch
from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.profiler import (
    KernelRecord,
    Profiler,
    SortRecord,
    TransferRecord,
)


class AddOne(Kernel):
    """Toy kernel with both backends, for dispatch tests."""

    name = "AddOne"

    def device_code(self, ctx, *, data):
        gid = ctx.global_id
        if gid >= len(data):
            return
        data[gid] += 1
        ctx.count_global_load()
        ctx.count_global_store()

    def vector_impl(self, config, counters, *, data):
        data += 1
        counters.global_loads += len(data)
        counters.global_stores += len(data)
        return len(data)


class TestLaunchConfig:
    def test_for_elements_rounds_up(self):
        cfg = LaunchConfig.for_elements(1000, 256)
        assert cfg.grid_dim == 4
        assert cfg.total_threads == 1024

    def test_exact_fit(self):
        cfg = LaunchConfig.for_elements(512, 256)
        assert cfg.grid_dim == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid_dim=0, block_dim=256)
        with pytest.raises(ValueError):
            LaunchConfig.for_elements(0)

    def test_ngpu_matches_paper_definition(self):
        # nGPU = blocks * block size (Section VII-C)
        cfg = LaunchConfig(grid_dim=7, block_dim=256)
        assert cfg.total_threads == 7 * 256


class TestLaunch:
    def test_vector_backend(self, device):
        data = np.zeros(100)
        res = launch(AddOne(), LaunchConfig.for_elements(100), device, data=data)
        assert np.all(data == 1)
        assert res.value == 100
        assert res.backend == "vector"

    def test_interpreter_backend(self, device):
        data = np.zeros(100)
        res = launch(
            AddOne(),
            LaunchConfig.for_elements(100, 32),
            device,
            backend="interpreter",
            data=data,
        )
        assert np.all(data == 1)
        assert res.counters.threads == 128

    def test_backends_agree_on_counters(self, device):
        data_v = np.zeros(64)
        data_i = np.zeros(64)
        cfg = LaunchConfig.for_elements(64, 32)
        rv = launch(AddOne(), cfg, device, data=data_v)
        ri = launch(AddOne(), cfg, device, backend="interpreter", data=data_i)
        assert rv.counters.global_loads == ri.counters.global_loads
        assert rv.counters.threads == ri.counters.threads

    def test_profiler_record(self, device):
        launch(AddOne(), LaunchConfig.for_elements(10), device, data=np.zeros(10))
        rec = device.profiler.kernels[-1]
        assert rec.name == "AddOne"
        assert rec.n_gpu == 256
        assert rec.modeled_ms > 0
        assert rec.wall_s >= 0

    def test_total_device_ms_independent_of_record_order(self):
        # stream workers append records in thread order
        totals = []
        for order in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
            prof = Profiler()
            for ms in order:
                prof.record_kernel(
                    KernelRecord("k", 1, 1, ms, 0.0, KernelCounters())
                )
            totals.append(prof.total_device_ms())
        assert totals[0] == totals[1]

    def test_time_sums_independent_of_record_order(self):
        # 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1
        sums = []
        for order in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
            prof = Profiler()
            for ms in order:
                prof.record_kernel(
                    KernelRecord("k", 1, 1, ms, 0.0, KernelCounters())
                )
                prof.record_transfer(TransferRecord("h2d", 8, ms, True))
                prof.record_sort(SortRecord(8, ms))
            sums.append(
                (
                    prof.kernel_time_ms(),
                    prof.transfer_time_ms(),
                    prof.sort_time_ms(),
                )
            )
        assert sums[0] == sums[1]

    def test_stream_placement(self, device):
        s = device.new_stream("work")
        launch(
            AddOne(),
            LaunchConfig.for_elements(10),
            device,
            stream=s,
            data=np.zeros(10),
        )
        assert device.profiler.kernels[-1].stream == "work"
        assert device.timeline.ops[-1].engine == "compute"

    def test_modeled_time_from_cost_model(self, device):
        res = launch(
            AddOne(), LaunchConfig.for_elements(10), device, data=np.zeros(10)
        )
        assert res.modeled_ms == pytest.approx(
            device.cost.kernel_time_ms(res.counters)
        )

    def test_base_kernel_not_implemented(self, device):
        with pytest.raises(NotImplementedError):
            launch(Kernel(), LaunchConfig(1, 1), device)
