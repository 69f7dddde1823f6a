"""Tests for the SIMT interpreter: barriers, shared memory, atomics."""

import numpy as np
import pytest

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.interpreter import run_interpreted
from repro.gpusim.kernelapi import BarrierDivergenceError
from repro.gpusim.memory import ResultBufferOverflow

SHMEM = 48 * 1024


def run(code, grid=1, block=4, **kwargs):
    counters = KernelCounters()
    run_interpreted(
        code,
        grid_dim=grid,
        block_dim=block,
        counters=counters,
        shared_mem_limit=SHMEM,
        kwargs=kwargs,
    )
    return counters


class TestPlainKernels:
    def test_global_id_coverage(self):
        seen = []

        def code(ctx, out):
            out[ctx.global_id] = ctx.global_id

        out = np.full(12, -1, dtype=np.int64)
        run(code, grid=3, block=4, out=out)
        assert out.tolist() == list(range(12))

    def test_early_return_guard(self):
        def code(ctx, out, n):
            gid = ctx.global_id
            if gid >= n:
                return
            out[gid] = 1

        out = np.zeros(10, dtype=np.int64)
        run(code, grid=3, block=4, out=out, n=10)
        assert out.sum() == 10

    def test_thread_block_counts(self):
        def code(ctx):
            pass

        c = run(code, grid=5, block=8)
        assert c.blocks == 5
        assert c.threads == 40

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            run_interpreted(
                lambda ctx: None,
                grid_dim=0,
                block_dim=4,
                counters=KernelCounters(),
                shared_mem_limit=SHMEM,
            )


class TestBarriers:
    def test_shared_reduction_with_barrier(self):
        """Classic pattern: stage to shared, barrier, thread 0 reduces."""

        def code(ctx, data, out):
            tile = ctx.shared("tile", (ctx.block_dim,), np.float64)
            tile[ctx.thread_idx] = data[ctx.global_id]
            yield ctx.syncthreads()
            if ctx.thread_idx == 0:
                out[ctx.block_idx] = tile.sum()

        data = np.arange(8, dtype=np.float64)
        out = np.zeros(2)
        run(code, grid=2, block=4, data=data, out=out)
        assert out.tolist() == [6.0, 22.0]

    def test_multiple_barriers(self):
        def code(ctx, out):
            tile = ctx.shared("t", (ctx.block_dim,), np.int64)
            tile[ctx.thread_idx] = 1
            yield ctx.syncthreads()
            total1 = int(tile.sum())
            yield ctx.syncthreads()  # separate reads from the next writes
            tile[ctx.thread_idx] = 2
            yield ctx.syncthreads()
            out[ctx.global_id] = total1 + tile.sum()

        out = np.zeros(4, dtype=np.int64)
        run(code, block=4, out=out)
        assert np.all(out == 4 + 8)

    def test_phase_isolation(self):
        """Writes after a barrier must not be visible before it."""

        def code(ctx, out):
            tile = ctx.shared("t", (ctx.block_dim,), np.int64)
            tile[ctx.thread_idx] = ctx.thread_idx
            yield ctx.syncthreads()
            # all writes from phase 1 visible now
            out[ctx.global_id] = tile[(ctx.thread_idx + 1) % ctx.block_dim]

        out = np.zeros(4, dtype=np.int64)
        run(code, block=4, out=out)
        assert out.tolist() == [1, 2, 3, 0]

    def test_divergent_exit_after_barrier_raises(self):
        def code(ctx):
            yield ctx.syncthreads()
            if ctx.thread_idx == 0:
                return
            yield ctx.syncthreads()

        with pytest.raises(BarrierDivergenceError):
            run(code, block=4)

    def test_exit_before_first_barrier_is_legal(self):
        # the ubiquitous ``if gid >= n: return`` guard: threads that
        # never enter the barrier region are tolerated (as in practice)
        def code(ctx, out):
            if ctx.thread_idx == 3:
                return
            tile = ctx.shared("t", (4,), np.int64)
            tile[ctx.thread_idx] = 1
            yield ctx.syncthreads()
            out[ctx.global_id] = tile.sum()

        out = np.zeros(4, dtype=np.int64)
        run(code, block=4, out=out)
        assert out.tolist() == [3, 3, 3, 0]

    def test_all_exit_together_is_legal(self):
        def code(ctx, out):
            tile = ctx.shared("t", (ctx.block_dim,), np.int64)
            tile[ctx.thread_idx] = 5
            yield ctx.syncthreads()
            out[ctx.global_id] = tile.sum()

        out = np.zeros(4, dtype=np.int64)
        run(code, block=4, out=out)
        assert np.all(out == 20)

    def test_non_barrier_yield_rejected(self):
        def code(ctx):
            yield 42

        with pytest.raises(TypeError):
            run(code, block=2)


class TestSharedMemory:
    def test_blocks_are_isolated(self):
        def code(ctx, out):
            tile = ctx.shared("t", (1,), np.int64)
            ctx.atomic_add(tile, 0, 1)
            yield ctx.syncthreads()
            out[ctx.block_idx] = tile[0]

        out = np.zeros(3, dtype=np.int64)
        run(code, grid=3, block=4, out=out)
        assert out.tolist() == [4, 4, 4]  # each block counted only its own

    def test_redeclare_same_name_returns_same_array(self):
        def code(ctx, out):
            a = ctx.shared("t", (4,), np.int64)
            b = ctx.shared("t", (4,), np.int64)
            out[ctx.global_id] = 1 if a is b else 0

        out = np.zeros(2, dtype=np.int64)
        run(code, block=2, out=out)
        assert np.all(out == 1)

    def test_redeclare_different_shape_raises(self):
        def code(ctx):
            ctx.shared("t", (4,), np.int64)
            ctx.shared("t", (8,), np.int64)

        with pytest.raises(ValueError):
            run(code, block=1)

    def test_shared_budget_enforced(self):
        def code(ctx):
            ctx.shared("big", (10**6,), np.float64)

        with pytest.raises(MemoryError):
            run(code, block=1)


class TestAtomics:
    def test_atomic_add_counts_all_threads(self):
        def code(ctx, out):
            ctx.atomic_add(out, 0, 1)

        out = np.zeros(1, dtype=np.int64)
        c = run(code, grid=4, block=8, out=out)
        assert out[0] == 32
        assert c.atomics == 32

    def test_atomic_add_returns_old(self):
        def code(ctx, out, olds):
            olds[ctx.global_id] = ctx.atomic_add(out, 0, 1)

        out = np.zeros(1, dtype=np.int64)
        olds = np.zeros(8, dtype=np.int64)
        run(code, block=8, out=out, olds=olds)
        assert sorted(olds.tolist()) == list(range(8))

    def test_atomic_min_counts_all_threads(self):
        def code(ctx, out):
            ctx.atomic_min(out, 0, 100 - ctx.global_id)

        out = np.full(1, 1000, dtype=np.int64)
        c = run(code, grid=4, block=8, out=out)
        assert out[0] == 100 - 31
        assert c.atomics == 32

    def test_atomic_min_returns_old(self):
        def code(ctx, out, olds):
            olds[ctx.global_id] = ctx.atomic_min(out, 0, 10 - ctx.global_id)

        out = np.full(1, 1000, dtype=np.int64)
        olds = np.zeros(8, dtype=np.int64)
        run(code, block=8, out=out, olds=olds)
        # threads run in id order here: each sees its predecessor's value
        assert olds.tolist() == [1000, 10, 9, 8, 7, 6, 5, 4]
        assert out[0] == 3

    def test_atomic_min_never_raises_a_slot(self):
        def code(ctx, out):
            ctx.atomic_min(out, ctx.global_id, 5)

        out = np.array([3, 5, 7, 9], dtype=np.int64)
        c = run(code, block=4, out=out)
        assert out.tolist() == [3, 5, 5, 5]
        # a call that leaves the slot unchanged still counts
        assert c.atomics == 4

    def test_result_reserve_and_store(self, device):
        """Each thread reserves a row of ``gid + 1`` int32 pairs with one
        atomic and stores its records in it: rows are contiguous in
        thread order, and each record costs its 2 words of stores."""
        rbuf = device.allocate_result_buffer((100, 2), np.int32)

        def code(ctx, rbuf):
            gid = ctx.global_id
            at = ctx.result_reserve(rbuf, gid + 1)
            for k in range(gid + 1):
                ctx.result_store(rbuf, at + k, (gid, k))

        c = run(code, grid=2, block=4, rbuf=rbuf)
        assert rbuf.view().tolist() == [
            [g, k] for g in range(8) for k in range(g + 1)
        ]
        assert c.atomics == 8
        assert c.global_stores == 2 * 36

    def test_result_reserve_raises_before_the_row_is_written(self, device):
        rbuf = device.allocate_result_buffer((5, 2), np.int32)
        rbuf.data[:] = -1

        def code(ctx, rbuf):
            at = ctx.result_reserve(rbuf, 3)
            for k in range(3):
                ctx.result_store(rbuf, at + k, (ctx.global_id, k))

        with pytest.raises(ResultBufferOverflow):
            run(code, block=2, rbuf=rbuf)
        assert rbuf.count == 3
        assert rbuf.data[:3].tolist() == [[0, 0], [0, 1], [0, 2]]
        assert np.all(rbuf.data[3:] == -1)


class TestCounterHooks:
    def test_manual_counters(self):
        def code(ctx):
            ctx.count_distance(3)
            ctx.count_global_load(2)
            ctx.count_shared_store()
            ctx.count_divergent()

        c = run(code, block=2)
        assert c.distance_calcs == 6
        assert c.global_loads == 4
        assert c.shared_stores == 2
        assert c.divergent_threads == 2

    def test_sync_counter(self):
        def code(ctx):
            yield ctx.syncthreads()

        c = run(code, grid=2, block=4)
        assert c.syncs == 8  # per-thread barrier crossings
