"""KC005 seeds: array accesses the bounds prover must reject.

Each kernel ships a ``value_invariants()`` contract (KC005 only proves
global accesses against declared lengths), and each contains exactly one
way an access escapes its buffer: no guard at all, an off-by-one guard,
a shared-memory write past the block-sized shape, and a gather and an
atomic minimum whose index array may hold a ``-1`` sentinel.
"""

import numpy as np

from repro.analysis.absint import KernelInvariants
from repro.gpusim.kernelapi import KernelContext
from repro.gpusim.launch import Kernel


class OobUnguardedKernel(Kernel):
    """No ``gid >= n`` guard: the grid is padded to whole blocks, so the
    tail threads index past the buffer."""

    name = "BadOobUnguarded"

    def value_invariants(self):
        return KernelInvariants(
            lengths={"out": "n"}, scalars={"n": (1, None)}
        )

    def device_code(self, ctx: KernelContext, *, out: np.ndarray, n: int) -> None:
        gid = ctx.global_id
        out[gid] = gid


class OobOffByOneKernel(Kernel):
    """The guard reads ``>`` where it needs ``>=``: thread ``gid == n``
    slips through and writes ``out[n]``."""

    name = "BadOobOffByOne"

    def value_invariants(self):
        return KernelInvariants(
            lengths={"out": "n"}, scalars={"n": (1, None)}
        )

    def device_code(self, ctx: KernelContext, *, out: np.ndarray, n: int) -> None:
        gid = ctx.global_id
        if gid > n:
            return
        out[gid] = gid


class OobSharedWriteKernel(Kernel):
    """Neighbour-slot shared write without a wrap: ``buf[tid + 1]``
    escapes the ``(block_dim,)`` shape on the last thread."""

    name = "BadOobSharedWrite"

    def shared_mem_per_block(self, block_dim: int) -> int:
        return 8 * block_dim

    def value_invariants(self):
        return KernelInvariants(lengths={}, scalars={})

    def device_code(self, ctx: KernelContext, *, out: np.ndarray) -> None:
        tid = ctx.thread_idx
        buf = ctx.shared("buf", (ctx.block_dim,), np.int64)
        buf[tid + 1] = tid


class OobNegativeGatherKernel(Kernel):
    """Gather through an index array whose contract admits the ``-1``
    empty-cell sentinel — the load needs a ``>= 0`` test first."""

    name = "BadOobNegativeGather"

    def value_invariants(self):
        return KernelInvariants(
            lengths={"idx": "m", "out": "n"},
            scalars={"m": (1, None), "n": (1, None)},
            elements={"idx": (-1, "n-1")},
        )

    def device_code(self, ctx: KernelContext, *, idx: np.ndarray, out: np.ndarray) -> None:
        gid = ctx.global_id
        if gid >= len(idx):
            return
        j = idx[gid]
        out[j] = 1


class OobNegativeAtomicMinKernel(Kernel):
    """An atomic minimum into a slot gathered from an index array that
    admits the ``-1`` sentinel: an atomic is a write, and KC005 bounds
    its index like any store."""

    name = "BadOobNegativeAtomicMin"

    def value_invariants(self):
        return KernelInvariants(
            lengths={"idx": "m", "out": "n"},
            scalars={"m": (1, None), "n": (1, None)},
            elements={"idx": (-1, "n-1")},
        )

    def device_code(self, ctx: KernelContext, *, idx: np.ndarray, out: np.ndarray) -> None:
        gid = ctx.global_id
        if gid >= len(idx):
            return
        j = idx[gid]
        ctx.atomic_min(out, j, gid)
