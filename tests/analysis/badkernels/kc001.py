"""KC001 seeds: barriers control-dependent on thread-dependent state."""

import numpy as np

from repro.gpusim.kernelapi import KernelContext
from repro.gpusim.launch import Kernel


class BranchBarrierKernel(Kernel):
    """Barrier inside a tid-dependent branch with no sibling barrier —
    threads where ``tid >= 16`` never arrive and the block hangs."""

    name = "BadBranchBarrier"

    def device_code(self, ctx: KernelContext, *, out: np.ndarray) -> None:
        tid = ctx.thread_idx
        if tid < 16:
            yield ctx.syncthreads()
        out[tid] = 1


class EarlyReturnKernel(Kernel):
    """Thread-dependent early return that skips a downstream barrier —
    the returned threads are missing at the rendezvous."""

    name = "BadEarlyReturn"

    def device_code(self, ctx: KernelContext, *, out: np.ndarray) -> None:
        tid = ctx.thread_idx
        if tid >= 8:
            return
        yield ctx.syncthreads()
        out[tid] = 1


class TidTripLoopKernel(Kernel):
    """Barrier inside a loop whose trip count is the thread id — thread
    ``t`` arrives ``t`` times, so the block's threads run different
    barrier sequences."""

    name = "BadTidTripLoop"

    def device_code(self, ctx: KernelContext, *, out: np.ndarray) -> None:
        tid = ctx.thread_idx
        for _ in range(tid):
            yield ctx.syncthreads()
        out[tid] = 1


class DivergentUnionFindKernel(Kernel):
    """A plausible-looking barrier-synchronized pointer-jumping
    union-find whose converged threads bail out of the round loop early
    — they skip the remaining per-round barriers while their neighbors
    keep arriving, and the block hangs.  (The shipped
    ``ClusterUnionFind`` avoids this by being barrier-free: rounds are
    separate launches, convergence is a device-side flag the host
    polls.)"""

    name = "BadDivergentUnionFind"

    def device_code(self, ctx: KernelContext, *, labels: np.ndarray) -> None:
        tid = ctx.thread_idx
        for _ in range(8):
            if labels[tid] == tid:
                return  # converged threads desert the round barrier
            labels[tid] = labels[labels[tid]]
            yield ctx.syncthreads()
