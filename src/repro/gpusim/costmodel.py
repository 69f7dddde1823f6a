"""Analytic timing model for the simulated device.

The model converts operation *counters* (threads launched, distance
calculations, memory transactions, atomics, barriers) into simulated
milliseconds.  It is deliberately simple — a roofline-style
``max(compute, memory)`` plus per-block scheduling overhead — but it is
calibrated to reproduce the *relationships* the paper measures:

* kernels dominated by per-block overhead (many small blocks, as in
  ``GPUCalcShared`` on uniform data with small cells) are slower than a
  one-thread-per-point kernel;
* host–device transfers pay latency plus ``bytes / bandwidth``, with pinned
  memory enjoying higher bandwidth but an expensive allocation;
* device-side sort costs ``n log n`` key/value movements at global-memory
  bandwidth.

All returned times are in **milliseconds** of simulated device time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.gpusim import constants as K

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.gpusim.memory import ResultBuffer

__all__ = ["KernelCounters", "CostModel", "TransferCost"]


@dataclass
class KernelCounters:
    """Operation counts gathered from one kernel launch.

    The interpreter fills these exactly; the vector backends fill them
    analytically from the same quantities (candidate pairs examined,
    results emitted, blocks launched).
    """

    threads: int = 0
    blocks: int = 0
    #: point-to-point distance evaluations (the kernels' compute core)
    distance_calcs: int = 0
    #: 4-byte-equivalent global memory loads
    global_loads: int = 0
    #: 4-byte-equivalent global memory stores
    global_stores: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    #: atomic operations on global memory (result-set appends)
    atomics: int = 0
    #: block-level barrier crossings (``syncthreads`` * blocks)
    syncs: int = 0
    #: threads that took a divergent branch within their warp
    divergent_threads: int = 0

    def count_appends(self, result: ResultBuffer, records: int, rows: int) -> None:
        """``records`` written to ``result`` in ``rows`` reserved rows:
        one atomic cursor bump per row, and one store per 4-byte word of
        each record — 2 for an int32 pair, 6 for a float64 ``(key,
        value, dist)`` row.  Every backend charges result rows here."""
        record = result.data.itemsize * math.prod(result.data.shape[1:])
        self.atomics += rows
        self.global_stores += records * max(1, record // 4)

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate ``other`` into ``self`` (used across batches)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class TransferCost:
    """Modelled cost of one host<->device copy."""

    bytes: int
    milliseconds: float
    pinned: bool


@dataclass
class CostModel:
    """Roofline-style device timing model.

    Parameters are expressed in device-native units so a
    :class:`~repro.gpusim.device.DeviceSpec` can derive a model from its
    hardware description.
    """

    #: distance evaluations the device retires per millisecond
    compute_rate_per_ms: float = K.DEFAULT_COMPUTE_RATE_PER_MS
    #: global-memory transactions (4B) serviced per millisecond
    gmem_rate_per_ms: float = K.GMEM_RATE_PER_MS
    #: shared-memory transactions per millisecond (~an order faster)
    smem_rate_per_ms: float = K.SMEM_RATE_PER_MS
    #: serialized atomic ops per millisecond
    atomic_rate_per_ms: float = K.ATOMIC_RATE_PER_MS
    #: fixed kernel launch overhead
    launch_overhead_ms: float = K.LAUNCH_OVERHEAD_MS
    #: per-block scheduling cost (drives GPUCalcShared's degradation)
    block_overhead_ms: float = K.BLOCK_OVERHEAD_MS
    #: per-barrier cost, per block
    sync_overhead_ms: float = K.SYNC_OVERHEAD_MS
    #: penalty factor applied to divergent threads' compute
    divergence_penalty: float = K.DIVERGENCE_PENALTY
    #: host<->device bandwidth for pageable memory (GB/s)
    pageable_bandwidth_gbs: float = K.PAGEABLE_BANDWIDTH_GBS
    #: host<->device bandwidth for pinned memory (GB/s)
    pinned_bandwidth_gbs: float = K.PINNED_BANDWIDTH_GBS
    #: per-transfer latency (ms)
    transfer_latency_ms: float = K.TRANSFER_LATENCY_MS
    #: pinned allocation cost per MiB (ms) — pinning pages is expensive
    pinned_alloc_ms_per_mib: float = K.PINNED_ALLOC_MS_PER_MIB
    #: key/value elements the device sort moves per millisecond
    sort_rate_per_ms: float = K.SORT_RATE_PER_MS

    def kernel_time_ms(self, c: KernelCounters, *, occupancy: float = 1.0) -> float:
        """Simulated execution time of a kernel launch.

        ``occupancy`` (0, 1] scales the effective compute rate: low SM
        residency leaves latency unhidden (see
        :mod:`repro.gpusim.occupancy`).
        """
        if not 0 < occupancy <= 1:
            raise ValueError("occupancy must be in (0, 1]")
        compute = (
            c.distance_calcs + self.divergence_penalty * c.divergent_threads
        ) / (self.compute_rate_per_ms * occupancy)
        memory = (
            (c.global_loads + c.global_stores) / self.gmem_rate_per_ms
            + (c.shared_loads + c.shared_stores) / self.smem_rate_per_ms
        )
        atomics = c.atomics / self.atomic_rate_per_ms
        overhead = (
            self.launch_overhead_ms
            + c.blocks * self.block_overhead_ms
            + c.syncs * self.sync_overhead_ms
        )
        return max(compute, memory) + atomics + overhead

    def transfer_time_ms(self, nbytes: int, *, pinned: bool) -> TransferCost:
        """Simulated host<->device copy time for ``nbytes``."""
        gbs = self.pinned_bandwidth_gbs if pinned else self.pageable_bandwidth_gbs
        ms = self.transfer_latency_ms + nbytes / (gbs * 1e6)
        return TransferCost(bytes=nbytes, milliseconds=ms, pinned=pinned)

    def pinned_alloc_time_ms(self, nbytes: int) -> float:
        """Simulated cost of allocating ``nbytes`` of pinned host memory."""
        return self.pinned_alloc_ms_per_mib * nbytes / (1024 * 1024)

    def sort_time_ms(self, n: int) -> float:
        """Simulated device-side ``sort_by_key`` time for ``n`` pairs."""
        if n <= 1:
            return self.launch_overhead_ms
        passes = max(1.0, math.log2(n) / 8.0)  # radix passes over 8-bit digits
        return self.launch_overhead_ms + passes * n / self.sort_rate_per_ms
