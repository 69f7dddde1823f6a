"""Profiler for the simulated device — the NVIDIA Visual Profiler analogue.

Section VII-C of the paper obtains kernel response times and launched
thread counts (``nGPU``) from the Visual Profiler; this module records the
same quantities for every kernel launch, transfer, and device sort.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

from repro.gpusim.costmodel import KernelCounters

__all__ = ["KernelRecord", "TransferRecord", "SortRecord", "Profiler"]


@dataclass
class KernelRecord:
    """Metrics from one kernel launch."""

    name: str
    grid_dim: int
    block_dim: int
    modeled_ms: float
    wall_s: float
    counters: KernelCounters
    stream: Optional[str] = None
    backend: str = "vector"

    @property
    def n_gpu(self) -> int:
        """Total threads launched (blocks * block size) — paper's nGPU."""
        return self.grid_dim * self.block_dim


@dataclass
class TransferRecord:
    """Metrics from one host<->device copy."""

    direction: str  # "h2d" | "d2h"
    nbytes: int
    modeled_ms: float
    pinned: bool
    stream: Optional[str] = None


@dataclass
class SortRecord:
    """Metrics from one device-side sort_by_key."""

    n: int
    modeled_ms: float
    stream: Optional[str] = None


class Profiler:
    """Accumulates records across a device's lifetime (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.kernels: list[KernelRecord] = []
        self.transfers: list[TransferRecord] = []
        self.sorts: list[SortRecord] = []
        self.pinned_alloc_ms: float = 0.0
        #: injected latency (slowdown faults) billed to this device
        self.stall_ms: float = 0.0

    def record_kernel(self, rec: KernelRecord) -> None:
        with self._lock:
            self.kernels.append(rec)

    def record_transfer(self, rec: TransferRecord) -> None:
        with self._lock:
            self.transfers.append(rec)

    def record_sort(self, rec: SortRecord) -> None:
        with self._lock:
            self.sorts.append(rec)

    def record_pinned_alloc(self, ms: float) -> None:
        with self._lock:
            self.pinned_alloc_ms += ms

    def record_stall(self, ms: float) -> None:
        """Bill injected latency (a ``slowdown`` fault) to the device."""
        with self._lock:
            self.stall_ms += ms

    # ------------------------------------------------------------------
    # aggregation (stream workers append records in a thread-dependent
    # order, so modeled times are summed with math.fsum, whose result
    # does not depend on that order)
    # ------------------------------------------------------------------
    def kernel_time_ms(self, name: Optional[str] = None) -> float:
        return math.fsum(
            k.modeled_ms for k in self.kernels if name is None or k.name == name
        )

    def transfer_time_ms(self, direction: Optional[str] = None) -> float:
        return math.fsum(
            t.modeled_ms
            for t in self.transfers
            if direction is None or t.direction == direction
        )

    def transfer_bytes(self, direction: Optional[str] = None) -> int:
        return sum(
            t.nbytes
            for t in self.transfers
            if direction is None or t.direction == direction
        )

    def sort_time_ms(self) -> float:
        return math.fsum(s.modeled_ms for s in self.sorts)

    def total_device_ms(self) -> float:
        """Serialized device milliseconds (kernels + sorts + transfers +
        pinned allocation + injected stalls), summed as
        :meth:`device_ms_since` sums them, independent of record order."""
        return self.device_ms_since((0, 0, 0, 0.0, 0.0))

    def mark(self) -> tuple[int, int, int, float, float]:
        """Where the records stand now, for :meth:`device_ms_since`."""
        with self._lock:
            return (
                len(self.kernels),
                len(self.transfers),
                len(self.sorts),
                self.pinned_alloc_ms,
                self.stall_ms,
            )

    def device_ms_since(self, mark: tuple[int, int, int, float, float]) -> float:
        """The :meth:`total_device_ms` terms recorded since ``mark``."""
        nk, nt, ns, pinned, stall = mark
        with self._lock:
            terms = [k.modeled_ms for k in self.kernels[nk:]]
            terms += [t.modeled_ms for t in self.transfers[nt:]]
            terms += [s.modeled_ms for s in self.sorts[ns:]]
            terms += [self.pinned_alloc_ms - pinned, self.stall_ms - stall]
        return math.fsum(terms)

    def counters(self, name: Optional[str] = None) -> KernelCounters:
        total = KernelCounters()
        for k in self.kernels:
            if name is None or k.name == name:
                total.merge(k.counters)
        return total

    def reset(self) -> None:
        with self._lock:
            self.kernels.clear()
            self.transfers.clear()
            self.sorts.clear()
            self.pinned_alloc_ms = 0.0
            self.stall_ms = 0.0

    def summary(self) -> dict:
        """Flat dict of headline metrics (for bench reports)."""
        return {
            "kernel_launches": len(self.kernels),
            "kernel_ms": self.kernel_time_ms(),
            "n_gpu_total": sum(k.n_gpu for k in self.kernels),
            "sorts": len(self.sorts),
            "sort_ms": self.sort_time_ms(),
            "transfers": len(self.transfers),
            "transfer_ms": self.transfer_time_ms(),
            "h2d_bytes": self.transfer_bytes("h2d"),
            "d2h_bytes": self.transfer_bytes("d2h"),
            "pinned_alloc_ms": self.pinned_alloc_ms,
            "stall_ms": self.stall_ms,
            "total_device_ms": self.total_device_ms(),
        }
