"""Device-code API for kernels run by the SIMT interpreter.

Kernel *device code* is written as a Python generator function taking a
:class:`KernelContext` first — the analogue of CUDA's implicit
``threadIdx``/``blockIdx`` plus shared memory and atomics:

.. code-block:: python

    def device_code(ctx, data, out):
        gid = ctx.global_id
        if gid >= len(data):
            return
        tile = ctx.shared("tile", (ctx.block_dim,), np.float64)
        tile[ctx.thread_idx] = data[gid]
        yield ctx.syncthreads()          # block-level barrier
        ctx.atomic_add(out, 0, tile[ctx.thread_idx])

Barriers **must** be expressed as ``yield ctx.syncthreads()``; the
interpreter suspends the thread at each yield and resumes the block in
lockstep phases.  Threads may ``return`` early (the ubiquitous
``if gid >= n: return`` guard); a thread that returns between two
barriers that its block-mates still execute triggers
:class:`BarrierDivergenceError`, mirroring the CUDA undefined behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.memory import DeviceBuffer, ResultBuffer
from repro.gpusim.sanitizer import SynccheckError

__all__ = [
    "Barrier",
    "BarrierDivergenceError",
    "BlockState",
    "KernelContext",
    "device_array",
]


class BarrierDivergenceError(SynccheckError):
    """Threads of one block disagreed about reaching a barrier.

    A :class:`~repro.gpusim.sanitizer.SynccheckError`: this is the bug
    class ``compute-sanitizer --tool synccheck`` exists for.
    """


@dataclass(frozen=True)
class Barrier:
    """Sentinel yielded by device code at a ``syncthreads``."""

    sequence: int


@dataclass
class BlockState:
    """State shared by all threads of one block (shared memory, barrier #)."""

    block_idx: int
    block_dim: int
    shared_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    shared_bytes: int = 0


def _as_array(buf: Union[DeviceBuffer, np.ndarray]) -> np.ndarray:
    return buf.data if isinstance(buf, DeviceBuffer) else buf


def device_array(buf):
    """Unwrap a :class:`DeviceBuffer` to its backing array.

    ``None`` and plain arrays pass through.  This is the one whitelisted
    way for ``device_code`` to accept either a ``DeviceBuffer`` or a raw
    ndarray argument: the static analyses (gpulint GS005, kernelcheck
    KC005) treat it as the identity on the underlying buffer, so the
    array keeps its provenance through the unwrap.
    """
    return buf.data if isinstance(buf, DeviceBuffer) else buf


class KernelContext:
    """Per-thread view of the device, handed to device code."""

    def __init__(
        self,
        thread_idx: int,
        block: BlockState,
        grid_dim: int,
        counters: KernelCounters,
        shared_mem_limit: int,
    ):
        self.thread_idx = thread_idx
        self._block = block
        self.grid_dim = grid_dim
        self._counters = counters
        self._shared_mem_limit = shared_mem_limit
        self._barrier_count = 0

    # -- geometry ------------------------------------------------------
    @property
    def block_idx(self) -> int:
        return self._block.block_idx

    @property
    def block_dim(self) -> int:
        return self._block.block_dim

    @property
    def global_id(self) -> int:
        """``blockIdx.x * blockDim.x + threadIdx.x``."""
        return self._block.block_idx * self._block.block_dim + self.thread_idx

    # -- shared memory ---------------------------------------------------
    def shared(
        self, name: str, shape: tuple[int, ...] | int, dtype: Union[np.dtype, str]
    ) -> np.ndarray:
        """Get (or create) a block-shared array.

        All threads of a block receive the same array; requesting the
        same name with an incompatible shape/dtype is an error, and
        exceeding the per-block shared memory budget raises.
        """
        block = self._block
        if name in block.shared_arrays:
            arr = block.shared_arrays[name]
            want = np.empty(shape, dtype=dtype)
            if arr.shape != want.shape or arr.dtype != want.dtype:
                raise ValueError(
                    f"shared array {name!r} redeclared with different "
                    f"shape/dtype ({arr.shape}/{arr.dtype} vs "
                    f"{want.shape}/{want.dtype})"
                )
            return arr
        arr = np.zeros(shape, dtype=dtype)
        if block.shared_bytes + arr.nbytes > self._shared_mem_limit:
            raise MemoryError(
                f"shared memory over budget in block {block.block_idx}: "
                f"{block.shared_bytes + arr.nbytes} > {self._shared_mem_limit}"
            )
        block.shared_bytes += arr.nbytes
        block.shared_arrays[name] = arr
        return arr

    # -- synchronization -------------------------------------------------
    def syncthreads(self) -> Barrier:
        """Produce a barrier token; device code must ``yield`` it."""
        self._barrier_count += 1
        self._counters.syncs += 1
        return Barrier(sequence=self._barrier_count)

    # -- atomics -----------------------------------------------------------
    def atomic_add(
        self, buf: Union[DeviceBuffer, np.ndarray], index: int, value
    ):
        """Atomic read-modify-write add; returns the old value."""
        arr = _as_array(buf)
        old = arr[index]
        arr[index] = old + value
        self._counters.atomics += 1
        return old

    def atomic_min(
        self, buf: Union[DeviceBuffer, np.ndarray], index: int, value
    ):
        """Atomic read-modify-write minimum; returns the old value."""
        arr = _as_array(buf)
        old = arr[index]
        if value < old:
            arr[index] = value
        self._counters.atomics += 1
        return old

    def result_reserve(self, buf: ResultBuffer, n: int) -> int:
        """Reserve a row of ``n`` records with one atomic cursor bump;
        returns its first slot.  Raises
        :class:`~repro.gpusim.memory.ResultBufferOverflow` before any
        record of the row is written."""
        start = buf.reserve(n)
        self._counters.count_appends(buf, 0, rows=1)
        return start

    def result_store(
        self, buf: ResultBuffer, at: int, record: tuple[float, ...]
    ) -> None:
        """Write one record — ``(key, value)`` or ``(key, value, dist)``
        — into slot ``at`` of a reserved row."""
        buf.data[at] = record
        self._counters.count_appends(buf, 1, rows=0)

    # -- counter hooks ----------------------------------------------------
    def count_distance(self, n: int = 1) -> None:
        self._counters.distance_calcs += n

    def count_global_load(self, n: int = 1) -> None:
        self._counters.global_loads += n

    def count_global_store(self, n: int = 1) -> None:
        self._counters.global_stores += n

    def count_shared_load(self, n: int = 1) -> None:
        self._counters.shared_loads += n

    def count_shared_store(self, n: int = 1) -> None:
        self._counters.shared_stores += n

    def count_divergent(self, n: int = 1) -> None:
        self._counters.divergent_threads += n
