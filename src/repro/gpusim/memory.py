"""Device and pinned-host memory for the simulated GPU.

Global memory is a bounded pool: allocations beyond the device capacity
raise :class:`DeviceMemoryError`, which is exactly the constraint the
paper's batching scheme (Section VI) exists to avoid.  Result buffers are
append-only regions fed by an atomic cursor; writing past their capacity
raises :class:`ResultBufferOverflow` — the failure mode the overestimation
factor ``alpha`` guards against.  Page-locked host staging comes from a
grow-only :class:`PinnedMemoryPool` that each device owns, so a device
that builds many tables pays the pinned-allocation cost once.
"""

from __future__ import annotations

import itertools
import mmap
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "DeviceMemoryError",
    "ResultBufferOverflow",
    "DeviceBuffer",
    "ResultBuffer",
    "PinnedHostBuffer",
    "GlobalMemoryPool",
    "PinnedMemoryPool",
]


class DeviceMemoryError(MemoryError):
    """Raised when an allocation would exceed device global memory."""


class ResultBufferOverflow(RuntimeError):
    """Raised when a kernel appends past the end of a result buffer."""


_buffer_ids = itertools.count(1)


@dataclass
class DeviceBuffer:
    """A typed allocation in simulated device global memory.

    The payload is an ordinary NumPy array; what makes it a *device*
    buffer is its accounting against the owning
    :class:`GlobalMemoryPool` and the requirement to move data through
    the device's transfer engine (which applies the cost model) rather
    than touching ``.data`` from host code.
    """

    data: np.ndarray
    pool: "GlobalMemoryPool"
    name: str = ""
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))
    freed: bool = False

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def free(self) -> None:
        """Release the allocation back to the pool.

        A second ``free()`` is a silent no-op on plain devices but a
        ``double-free`` memcheck violation under the sanitizer — fix the
        call site rather than relying on idempotency.
        """
        if self.freed:
            san = getattr(self.pool, "sanitizer", None)
            if san is not None:
                san.on_double_free(self)
            return
        self.freed = True
        self.pool.release_buffer(self)

    def __enter__(self) -> "DeviceBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class ResultBuffer(DeviceBuffer):
    """Append-only device buffer with an atomic write cursor.

    Models the ``gpuResultSet`` of Algorithms 2 and 3: threads reserve
    slots with an atomic add and write key/value pairs.  ``capacity`` is
    the ``b_b`` of the batching scheme.
    """

    def __init__(self, data: np.ndarray, pool: "GlobalMemoryPool", name: str = ""):
        super().__init__(data=data, pool=pool, name=name)
        self._cursor = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return len(self.data)

    @property
    def count(self) -> int:
        """Number of elements appended so far."""
        return self._cursor

    def reset(self) -> None:
        """Rewind the cursor; serialized against concurrent ``reserve``."""
        with self._lock:
            self._cursor = 0

    def reserve(self, n: int) -> int:
        """Atomically reserve ``n`` slots; return the starting offset."""
        with self._lock:
            start = self._cursor
            if start + n > self.capacity:
                msg = (
                    f"result buffer '{self.name}' overflow: "
                    f"{start} + {n} > capacity {self.capacity}"
                )
                san = getattr(self.pool, "sanitizer", None)
                if san is not None:
                    # raises OutOfBoundsError (a ResultBufferOverflow
                    # subclass) in raise mode; records in record mode
                    san.on_overflow(msg)
                raise ResultBufferOverflow(msg)
            self._cursor = start + n
            return start

    def view(self) -> np.ndarray:
        """View of the filled prefix (device-side; host must copy out)."""
        return self.data[: self._cursor]


@dataclass
class PinnedHostBuffer:
    """Page-locked host staging buffer.

    Pinned memory transfers at the fast PCIe rate but is expensive to
    allocate — the model charges
    :meth:`repro.gpusim.costmodel.CostModel.pinned_alloc_time_ms` for
    the staging the device's :class:`PinnedMemoryPool` newly allocated
    to hand the buffer out (``alloc_time_ms``; 0 when held staging was
    reused), which the batching scheme's variable buffer sizing exists
    to minimize.  Pinned buffers share the device-buffer id space, a fresh
    id per checkout, so the sanitizer can track staging-buffer accesses
    (two streams staging through one pinned buffer is the canonical
    Section VI race) without mixing up two builds that reuse one
    mapping.  Call :meth:`free` when the staging buffer is retired
    (regrow, build teardown) to return it to the pool.
    """

    data: np.ndarray
    alloc_time_ms: float
    name: str = ""
    pool: Optional["PinnedMemoryPool"] = None
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))
    freed: bool = False
    #: the pool's mapping ``data`` is carved from; ``None`` for staging
    #: from the ordinary heap, which is dropped on return
    staging: Optional[mmap.mmap] = field(default=None, repr=False)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def free(self) -> None:
        """Return the staging buffer to its pool.

        Mirrors :meth:`DeviceBuffer.free`: a second ``free()`` is a
        silent no-op on plain devices but a ``double-free`` memcheck
        violation under the sanitizer.
        """
        if self.freed:
            san = getattr(self.pool, "sanitizer", None)
            if san is not None:
                san.on_double_free(self)
            return
        self.freed = True
        if self.pool is not None:
            self.pool.release_buffer(self)

    def __enter__(self) -> "PinnedHostBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class PinnedMemoryPool:
    """A device's page-locked staging: a grow-only pool.

    :meth:`checkout` hands out a :class:`PinnedHostBuffer` and its
    ``free()`` hands it back.  What the pool keeps depends on the
    *busy period*, the stretch from a checkout with nothing checked
    out to the return of the last buffer — one table build (a regrow
    swaps its buffer inside :meth:`replacing`, which keeps the period
    open even when that buffer was the only one checked out):

    * the first busy period stages from the ordinary heap and keeps nothing,
      so a device that builds once (a shard or service attempt) holds no
      staging through the rest of its life;
    * from the second busy period on, buffers are carved from page-granular
      anonymous mappings outside the malloc heap, and a returned buffer's
      mapping stays held.  A request takes the smallest held mapping
      that fits; when none fits, the pool grows: it replaces its largest
      free mapping with one of the requested size (or adds one when all
      are checked out), so it never holds more mappings than were
      checked out at once.

    Each checkout is charged ``alloc_cost`` of the staging it newly
    allocates — a whole heap buffer or a whole new mapping, nothing for
    reused staging.
    :meth:`release_held` (device teardown) drops the free mappings.
    Pinned memory is not capacity-bounded here, but page-locked pages
    are a scarce host resource, so the pool tracks every checked-out
    buffer (:meth:`leaked_buffers` is the teardown leak report) and the
    byte counters the batching and sharding layers account against:
    ``used_bytes`` (checked out), ``held_bytes`` (heap buffers checked
    out plus every held mapping) and ``peak_bytes``, the high-water mark
    of ``held_bytes``.
    """

    def __init__(self, alloc_cost: Callable[[int], float]) -> None:
        self._alloc_cost = alloc_cost
        self._used = 0
        self._lock = threading.Lock()
        self.peak_bytes = 0
        self._live: dict[int, "PinnedHostBuffer"] = {}
        #: held mappings that no buffer is carved from right now
        self._free: list[mmap.mmap] = []
        self._busy_periods = 0
        self._replacing = 0
        #: optional sanitizer (set by the owning Device; duck-typed)
        self.sanitizer = None

    @property
    def used_bytes(self) -> int:
        return self._used

    def _held(self) -> int:
        """Free mappings plus what checked-out buffers hold (lock held)."""
        return sum(len(m) for m in self._free) + sum(
            b.nbytes if b.staging is None else len(b.staging) for b in self._live.values()
        )

    @property
    def held_bytes(self) -> int:
        with self._lock:
            return self._held()

    @property
    def held_count(self) -> int:
        """Mappings the pool holds, checked out or not."""
        with self._lock:
            return len(self._free) + sum(b.staging is not None for b in self._live.values())

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def checkout(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | str,
        *,
        name: str = "pinned",
    ) -> "PinnedHostBuffer":
        """Hand out a buffer of ``shape`` and ``dtype`` (class docstring)."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        nbytes = count * dtype.itemsize
        with self._lock:
            if not self._live and not self._replacing:
                self._busy_periods += 1
            staging: Optional[mmap.mmap] = None
            allocated = nbytes
            if self._busy_periods == 1:
                data = np.empty(shape, dtype=dtype)
            else:
                fits = [m for m in self._free if len(m) >= nbytes]
                if fits:
                    staging = min(fits, key=len)
                    self._free.remove(staging)
                    allocated = 0
                else:
                    if self._free:
                        self._free.remove(max(self._free, key=len))
                    allocated = max(1, -(-nbytes // mmap.PAGESIZE)) * mmap.PAGESIZE
                    staging = mmap.mmap(-1, allocated, flags=mmap.MAP_PRIVATE)
                data = np.frombuffer(staging, dtype=dtype, count=count).reshape(shape)
            buf = PinnedHostBuffer(
                data=data,
                alloc_time_ms=self._alloc_cost(allocated) if allocated else 0.0,
                name=name,
                pool=self,
                staging=staging,
            )
            self._used += nbytes
            self._live[buf.buffer_id] = buf
            self.peak_bytes = max(self.peak_bytes, self._held())
        return buf

    def release_buffer(self, buf: "PinnedHostBuffer") -> None:
        with self._lock:
            self._used -= buf.nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("pinned memory pool underflow")
            self._live.pop(buf.buffer_id, None)
            if buf.staging is not None:
                self._free.append(buf.staging)
        if self.sanitizer is not None:
            self.sanitizer.on_free(buf)

    @contextmanager
    def replacing(self) -> Iterator[None]:
        """Keep the busy period open while a buffer is returned and its
        replacement checked out, so a regrow stays part of its build
        even when the returned buffer was the only one checked out."""
        with self._lock:
            self._replacing += 1
        try:
            yield
        finally:
            with self._lock:
                self._replacing -= 1

    def release_held(self) -> None:
        """Drop every free mapping (device teardown).  A mapping is
        unmapped once no array views it; checked-out buffers stay live,
        so the leak report still names them."""
        with self._lock:
            self._free.clear()

    def leaked_buffers(self) -> list["PinnedHostBuffer"]:
        """Checked-out (never-returned) pinned buffers."""
        with self._lock:
            return list(self._live.values())


class GlobalMemoryPool:
    """Capacity accounting for device global memory.

    The pool tracks every live :class:`DeviceBuffer` it has handed out
    (:meth:`leaked_buffers` is the teardown leak report), and forwards
    double-free / overflow observations to an attached sanitizer.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("device memory capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._used = 0
        self._lock = threading.Lock()
        self.peak_bytes = 0
        self._live: dict[int, "DeviceBuffer"] = {}
        #: optional :class:`repro.gpusim.sanitizer.Sanitizer` (set by the
        #: owning Device; duck-typed to avoid an import cycle)
        self.sanitizer = None

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def reserve(self, nbytes: int) -> None:
        with self._lock:
            if self._used + nbytes > self.capacity_bytes:
                raise DeviceMemoryError(
                    f"device OOM: requested {nbytes} B with "
                    f"{self.capacity_bytes - self._used} B free "
                    f"(capacity {self.capacity_bytes} B)"
                )
            self._used += nbytes
            self.peak_bytes = max(self.peak_bytes, self._used)

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._used -= nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("global memory pool underflow")

    def release_buffer(self, buf: "DeviceBuffer") -> None:
        """Release a tracked buffer's bytes and drop it from the live set."""
        with self._lock:
            self._used -= buf.nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("global memory pool underflow")
            self._live.pop(buf.buffer_id, None)
        if self.sanitizer is not None:
            self.sanitizer.on_free(buf)

    def leaked_buffers(self) -> list["DeviceBuffer"]:
        """Live (never-freed) allocations — the teardown leak report."""
        with self._lock:
            return list(self._live.values())

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def allocate(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | str = np.float64,
        *,
        name: str = "",
        result_buffer: bool = False,
        fill: Optional[float] = None,
    ) -> DeviceBuffer:
        """Allocate a :class:`DeviceBuffer` (or :class:`ResultBuffer`)."""
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        self.reserve(arr.nbytes)
        if result_buffer:
            buf: DeviceBuffer = ResultBuffer(arr, self, name=name)
        else:
            buf = DeviceBuffer(data=arr, pool=self, name=name)
        with self._lock:
            self._live[buf.buffer_id] = buf
        return buf
