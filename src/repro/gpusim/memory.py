"""Device and pinned-host memory for the simulated GPU.

Global memory is a bounded pool: allocations beyond the device capacity
raise :class:`DeviceMemoryError`, which is exactly the constraint the
paper's batching scheme (Section VI) exists to avoid.  Result buffers are
append-only regions fed by an atomic cursor; writing past their capacity
raises :class:`ResultBufferOverflow` — the failure mode the overestimation
factor ``alpha`` guards against.  Page-locked host staging comes from a
grow-only :class:`PinnedMemoryPool` that belongs to the host: devices
borrow it, so every build after the pool's first, on any device that
borrows it, stages through mappings already held and pays the
pinned-allocation cost only when the pool grows.
"""

from __future__ import annotations

import itertools
import mmap
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

__all__ = [
    "DeviceMemoryError",
    "ResultBufferOverflow",
    "DeviceBuffer",
    "ResultBuffer",
    "PinnedBorrower",
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
class PinnedBorrower:
    """One device's share of a :class:`PinnedMemoryPool` it borrows.

    The pool updates the byte counters under its lock at every checkout
    and return of a buffer the borrower checked out; its buffers send
    their free and double-free reports to ``sanitizer``.
    """

    #: the borrowing device's sanitizer (duck-typed; ``None`` when off)
    sanitizer: Any = None
    #: bytes the borrower has checked out now
    used_bytes: int = 0
    #: high-water mark of ``used_bytes``
    peak_bytes: int = 0


@dataclass
class PinnedHostBuffer:
    """Page-locked host staging buffer, carved from a held mapping.

    Pinned memory transfers at the fast PCIe rate but is expensive to
    allocate: the borrowing device charges
    :meth:`repro.gpusim.costmodel.CostModel.pinned_alloc_time_ms` for
    ``mapped_bytes``, the whole pages the pool newly mapped to hand the
    buffer out (0 when it reused a mapping it holds).  The batching
    scheme's variable buffer sizing exists to keep that small.  Pinned
    buffers share the device-buffer id space, a fresh id per checkout,
    so the sanitizer can track staging-buffer accesses (two streams
    staging through one pinned buffer is the canonical Section VI race)
    without mixing up two builds that reuse one mapping.  Call
    :meth:`free` when the staging buffer is retired (regrow, build
    teardown) to return it to the pool.
    """

    data: np.ndarray
    #: the pool's mapping ``data`` is carved from
    staging: mmap.mmap = field(repr=False)
    pool: "PinnedMemoryPool" = field(repr=False)
    #: bytes the pool newly mapped for this checkout (0 on reuse)
    mapped_bytes: int = 0
    name: str = ""
    #: the share of the device that checked the buffer out
    borrower: Optional[PinnedBorrower] = field(default=None, repr=False)
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))
    freed: bool = False

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    @property
    def sanitizer(self):
        """The borrowing device's sanitizer (``None`` when off)."""
        return None if self.borrower is None else self.borrower.sanitizer

    def free(self) -> None:
        """Return the staging buffer to its pool.

        Mirrors :meth:`DeviceBuffer.free`: a second ``free()`` is a
        silent no-op on plain devices but a ``double-free`` memcheck
        violation under the borrowing device's sanitizer.
        """
        if self.freed:
            if self.sanitizer is not None:
                self.sanitizer.on_double_free(self)
            return
        self.freed = True
        self.pool.release_buffer(self)

    def __enter__(self) -> "PinnedHostBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class PinnedMemoryPool:
    """Page-locked host staging: a grow-only pool that devices borrow.

    Staging is host memory, so the pool belongs to the host object that
    outlives its devices: a :class:`~repro.core.HybridDBSCAN` (its
    device's pool, which its sharded attempts borrow too) or a
    :class:`~repro.service.ClusteringService`.  A bare
    :class:`~repro.gpusim.device.Device` makes and owns one.

    :meth:`checkout` hands out a :class:`PinnedHostBuffer` carved from a
    page-granular anonymous mapping outside the malloc heap, and its
    ``free()`` hands the mapping back, where the pool keeps it.  A
    request takes the smallest held mapping that fits; when none fits,
    the pool grows: it replaces its largest free mapping with one of the
    requested size, in whole pages (or adds one when all are checked
    out), so it never holds more mappings than were checked out at
    once.  Only a new mapping costs anything (``mapped_bytes``), so an
    attempt's fresh device stages through mappings the host already
    holds and pays only when the pool grows.

    :meth:`release_held` (the owner's teardown) drops the free mappings.
    Pinned memory is not capacity-bounded here, but page-locked pages
    are a scarce host resource, so the pool tracks every checked-out
    buffer and who borrowed it (:meth:`leaked_buffers` is the teardown
    leak report) and the byte counters the batching and sharding layers
    account against: ``used_bytes`` (checked out), ``held_bytes`` (every
    held mapping, checked out or not) and ``peak_bytes``, the high-water
    mark of ``held_bytes``.  Each borrower's own checked-out bytes are
    on its :class:`PinnedBorrower`.
    """

    def __init__(self) -> None:
        self._used = 0
        self._lock = threading.Lock()
        self.peak_bytes = 0
        self._live: dict[int, PinnedHostBuffer] = {}
        #: held mappings that no buffer is carved from right now
        self._free: list[mmap.mmap] = []

    @property
    def used_bytes(self) -> int:
        return self._used

    def _held(self) -> int:
        """Every held mapping's bytes (lock held)."""
        return sum(len(m) for m in self._free) + sum(
            len(b.staging) for b in self._live.values()
        )

    @property
    def held_bytes(self) -> int:
        with self._lock:
            return self._held()

    @property
    def held_count(self) -> int:
        """Mappings the pool holds, checked out or not."""
        with self._lock:
            return len(self._free) + len(self._live)

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
        borrower: Optional[PinnedBorrower] = None,
    ) -> PinnedHostBuffer:
        """Hand out a buffer of ``shape`` and ``dtype`` (class docstring);
        its ``mapped_bytes`` reports what the pool newly mapped."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        nbytes = count * dtype.itemsize
        with self._lock:
            fits = [m for m in self._free if len(m) >= nbytes]
            if fits:
                staging = min(fits, key=len)
                self._free.remove(staging)
                mapped = 0
            else:
                if self._free:
                    self._free.remove(max(self._free, key=len))
                mapped = max(1, -(-nbytes // mmap.PAGESIZE)) * mmap.PAGESIZE
                staging = mmap.mmap(-1, mapped, flags=mmap.MAP_PRIVATE)
            buf = PinnedHostBuffer(
                data=np.frombuffer(staging, dtype=dtype, count=count).reshape(shape),
                staging=staging,
                pool=self,
                mapped_bytes=mapped,
                name=name,
                borrower=borrower,
            )
            self._used += nbytes
            self._live[buf.buffer_id] = buf
            self.peak_bytes = max(self.peak_bytes, self._held())
            if borrower is not None:
                borrower.used_bytes += nbytes
                borrower.peak_bytes = max(borrower.peak_bytes, borrower.used_bytes)
        return buf

    def release_buffer(self, buf: PinnedHostBuffer) -> None:
        with self._lock:
            self._used -= buf.nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("pinned memory pool underflow")
            self._live.pop(buf.buffer_id, None)
            self._free.append(buf.staging)
            if buf.borrower is not None:
                buf.borrower.used_bytes -= buf.nbytes
        if buf.sanitizer is not None:
            buf.sanitizer.on_free(buf)

    def release_held(self) -> None:
        """Drop every free mapping (the owner's teardown).  A mapping is
        unmapped once no array views it; checked-out buffers stay live,
        so the leak report still names them."""
        with self._lock:
            self._free.clear()

    def leaked_buffers(
        self, borrower: Optional[PinnedBorrower] = None
    ) -> list[PinnedHostBuffer]:
        """Checked-out (never-returned) buffers: ``borrower``'s only,
        or every borrower's when it is ``None``."""
        with self._lock:
            return [
                b for b in self._live.values()
                if borrower is None or b.borrower is borrower
            ]


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
