"""The simulated GPU device.

:class:`DeviceSpec` describes the hardware; the default values approximate
the NVIDIA Tesla K20c used in the paper (13 SMs, 5 GB global memory, PCIe
2.0-era host link).  :class:`Device` owns the global memory pool, the
cost model, the profiler, and the stream timeline, and provides the
host-side API (`to_device`, `from_device`, `alloc_pinned`).  Pinned
staging is host memory: a device borrows the
:class:`~repro.gpusim.memory.PinnedMemoryPool` it is given
(``Device(pinned=pool)``), so a fresh attempt device stages through
mappings its host already holds, and makes and owns a pool only when
given none.

``Device(sanitize=True)`` (or the ``GPUSAN=1`` environment variable, or
the CLI's ``--sanitize``) attaches a
:class:`~repro.gpusim.sanitizer.Sanitizer` that records every buffer
access at this API boundary and checks race/memcheck/synccheck
invariants — the simulated runtime's ``compute-sanitizer``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.gpusim.constants import WARP_SIZE, compute_rate_per_ms
from repro.gpusim.costmodel import CostModel
from repro.gpusim.faults import FaultInjector
from repro.gpusim.memory import (
    DeviceBuffer,
    GlobalMemoryPool,
    PinnedBorrower,
    PinnedHostBuffer,
    PinnedMemoryPool,
    ResultBuffer,
)
from repro.gpusim.profiler import Profiler, TransferRecord
from repro.gpusim.sanitizer import Sanitizer, SanitizerReport
from repro.gpusim.streams import Stream, Timeline

__all__ = ["DeviceSpec", "Device", "sanitize_default"]


def sanitize_default() -> bool:
    """Whether ``GPUSAN`` asks for sanitized devices by default."""
    return os.environ.get("GPUSAN", "").strip().lower() in ("1", "true", "on", "yes")


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware description of the simulated card (K20c defaults)."""

    name: str = "SimTesla-K20c"
    sm_count: int = 13
    cores_per_sm: int = 192
    clock_mhz: float = 706.0
    global_mem_bytes: int = 5 * 1024**3
    shared_mem_per_block_bytes: int = 48 * 1024
    max_threads_per_block: int = 1024
    warp_size: int = WARP_SIZE
    copy_engines: int = 2

    def cost_model(self) -> CostModel:
        """Derive a :class:`CostModel` scaled to this device's width."""
        return CostModel(
            compute_rate_per_ms=compute_rate_per_ms(
                self.sm_count, self.cores_per_sm, self.clock_mhz
            )
        )


class Device:
    """A simulated GPU: memory pool + cost model + profiler + timeline."""

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        *,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        faults: Optional[FaultInjector] = None,
        sanitize: Optional[bool] = None,
        sanitize_mode: str = "raise",
        pinned: Optional[PinnedMemoryPool] = None,
    ):
        self.spec = spec or DeviceSpec()
        self.cost = cost_model or self.spec.cost_model()
        self.memory = GlobalMemoryPool(self.spec.global_mem_bytes)
        #: pinned staging: the host's pool when one is passed (borrowed),
        #: else one this device makes and owns
        self._owns_pinned = pinned is None
        self.pinned = PinnedMemoryPool() if pinned is None else pinned
        self.profiler = Profiler()
        self.timeline = Timeline()
        self.default_stream = Stream(self.timeline, name="default")
        self.rng = np.random.default_rng(seed)
        #: optional fault-injection engine (see :mod:`repro.gpusim.faults`)
        self.faults = faults
        #: optional compute-sanitizer analogue; ``sanitize=None`` defers
        #: to the ``GPUSAN`` environment variable
        enabled = sanitize_default() if sanitize is None else bool(sanitize)
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(mode=sanitize_mode) if enabled else None
        )
        self.memory.sanitizer = self.sanitizer
        #: this device's checkouts from ``pinned``
        self.pinned_borrower = PinnedBorrower(sanitizer=self.sanitizer)

    def check_fault(self, kind: str) -> None:
        """Give the attached :class:`FaultInjector` (if any) a chance to
        raise at this point; no-op on healthy devices.

        A lost device fails *every* operation, so ``device_lost`` specs
        are checked at every hook point in addition to ``kind``; the
        same holds for ``slowdown`` specs, whose injected latency is
        recorded as profiler stall time *before* any failure check so a
        slow-then-dead device still bills its stall.
        """
        if self.faults is None:
            return
        delay = self.faults.check("slowdown")
        if delay:
            self.profiler.record_stall(delay)
        if kind != "device_lost":
            self.faults.check("device_lost")
        if kind != "slowdown":
            self.faults.check(kind)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        shape: Union[int, tuple[int, ...]],
        dtype: Union[np.dtype, str] = np.float64,
        *,
        name: str = "",
        fill: Optional[float] = None,
    ) -> DeviceBuffer:
        """Allocate device global memory."""
        self.check_fault("device_oom")
        return self.memory.allocate(shape, dtype, name=name, fill=fill)

    def allocate_result_buffer(
        self,
        capacity: int,
        dtype: Union[np.dtype, str],
        *,
        name: str = "gpuResultSet",
    ) -> ResultBuffer:
        """Allocate an append-only result buffer of ``capacity`` elements."""
        self.check_fault("device_oom")
        buf = self.memory.allocate(capacity, dtype, name=name, result_buffer=True)
        assert isinstance(buf, ResultBuffer)
        return buf

    def alloc_pinned(
        self,
        shape: Union[int, tuple[int, ...]],
        dtype: Union[np.dtype, str],
        *,
        name: str = "pinned",
    ) -> PinnedHostBuffer:
        """Check page-locked host staging out of the pool this device
        borrows (:attr:`pinned`).

        This device's profiler is charged the cost model's
        pinned-allocation time for the whole pages the pool newly maps
        to hand the buffer out: nothing when a held mapping fits, in
        full when the pool has to grow.  So the first build on a fresh
        pool pays for its staging, and later builds, on this device or
        any other borrowing the pool, reuse it.  Call the buffer's
        ``free()`` to return it, so pinned residency accounting (and the
        sanitizer's leak-at-close check) stays truthful.
        """
        buf = self.pinned.checkout(shape, dtype, name=name, borrower=self.pinned_borrower)
        if buf.mapped_bytes:
            self.profiler.record_pinned_alloc(
                self.cost.pinned_alloc_time_ms(buf.mapped_bytes)
            )
        return buf

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def to_device(
        self,
        host_array: np.ndarray,
        *,
        name: str = "",
        stream: Optional[Stream] = None,
        pinned: bool = False,
    ) -> DeviceBuffer:
        """Copy a host array into a fresh device buffer."""
        self.check_fault("transfer")
        host_array = np.ascontiguousarray(host_array)
        buf = self.allocate(host_array.shape, host_array.dtype, name=name)
        buf.data[...] = host_array
        op, s = self._record_transfer("h2d", host_array.nbytes, pinned, stream, name)
        if self.sanitizer is not None:
            self.sanitizer.record_access(buf, "write", s, op)
        return buf

    def from_device(
        self,
        buf: Union[DeviceBuffer, np.ndarray],
        *,
        out: Optional[Union[np.ndarray, PinnedHostBuffer]] = None,
        stream: Optional[Stream] = None,
        pinned: bool = False,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Copy a device buffer (or its filled prefix) back to the host.

        ``out`` may be a :class:`PinnedHostBuffer` (or a slice of one's
        array), in which case the transfer is charged at the pinned rate
        and — for the buffer form — the staging write is visible to the
        sanitizer's racecheck.
        """
        self.check_fault("transfer")
        pinned_out: Optional[PinnedHostBuffer] = None
        if isinstance(out, PinnedHostBuffer):
            pinned_out = out
            out = out.data
            pinned = True
        if self.sanitizer is not None and isinstance(buf, DeviceBuffer):
            self.sanitizer.check_use(buf, "from_device")
            if count is not None:
                self.sanitizer.check_bounds(buf, count, "from_device")
        src = buf.view() if isinstance(buf, ResultBuffer) else (
            buf.data if isinstance(buf, DeviceBuffer) else buf
        )
        if count is not None:
            src = src[:count]
        if out is None:
            out = np.empty_like(src)
        target = out[: len(src)] if out.shape != src.shape else out
        np.copyto(target, src)
        name = buf.name if isinstance(buf, DeviceBuffer) else ""
        op, s = self._record_transfer("d2h", src.nbytes, pinned, stream, name)
        if self.sanitizer is not None:
            if isinstance(buf, DeviceBuffer):
                self.sanitizer.record_access(
                    buf, "read", s, op, byte_start=0, byte_end=src.nbytes
                )
            if pinned_out is not None:
                self.sanitizer.record_access(
                    pinned_out, "write", s, op, byte_start=0, byte_end=src.nbytes
                )
        return target

    def _record_transfer(
        self,
        direction: str,
        nbytes: int,
        pinned: bool,
        stream: Optional[Stream],
        name: str,
    ):
        cost = self.cost.transfer_time_ms(nbytes, pinned=pinned)
        s = stream or self.default_stream
        op = s.submit(f"{direction}:{name}", direction, cost.milliseconds)  # type: ignore[arg-type]
        self.profiler.record_transfer(
            TransferRecord(
                direction=direction,
                nbytes=nbytes,
                modeled_ms=cost.milliseconds,
                pinned=pinned,
                stream=s.name,
            )
        )
        return op, s

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def new_stream(self, name: str = "") -> Stream:
        return Stream(self.timeline, name=name)

    def synchronize(self) -> float:
        """Join every stream (``cudaDeviceSynchronize``); returns the
        barrier instant in simulated ms."""
        return self.timeline.synchronize()

    def reset(self) -> None:
        """Clear profiler and timeline (keeps memory accounting).

        Starts a new timeline epoch: streams created before the reset
        (including the old default stream) become stale and raise on
        reuse; the default stream is recreated.
        """
        self.profiler.reset()
        self.timeline.reset()
        self.default_stream = Stream(self.timeline, name="default")
        if self.sanitizer is not None:
            self.sanitizer.clear_accesses()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def leaked_buffers(self) -> list[DeviceBuffer]:
        """Live (never-freed) device allocations."""
        return self.memory.leaked_buffers()

    def close(self) -> Optional[SanitizerReport]:
        """Teardown: report leaked device allocations and this device's
        pinned buffers still checked out to the sanitizer.

        A device that owns its pinned pool also drops the mappings the
        pool holds and reports every borrower's unreturned buffers; a
        borrowed pool stays with its owner, mappings and all.  Returns
        the sanitizer report (``None`` on unsanitized devices).  Leaks
        are reported, never raised — teardown must not mask the run's
        real outcome.
        """
        if self._owns_pinned:
            self.pinned.release_held()
        if self.sanitizer is None:
            return None
        self.sanitizer.check_leaks(self.memory.leaked_buffers())
        self.sanitizer.check_leaks(
            self.pinned.leaked_buffers(None if self._owns_pinned else self.pinned_borrower)
        )
        return self.sanitizer.report
