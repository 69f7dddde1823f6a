"""Device-side primitives in the style of the CUDA Thrust library.

Algorithm 4 leaves the kernel's key/value result set on the device and
sorts it by key (``thrust::sort_by_key``) so identical keys become
adjacent before the single transfer to the host.  ``sort_by_key`` here is
stable, operates on device buffers in place, charges the cost model, and
supports stream placement — the Thrust execution-policy analogue.  The
table build does not call it: each kernel thread reserves its whole row
and writes it in place, so identical keys are adjacent already
(:mod:`repro.core.batching`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.memory import DeviceBuffer, ResultBuffer
from repro.gpusim.profiler import SortRecord
from repro.gpusim.streams import Stream

__all__ = ["sort_by_key", "sort_pairs", "reduce_sum"]


def _filled(buf: DeviceBuffer) -> np.ndarray:
    return buf.view() if isinstance(buf, ResultBuffer) else buf.data


def _record(device: Device, bufs, kind: str, stream: Stream, op) -> None:
    """Report buffer accesses of one Thrust call to the sanitizer."""
    san = device.sanitizer
    if san is None:
        return
    for buf in bufs:
        san.record_access(buf, kind, stream, op)


def _check_use(device: Device, bufs, context: str) -> None:
    san = device.sanitizer
    if san is None:
        return
    for buf in bufs:
        san.check_use(buf, context)


def sort_by_key(
    keys: DeviceBuffer,
    values: DeviceBuffer,
    device: Device,
    *,
    stream: Optional[Stream] = None,
) -> int:
    """Stable in-place sort of ``values`` by ``keys`` on the device.

    Returns the number of pairs sorted.  Only the filled prefix of
    result buffers participates, matching Thrust's iterator-range call.
    """
    _check_use(device, (keys, values), "thrust::sort_by_key")
    k = _filled(keys)
    v = _filled(values)
    if len(k) != len(v):
        raise ValueError(f"key/value length mismatch: {len(k)} != {len(v)}")
    n = len(k)
    if n:
        order = np.argsort(k, kind="stable")
        k[...] = k[order]
        v[...] = v[order]
    ms = device.cost.sort_time_ms(n)
    s = stream or device.default_stream
    op = s.submit("thrust::sort_by_key", "compute", ms)
    _record(device, (keys, values), "write", s, op)
    device.profiler.record_sort(SortRecord(n=n, modeled_ms=ms, stream=s.name))
    return n


def sort_pairs(
    pairs: DeviceBuffer,
    device: Device,
    *,
    stream: Optional[Stream] = None,
) -> int:
    """Stable sort of an ``(n, 2)`` key/value pair buffer by key column.

    This is how Algorithm 4 invokes Thrust on the kernel result set: the
    key column holds ``k_j`` (a point id) and the value column ``v_j``
    (a neighbor id); sorting makes identical keys adjacent before the
    result is shipped to the host.  An ``(n, 3)`` buffer carries a
    distance column as well (the annotated-table extension).
    """
    _check_use(device, (pairs,), "thrust::sort_by_key")
    data = _filled(pairs)
    if data.ndim != 2 or data.shape[1] not in (2, 3):
        raise ValueError(
            f"expected an (n, 2) or (n, 3) pair buffer, got {data.shape}"
        )
    n = len(data)
    keys = data[:, 0]
    # a stable sort of nondecreasing keys is the identity; the modeled
    # sort is still charged
    if n and not (keys[1:] >= keys[:-1]).all():
        data[...] = data[np.argsort(keys, kind="stable")]
    ms = device.cost.sort_time_ms(n)
    s = stream or device.default_stream
    op = s.submit("thrust::sort_by_key", "compute", ms)
    _record(device, (pairs,), "write", s, op)
    device.profiler.record_sort(SortRecord(n=n, modeled_ms=ms, stream=s.name))
    return n


def reduce_sum(
    buf: DeviceBuffer, device: Device, *, stream: Optional[Stream] = None
) -> float:
    """Device-side reduction (``thrust::reduce``) over the filled prefix."""
    _check_use(device, (buf,), "thrust::reduce")
    data = _filled(buf)
    total = float(data.sum()) if len(data) else 0.0
    ms = device.cost.sort_time_ms(len(data)) * 0.1  # reduction ≪ sort
    s = stream or device.default_stream
    op = s.submit("thrust::reduce", "compute", ms)
    _record(device, (buf,), "read", s, op)
    return total
