"""Measurement primitives shared by the workloads.

* :class:`DeviceLedger` — modeled device milliseconds and peak device
  residency per op, read from the ``gpusim`` profiler and memory pools
  of every simulated device an op touches.
* :func:`reset_peak_rss` / :func:`peak_rss_bytes` — the process's
  resident-set high-water mark over a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "DeviceUsage",
    "DeviceLedger",
    "reset_peak_rss",
    "peak_rss_bytes",
]


# ----------------------------------------------------------------------
# modeled device time and residency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceUsage:
    """What the simulated devices did during one op."""

    #: modeled device ms: kernels + sorts + transfers + pinned
    #: allocations + injected stalls, summed exactly (order-independent)
    device_ms: float
    #: largest device global-memory high-water mark among the devices
    peak_device_bytes: int


def _profiler_state(prof) -> tuple[int, int, int, float, float]:
    return (
        len(prof.kernels),
        len(prof.transfers),
        len(prof.sorts),
        prof.pinned_alloc_ms,
        prof.stall_ms,
    )


def _modeled_ms_since(prof, state) -> float:
    """Modeled ms a profiler recorded since ``state``.

    The stream workers append records in a thread-dependent order, so
    the records are summed with :func:`math.fsum`, whose result does
    not depend on the order of its inputs.
    """
    nk, nt, ns, pinned, stall = state
    terms = [k.modeled_ms for k in prof.kernels[nk:]]
    terms += [t.modeled_ms for t in prof.transfers[nt:]]
    terms += [s.modeled_ms for s in prof.sorts[ns:]]
    terms.append(prof.pinned_alloc_ms - pinned)
    terms.append(prof.stall_ms - stall)
    return math.fsum(terms)


_EMPTY_STATE = (0, 0, 0, 0.0, 0.0)


class DeviceLedger:
    """Reads every simulated device around each op.

    Long-lived devices (held by the workload across ops) are read as
    profiler deltas; devices the program creates during an op (one per
    shard attempt, one per service attempt) are caught at construction
    by a wrapper on ``Device.__init__`` and read whole once the op ends.
    The wrapper adds one list append per device and nothing per kernel.
    """

    def __init__(self, device_cls: type, long_lived: Iterable[Any] = ()):
        self._cls = device_cls
        self._orig_init = device_cls.__dict__["__init__"]
        self._long_lived = list(long_lived)
        self._created: list[Any] = []
        self._states: list[tuple] = []

    def install(self) -> "DeviceLedger":
        orig, created = self._orig_init, self._created

        def __init__(dev, *args, **kwargs):
            orig(dev, *args, **kwargs)
            created.append(dev)

        self._cls.__init__ = __init__
        return self

    def uninstall(self) -> None:
        self._cls.__init__ = self._orig_init

    def __enter__(self) -> "DeviceLedger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin(self) -> None:
        """Mark the start of an op."""
        self._created.clear()
        self._states = [_profiler_state(d.profiler) for d in self._long_lived]

    def end(self) -> DeviceUsage:
        """Usage since :meth:`begin`; releases the op's devices."""
        ms = [
            _modeled_ms_since(d.profiler, st)
            for d, st in zip(self._long_lived, self._states)
        ]
        ms += [_modeled_ms_since(d.profiler, _EMPTY_STATE) for d in self._created]
        peak = max(
            (d.memory.peak_bytes for d in [*self._long_lived, *self._created]),
            default=0,
        )
        self._created.clear()
        return DeviceUsage(device_ms=math.fsum(ms), peak_device_bytes=int(peak))


# ----------------------------------------------------------------------
# resident set
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark (``VmHWM``) to
    the current resident set, so :func:`peak_rss_bytes` covers only what
    runs after this call."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_bytes() -> int:
    """``VmHWM`` of this process, in bytes."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")
