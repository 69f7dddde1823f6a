"""Deterministic fault injection for the simulated GPU.

The batching scheme of Section VI exists because result sets can exceed
device memory — but the *recovery* paths (buffer overflow, device OOM,
transfer failure) are exactly the ones that never run in a healthy test
suite.  This module makes them testable: a :class:`FaultInjector`
attached to a :class:`~repro.gpusim.device.Device` (or passed to
:func:`~repro.core.batching.build_neighbor_table`) raises the real
exception types at configurable points:

``"overflow"``
    :class:`~repro.gpusim.memory.ResultBufferOverflow` after a batch
    kernel completes — models a result set that outgrew ``b_b``.
``"device_oom"``
    :class:`~repro.gpusim.memory.DeviceMemoryError` at device
    allocation time — models global-memory pressure.
``"transfer"``
    :class:`TransferError` during a host↔device copy — models a failed
    DMA / PCIe transaction.
``"device_lost"``
    :class:`DeviceLostError` on *any* device operation (allocation or
    transfer) — models a wholesale device loss (XID error, fallen off
    the bus).  Unlike the other kinds it is never recovered inside a
    build: the batching layer does not catch it, so it aborts the whole
    table construction and surfaces to the shard supervisor
    (:mod:`repro.core.sharding`), which retries on a fresh fallback
    device.
``"slowdown"``
    Injected *latency*, not failure: a firing spec adds its
    ``delay_ms`` to the device's modeled time (recorded as profiler
    stall milliseconds) instead of raising.  Like ``device_lost`` it is
    checked at every device operation.  Because the delay is simulated
    — no wall-clock sleep, so GS002 stays clean — deadline and timeout
    paths (:mod:`repro.service`) are testable deterministically.

Injection is deterministic and seedable.  A :class:`FaultSpec` targets
explicit batch indices (exact, reproducible) and/or fires with a
probability drawn from a per-spec ``numpy`` generator seeded from the
injector seed, and is bounded by ``times`` so a recovered-and-retried
batch does not re-fail forever.  Batch targeting uses a thread-local
batch scope set by the batching workers (:meth:`FaultInjector.batch`),
so device-level hooks (allocation, transfers) see the batch index of
the worker that triggered them.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.gpusim.memory import DeviceMemoryError, ResultBufferOverflow

__all__ = [
    "FAULT_KINDS",
    "TransferError",
    "DeviceLostError",
    "FaultSpec",
    "FaultInjector",
    "classify_fault",
    "derive_seed",
]

FAULT_KINDS = ("overflow", "device_oom", "transfer", "device_lost", "slowdown")


class TransferError(RuntimeError):
    """Raised when a (simulated) host↔device transfer fails."""


class DeviceLostError(RuntimeError):
    """Raised when the (simulated) device is lost wholesale.

    Deliberately *not* a subclass of the per-batch-recoverable errors:
    batch-level recovery must not swallow it — only a fresh device can
    make progress.
    """


_EXCEPTIONS = {
    "overflow": ResultBufferOverflow,
    "device_oom": DeviceMemoryError,
    "transfer": TransferError,
    "device_lost": DeviceLostError,
}

#: fault classes the shard supervisor acts on (see :func:`classify_fault`)
FAULT_CLASSES = ("memory", "transient", "fatal")


def classify_fault(exc: BaseException) -> str:
    """Classify an exception for shard-level recovery.

    ``"memory"``
        Memory-shaped failures — :class:`DeviceMemoryError` (allocation
        failed under the device's capacity) and
        :class:`~repro.gpusim.memory.ResultBufferOverflow` escaping
        batch-level recovery.  Recoverable by splitting the work or by
        retrying with a larger memory grant.
    ``"transient"``
        :class:`TransferError` (beyond the batch layer's retry budget)
        and :class:`DeviceLostError` — recoverable by retrying on a
        fresh fallback device.
    ``"fatal"``
        Everything else (programming errors, bad inputs) — must
        propagate unchanged; retrying cannot help.
    """
    if isinstance(exc, (DeviceMemoryError, ResultBufferOverflow)):
        return "memory"
    if isinstance(exc, (TransferError, DeviceLostError)):
        return "transient"
    return "fatal"


def derive_seed(base: int, *key: int) -> int:
    """Deterministic child seed from a base seed and an integer key path.

    Used to give every shard (and every quad-split child) its own
    :class:`FaultInjector` stream: same base seed + same shard key →
    the same injection sequence, independent of shard execution order.
    """
    ss = np.random.SeedSequence([int(base) & 0xFFFFFFFF, *(int(k) & 0xFFFFFFFF for k in key)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    batch_indices:
        Only fire inside the batch scope of these batch indices; ``None``
        matches any event of the kind (including events outside any
        batch scope).
    probability:
        Bernoulli firing probability per matching event (default 1.0 —
        fire deterministically whenever the targeting matches).
    times:
        Maximum number of firings (default 1); ``None`` is unlimited.
        A bounded spec lets recovery succeed on retry instead of
        failing the same batch forever.
    delay_ms:
        For ``"slowdown"`` specs only: the simulated latency (in
        modeled device milliseconds) each firing injects.  Failure
        kinds must leave it at 0.
    """

    kind: str
    batch_indices: Optional[frozenset] = None
    probability: float = 1.0
    times: Optional[int] = 1
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")
        if self.kind == "slowdown":
            if self.delay_ms <= 0:
                raise ValueError("slowdown specs require delay_ms > 0")
        elif self.delay_ms != 0.0:
            raise ValueError("delay_ms is only meaningful for slowdown specs")
        if self.batch_indices is not None:
            object.__setattr__(
                self, "batch_indices", frozenset(int(b) for b in self.batch_indices)
            )


class FaultInjector:
    """Seedable, thread-safe fault-injection engine.

    With only index-targeted specs, injection is fully deterministic.
    Probability-based specs draw from per-spec generators seeded from
    ``seed``, so a fixed single-threaded event sequence replays
    identically; under concurrent workers the *draw sequence* depends on
    thread interleaving (target batch indices for exact reproducibility).
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), *, seed: int = 0):
        self.specs = list(specs)
        self.seed = int(seed)
        self._rngs = [
            np.random.default_rng((self.seed, i)) for i in range(len(self.specs))
        ]
        self._fired = [0] * len(self.specs)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: firings per kind (observability for tests and stats)
        self.injected: Counter = Counter()
        #: total modeled latency injected by slowdown specs
        self.injected_delay_ms: float = 0.0

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def overflow_at(
        cls, *batches: int, times: int = 1, seed: int = 0
    ) -> "FaultInjector":
        """Overflow exactly at the given batch indices (``times`` per spec)."""
        return cls(
            [FaultSpec("overflow", frozenset(batches), times=times)], seed=seed
        )

    @classmethod
    def transfer_at(
        cls, *batches: int, times: int = 1, seed: int = 0
    ) -> "FaultInjector":
        """Fail the staging transfer of the given batch indices."""
        return cls(
            [FaultSpec("transfer", frozenset(batches), times=times)], seed=seed
        )

    @classmethod
    def device_loss(cls, *, times: int = 1, seed: int = 0) -> "FaultInjector":
        """Lose the device wholesale on its next ``times`` operations."""
        return cls([FaultSpec("device_lost", times=times)], seed=seed)

    @classmethod
    def slowdown(
        cls,
        delay_ms: float,
        *,
        times: Optional[int] = 1,
        probability: float = 1.0,
        seed: int = 0,
    ) -> "FaultInjector":
        """Stall the device for ``delay_ms`` modeled ms on its next
        ``times`` operations (latency injection, never a failure)."""
        return cls(
            [
                FaultSpec(
                    "slowdown",
                    probability=probability,
                    times=times,
                    delay_ms=delay_ms,
                )
            ],
            seed=seed,
        )

    # ------------------------------------------------------------------
    # batch scoping
    # ------------------------------------------------------------------
    @contextmanager
    def batch(self, index: int) -> Iterator[None]:
        """Scope subsequent checks on this thread to batch ``index``."""
        prev = getattr(self._local, "batch", None)
        self._local.batch = int(index)
        try:
            yield
        finally:
            self._local.batch = prev

    @property
    def current_batch(self) -> Optional[int]:
        return getattr(self._local, "batch", None)

    # ------------------------------------------------------------------
    # the hook
    # ------------------------------------------------------------------
    def check(self, kind: str, *, batch: Optional[int] = None) -> float:
        """Raise the mapped exception if any spec of ``kind`` fires.

        ``batch`` defaults to the thread's current batch scope.

        ``"slowdown"`` specs never raise: every firing spec contributes
        its ``delay_ms`` to the returned total (also accumulated on
        :attr:`injected_delay_ms`), which the device records as modeled
        stall time.  Failure kinds always return 0.0 (they either raise
        or do nothing).
        """
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        b = batch if batch is not None else self.current_batch
        delay = 0.0
        for i, spec in enumerate(self.specs):
            if spec.kind != kind:
                continue
            if spec.batch_indices is not None and (
                b is None or b not in spec.batch_indices
            ):
                continue
            with self._lock:
                if spec.times is not None and self._fired[i] >= spec.times:
                    continue
                if spec.probability < 1.0:
                    if not (self._rngs[i].random() < spec.probability):
                        continue
                self._fired[i] += 1
                self.injected[kind] += 1
                if kind == "slowdown":
                    self.injected_delay_ms += spec.delay_ms
            if kind == "slowdown":
                delay += spec.delay_ms
                continue
            where = f" (batch {b})" if b is not None else ""
            raise _EXCEPTIONS[kind](f"injected {kind} fault{where}")
        return delay

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def reset(self) -> None:
        """Forget firing history (keeps specs and reseeds generators)."""
        with self._lock:
            self._fired = [0] * len(self.specs)
            self._rngs = [
                np.random.default_rng((self.seed, i)) for i in range(len(self.specs))
            ]
            self.injected.clear()
            self.injected_delay_ms = 0.0
