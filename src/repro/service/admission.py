"""Admission control for the long-lived clustering service.

A service that queues unboundedly does not degrade, it collapses:
latency grows without limit and every request eventually misses its
deadline anyway.  The controller here bounds two resources *at
arrival time* — before any work is done — and rejects with a typed
error instead of queueing:

* **queue depth** — admitted-but-unstarted requests (``max_queue``);
* **per-tenant inflight** — one tenant cannot monopolize the workers.

Crossing the *high-water mark* (a fraction of ``max_queue``) does not
reject yet — it flags the request for graceful degradation
(:mod:`repro.service.degrade`), so the service sheds quality before it
sheds requests.

All accounting runs on the virtual millisecond clock of
:class:`repro.hostsim.WorkerPool`: a grant is "queued" while its start
instant is in the future and "inflight" until its end instant passes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "ServiceError",
    "Overloaded",
    "DeadlineExceeded",
    "UnknownDataset",
    "ExecutionFailed",
    "AdmissionConfig",
    "Admission",
    "AdmissionStats",
    "AdmissionController",
]


class ServiceError(RuntimeError):
    """Base of the service's typed request-level errors.

    Every rejection the service produces is one of the concrete
    subclasses below; ``code`` is the stable machine-readable name
    carried on the :class:`~repro.service.server.Response`.
    """

    code = "service_error"


class Overloaded(ServiceError):
    """Admission refused: queue full, tenant cap, or all devices
    quarantined.  Retry later (after backoff) may succeed."""

    code = "overloaded"


class DeadlineExceeded(ServiceError):
    """The request's deadline cannot be met (or expired mid-service)."""

    code = "deadline_exceeded"


class UnknownDataset(ServiceError):
    """The request names a dataset_id never registered with the service."""

    code = "unknown_dataset"


class ExecutionFailed(ServiceError):
    """Execution failed beyond recovery: a fatal (non-retryable) fault,
    or the retry budget was exhausted with no degraded fallback."""

    code = "execution_failed"


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the admission controller."""

    #: maximum admitted-but-unstarted requests before typed rejection
    max_queue: int = 8
    #: queue fraction beyond which new requests are served degraded
    high_water: float = 0.75
    #: concurrent (queued + executing) requests allowed per tenant
    per_tenant_inflight: int = 4

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not 0.0 < self.high_water <= 1.0:
            raise ValueError("high_water must be in (0, 1]")
        if self.per_tenant_inflight < 1:
            raise ValueError("per_tenant_inflight must be >= 1")

    @property
    def high_water_depth(self) -> int:
        """Queue depth at which degradation kicks in."""
        return max(1, math.ceil(self.high_water * self.max_queue))


@dataclass(frozen=True)
class Admission:
    """A successful admission decision."""

    tenant: str
    #: the queue has passed the high-water mark — serve degraded
    degrade_hint: bool


@dataclass
class _Grant:
    tenant: str
    start_ms: float
    end_ms: float


@dataclass
class AdmissionStats:
    admitted: int = 0
    rejections: Counter = field(default_factory=Counter)
    degrade_hints: int = 0
    peak_queue: int = 0

    @property
    def rejected(self) -> int:
        return sum(self.rejections.values())

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejections": dict(self.rejections),
            "degrade_hints": self.degrade_hints,
            "peak_queue": self.peak_queue,
        }


class AdmissionController:
    """Bounded-queue admission with a per-tenant gate.

    Intended call pattern per request (single-threaded event loop):
    ``admit(...)`` at arrival — raises :class:`Overloaded` or returns an
    :class:`Admission` — then, once the worker pool has quoted the start
    and the execution's virtual duration is known, ``commit(...)`` books
    the grant so later arrivals see it.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        self._grants: list[_Grant] = []
        self.stats = AdmissionStats()

    # ------------------------------------------------------------------
    # observation (all on the virtual clock)
    # ------------------------------------------------------------------
    def _prune(self, now_ms: float) -> None:
        self._grants = [g for g in self._grants if g.end_ms > now_ms]

    def queue_depth(self, now_ms: float) -> int:
        """Admitted requests that have not started at ``now_ms``."""
        return sum(1 for g in self._grants if g.start_ms > now_ms)

    def inflight(self, now_ms: float, tenant: str) -> int:
        """The tenant's admitted requests not finished at ``now_ms`` —
        queued and executing alike."""
        return sum(
            1 for g in self._grants if g.end_ms > now_ms and g.tenant == tenant
        )

    # ------------------------------------------------------------------
    # the gate
    # ------------------------------------------------------------------
    def admit(self, tenant: str, now_ms: float) -> Admission:
        """Admit or raise :class:`Overloaded` (typed, with the reason)."""
        cfg = self.config
        self._prune(now_ms)
        depth = self.queue_depth(now_ms)
        if depth >= cfg.max_queue:
            self.stats.rejections["queue_full"] += 1
            raise Overloaded(
                f"admission queue full ({depth}/{cfg.max_queue} waiting)"
            )
        if self.inflight(now_ms, tenant) >= cfg.per_tenant_inflight:
            self.stats.rejections["tenant_limit"] += 1
            raise Overloaded(
                f"tenant {tenant!r} at its inflight limit "
                f"({cfg.per_tenant_inflight})"
            )
        hint = depth >= cfg.high_water_depth
        self.stats.admitted += 1
        if hint:
            self.stats.degrade_hints += 1
        self.stats.peak_queue = max(self.stats.peak_queue, depth + 1)
        return Admission(tenant=tenant, degrade_hint=hint)

    def commit(self, admission: Admission, start_ms: float, end_ms: float) -> None:
        """Book an admitted request's grant over its execution span."""
        if end_ms < start_ms:
            raise ValueError("grant ends before it starts")
        self._grants.append(
            _Grant(
                tenant=admission.tenant,
                start_ms=float(start_ms),
                end_ms=float(end_ms),
            )
        )

    def record_rejection(self, reason: str) -> None:
        """Count a post-admission typed rejection (deadline, execution)."""
        self.stats.rejections[reason] += 1
