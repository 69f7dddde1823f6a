"""Retry/backoff and circuit breaking around device execution.

The shard supervisor (:mod:`repro.core.sharding`) already retries
*within* one batch job; the service layer retries *across* requests on
a long-lived pool of device slots, where two extra concerns appear:

* **backoff must be budgeted** — a retry is only worth taking if the
  jittered exponential delay still fits the request's remaining
  deadline, so :func:`backoff_ms` is pure arithmetic on the virtual
  clock (seeded jitter via an explicit ``Generator`` — GS004);
* **failures must be correlated** — a device that keeps producing
  transient faults (classified by
  :func:`~repro.gpusim.classify_fault`) is probably sick, not unlucky.
  The :class:`CircuitBreaker` quarantines a slot after
  :data:`BREAKER_THRESHOLD` consecutive failures; its work retargets to
  the surviving slots (the same survivor-rescheduling move as the
  multi-device placement layer) and the slot is probed again after a
  virtual :data:`BREAKER_COOLDOWN_MS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["backoff_ms", "CircuitBreaker"]

#: total execution attempts per request (first try included)
MAX_ATTEMPTS = 3
BASE_BACKOFF_MS = 5.0
BACKOFF_MULTIPLIER = 2.0
#: uniform jitter fraction added on top of the exponential step
BACKOFF_JITTER = 0.5
#: consecutive failures that quarantine a device slot
BREAKER_THRESHOLD = 3
#: virtual ms a quarantined slot waits before it is probed again
BREAKER_COOLDOWN_MS = 250.0


def backoff_ms(failures: int, rng: np.random.Generator) -> float:
    """Virtual delay before the retry after the ``failures``-th
    consecutive failure (1-based); jitter drawn from ``rng``."""
    if failures < 1:
        raise ValueError("failures must be >= 1")
    raw = BASE_BACKOFF_MS * BACKOFF_MULTIPLIER ** (failures - 1)
    return raw * (1.0 + BACKOFF_JITTER * float(rng.random()))


@dataclass
class _SlotState:
    consecutive_failures: int = 0
    open_until_ms: float = float("-inf")
    trips: int = 0
    failures: int = 0
    successes: int = 0


class CircuitBreaker:
    """Per-slot quarantine on consecutive transient failures."""

    def __init__(self, n_slots: int) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self._slots = [_SlotState() for _ in range(n_slots)]

    def allowed(self, slot: int, now_ms: float) -> bool:
        return now_ms >= self._slots[slot].open_until_ms

    def healthy_slots(self, now_ms: float) -> list[int]:
        """Slots currently accepting work (closed, or cooldown expired)."""
        return [s for s in range(self.n_slots) if self.allowed(s, now_ms)]

    def record_success(self, slot: int) -> None:
        st = self._slots[slot]
        st.consecutive_failures = 0
        st.successes += 1

    def record_failure(self, slot: int, now_ms: float) -> bool:
        """Count one failure; returns True when this trips the breaker
        open (quarantined until ``now_ms + BREAKER_COOLDOWN_MS``)."""
        st = self._slots[slot]
        st.failures += 1
        st.consecutive_failures += 1
        if st.consecutive_failures >= BREAKER_THRESHOLD:
            st.open_until_ms = now_ms + BREAKER_COOLDOWN_MS
            st.trips += 1
            st.consecutive_failures = 0
            return True
        return False

    @property
    def trips(self) -> int:
        return sum(st.trips for st in self._slots)

    def as_dict(self) -> dict:
        return {
            "n_slots": self.n_slots,
            "trips": self.trips,
            "slots": {
                s: {
                    "failures": st.failures,
                    "successes": st.successes,
                    "trips": st.trips,
                    "open_until_ms": st.open_until_ms,
                }
                for s, st in enumerate(self._slots)
            },
        }
