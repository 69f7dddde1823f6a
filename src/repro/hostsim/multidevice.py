"""Multi-device schedule for the sharded placement layer.

:func:`schedule_parallel` models *interchangeable* workers pulling tasks
from one queue; the placement layer needs the opposite: every task is
**pinned** to the device the placer assigned it to, devices execute
their queues concurrently, and a single host merge worker consumes each
task's reduction output as it completes — the S2 producer/consumer
overlap lifted to the shard level (N producers, one consumer, no
barrier between the build phase and the merge phase).

:func:`schedule_devices` replays that execution as pinned bookings on
the host's one virtual clock (:class:`WorkerPool`):

* device ``d`` runs its assigned builds back to back, in list order,
  starting after the (optional) collective halo exchange;
* the host merge worker becomes ready for task ``i``'s merge increment
  the moment build ``i`` finishes, and is work-conserving: it processes
  ready increments in completion order (ties broken by task index);
* a final ``finalize_s`` (cross-edge validation + border attachment +
  canonicalization — inherently global) runs after everything else.

Because every build starts no later than it would on fewer devices and
the merge worker is work-conserving, the modeled makespan never exceeds
the single-device sequential baseline — property-tested in
``tests/test_hostsim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hostsim.queueing import Interval, WorkerPool

__all__ = ["DeviceSchedule", "schedule_devices"]


@dataclass(frozen=True)
class DeviceSchedule:
    """Result of a multi-device schedule.

    ``build_intervals`` use ``worker`` for the device id; the
    ``merge_intervals`` all run on the single host merge worker.
    """

    makespan_s: float
    n_devices: int
    #: collective halo-exchange time charged before any build starts
    exchange_s: float
    #: serial tail after the last merge increment (global finalize)
    finalize_s: float
    build_intervals: tuple[Interval, ...]
    merge_intervals: tuple[Interval, ...]

    @property
    def build_makespan_s(self) -> float:
        """When the last device finishes its build queue."""
        return max((iv.end for iv in self.build_intervals), default=self.exchange_s)

    @property
    def serial_s(self) -> float:
        """Total work if nothing overlapped (the sequential baseline)."""
        return (
            self.exchange_s
            + sum(iv.end - iv.start for iv in self.build_intervals)
            + sum(iv.end - iv.start for iv in self.merge_intervals)
            + self.finalize_s
        )

    @property
    def speedup(self) -> float:
        return self.serial_s / self.makespan_s if self.makespan_s else 1.0

    @property
    def utilization(self) -> float:
        """Build-phase device utilization (merge worker excluded)."""
        span = self.build_makespan_s - self.exchange_s
        denom = span * self.n_devices
        busy = sum(iv.end - iv.start for iv in self.build_intervals)
        return busy / denom if denom else 1.0

    def device_busy_s(self, device: int) -> float:
        return sum(
            iv.end - iv.start for iv in self.build_intervals if iv.worker == device
        )


def schedule_devices(
    build_durations: Sequence[float],
    device_of: Sequence[int],
    merge_durations: Sequence[float],
    *,
    n_devices: int,
    exchange_s: float = 0.0,
    finalize_s: float = 0.0,
) -> DeviceSchedule:
    """Makespan of pinned device queues overlapped with incremental merge.

    ``build_durations[i]`` runs on device ``device_of[i]``; each device
    executes its tasks in list order.  ``merge_durations[i]`` is the
    host merge increment consuming task ``i``'s output, processed by one
    work-conserving merge worker in completion order.
    """
    if not len(build_durations) == len(device_of) == len(merge_durations):
        raise ValueError(
            "build_durations, device_of and merge_durations must have equal length"
        )
    if exchange_s < 0 or finalize_s < 0:
        raise ValueError("exchange_s and finalize_s must be non-negative")

    devices = WorkerPool(n_devices)
    for dur, d in zip(build_durations, device_of):
        devices.commit(devices.peek_start(exchange_s, d), dur, worker=d)

    merge = WorkerPool(1)
    for b in sorted(devices.intervals, key=lambda iv: (iv.end, iv.task)):
        merge.commit(merge.peek_start(b.end), merge_durations[b.task], task=b.task)

    return DeviceSchedule(
        makespan_s=max(devices.makespan, merge.makespan, float(exchange_s))
        + finalize_s,
        n_devices=devices.n_workers,
        exchange_s=float(exchange_s),
        finalize_s=float(finalize_s),
        build_intervals=tuple(devices.intervals),
        merge_intervals=tuple(merge.intervals),
    )
