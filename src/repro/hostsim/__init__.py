"""Simulated multicore host.

The paper's host is a 16-core Xeon running OpenMP threads; this
execution environment may have as little as one core, so — exactly as
the GPU is simulated by :mod:`repro.gpusim` — host-side concurrency is
*modeled*: every task runs once, serially (producing real results and
real per-task wall times), and the measured times are replayed on
:class:`WorkerPool`, one deterministic virtual clock.  Scenario S2's
producer/consumer pipeline, S3's 16 threads sharing one neighbor table,
the sharded executor's devices and the serving layer's workers are all
bookings on it.
"""

from repro.hostsim.multidevice import DeviceSchedule, schedule_devices
from repro.hostsim.queueing import Interval, WorkerPool
from repro.hostsim.scheduler import schedule_parallel, schedule_pipeline

__all__ = [
    "schedule_parallel",
    "schedule_pipeline",
    "schedule_devices",
    "DeviceSchedule",
    "Interval",
    "WorkerPool",
]
