"""The one virtual clock of the simulated host.

Every host-side schedule is a series of bookings on
:class:`WorkerPool`: identical workers whose free instants only
bookings advance — never the wall clock — so every schedule is
deterministic.  The batch schedulers (:mod:`repro.hostsim.scheduler`,
:mod:`repro.hostsim.multidevice`) replay measured task times on pools;
the serving layer (:mod:`repro.service`) books one request at a time,
at arrival, with its modeled execution time.

The two-phase API mirrors how admission works: ``peek_start`` quotes
the earliest start for a task ready at ``now`` (the quote drives the
service's deadline/degrade decision), and ``commit`` books the chosen
duration — onto the earliest-free worker, or onto a named one for
pinned work such as a shard placed on a device.  Calls alternate per
decision, which is exactly the shape of the single-threaded loops
driving them.  The clock has no unit: the batch schedulers book
seconds, the service milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Interval", "WorkerPool"]


@dataclass(frozen=True)
class Interval:
    """One committed busy interval: ``task`` ran on ``worker``."""

    task: int
    worker: int
    start: float
    end: float


class WorkerPool:
    """``n_workers`` identical workers on a shared virtual clock."""

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self._free = [0.0] * self.n_workers
        self.intervals: list[Interval] = []

    def _pick(self, worker: Optional[int]) -> int:
        if worker is None:
            # the earliest-free worker; ties go to the lowest id
            return min(range(self.n_workers), key=self._free.__getitem__)
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} is not in [0, {self.n_workers})")
        return int(worker)

    def peek_start(self, now: float, worker: Optional[int] = None) -> float:
        """Earliest instant a task ready at ``now`` could start, on
        ``worker`` if given, else on the earliest-free worker."""
        return max(float(now), self._free[self._pick(worker)])

    def commit(
        self,
        start: float,
        duration: float,
        *,
        worker: Optional[int] = None,
        task: Optional[int] = None,
    ) -> int:
        """Book ``duration`` from ``start``; returns the worker's id.

        The booking goes to ``worker`` if given, else to the
        earliest-free worker.  ``task`` names the interval (default: the
        booking's index).  ``start`` must be at least the quoted
        :meth:`peek_start` for the same decision (the pool cannot travel
        back in time).
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        w = self._pick(worker)
        if start < self._free[w]:
            raise ValueError(
                f"start {start} predates worker {w}'s free instant {self._free[w]}"
            )
        end = float(start) + float(duration)
        self._free[w] = end
        self.intervals.append(
            Interval(
                task=len(self.intervals) if task is None else task,
                worker=w,
                start=float(start),
                end=end,
            )
        )
        return w

    @property
    def busy(self) -> float:
        """Total committed busy time across workers."""
        return sum(iv.end - iv.start for iv in self.intervals)

    @property
    def makespan(self) -> float:
        """Last committed end instant (0 with nothing committed)."""
        return max((iv.end for iv in self.intervals), default=0.0)

    @property
    def utilization(self) -> float:
        """Busy fraction of ``n_workers`` x makespan (1.0 when idle)."""
        denom = self.makespan * self.n_workers
        return self.busy / denom if denom else 1.0
