"""The S2 and S3 host schedules, as bookings on :class:`WorkerPool`.

Two shapes cover the paper's host-side concurrency:

* :func:`schedule_parallel` — ``n`` identical workers take tasks in
  order as they become free (OpenMP dynamic-schedule analogue).  Used
  for S3: 16 threads clustering different minpts values from one ``T``.
* :func:`schedule_pipeline` — one producer emits items one after
  another; ``n`` consumers process each item once it is produced.  Used
  for S2: the table producer feeds DBSCAN consumers.

Both return the booked pool, so benches can report utilization and
every interval, not just the makespan.
"""

from __future__ import annotations

from typing import Sequence

from repro.hostsim.queueing import WorkerPool

__all__ = ["schedule_parallel", "schedule_pipeline"]


def schedule_parallel(durations: Sequence[float], n_workers: int) -> WorkerPool:
    """Greedy in-order dispatch of tasks onto ``n_workers`` cores.

    Tasks are dispatched in list order to the earliest-free worker —
    the behaviour of an OpenMP dynamic-schedule loop, which is how the
    paper runs the 16 concurrent DBSCAN variants of scenario S3.
    """
    pool = WorkerPool(n_workers)
    for d in durations:
        pool.commit(pool.peek_start(0.0), d)
    return pool


def schedule_pipeline(
    produce_durations: Sequence[float],
    consume_durations: Sequence[float],
    n_consumers: int,
    *,
    queue_depth: int,
) -> WorkerPool:
    """The consumers of a single-producer, ``n_consumers``-consumer pipeline.

    The producer makes item ``i`` strictly after item ``i - 1``; the
    earliest-free consumer takes it once it is made.  The producer
    stalls while ``queue_depth`` finished items await consumption —
    the bounded queue of :class:`repro.core.pipeline.MultiClusterPipeline`.
    Every item is consumed after it is produced, so the returned
    consumers' makespan is the pipeline's.
    """
    if queue_depth < 1:
        # depth 0 would mean "item i may only be produced once item i has
        # started consumption" — a deadlock
        raise ValueError("queue_depth must be >= 1")
    if len(produce_durations) != len(consume_durations):
        raise ValueError("produce and consume lists must have equal length")
    producer = WorkerPool(1)
    consumers = WorkerPool(n_consumers)
    for i, (p, c) in enumerate(zip(produce_durations, consume_durations)):
        # back-pressure: item i can only be produced once item
        # i - queue_depth has started consumption
        slot = consumers.intervals[i - queue_depth].start if i >= queue_depth else 0.0
        producer.commit(producer.peek_start(slot), p)
        made = producer.intervals[-1].end
        consumers.commit(consumers.peek_start(made), c)
    return consumers
