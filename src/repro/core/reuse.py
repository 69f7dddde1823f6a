"""Neighbor-table reuse across minpts values (Section VII-F, scenario S3).

With ε fixed, the neighbor table ``T`` is independent of ``minpts``: it
is computed **once** and then consumed concurrently by up to 16 threads,
each running the table-DBSCAN for a different ``minpts`` — the paper's
largest throughput win (27×–54× over clustering each variant with the
reference implementation).  Every variant runs once, serially, and the
threads' concurrency is replayed on the simulated host
(:func:`repro.hostsim.schedule_parallel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.hostsim import schedule_parallel

__all__ = ["ReuseVariantOutcome", "ReuseResult", "cluster_with_reuse"]


@dataclass
class ReuseVariantOutcome:
    minpts: int
    n_clusters: int
    n_noise: int
    dbscan_s: float
    labels: Optional[np.ndarray] = None


@dataclass
class ReuseResult:
    """Outcome of one S3 run (single ε, many minpts)."""

    eps: float
    n_threads: int
    build_s: float
    cluster_s: float
    total_s: float
    outcomes: list[ReuseVariantOutcome] = field(default_factory=list)
    #: serial sum of per-variant DBSCAN times
    cluster_serial_s: float = 0.0

    @property
    def minpts_values(self) -> list[int]:
        return [o.minpts for o in self.outcomes]

    @property
    def thread_speedup(self) -> float:
        """Speedup of the concurrent clustering phase over serial."""
        return self.cluster_serial_s / self.cluster_s if self.cluster_s else 1.0


def cluster_with_reuse(
    points: np.ndarray,
    eps: float,
    minpts_values: Sequence[int],
    *,
    hybrid: Optional[HybridDBSCAN] = None,
    n_threads: int = 1,
    keep_labels: bool = False,
) -> ReuseResult:
    """Build ``T`` once, then cluster every ``minpts`` with ``n_threads``
    concurrent workers.

    Every variant runs serially — results are exact — and the
    concurrent clustering phase's makespan is the measured per-variant
    times list-scheduled onto ``n_threads`` simulated cores (see
    :mod:`repro.hostsim`).
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    if not minpts_values:
        raise ValueError("minpts_values must be non-empty")
    # checked before the table build: a bad value must fail in
    # microseconds, not after a full GPU pass
    if not all(float(m).is_integer() and m >= 1 for m in minpts_values):
        raise ValueError(
            f"minpts values must be whole numbers >= 1, got {list(minpts_values)}"
        )
    minpts_values = [int(m) for m in minpts_values]
    h = hybrid or HybridDBSCAN()
    t_start = time.perf_counter()
    grid, table, _ = h.build_table(points, eps)
    build_s = time.perf_counter() - t_start

    outcomes = []
    for m in minpts_values:
        t0 = time.perf_counter()
        labels = h.cluster_table(grid, table, m)
        dbscan_s = time.perf_counter() - t0
        outcomes.append(
            ReuseVariantOutcome(
                minpts=m,
                n_clusters=int(labels.max()) + 1 if (labels != NOISE).any() else 0,
                n_noise=int((labels == NOISE).sum()),
                dbscan_s=dbscan_s,
                labels=labels if keep_labels else None,
            )
        )
    pool = schedule_parallel([o.dbscan_s for o in outcomes], n_threads)
    return ReuseResult(
        eps=float(eps),
        n_threads=n_threads,
        build_s=build_s,
        cluster_s=pool.makespan,
        total_s=build_s + pool.makespan,
        outcomes=outcomes,
        cluster_serial_s=pool.busy,
    )
