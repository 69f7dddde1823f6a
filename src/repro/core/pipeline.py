"""The multi-clustering pipeline of Section VII-E (scenario S2).

Clustering a dataset under many variants admits producer/consumer
overlap: while DBSCAN consumes the neighbor table ``T(v_i)``, the
producer is already building ``T(v_{i+1})`` on the GPU.  The producer
itself spawns the 3 batching threads of Section VI, and up to
``n_consumers`` threads run DBSCAN on completed tables.

Every variant is built and clustered once, in order, which gives exact
results and measured per-variant times; the pipelined makespan replays
those times on the simulated host
(:func:`repro.hostsim.schedule_pipeline`).  The non-pipelined total is
the measured sequential time — the comparison Figure 4 and Table IV
make.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.batching import RecoveryStats
from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.core.variants import Variant, VariantSet
from repro.hostsim import schedule_pipeline

__all__ = ["VariantOutcome", "PipelineResult", "MultiClusterPipeline"]


@dataclass
class VariantOutcome:
    """Per-variant result of a pipeline run."""

    variant: Variant
    n_clusters: int
    n_noise: int
    build_s: float
    dbscan_s: float
    labels: Optional[np.ndarray] = None
    #: overflow/transfer recovery accounting of this variant's build
    recovery: RecoveryStats = field(default_factory=RecoveryStats)


@dataclass
class PipelineResult:
    """Outcome of clustering a whole variant set."""

    outcomes: list[VariantOutcome]
    total_s: float
    pipelined: bool

    @property
    def sum_build_s(self) -> float:
        return sum(o.build_s for o in self.outcomes)

    @property
    def sum_dbscan_s(self) -> float:
        return sum(o.dbscan_s for o in self.outcomes)

    @property
    def recovery(self) -> RecoveryStats:
        """Aggregate recovery accounting across every variant's build."""
        total = RecoveryStats()
        for o in self.outcomes:
            total.merge(o.recovery)
        return total


class MultiClusterPipeline:
    """Throughput-oriented execution of a :class:`VariantSet`."""

    def __init__(
        self,
        hybrid: Optional[HybridDBSCAN] = None,
        *,
        n_consumers: int = 3,
        queue_depth: int = 2,
        keep_labels: bool = False,
        sanitize: Optional[bool] = None,
    ):
        if n_consumers < 1:
            raise ValueError("n_consumers must be >= 1")
        if queue_depth < 1:
            # a producer that may not run ahead of its consumers at all
            # deadlocks; reject it at construction, not at the first run
            raise ValueError("queue_depth must be >= 1")
        self.hybrid = hybrid or HybridDBSCAN(sanitize=sanitize)
        self.n_consumers = n_consumers
        self.queue_depth = queue_depth
        self.keep_labels = keep_labels

    def run(
        self,
        points: np.ndarray,
        variants: VariantSet,
        *,
        pipelined: bool = True,
    ) -> PipelineResult:
        """Cluster every variant; returns outcomes plus total time.

        Variants are built and clustered one after the other.
        ``total_s`` is the measured sequential time, or, when
        ``pipelined=True``, the producer/consumer makespan of the
        measured build and DBSCAN times over ``n_consumers`` simulated
        cores (:mod:`repro.hostsim`).
        """
        t_start = time.perf_counter()
        outcomes = []
        for v in variants:
            t0 = time.perf_counter()
            grid, table, timings = self.hybrid.build_table(points, v.eps)
            t1 = time.perf_counter()
            labels = self.hybrid.cluster_table(grid, table, v.minpts)
            t2 = time.perf_counter()
            outcomes.append(
                VariantOutcome(
                    variant=v,
                    n_clusters=int(labels.max()) + 1 if (labels != NOISE).any() else 0,
                    n_noise=int((labels == NOISE).sum()),
                    build_s=t1 - t0,
                    dbscan_s=t2 - t1,
                    labels=labels if self.keep_labels else None,
                    recovery=timings.recovery,
                )
            )
        total_s = time.perf_counter() - t_start
        if pipelined:
            total_s = schedule_pipeline(
                [o.build_s for o in outcomes],
                [o.dbscan_s for o in outcomes],
                self.n_consumers,
                queue_depth=self.queue_depth,
            ).makespan
        return PipelineResult(outcomes=outcomes, total_s=total_s, pipelined=pipelined)
