"""HYBRID-DBSCAN — the paper's contribution.

* :class:`~repro.core.hybrid_dbscan.HybridDBSCAN` — Algorithm 4.
* :class:`~repro.core.neighbor_table.NeighborTable` — the table ``T``.
* :class:`~repro.core.batching.BatchPlanner` — Section VI's batching.
* :mod:`~repro.core.table_dbscan` — DBSCAN over ``T``.
* :mod:`~repro.core.pipeline` — the S2 multi-clustering pipeline.
* :mod:`~repro.core.reuse` — the S3 neighbor-table reuse scheme.
* :mod:`~repro.core.sharding` — out-of-core sharded clustering.
* :mod:`~repro.core.placement` — multi-device placement + overlap.
"""

from repro.core.batching import BatchConfig, BatchPlan, BatchPlanner, RecoveryStats
from repro.core.device_cluster import (
    DeviceClusterResult,
    dbscan_from_table_device,
    device_cluster_table,
)
from repro.core.hybrid_dbscan import DBSCANResult, HybridDBSCAN, TimingBreakdown
from repro.core.multi_eps import EpsSweepResult, cluster_eps_sweep
from repro.core.neighbor_table import NeighborTable
from repro.core.optics import OpticsResult, extract_dbscan, optics
from repro.core.pipeline import MultiClusterPipeline, PipelineResult
from repro.core.placement import (
    CollectiveExchange,
    DevicePlacement,
    IncrementalMerger,
    collective_exchange,
    place_shards,
)
from repro.core.reuse import (
    ReuseResult,
    ReuseVariantOutcome,
    cluster_with_reuse,
)
from repro.core.sharding import (
    ShardAttempt,
    ShardConfig,
    ShardedResult,
    ShardFailureError,
    ShardPlan,
    ShardRecoveryStats,
    ShardStats,
    cluster_sharded,
    make_shard_fault_factory,
    merge_shard_labels,
    plan_shards,
    quad_split_shard,
)
from repro.core.table_dbscan import (
    NOISE,
    dbscan_from_annotated_table,
    dbscan_from_table,
)
from repro.core.variants import Variant, VariantSet

__all__ = [
    "BatchConfig",
    "BatchPlan",
    "BatchPlanner",
    "RecoveryStats",
    "HybridDBSCAN",
    "DBSCANResult",
    "TimingBreakdown",
    "NeighborTable",
    "MultiClusterPipeline",
    "PipelineResult",
    "ReuseResult",
    "cluster_with_reuse",
    "ReuseVariantOutcome",
    "CollectiveExchange",
    "DevicePlacement",
    "IncrementalMerger",
    "collective_exchange",
    "place_shards",
    "ShardAttempt",
    "ShardConfig",
    "ShardFailureError",
    "ShardPlan",
    "ShardRecoveryStats",
    "ShardStats",
    "ShardedResult",
    "cluster_sharded",
    "make_shard_fault_factory",
    "merge_shard_labels",
    "plan_shards",
    "quad_split_shard",
    "EpsSweepResult",
    "cluster_eps_sweep",
    "OpticsResult",
    "optics",
    "extract_dbscan",
    "NOISE",
    "DeviceClusterResult",
    "dbscan_from_table_device",
    "device_cluster_table",
    "dbscan_from_table",
    "dbscan_from_annotated_table",
    "Variant",
    "VariantSet",
]
