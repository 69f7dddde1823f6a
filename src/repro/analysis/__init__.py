"""Clustering comparison, validation, and static-analysis utilities."""

from repro.analysis.metrics import (
    adjusted_rand_index,
    cluster_sizes,
    dbscan_equivalent,
    noise_fraction,
    same_clustering,
)
from repro.analysis.validation import ValidationReport, validate_hybrid

__all__ = [
    "same_clustering",
    "dbscan_equivalent",
    "adjusted_rand_index",
    "cluster_sizes",
    "noise_fraction",
    "validate_hybrid",
    "ValidationReport",
]
