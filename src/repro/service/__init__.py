"""Long-lived clustering service over the HYBRID-DBSCAN machinery.

``repro serve``: admission control, deadlines, an epoch-keyed LRU
result cache, retry/backoff with per-slot circuit breaking, and
graceful degradation (stale / sampled answers) under overload — all on
a deterministic virtual clock.  See DESIGN.md §14.
"""

from repro.service.admission import (
    Admission,
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    DeadlineExceeded,
    ExecutionFailed,
    Overloaded,
    ServiceError,
    UnknownDataset,
)
from repro.service.cache import CacheStats, ResultCache, TableEntry
from repro.service.degrade import (
    CostTracker,
    DegradeDecision,
    choose_mode,
    sampled_labels,
)
from repro.service.retry import CircuitBreaker, backoff_ms
from repro.service.server import (
    ClusteringService,
    Response,
    ServeConfig,
    TraceResult,
)
from repro.service.trace import Request, TraceEvent, make_trace

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
    "CacheStats",
    "TableEntry",
    "ResultCache",
    "backoff_ms",
    "CircuitBreaker",
    "DegradeDecision",
    "CostTracker",
    "choose_mode",
    "sampled_labels",
    "ServeConfig",
    "Response",
    "TraceResult",
    "ClusteringService",
    "Request",
    "TraceEvent",
    "make_trace",
]
