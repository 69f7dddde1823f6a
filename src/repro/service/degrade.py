"""Graceful degradation: bounded-quality answers instead of timeouts.

When the admission queue passes its high-water mark, or a request's
remaining deadline budget cannot fit a full neighbor-table build, the
service has three honest options, tried in order:

1. **stale** — serve cached results from the dataset's previous epoch
   (an exact answer to a slightly old question), flagged
   ``stale=True``;
2. **sampled** — the paper's sample fraction ``f`` turned into a
   quality knob: build on an evenly spread
   :func:`~repro.kernels.count_kernel.sample_point_ids` subset sized to
   the remaining budget, cluster the subset, and return full-length
   labels with unsampled points marked noise — flagged with the
   fraction used;
3. **reject** — a typed :class:`~repro.service.admission.ServiceError`
   when degradation is disabled (``ServeConfig.degrade=False``).

Every degraded response carries ``degraded=True`` plus the specific
flag (``stale`` / ``sample_fraction``); exact responses never do.  The
full-build cost estimate feeding the decision is a per-dataset EWMA of
observed modeled device milliseconds (:class:`CostTracker`) — it
converges after the first exact build and is deterministic thereafter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.kernels.count_kernel import sample_point_ids

__all__ = [
    "DegradeDecision",
    "CostTracker",
    "choose_mode",
    "sampled_labels",
]

#: sample fraction of an approximate build
SAMPLE_FRACTION = 0.25
#: floor for budget-driven fraction shrinking
MIN_SAMPLE_FRACTION = 0.05
#: safety factor applied to the full-build cost estimate
ESTIMATE_MARGIN = 1.25
#: weight of the newest observation in the per-point cost EWMA
EWMA_ALPHA = 0.5


@dataclass(frozen=True)
class DegradeDecision:
    """Outcome of the admission → cache → execute → degrade policy."""

    #: "exact" | "stale" | "sampled" | "reject"
    mode: str
    reason: str = ""
    sample_fraction: float = 0.0


def choose_mode(
    *,
    degrade: bool,
    budget_ms: Optional[float],
    estimate_ms: Optional[float],
    overloaded: bool,
    stale_available: bool,
) -> DegradeDecision:
    """Pick the serving mode for a cache-missing request.

    ``degrade`` False turns every degraded answer into a rejection;
    ``budget_ms`` is the deadline budget remaining at start (None =
    no deadline); ``estimate_ms`` the margin-adjusted full-build
    estimate (None = no history yet — optimistically try exact);
    ``overloaded`` the admission high-water hint.
    """
    deadline_tight = (
        budget_ms is not None
        and estimate_ms is not None
        and estimate_ms > budget_ms
    )
    if not overloaded and not deadline_tight:
        return DegradeDecision(mode="exact")
    reason = "queue over high-water mark" if overloaded else (
        f"full build estimate {estimate_ms:.2f}ms exceeds deadline "
        f"budget {budget_ms:.2f}ms"
    )
    if not degrade:
        return DegradeDecision(mode="reject", reason=reason)
    if stale_available:
        return DegradeDecision(mode="stale", reason=reason)
    fraction = SAMPLE_FRACTION
    if deadline_tight:
        # linear cost model: shrink f until the estimated cost fits
        assert budget_ms is not None and estimate_ms is not None
        fraction = min(fraction, budget_ms / estimate_ms)
        fraction = max(MIN_SAMPLE_FRACTION, fraction)
    return DegradeDecision(
        mode="sampled", reason=reason, sample_fraction=float(fraction)
    )


class CostTracker:
    """EWMA of exact-build modeled device ms per point, per dataset."""

    def __init__(self) -> None:
        self._per_point_ms: dict[str, float] = {}

    def observe(self, dataset_id: str, n_points: int, device_ms: float) -> None:
        if n_points <= 0:
            return
        per_point = device_ms / n_points
        prev = self._per_point_ms.get(dataset_id)
        self._per_point_ms[dataset_id] = (
            per_point
            if prev is None
            else EWMA_ALPHA * per_point + (1.0 - EWMA_ALPHA) * prev
        )

    def estimate_ms(self, dataset_id: str, n_points: int) -> Optional[float]:
        per_point = self._per_point_ms.get(dataset_id)
        if per_point is None:
            return None
        return per_point * n_points


def sampled_labels(
    points: np.ndarray,
    eps: float,
    minpts: int,
    fraction: float,
    *,
    hybrid: HybridDBSCAN,
) -> tuple[np.ndarray, int]:
    """Approximate clustering on an evenly spread ``fraction`` sample.

    Returns full-length labels — sampled points carry their subset
    clustering, unsampled points are NOISE — plus the sample size.
    Runs on ``hybrid``'s device (a fresh, fault-free one: the degraded
    path is the fallback of last resort and must not itself retry).
    """
    ids = sample_point_ids(len(points), fraction)
    sub = hybrid.fit(points[ids], eps, minpts)
    labels = np.full(len(points), NOISE, dtype=sub.labels.dtype)
    labels[ids] = sub.labels
    return labels, len(ids)
